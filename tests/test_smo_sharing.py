"""Two-layer fits solve each distinct one-vs-rest SMO problem once and
build one Gram matrix, freed when the fit returns, without changing what
they fit."""

import json
import warnings
import weakref

import numpy as np
import pytest

import comulti.classifiers as clf_mod
import comulti.classifiers.smo as smo_mod
import comulti.cmc as cmc_mod
import comulti.cmcm as cmcm_mod
from comulti.classifiers import CombinerSpec, ForestSpec, SmoSpec
from comulti.datagen import gaussian_blobs
from comulti.dataset import (
    BINARY,
    FULL,
    MAJ_CLUSTER,
    MIN_CLUSTER,
    apply_view,
    class_stats,
    make_view,
)

CMC_VIEWS = (BINARY, FULL)
CMCM_VIEWS = (BINARY, MAJ_CLUSTER, MIN_CLUSTER, FULL)


def _specs(max_iter=200_000):
    return [ForestSpec(trees=2), SmoSpec(degree=2, max_iter=max_iter),
            CombinerSpec(left=0, right=1)]


def _single_skew():
    return gaussian_blobs((70, 20, 15, 12), n_features=4, seed=3)


def _multi_skew():
    return gaussian_blobs((45, 40, 12, 10, 8), n_features=4, seed=4)


def _fit(model, ds, specs):
    stats = class_stats(ds)
    if model == "cmc":
        assert len(stats.majority) == 1
        return cmc_mod.fit_cmc(ds, stats, seed=7, specs=specs)
    assert len(stats.majority) == 2
    return cmcm_mod.fit_cmcm(ds, stats, seed=7, specs=specs)


CASES = [("cmc", _single_skew, CMC_VIEWS), ("cmcm", _multi_skew, CMCM_VIEWS)]


def _problems_by_view(ds, kinds) -> list:
    """Per view, in fit order, the +/-1 vectors of its one-vs-rest problems."""
    stats = class_stats(ds)
    out = []
    for kind in kinds:
        view = apply_view(ds, make_view(stats, kind))
        out.append({np.where(view.y == cls, 1.0, -1.0).tobytes()
                    for cls in range(view.n_classes)})
    return out


def _distinct_problems(ds, kinds) -> set:
    return set().union(*_problems_by_view(ds, kinds))


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("model,make,kinds", CASES)
def test_shared_fit_equals_unshared_fit(monkeypatch, model, make, kinds):
    ds = make()
    shared_doc = json.dumps(_fit(model, ds, _specs()).to_dict(),
                            sort_keys=True)
    module = cmc_mod if model == "cmc" else cmcm_mod
    original = module.fit_multistage

    def unshared(specs, thresholds, ds, seed, shared=None):
        return original(specs, thresholds, ds, seed)

    monkeypatch.setattr(module, "fit_multistage", unshared)
    solves = _counting(monkeypatch, smo_mod, "solve_binary")
    alone_doc = json.dumps(_fit(model, ds, _specs()).to_dict(),
                           sort_keys=True)
    assert shared_doc == alone_doc
    # Unshared, every view solves each of its classes.
    stats = class_stats(ds)
    assert len(solves) == sum(len(make_view(stats, k).view_labels)
                              for k in kinds)


@pytest.mark.parametrize("model,make,kinds", CASES)
def test_one_solve_per_distinct_problem(monkeypatch, model, make, kinds):
    ds = make()
    solves = _counting(monkeypatch, smo_mod, "solve_binary")
    fits = _counting(monkeypatch, clf_mod, "fit_smo")
    grams = _counting(monkeypatch, smo_mod, "_Kernel")
    _fit(model, ds, _specs())
    problems = _distinct_problems(ds, kinds)
    solved = [args[1].tobytes() for args in solves]
    assert len(solved) == len(set(solved)) == len(problems)
    assert set(solved) == problems
    assert len(grams) == 1  # one Gram matrix for all the views
    # The shared solves stay below the layers' fit boundary: each view
    # still fits its own SMO stage.
    assert len(fits) == len(kinds)
    assert len({id(args[1]) for args in fits}) == 1  # one training matrix


def _weak_kernels(monkeypatch) -> list:
    """Weak references to every ``_Kernel`` built from now on."""
    built = []
    original = smo_mod._Kernel

    def kernel(*args):
        made = original(*args)
        built.append(weakref.ref(made))
        return made

    monkeypatch.setattr(smo_mod, "_Kernel", kernel)
    return built


def _unshared_doc(monkeypatch, model, ds, specs) -> str:
    """The model document of a fit whose layers share no kernel."""
    module = cmc_mod if model == "cmc" else cmcm_mod
    original = module.fit_multistage

    def unshared(specs, thresholds, ds, seed, shared=None):
        return original(specs, thresholds, ds, seed)

    with monkeypatch.context() as m:
        m.setattr(module, "fit_multistage", unshared)
        return json.dumps(_fit(model, ds, specs).to_dict(), sort_keys=True)


@pytest.mark.parametrize("model,make,kinds", CASES)
def test_fitted_model_holds_no_gram(monkeypatch, model, make, kinds):
    built = _weak_kernels(monkeypatch)
    fitted = _fit(model, make(), _specs())
    assert len(built) == 1
    # Freed when the fit returned, without a garbage collection.
    assert built[0]() is None
    assert fitted.to_dict()["kind"] == model


TWO_SMO_STAGES = {
    # One kernel, on which each problem is solved once per c.
    "two_c": [ForestSpec(trees=2), SmoSpec(c=1.0), SmoSpec(c=0.5),
              CombinerSpec(left=1, right=2)],
    # One kernel per degree.
    "two_degrees": [ForestSpec(trees=2), SmoSpec(degree=1),
                    SmoSpec(degree=2), CombinerSpec(left=1, right=2)],
}


@pytest.mark.parametrize("recipe", sorted(TWO_SMO_STAGES))
@pytest.mark.parametrize("model,make,kinds", CASES)
def test_two_smo_stages_share_one_kernel_per_degree(monkeypatch, model, make,
                                                    kinds, recipe):
    specs = TWO_SMO_STAGES[recipe]
    smo_specs = [s for s in specs if isinstance(s, SmoSpec)]
    ds = make()
    built = _weak_kernels(monkeypatch)
    solved = []  # (degree, c, problem) of each solve; holds no kernel
    solve = smo_mod.solve_binary

    def counting_solve(kernel, y, c, tol, max_iter):
        solved.append((kernel.degree, c, y.tobytes()))
        return solve(kernel, y, c, tol, max_iter)

    monkeypatch.setattr(smo_mod, "solve_binary", counting_solve)
    doc = json.dumps(_fit(model, ds, specs).to_dict(), sort_keys=True)
    assert len(built) == len({s.degree for s in smo_specs})
    assert all(ref() is None for ref in built)  # freed when the fit returned
    problems = _distinct_problems(ds, kinds)
    assert len(solved) == len(set(solved)) == len(smo_specs) * len(problems)
    assert set(solved) == {(s.degree, s.c, p)
                           for s in smo_specs for p in problems}
    assert doc == _unshared_doc(monkeypatch, model, ds, specs)


@pytest.mark.parametrize("model,make,kinds", CASES)
def test_capped_shared_problem_warns_once(model, make, kinds):
    ds = make()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _fit(model, ds, _specs(max_iter=2))
    capped = [w for w in caught if "iteration cap" in str(w.message)]
    problems = _distinct_problems(ds, kinds)
    stats = class_stats(ds)
    posed = sum(len(make_view(stats, k).view_labels) for k in kinds)
    assert posed > len(problems)  # some problem recurs across views
    assert len(capped) == len(problems)
