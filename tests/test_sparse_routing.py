"""A fitted cmcm on sparse rows: single-row predict against batch routing.

A small ``sparse_topics`` set is fitted once with the default recipe
(forest, SMO, combiner) at 3 trees, on every other row, so that the rows
left out reach every branch of the quorum.  Its rows are routed as one CSR
batch and predicted one at a time, by the fitted model and by the same
model reloaded from its document, and a batch or a row in another sparse
format routes as its CSR form does.  The SMO kernel reads these rows'
CSR arrays in C.
"""

import json
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp

from comulti.classifiers import ForestSpec, default_stage_specs
from comulti.cmcm import BRANCHES, CmcmModel, fit_cmcm
from comulti.datagen import sparse_topics
from comulti.dataset import class_stats


@pytest.fixture(scope="module")
def fitted():
    ds = sparse_topics(class_sizes=(60, 48, 40, 22, 16, 13, 11, 9, 7, 5),
                       n_features=500, n_common=200, signature_size=20,
                       n_shadow=2, seed=0)
    train = ds.take(np.arange(1, ds.n_instances, 2))
    model = fit_cmcm(train, class_stats(train), seed=1,
                     specs=default_stage_specs(ForestSpec(trees=3)))
    assert sp.issparse(ds.x) and ds.x.format == "csr"
    return model, ds.x


def _reloaded(model):
    return CmcmModel.from_dict(json.loads(json.dumps(model.to_dict())))


def _assert_same_routing(got, want):
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, dict):  # per-layer stages
            assert a.keys() == b.keys()
            a, b = [a[k] for k in b], [b[k] for k in b]
        else:
            a, b = [a], [b]
        for u, v in zip(a, b):
            assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), f.name


def test_routes_reach_every_branch_and_stage(fitted):
    model, x = fitted
    r = model.route(x)
    assert set(r.branch.tolist()) == {0, 1, 2}
    assert r.pseudo_resolved.any()
    assert set(r.layer_stages["m3"].tolist()) == {0, 1, 3}


@pytest.mark.parametrize("reload", [False, True], ids=["fitted", "reloaded"])
def test_single_row_predict_matches_batch_route(fitted, reload):
    model, x = fitted
    want = model.route(x)
    if reload:
        model = _reloaded(model)
        _assert_same_routing(model.route(x), want)
    labels, info = model.predict_batch(x)
    assert labels.tobytes() == want.labels.tobytes()
    assert info["branch_counts"] == dict(zip(
        BRANCHES, np.bincount(want.branch, minlength=3).tolist()))
    for i in range(x.shape[0]):
        label, exp = model.predict(x[i])
        assert (label, exp.branch, exp.stage_used, exp.pseudo_resolved) == (
            want.labels[i], BRANCHES[want.branch[i]], want.stage_used[i],
            want.pseudo_resolved[i])
        # An SMO stage sums one row's kernel product as a dot product and a
        # batch's as a matrix-vector product, so the probabilities may
        # differ in the last bits.
        assert [exp.p_binary_majority, exp.p_binary_minority,
                exp.p_m1_cluster, exp.p_m2_cluster] == pytest.approx(
            [want.p_binary_majority[i], want.p_binary_minority[i],
             want.p_m1_cluster[i], want.p_m2_cluster[i]], rel=1e-12,
            abs=1e-15)


@pytest.mark.parametrize("fmt", ["coo", "csc", "csr"])
@pytest.mark.parametrize("kind", [sp.csr_matrix, sp.csr_array])
def test_sparse_formats_route_alike(fitted, fmt, kind):
    model, x = fitted
    want = model.route(x)
    batch = kind(x).asformat(fmt)
    _assert_same_routing(model.route(batch), want)
    labels, info = model.predict_batch(batch)
    assert labels.tobytes() == want.labels.tobytes()
    assert info == model.predict_batch(x)[1]
    # A layer takes a batch in as the model does: the rows its first
    # stage leaves open are taken from the CSR form.
    for name, _ in model.LAYERS:
        layer = getattr(model, name)
        got, want_layer = layer.predict_batch(batch), layer.predict_batch(x)
        assert got[0].tobytes() == want_layer[0].tobytes()
        assert got[1].tobytes() == want_layer[1].tobytes()


def test_single_row_predict_checks_its_row_once(fitted, csr_checks):
    # Here the SMO stages multiply the row in C, by support vectors that
    # the model transposed and checked once, when it was built.
    model, x = fitted
    per_row = []
    for i in range(x.shape[0]):
        csr_checks.clear()
        model.predict(x[i])
        per_row.append(len(csr_checks))
    assert per_row == [1] * x.shape[0]


def test_one_dimensional_sparse_vector_is_one_row(fitted):
    model, x = fitted
    for i in range(0, x.shape[0], 23):
        vector = x[i].toarray().ravel()
        for one in (sp.coo_array(vector), sp.csr_array(vector)):
            assert one.shape == (x.shape[1],)
            assert model.predict(one) == model.predict(x[i])
