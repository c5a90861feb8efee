import numpy as np
import pytest
import scipy.sparse as sp

from comulti.classifiers import CombinerSpec, ForestSpec, SmoSpec
from comulti.errors import ConfigError, DataError
from comulti.multistage import (
    MultistageModel,
    StageThresholds,
    fit_multistage,
    single_row,
)

from conftest import NOT_ONE_ROW, LookupStub, make_dataset


def stub_stage(dists, space=("a", "b")):
    return LookupStub(space, dists)


def model_of(stage_tables, thresholds, space=("a", "b")):
    stages = [stub_stage(t, space) for t in stage_tables]
    return MultistageModel(stages, StageThresholds(tuple(thresholds)))


def x_rows(n):
    return np.arange(n, dtype=float)[:, None]


# ---------------------------------------------------------------------------
# Threshold semantics


def test_stage_one_meets_threshold():
    m = model_of([[[0.95, 0.05]], [[0.5, 0.5]]], [0.9, 1.0])
    dists, used = m.predict_batch(x_rows(1))
    assert used.tolist() == [1]
    assert dists.tolist() == [[0.95, 0.05]]


def test_trace_oracle_falls_through_to_terminal():
    # thresholds [1.0, 1.0]; stage 1 gives 0.8 < 1.0, stage 2 is terminal.
    m = model_of([[[0.8, 0.2]], [[0.6, 0.4]]], [1.0, 1.0])
    dists, used = m.predict_batch(x_rows(1))
    assert used.tolist() == [2]
    assert dists.tolist() == [[0.6, 0.4]]


def test_threshold_comparison_is_greater_equal():
    m = model_of([[[0.8, 0.2]], [[0.6, 0.4]]], [0.8, 1.0])
    assert m.predict_batch(x_rows(1))[1].tolist() == [1]


def test_low_thresholds_are_identity_with_stage_one():
    rng = np.random.default_rng(0)
    k = 4
    n = 100
    tables = [rng.dirichlet(np.ones(k), size=n) for _ in range(3)]
    space = tuple("abcd")
    # any distribution's max is >= 1/k, so stage 1 always fires
    m = model_of(tables, [1.0 / k, 1.0, 1.0], space)
    dists, used = m.predict_batch(x_rows(n))
    assert (used == 1).all()
    assert np.array_equal(dists, tables[0])


def test_terminal_stage_rule_with_all_ones():
    rng = np.random.default_rng(1)
    n = 50
    # no stage ever reaches confidence 1.0
    tables = [0.5 + 0.4 * rng.dirichlet(np.ones(2), size=n) for _ in range(3)]
    tables = [t / t.sum(axis=1, keepdims=True) for t in tables]
    m = model_of(tables, [1.0, 1.0, 1.0])
    dists, used = m.predict_batch(x_rows(n))
    assert (used == 3).all()
    assert np.allclose(dists, tables[2])


def test_stage_used_monotone_under_threshold_lowering():
    rng = np.random.default_rng(2)
    n = 200
    tables = [rng.dirichlet(np.ones(3), size=n) for _ in range(3)]
    space = ("a", "b", "c")
    grids = [(1.0, 1.0, 1.0), (0.9, 0.95, 1.0), (0.7, 0.8, 1.0),
             (0.4, 0.5, 1.0), (1 / 3, 1 / 3, 1.0)]
    prev = None
    for thresholds in grids:
        _, used = model_of(tables, thresholds, space).predict_batch(x_rows(n))
        if prev is not None:
            assert (used <= prev).all()
        prev = used


def test_prediction_invariant_chain_replays():
    rng = np.random.default_rng(3)
    n = 300
    thresholds = (0.9, 0.8, 1.0)
    tables = [rng.dirichlet(np.ones(3), size=n) for _ in range(3)]
    space = ("a", "b", "c")
    m = model_of(tables, thresholds, space)
    dists, used = m.predict_batch(x_rows(n))
    for i in range(n):
        s = used[i]
        for earlier in range(s - 1):
            assert tables[earlier][i].max() < thresholds[earlier]
        if s < 3:
            assert dists[i].max() >= thresholds[s - 1]
        assert np.array_equal(dists[i], tables[s - 1][i])


def test_returned_distribution_is_never_a_blend():
    rng = np.random.default_rng(4)
    n = 120
    tables = [rng.dirichlet(np.ones(4), size=n) for _ in range(2)]
    m = model_of(tables, [0.6, 1.0], tuple("abcd"))
    dists, used = m.predict_batch(x_rows(n))
    for i in range(n):
        assert any(np.array_equal(dists[i], t[i]) for t in tables)


# ---------------------------------------------------------------------------
# Construction and fitting


def test_no_stage_runs_after_every_row_is_settled():
    m = model_of([[[0.95, 0.05]] * 3, [[0.5, 0.5]] * 3], [0.9, 1.0])
    dists, used = m.predict_batch(x_rows(3))
    assert used.tolist() == [1, 1, 1]
    assert dists.tolist() == [[0.95, 0.05]] * 3
    assert [s.calls for s in m.stages] == [1, 0]
    dists, used = m.predict_batch(x_rows(0))  # an empty batch runs none
    assert dists.shape == (0, 2) and used.shape == (0,)
    assert [s.calls for s in m.stages] == [1, 0]


def test_single_row_takes_one_vector_of_any_kind():
    want = np.array([[0.0, 1.5, 0.0, 2.0]])
    for x in (want[0], want[0].tolist(), want, sp.coo_array(want[0]),
              sp.csr_array(want[0]), sp.csr_matrix(want)):
        got = single_row(x)
        assert got.shape == (1, 4)
        assert (got.toarray() if sp.issparse(got) else got).tolist() \
            == want.tolist()
    for x in NOT_ONE_ROW + [sp.csr_matrix(np.ones((2, 4)))]:
        with pytest.raises(DataError, match="single feature vector"):
            single_row(x)


def test_threshold_validation():
    with pytest.raises(ConfigError):
        StageThresholds(())
    with pytest.raises(ConfigError):
        StageThresholds((0.0,))
    with pytest.raises(ConfigError):
        StageThresholds((1.1,))
    assert len(StageThresholds.ones(3)) == 3


def test_mismatched_spec_and_threshold_lengths():
    ds = make_dataset(np.arange(8)[:, None], [0, 1] * 4)
    with pytest.raises(ConfigError, match="thresholds"):
        fit_multistage([ForestSpec(trees=3), SmoSpec()],
                       StageThresholds.ones(3), ds, seed=0)
    with pytest.raises(ConfigError, match="at least one"):
        fit_multistage([], StageThresholds.ones(1), ds, seed=0)


def test_single_stage_is_terminal(separable_clusters):
    ds = separable_clusters()
    m = fit_multistage([ForestSpec(trees=9)], StageThresholds.ones(1), ds,
                       seed=0)
    dists, used = m.predict_batch(ds.x)
    assert (used == 1).all()


def test_combiner_requires_earlier_stages():
    ds = make_dataset(np.arange(8)[:, None], [0, 1] * 4)
    with pytest.raises(ConfigError, match="earlier"):
        fit_multistage([CombinerSpec(left=0, right=1), ForestSpec(trees=3)],
                       StageThresholds.ones(2), ds, seed=0)


def test_hand_built_combiner_requires_earlier_stages():
    stub = LookupStub(("a", "b"), [[1.0, 0.0]])
    with pytest.raises(ConfigError, match="combiner at stage 3 must reference "
                       "earlier stages, got 0 and 5"):
        MultistageModel([stub, stub, CombinerSpec(0, 5)],
                        StageThresholds.ones(3))


def test_default_recipe_combiner_reuses_stages(separable_clusters):
    ds = separable_clusters(n_per_side=15, gap=3.0)
    m = fit_multistage(
        [ForestSpec(trees=20), SmoSpec(), CombinerSpec(left=0, right=1)],
        StageThresholds.ones(3), ds, seed=4)
    assert m.stages[2] == CombinerSpec(0, 1)
    dists, used = m.predict_batch(ds.x)
    p0 = m.stages[0].predict_proba_batch(ds.x)
    p1 = m.stages[1].predict_proba_batch(ds.x)
    for i in np.nonzero(used == 3)[0]:
        expect = p0[i] if p0[i].max() >= p1[i].max() else p1[i]
        assert np.array_equal(dists[i], expect)


def test_fit_multistage_deterministic(separable_clusters):
    ds = separable_clusters(n_per_side=12)
    a = fit_multistage([ForestSpec(trees=7), SmoSpec()],
                       StageThresholds.ones(2), ds, seed=11)
    b = fit_multistage([ForestSpec(trees=7), SmoSpec()],
                       StageThresholds.ones(2), ds, seed=11)
    xs = np.random.default_rng(0).normal(size=(30, 2)) * 4
    da, _ = a.predict_batch(xs)
    db, _ = b.predict_batch(xs)
    assert np.array_equal(da, db)


def test_predict_multistage_functional_alias():
    m = model_of([[[0.9, 0.1]]], [0.5])
    assert m.predict_batch(x_rows(1))[1].tolist() == [1]



@pytest.mark.parametrize("stages,message", [
    ([], "a multistage model needs at least one stage"),
    ([stub_stage([[1.0, 0.0]]), stub_stage([[1.0, 0.0]], ("a", "c"))],
     "all stages must share one label space"),
], ids=["no-stage", "two-spaces"])
def test_multistage_model_refusals(stages, message):
    with pytest.raises(ConfigError, match=message):
        MultistageModel(stages, StageThresholds.ones(len(stages) or 1))
