import numpy as np
import pytest

from comulti.cmcm import (
    BRANCH_FALLBACK,
    BRANCH_MAJORITY,
    BRANCH_MINORITY,
    CmcmModel,
    fit_cmcm,
)
from comulti.dataset import (
    BINARY,
    FULL,
    MAJ_CLUSTER,
    MIN_CLUSTER,
    class_stats,
    make_view,
)
from comulti.errors import DataError
from comulti.multistage import MultistageModel, StageThresholds

from conftest import NOT_ONE_ROW, LookupStub, make_dataset

# Five classes: two majority (ids 0, 1), three minority (ids 2, 3, 4).
COUNTS = (9, 8, 2, 2, 1)


def multi_skew_stats():
    y = np.concatenate([np.full(c, i) for i, c in enumerate(COUNTS)])
    ds = make_dataset(np.zeros((y.size, 1)), y,
                      labels=("maj_a", "maj_b", "min_a", "min_b", "min_c"))
    return class_stats(ds)


def stub_cmcm(b_dists, m1_dists, m2_dists, m3_dists):
    stats = multi_skew_stats()
    views = {kind: make_view(stats, kind)
             for kind in (BINARY, MAJ_CLUSTER, MIN_CLUSTER, FULL)}
    stubs = {
        "b": LookupStub(views[BINARY].view_labels, b_dists),
        "m1": LookupStub(views[MAJ_CLUSTER].view_labels, m1_dists),
        "m2": LookupStub(views[MIN_CLUSTER].view_labels, m2_dists),
        "m3": LookupStub(views[FULL].view_labels, m3_dists),
    }
    model = CmcmModel([
        MultistageModel([stubs["b"]], StageThresholds.ones(1)),
        MultistageModel([stubs["m1"]], StageThresholds.ones(1)),
        MultistageModel([stubs["m2"]], StageThresholds.ones(1)),
        MultistageModel([stubs["m3"]], StageThresholds.ones(1)),
    ], stats)
    return model, stubs


def row(i=0):
    return np.array([float(i)])


# m1 space: (cluster, min_a, min_b, min_c); m2 space: (cluster, maj_a, maj_b)


def test_disagreement_routes_to_fallback():
    # gate favors majority but the cluster comparison disagrees
    model, stubs = stub_cmcm(
        b_dists=[[0.9, 0.1]],
        m1_dists=[[0.3, 0.5, 0.1, 0.1]],   # cluster mass 0.3
        m2_dists=[[0.6, 0.3, 0.1]],        # cluster mass 0.6 > 0.3
        m3_dists=[[0.1, 0.2, 0.4, 0.2, 0.1]],
    )
    label, info = model.predict(row())
    assert info.branch == BRANCH_FALLBACK
    assert label == 2  # argmax of the full-space distribution
    assert stubs["m3"].calls == 1


def test_minority_consensus_uses_m2():
    model, _ = stub_cmcm(
        b_dists=[[0.2, 0.8]],
        m1_dists=[[0.3, 0.4, 0.2, 0.1]],
        m2_dists=[[0.7, 0.2, 0.1]],        # 0.3 < 0.7
        m3_dists=[[0.2] * 5],
    )
    label, info = model.predict(row())
    assert info.branch == BRANCH_MINORITY
    # m2's argmax is its cluster slot -> resolved inside m1's minority slots
    assert info.pseudo_resolved
    assert label == 2  # m1 slots 1.. are (min_a, min_b, min_c); 0.4 wins


def test_minority_consensus_direct_majority_pick():
    model, _ = stub_cmcm(
        b_dists=[[0.1, 0.9]],
        m1_dists=[[0.2, 0.3, 0.3, 0.2]],
        m2_dists=[[0.3, 0.2, 0.5]],        # argmax slot 2 -> maj_b
        m3_dists=[[0.2] * 5],
    )
    label, info = model.predict(row())
    assert info.branch == BRANCH_MINORITY
    assert not info.pseudo_resolved
    assert label == 1


def test_majority_consensus_with_pseudo_resolution():
    model, stubs = stub_cmcm(
        b_dists=[[0.8, 0.2]],
        m1_dists=[[0.7, 0.1, 0.1, 0.1]],   # argmax = cluster slot
        m2_dists=[[0.2, 0.3, 0.5]],        # restricted to majority slots
        m3_dists=[[0.2] * 5],
    )
    label, info = model.predict(row())
    assert info.branch == BRANCH_MAJORITY
    assert info.pseudo_resolved
    assert label == 1  # maj_b: m2's majority slots are (0.3, 0.5)
    assert stubs["m3"].calls == 0  # fallback evaluated lazily


def test_majority_consensus_direct_minority_pick():
    model, _ = stub_cmcm(
        b_dists=[[0.8, 0.2]],
        m1_dists=[[0.35, 0.1, 0.5, 0.05]],  # argmax = min_b directly
        m2_dists=[[0.3, 0.4, 0.3]],
        m3_dists=[[0.2] * 5],
    )
    label, info = model.predict(row())
    assert info.branch == BRANCH_MAJORITY
    assert not info.pseudo_resolved
    assert label == 3


@pytest.mark.parametrize("b,m1c,m2c", [
    ([0.5, 0.5], 0.7, 0.2),   # gate tie
    ([0.8, 0.2], 0.4, 0.4),   # cluster comparison tie
    ([0.5, 0.5], 0.4, 0.4),   # both tied
])
def test_strict_inequality_ties_route_to_fallback(b, m1c, m2c):
    rest1 = (1.0 - m1c) / 3
    rest2 = (1.0 - m2c) / 2
    model, _ = stub_cmcm(
        b_dists=[b],
        m1_dists=[[m1c, rest1, rest1, rest1]],
        m2_dists=[[m2c, rest2, rest2]],
        m3_dists=[[0.1, 0.15, 0.3, 0.25, 0.2]],
    )
    label, info = model.predict(row())
    assert info.branch == BRANCH_FALLBACK
    assert label == 2


def _dispatch_oracle(db, d1, d2, d3, majority, minority):
    """Independent restatement of the quorum dispatch + resolution rule."""
    if db[0] > db[1] and d1[0] > d2[0]:
        top = int(np.argmax(d1))
        if top == 0:
            return majority[int(np.argmax(d2[1:]))], "m1"
        return minority[top - 1], "m1"
    if db[0] < db[1] and d1[0] < d2[0]:
        top = int(np.argmax(d2))
        if top == 0:
            return minority[int(np.argmax(d1[1:]))], "m2"
        return majority[top - 1], "m2"
    return int(np.argmax(d3)), "m3"


def test_random_stub_dispatch_matches_oracle_and_never_emits_clusters():
    rng = np.random.default_rng(99)
    n = 10_000
    b = rng.dirichlet(np.ones(2), size=n)
    d1 = rng.dirichlet(np.ones(4), size=n)
    d2 = rng.dirichlet(np.ones(3), size=n)
    d3 = rng.dirichlet(np.ones(5), size=n)
    model, _ = stub_cmcm(b, d1, d2, d3)
    labels, info = model.predict_batch(np.arange(n, dtype=float)[:, None])
    stats = model.stats
    branch_tally = {"m1": 0, "m2": 0, "m3": 0}
    for i in range(n):
        expect, branch = _dispatch_oracle(b[i], d1[i], d2[i], d3[i],
                                          stats.majority, stats.minority)
        assert labels[i] == expect
        branch_tally[branch] += 1
    assert 0 <= labels.min() and labels.max() < 5  # always an original label
    assert info["branch_counts"] == {
        BRANCH_MAJORITY: branch_tally["m1"],
        BRANCH_MINORITY: branch_tally["m2"],
        BRANCH_FALLBACK: branch_tally["m3"],
    }
    # all three quorum branches are reachable
    assert all(v > 0 for v in branch_tally.values())


def test_fit_cmcm_view_sizes_and_prediction():
    rng = np.random.default_rng(1)
    sizes = (20, 18, 4, 4, 3)
    parts, ys = [], []
    for c, s in enumerate(sizes):
        parts.append(rng.normal(size=(s, 3)) + 4.0 * c)
        ys.append(np.full(s, c))
    ds = make_dataset(np.vstack(parts), np.concatenate(ys))
    stats = class_stats(ds)
    assert stats.majority == (0, 1)
    model = fit_cmcm(ds, stats, seed=0)
    assert len(model.m1.space) == 1 + 3
    assert len(model.m2.space) == 1 + 2
    assert len(model.m3.space) == 5
    labels, info = model.predict_batch(ds.x)
    assert (labels == ds.y).mean() > 0.85
    assert sum(info["branch_counts"].values()) == ds.n_instances


def test_fit_cmcm_single_majority_is_valid():
    rng = np.random.default_rng(2)
    x = np.vstack([rng.normal(size=(20, 2)),
                   rng.normal(size=(4, 2)) + 5,
                   rng.normal(size=(4, 2)) - 5])
    ds = make_dataset(x, [0] * 20 + [1] * 4 + [2] * 4)
    stats = class_stats(ds)
    assert len(stats.majority) == 1
    model = fit_cmcm(ds, stats, seed=0)
    labels, _ = model.predict_batch(ds.x)
    assert set(labels.tolist()) <= {0, 1, 2}


def test_fit_cmcm_rejects_degenerate_stats():
    ds = make_dataset(np.zeros((9, 1)), [0, 1, 2] * 3)
    with pytest.raises(DataError):
        fit_cmcm(ds, class_stats(ds), seed=0)  # all-minority


def test_predict_rejects_several_rows():
    model, _ = stub_cmcm([[0.9, 0.1]] * 2, [[0.6, 0.2, 0.1, 0.1]] * 2,
                         [[0.1, 0.6, 0.3]] * 2, [[0.2] * 5] * 2)
    for x in NOT_ONE_ROW:
        with pytest.raises(DataError, match="single feature vector"):
            model.predict(x)


def test_predict_cmcm_functional_alias():
    model, _ = stub_cmcm([[0.9, 0.1]], [[0.6, 0.2, 0.1, 0.1]],
                         [[0.1, 0.6, 0.3]], [[0.2] * 5])
    label, info = model.predict(row())
    assert info.branch == BRANCH_MAJORITY
    assert label == 0
