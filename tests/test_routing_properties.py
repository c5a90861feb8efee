"""Property tests: single-row routing agrees with batch routing.

Stub stages look their distributions up in random tables.  The tables are
built from small integer weights, so exact gate ties and equal cluster
masses (both broken by the strict comparisons) come up often, and a tie
flag forces them outright.
"""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from comulti.cmc import CmcModel
from comulti.cmcm import CmcmModel
from comulti.dataset import (
    BINARY,
    FULL,
    MAJ_CLUSTER,
    MIN_CLUSTER,
    class_stats,
    make_view,
)
from comulti.multistage import MultistageModel, StageThresholds

from conftest import LookupStub, make_dataset

SETTINGS = settings(max_examples=40, deadline=None)


def weights(k):
    return st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any)


def normalized(w):
    w = np.asarray(w, dtype=np.float64)
    return w / w.sum()


@st.composite
def layer(draw, n, space, first_slots=None):
    """A multistage layer of 1-2 stub stages over ``space`` and ``n`` rows.
    ``first_slots`` (weights per row) replaces the first stage's table, so
    a caller can plant ties against another layer."""
    n_stages = draw(st.integers(1, 2))
    tables = [[draw(weights(len(space))) for _ in range(n)]
              for _ in range(n_stages)]
    if first_slots is not None:
        tables[0] = first_slots
    thresholds = tuple(draw(st.sampled_from((0.5, 0.75, 1.0)))
                       for _ in range(n_stages))
    stubs = [LookupStub(space, [normalized(w) for w in t]) for t in tables]
    return MultistageModel(stubs, StageThresholds(thresholds))


def gate_rows(draw, n):
    return [[1, 1] if draw(st.booleans()) else draw(weights(2))
            for _ in range(n)]


@st.composite
def cmc_models(draw):
    n = draw(st.integers(1, 6))
    ds = make_dataset(np.zeros((10, 1)), [0] * 6 + [1] * 2 + [2] * 2,
                      labels=("big", "s1", "s2"))
    stats = class_stats(ds)
    bin_view = make_view(stats, BINARY)
    binary = draw(layer(n, bin_view.view_labels, gate_rows(draw, n)))
    multi = draw(layer(n, stats.labels))
    return CmcModel([binary, multi], stats), n


@st.composite
def cmcm_models(draw):
    n = draw(st.integers(1, 6))
    counts = (9, 8, 2, 2, 1)  # majority 0, 1; minority 2, 3, 4
    y = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    stats = class_stats(make_dataset(np.zeros((y.size, 1)), y))
    views = {kind: make_view(stats, kind)
             for kind in (BINARY, MAJ_CLUSTER, MIN_CLUSTER, FULL)}
    m1_rows = [draw(weights(4)) for _ in range(n)]
    # Equal cluster mass: w0 / sum(w) is the same rational in both rows,
    # and IEEE division rounds equal rationals to the same float.
    m2_rows = [[w[0], sum(w) - w[0], 0] if draw(st.booleans())
               else draw(weights(3)) for w in m1_rows]
    b = draw(layer(n, views[BINARY].view_labels, gate_rows(draw, n)))
    m1 = draw(layer(n, views[MAJ_CLUSTER].view_labels, m1_rows))
    m2 = draw(layer(n, views[MIN_CLUSTER].view_labels, m2_rows))
    m3 = draw(layer(n, stats.labels))
    return CmcmModel([b, m1, m2, m3], stats), n


def rows(n):
    return np.arange(n, dtype=np.float64)[:, None]


def one_hot_stage(n_stages, stage):
    hist = [0] * n_stages
    hist[stage - 1] = 1
    return hist


@SETTINGS
@given(cmc_models())
def test_cmc_single_row_matches_batch(case):
    model, n = case
    x = rows(n)
    labels, info = model.predict_batch(x)
    gate, _ = model.binary.predict_batch(x)
    layers = {"binary": 0, "multi": 0}
    hists = {"binary": [0] * model.binary.n_stages,
             "multi": [0] * model.multi.n_stages}
    for i in range(n):
        label, exp = model.predict(x[i])
        assert model.predict(x[i].tolist()) == (label, exp)
        one, one_info = model.predict_batch(x[i:i + 1])
        assert label == labels[i] == one[0]
        assert 0 <= label < 3
        assert one_info["layer_counts"][exp.layer] == 1
        deciding = model.binary if exp.layer == "binary" else model.multi
        assert one_info[f"{exp.layer}_stage_histogram"] == one_hot_stage(
            deciding.n_stages, exp.stage_used)
        assert (exp.p_majority, exp.p_minority) == (gate[i, 0], gate[i, 1])
        layers[exp.layer] += 1
        hists[exp.layer] = [a + b for a, b in zip(
            hists[exp.layer], one_hot_stage(deciding.n_stages,
                                            exp.stage_used))]
    # every row is routed exactly once
    assert info["layer_counts"] == layers
    assert info["multi_stage_histogram"] == hists["multi"]
    assert sum(info["binary_stage_histogram"]) == n


@SETTINGS
@given(cmcm_models())
def test_cmcm_single_row_matches_batch(case):
    model, n = case
    x = rows(n)
    labels, info = model.predict_batch(x)
    db, _ = model.b.predict_batch(x)
    d1, _ = model.m1.predict_batch(x)
    d2, _ = model.m2.predict_batch(x)
    branches = dict.fromkeys(info["branch_counts"], 0)
    pseudo = 0
    for i in range(n):
        label, exp = model.predict(x[i])
        assert model.predict(x[i].tolist()) == (label, exp)
        one, one_info = model.predict_batch(x[i:i + 1])
        assert label == labels[i] == one[0]
        assert 0 <= label < 5  # an original class, never a cluster
        assert one_info["branch_counts"][exp.branch] == 1
        assert one_info["pseudo_label_resolutions"] == int(exp.pseudo_resolved)
        deciding = {"majority_consensus": "m1", "minority_consensus": "m2",
                    "quorum_disagreement": "m3"}[exp.branch]
        assert one_info[f"{deciding}_stage_histogram"] == one_hot_stage(
            getattr(model, deciding).n_stages, exp.stage_used)
        assert (exp.p_binary_majority, exp.p_binary_minority,
                exp.p_m1_cluster, exp.p_m2_cluster) == (
            db[i, 0], db[i, 1], d1[i, 0], d2[i, 0])
        branches[exp.branch] += 1
        pseudo += exp.pseudo_resolved
    # every row is routed exactly once
    assert info["branch_counts"] == branches
    assert info["pseudo_label_resolutions"] == pseudo
    assert sum(info["m3_stage_histogram"]) == branches["quorum_disagreement"]


@SETTINGS
@given(st.one_of(cmc_models(), cmcm_models()))
def test_route_rows_match_single_row_route(case):
    model, n = case
    x = rows(n)
    batch = model.route(x)
    labels, _ = model.predict_batch(x)
    assert np.array_equal(batch.labels, labels)
    for i in range(n):
        one = model.route(x[i:i + 1])
        for f in fields(batch):
            got, want = getattr(batch, f.name), getattr(one, f.name)
            if isinstance(got, dict):  # per-layer stages
                assert {k: v[i] for k, v in got.items()} == \
                    {k: v[0] for k, v in want.items()}
            else:
                assert got[i] == want[0], f.name
