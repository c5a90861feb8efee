import numpy as np
import pytest

from comulti.cmc import CmcModel, fit_cmc
from comulti.dataset import BINARY, class_stats, make_view
from comulti.errors import ConfigError, DataError
from comulti.multistage import MultistageModel, StageThresholds

from conftest import NOT_ONE_ROW, LookupStub, make_dataset


def single_skew_stats():
    ds = make_dataset(np.zeros((10, 1)), [0] * 6 + [1] * 2 + [2] * 2,
                      labels=("big", "s1", "s2"))
    return class_stats(ds)


def stub_cmc(binary_dists, multi_dists):
    stats = single_skew_stats()
    bin_view = make_view(stats, BINARY)
    b_stub = LookupStub(bin_view.view_labels, binary_dists)
    m_stub = LookupStub(stats.labels, multi_dists)
    binary = MultistageModel([b_stub], StageThresholds.ones(1))
    multi = MultistageModel([m_stub], StageThresholds.ones(1))
    return CmcModel([binary, multi], stats), b_stub, m_stub


def multi_skew_stats():
    ds = make_dataset(np.zeros((12, 1)), [0] * 5 + [1] * 5 + [2] * 2,
                      labels=("big", "s1", "s2"))
    return class_stats(ds)


def row(i):
    return np.array([float(i)])


def test_majority_gate_short_circuits():
    model, _, m_stub = stub_cmc([[0.8, 0.2]], [[0.1, 0.7, 0.2]])
    label, info = model.predict(row(0))
    assert label == 0  # the unique majority class
    assert info.layer == "binary"
    assert m_stub.calls == 0  # multiclass layer provably not invoked


def test_minority_gate_delegates_to_full_layer():
    model, _, _ = stub_cmc([[0.2, 0.8]], [[0.1, 0.7, 0.2]])
    label, info = model.predict(row(0))
    assert label == 1
    assert info.layer == "multi"


def test_exact_tie_falls_to_multiclass_layer():
    model, _, m_stub = stub_cmc([[0.5, 0.5]], [[0.6, 0.3, 0.1]])
    label, info = model.predict(row(0))
    assert info.layer == "multi"  # strict > required for the gate
    assert m_stub.calls == 1
    assert label == 0


def test_multi_argmax_tie_breaks_to_lowest_id():
    model, _, _ = stub_cmc([[0.1, 0.9]], [[0.4, 0.4, 0.2]])
    label, _ = model.predict(row(0))
    assert label == 0


def test_batch_routing_counts_and_validity():
    binary = [[0.8, 0.2], [0.2, 0.8], [0.5, 0.5], [0.9, 0.1]]
    multi = [[0.1, 0.7, 0.2]] * 4
    model, b_stub, m_stub = stub_cmc(binary, multi)
    labels, info = model.predict_batch(np.arange(4, dtype=float)[:, None])
    assert labels.tolist() == [0, 1, 1, 0]
    assert info["layer_counts"] == {"binary": 2, "multi": 2}
    assert all(0 <= v < 3 for v in labels)


def test_predict_rejects_several_rows():
    model, _, _ = stub_cmc([[0.9, 0.1]] * 2, [[1.0, 0.0, 0.0]] * 2)
    for x in NOT_ONE_ROW:
        with pytest.raises(DataError, match="single feature vector"):
            model.predict(x)


def test_predict_cmc_functional_alias():
    model, _, _ = stub_cmc([[0.9, 0.1]], [[1.0, 0.0, 0.0]])
    label, info = model.predict(row(0))
    assert label == 0


def test_fit_cmc_rejects_multi_skew_stats():
    ds = make_dataset(np.zeros((12, 1)), [0] * 5 + [1] * 5 + [2] * 2)
    stats = class_stats(ds)  # two majority classes
    assert len(stats.majority) == 2
    with pytest.raises(DataError, match="multi-skew"):
        fit_cmc(ds, stats, seed=0)


def test_fit_cmc_rejects_balanced_stats():
    ds = make_dataset(np.zeros((9, 1)), [0, 1, 2] * 3)
    with pytest.raises(DataError):
        fit_cmc(ds, class_stats(ds), seed=0)


def test_fit_cmc_rejects_thresholds_for_a_layer_it_lacks():
    ds = make_dataset(np.zeros((10, 1)), [0] * 6 + [1] * 2 + [2] * 2)
    with pytest.raises(ConfigError, match="no layer 'm1'"):
        fit_cmc(ds, class_stats(ds), {"multi": StageThresholds.ones(3),
                                      "m1": StageThresholds.ones(3)})


def test_two_layer_model_checks_each_layer_against_its_view():
    model, _, _ = stub_cmc([[0.8, 0.2]], [[0.1, 0.7, 0.2]])
    with pytest.raises(DataError, match="layer multi must cover the full"):
        CmcModel([model.binary, model.binary], model.stats)
    with pytest.raises(DataError, match="multi-skew"):
        CmcModel([model.binary, model.multi], multi_skew_stats())


def test_fit_cmc_end_to_end(separable_clusters):
    rng = np.random.default_rng(0)
    x = np.vstack([rng.normal(size=(30, 2)),
                   rng.normal(size=(6, 2)) + 6.0,
                   rng.normal(size=(6, 2)) - 6.0])
    ds = make_dataset(x, [0] * 30 + [1] * 6 + [2] * 6)
    stats = class_stats(ds)
    model = fit_cmc(ds, stats, seed=1)
    labels, info = model.predict_batch(ds.x)
    assert (labels == ds.y).mean() > 0.9
    assert info["layer_counts"]["binary"] + info["layer_counts"]["multi"] == 42
    assert len(info["binary_stage_histogram"]) == 3
    # deterministic given the trained model
    again, _ = model.predict_batch(ds.x)
    assert np.array_equal(labels, again)


def test_fit_cmc_deterministic_per_seed():
    rng = np.random.default_rng(3)
    x = np.vstack([rng.normal(size=(24, 2)),
                   rng.normal(size=(5, 2)) + 4.0,
                   rng.normal(size=(5, 2)) - 4.0])
    ds = make_dataset(x, [0] * 24 + [1] * 5 + [2] * 5)
    stats = class_stats(ds)
    probe = rng.normal(size=(20, 2)) * 3
    a, _ = fit_cmc(ds, stats, seed=5).predict_batch(probe)
    b, _ = fit_cmc(ds, stats, seed=5).predict_batch(probe)
    assert np.array_equal(a, b)
