import numpy as np
import pytest
import scipy.sparse as sp

from comulti.dataset import (
    Dataset,
    FeatureSchema,
    FeatureSpec,
    class_stats,
    round_half_up,
)
from comulti.errors import DataError
from comulti.sampling import SmoteConfig, UndersampleConfig, smote, undersample

from conftest import make_dataset


def skewed(counts, n_features=3, seed=0):
    rng = np.random.default_rng(seed)
    y = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    x = rng.normal(size=(y.size, n_features)) + y[:, None] * 3.0
    return make_dataset(x, y)


def knn_oracle(xc, i, k):
    """Brute-force k nearest same-class neighbors of row i (ties by index)."""
    d = np.sqrt(((xc - xc[i]) ** 2).sum(axis=1))
    order = sorted(range(len(xc)), key=lambda j: (d[j], j))
    return [j for j in order if j != i][:k]


# ---------------------------------------------------------------------------
# Oversampling


def test_smote_doubles_minority_counts():
    ds = skewed([30, 10, 4])
    st = class_stats(ds)
    assert st.minority == (1, 2)
    out = smote(ds, st, SmoteConfig(k_neighbors=3, rate=1.0, seed=0))
    assert out.class_counts().tolist() == [30, 20, 8]


def test_smote_leaves_existing_rows_untouched():
    ds = skewed([20, 6])
    st = class_stats(ds)
    out = smote(ds, st, SmoteConfig(seed=1))
    assert np.array_equal(out.x[: ds.n_instances], ds.x)
    assert np.array_equal(out.y[: ds.n_instances], ds.y)


def test_smote_two_instance_minority_interpolates_segment():
    x = np.vstack([np.zeros((5, 2)) + 9.0, [[0.0, 0.0], [2.0, 2.0]]])
    y = np.array([0] * 5 + [1, 1])
    ds = make_dataset(x, y)
    st = class_stats(ds)
    out = smote(ds, st, SmoteConfig(k_neighbors=5, rate=3.0, seed=2))
    synth = out.x[ds.n_instances:]
    assert len(synth) == 6  # 3 per input instance
    assert np.allclose(synth[:, 0], synth[:, 1])
    assert (synth >= 0.0).all() and (synth <= 2.0).all()


def test_smote_synthetic_points_within_seed_pair_box():
    # rate 1.0 appends exactly one synthetic per minority instance, in class
    # then row order; validate against a brute-force neighbor oracle.
    ds = skewed([40, 12, 7], n_features=4, seed=3)
    st = class_stats(ds)
    k = 3
    out = smote(ds, st, SmoteConfig(k_neighbors=k, rate=1.0, seed=9))
    synth = out.x[ds.n_instances:]
    synth_y = out.y[ds.n_instances:]
    pos = 0
    for c in st.minority:
        rows = np.nonzero(ds.y == c)[0]
        xc = ds.x[rows]
        for i in range(len(rows)):
            s = synth[pos]
            assert synth_y[pos] == c
            neighbors = knn_oracle(xc, i, min(k, len(rows) - 1))
            in_box = [
                bool(np.all(s >= np.minimum(xc[i], xc[j]) - 1e-12)
                     and np.all(s <= np.maximum(xc[i], xc[j]) + 1e-12))
                for j in neighbors
            ]
            assert any(in_box), f"synthetic {pos} outside every neighbor box"
            pos += 1
    assert pos == len(synth)


def test_smote_k1_collinear_stays_in_hull():
    x = np.vstack([np.zeros((9, 2)) + 50.0,
                   [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]])
    ds = make_dataset(x, np.array([0] * 9 + [1] * 3))
    st = class_stats(ds)
    for seed in range(5):
        out = smote(ds, st, SmoteConfig(k_neighbors=1, rate=1.0, seed=seed))
        synth = out.x[ds.n_instances:]
        assert (synth >= 0.0).all() and (synth <= 2.0).all()
        assert np.allclose(synth[:, 0], synth[:, 1])


def test_smote_rounds_ordinal_codes():
    schema = FeatureSchema((
        FeatureSpec("grade", "ordinal", ("lo", "mid", "hi")),
        FeatureSpec("w"),
    ))
    x = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 0.5],
                  [2.0, 9.0], [2.0, 9.0], [2.0, 9.0], [2.0, 9.0]])
    ds = Dataset(schema, x, np.array([1, 1, 1, 0, 0, 0, 0]), ("a", "b"))
    st = class_stats(ds)
    out = smote(ds, st, SmoteConfig(k_neighbors=2, rate=2.0, seed=4))
    synth = out.x[ds.n_instances:]
    assert np.array_equal(synth[:, 0], np.rint(synth[:, 0]))  # ordinal column
    assert not np.array_equal(synth[:, 1], np.rint(synth[:, 1]))  # numeric


def test_smote_stochastic_rate_rounding():
    ds = skewed([30, 10])
    st = class_stats(ds)
    out = smote(ds, st, SmoteConfig(k_neighbors=3, rate=1.5, seed=11))
    added = out.n_instances - ds.n_instances
    assert 10 <= added <= 20  # 1 or 2 per instance
    # aggregate over seeds approaches 1.5 per instance
    total = sum(
        smote(ds, st, SmoteConfig(k_neighbors=3, rate=1.5, seed=s)).n_instances
        - ds.n_instances
        for s in range(30)
    )
    assert total / (30 * 10) == pytest.approx(1.5, abs=0.15)


def test_smote_that_draws_no_row_returns_its_input():
    ds = skewed([30, 10, 4])
    st = class_stats(ds)
    # Each of the 14 minority rows gets a synthetic row with probability
    # 1e-9; seed 0 draws none.
    assert smote(ds, st, SmoteConfig(rate=1e-9, seed=0)) is ds


def test_smote_deterministic_per_seed():
    ds = skewed([25, 8], seed=6)
    st = class_stats(ds)
    a = smote(ds, st, SmoteConfig(seed=42))
    b = smote(ds, st, SmoteConfig(seed=42))
    assert a.equals(b)
    c = smote(ds, st, SmoteConfig(seed=43))
    assert not a.equals(c)


def test_smote_sparse_input_stays_sparse():
    rng = np.random.default_rng(0)
    x = sp.random(40, 6, density=0.5, random_state=3, format="csr")
    y = np.array([0] * 30 + [1] * 10)
    ds = Dataset(FeatureSchema.numeric(6), x.astype(np.float64), y, ("a", "b"))
    st = class_stats(ds)
    out = smote(ds, st, SmoteConfig(k_neighbors=3, seed=0))
    assert out.is_sparse
    assert out.class_counts().tolist() == [30, 20]


def test_smote_errors():
    ds = make_dataset(np.zeros((5, 1)), [0, 0, 0, 0, 1])
    st = class_stats(ds)
    with pytest.raises(DataError, match="at least 2"):
        smote(ds, st, SmoteConfig())
    balanced = make_dataset(np.zeros((4, 1)), [0, 0, 1, 1])
    all_major = class_stats(balanced, override_majority=("c0", "c1"))
    with pytest.raises(DataError, match="no minority"):
        smote(balanced, all_major, SmoteConfig())
    with pytest.raises(DataError):
        SmoteConfig(k_neighbors=0)
    with pytest.raises(DataError):
        SmoteConfig(rate=0.0)


# ---------------------------------------------------------------------------
# Undersampling


def test_undersample_exact_output_size():
    ds = skewed([1210, 384, 69, 65])
    st = class_stats(ds)
    out = undersample(ds, st, UndersampleConfig(target_fraction=0.9, seed=0))
    assert out.n_instances == round_half_up(0.9 * 1728)
    assert out.n_instances == 1555


def test_undersample_single_class_identity_size():
    ds = make_dataset(np.arange(12)[:, None], [0] * 12)
    st = class_stats(ds)
    out = undersample(ds, st, UndersampleConfig(target_fraction=1.0, seed=1))
    assert out.n_instances == 12
    assert set(out.y.tolist()) == {0}


def test_undersample_balances_in_expectation():
    ds = skewed([900, 100], n_features=2)
    st = class_stats(ds)
    shares = []
    for seed in range(50):
        out = undersample(ds, st, UndersampleConfig(0.9, seed=seed))
        shares.append((out.y == 0).mean())
    mean_share = float(np.mean(shares))
    assert 0.45 <= mean_share <= 0.55


def test_undersample_deterministic_per_seed():
    ds = skewed([50, 20])
    st = class_stats(ds)
    a = undersample(ds, st, UndersampleConfig(seed=5))
    b = undersample(ds, st, UndersampleConfig(seed=5))
    assert a.equals(b)


def test_undersample_draws_only_existing_rows():
    ds = skewed([30, 10], n_features=2, seed=8)
    st = class_stats(ds)
    out = undersample(ds, st, UndersampleConfig(0.5, seed=3))
    orig = {tuple(row) for row in np.column_stack([ds.x, ds.y])}
    for row in np.column_stack([out.x, out.y]):
        assert tuple(row) in orig


def test_undersample_config_validation():
    with pytest.raises(DataError):
        UndersampleConfig(target_fraction=0.0)
    with pytest.raises(DataError):
        UndersampleConfig(target_fraction=1.2)


@pytest.mark.parametrize("resample,data,message", [
    (lambda ds, st: smote(ds, st, SmoteConfig()), [0, 0, 0, 1, 1],
     "stats do not describe this dataset's label space"),
    (lambda ds, st: undersample(ds, st, UndersampleConfig()), [0, 0, 0, 1, 1],
     "stats do not describe this dataset's label space"),
    (lambda ds, st: undersample(ds, st, UndersampleConfig()), [],
     "empty dataset"),
], ids=["smote-other-labels", "undersample-other-labels", "undersample-empty"])
def test_sampling_refusals(resample, data, message):
    """The stats are of a three-class dataset; the resampled one has two
    labels, or three and no rows."""
    three = skewed([4, 2, 2])
    y = np.asarray(data, dtype=np.int64)
    labels = ("c0", "c1") if y.size else three.labels
    ds = Dataset(FeatureSchema.numeric(3), np.zeros((y.size, 3)), y, labels)
    with pytest.raises(DataError, match=message):
        resample(ds, class_stats(three))
