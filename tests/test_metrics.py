import numpy as np
import pytest

from comulti.errors import DataError
from comulti.metrics import (
    ConfusionMatrix,
    confusion,
    evaluate,
    g_mean,
    macro_f1,
    sg_mean,
)

# ---------------------------------------------------------------------------
# Brute-force oracles, written independently of the implementation.


def naive_confusion(true, pred, k):
    m = [[0] * k for _ in range(k)]
    for t, p in zip(true, pred):
        m[t][p] += 1
    return m


def naive_macro_f1(m):
    k = len(m)
    total = 0.0
    for i in range(k):
        tp = m[i][i]
        fp = sum(m[r][i] for r in range(k)) - tp
        fn = sum(m[i][c] for c in range(k)) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall == 0:
            f1 = 0.0
        else:
            f1 = 2 * precision * recall / (precision + recall)
        total += f1
    return total / k


def naive_g_mean(m):
    k = len(m)
    prod = 1.0
    for i in range(k):
        prod *= m[i][i] / sum(m[i])
    return prod ** (1.0 / k)


def cm(matrix):
    matrix = np.asarray(matrix)
    return ConfusionMatrix(matrix, tuple(str(i) for i in range(len(matrix))))


# ---------------------------------------------------------------------------
# confusion


def test_confusion_trivial_diagonal():
    got = confusion([0, 1], [0, 1], 2)
    assert got.matrix.tolist() == [[1, 0], [0, 1]]


def test_confusion_off_diagonal():
    got = confusion([0, 0, 1], [1, 0, 1], 2)
    assert got.matrix.tolist() == [[1, 1], [0, 1]]


def test_confusion_matches_naive_tally():
    rng = np.random.default_rng(42)
    true = rng.integers(0, 5, 100)
    pred = rng.integers(0, 5, 100)
    got = confusion(true, pred, 5)
    assert got.matrix.tolist() == naive_confusion(true, pred, 5)


def test_confusion_errors():
    with pytest.raises(DataError, match="length mismatch"):
        confusion([0, 1], [0], 2)
    with pytest.raises(DataError, match="out of range"):
        confusion([0, 2], [0, 0], 2)


# ---------------------------------------------------------------------------
# macro F1


def test_macro_f1_perfect():
    assert macro_f1(cm([[3, 0], [0, 2]])) == 1.0


def test_macro_f1_hand_computed():
    # P = [1, 0.5], R = [0.5, 1] -> F1 = [2/3, 2/3] -> mean 2/3
    assert macro_f1(cm([[1, 1], [0, 1]])) == pytest.approx(2 / 3)


def test_macro_f1_silent_class_scores_zero():
    # class 2 never predicted, never correct
    m = cm([[2, 0, 0], [0, 2, 0], [1, 1, 0]])
    f1 = evaluate(m).per_class_f1
    assert f1[2] == 0.0


# ---------------------------------------------------------------------------
# G-Mean


def test_g_mean_perfect_and_sqrt():
    assert g_mean(cm([[5, 0], [0, 5]])) == 1.0
    # recalls [0.25, 1.0] -> sqrt(0.25) = 0.5
    assert g_mean(cm([[1, 3], [0, 7]])) == pytest.approx(0.5)


def test_g_mean_zero_iff_any_zero_recall():
    m = cm([[5, 0, 0], [0, 0, 3], [0, 0, 4]])
    assert g_mean(m) == 0.0
    assert evaluate(m).zero_recall_count == 1
    m2 = cm([[5, 1, 0], [0, 1, 3], [0, 0, 4]])
    assert g_mean(m2) > 0.0
    assert evaluate(m2).zero_recall_count == 0


def test_g_mean_requires_true_instances():
    with pytest.raises(DataError, match="no true instances"):
        g_mean(cm([[2, 0], [0, 0]]))


# ---------------------------------------------------------------------------
# SG-Mean


def test_sg_mean_all_zero_recalls():
    m = cm([[0, 2], [2, 0]])
    assert sg_mean(m, 0.001) == pytest.approx(0.001 ** 0.5)
    assert sg_mean(m, 0.001) == pytest.approx(0.0316227766, abs=1e-9)


def test_sg_mean_can_exceed_one():
    m = cm([[2, 0], [0, 2]])
    # (1 + 0.001) ** 0.5, reported as computed, not clamped
    assert sg_mean(m, 0.001) == pytest.approx(1.001 ** 0.5)
    assert sg_mean(m, 0.001) > 1.0


def test_sg_mean_half_half():
    m = cm([[1, 1], [1, 1]])
    assert sg_mean(m, 0.001) == pytest.approx((0.25 + 0.001) ** 0.5)
    assert sg_mean(m, 0.001) == pytest.approx(0.5009990, abs=1e-6)


def test_sg_mean_per_factor_variant():
    m = cm([[1, 1], [1, 1]])
    assert sg_mean(m, 0.001, per_factor_delta=True) == pytest.approx(
        (0.501 * 0.501) ** 0.5)


def test_sg_mean_rejects_bad_delta():
    with pytest.raises(ValueError):
        sg_mean(cm([[1, 0], [0, 1]]), 0.0)
    with pytest.raises(ValueError):
        sg_mean(cm([[1, 0], [0, 1]]), -1e-3)


def test_sg_mean_strictly_above_g_mean_and_converges():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = cm(rng.integers(0, 9, size=(4, 4)) + np.eye(4, dtype=int))
        g = g_mean(m)
        gaps = []
        for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            s = sg_mean(m, delta)
            assert s > g
            gaps.append(s - g)
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))  # monotone in delta
        assert gaps[-1] < 1e-3  # converged toward the unsmoothed value
        assert gaps[-1] < 0.05 * gaps[0]


# ---------------------------------------------------------------------------
# Oracle equivalence and invariances


def test_oracle_equivalence_on_random_matrices():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        m = rng.integers(0, 30, size=(k, k))
        m[np.arange(k), np.arange(k)] += 1  # every class has true instances
        ours_f1 = macro_f1(cm(m))
        ours_g = g_mean(cm(m))
        assert abs(ours_f1 - naive_macro_f1(m.tolist())) < 1e-12
        assert abs(ours_g - naive_g_mean(m.tolist())) < 1e-12


def test_metrics_invariant_under_class_permutation():
    rng = np.random.default_rng(5)
    m = rng.integers(1, 20, size=(5, 5))
    perm = rng.permutation(5)
    mp = m[np.ix_(perm, perm)]
    assert macro_f1(cm(m)) == pytest.approx(macro_f1(cm(mp)), abs=1e-12)
    assert g_mean(cm(m)) == pytest.approx(g_mean(cm(mp)), abs=1e-12)
    assert sg_mean(cm(m), 1e-3) == pytest.approx(sg_mean(cm(mp), 1e-3),
                                                 abs=1e-12)


def test_report_bundle():
    rep = evaluate(cm([[3, 1], [0, 4]]), delta=1e-3)
    assert rep.zero_recall_count == 0
    assert rep.per_class_recall == (0.75, 1.0)
    assert rep.macro_f1 == pytest.approx(naive_macro_f1([[3, 1], [0, 4]]))
    assert "Macro-F1" in rep.to_text()
    doc = rep.to_dict()
    assert doc["confusion"] == [[3, 1], [0, 4]]
    assert doc["delta"] == 1e-3


@pytest.mark.parametrize("make,message", [
    (lambda: ConfusionMatrix(np.zeros((2, 3)), ("a", "b")),
     "confusion matrix must be square"),
    (lambda: ConfusionMatrix(np.zeros(4), ("a", "b")),
     "confusion matrix must be square"),
    (lambda: ConfusionMatrix(np.zeros((2, 2)), ("a",)),
     "label list does not match matrix size"),
    (lambda: ConfusionMatrix(np.array([[1, -1], [0, 2]]), ("a", "b")),
     "negative count in confusion matrix"),
    (lambda: macro_f1(ConfusionMatrix(np.zeros((0, 0)), ())),
     "empty confusion matrix"),
], ids=["not-square", "not-2d", "labels", "negative", "macro-f1-empty"])
def test_metric_refusals(make, message):
    with pytest.raises(DataError, match=message):
        make()
