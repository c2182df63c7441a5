"""Metric oracles: brute-force counting versions first, then agreement checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcl import metrics as mt
from seqcl.errors import DataError, UndefinedMetricError, UsageError


# ------------------------------------------------------------------- oracles


def pairwise_auroc(scores, labels):
    """O(N^2) definition: P(pos > neg) + 0.5 P(pos == neg)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def sweep_auprc(scores, labels):
    """Exhaustive threshold sweep, recomputing counts per threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = labels.sum()
    thresholds = sorted(set(scores.tolist()), reverse=True)
    area, prev_recall = 0.0, 0.0
    for t in thresholds:
        pred = scores >= t
        tp = int(np.sum(pred & (labels == 1)))
        fp = int(np.sum(pred & (labels == 0)))
        recall = tp / n_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def legacy_validate(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if not np.all(np.isin(labels, (0, 1))):
        raise DataError("labels must be binary 0/1")
    return scores, labels.astype(np.int64)


def legacy_confusion(scores, labels, threshold=0.5):
    """The per-function confusion count the classification kernel replaced."""
    scores, labels = legacy_validate(scores, labels)
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    tn = int(np.sum(~pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    return tp, fp, tn, fn


def legacy_auroc(scores, labels):
    """Average ranks assigned tie group by tie group in a Python loop."""
    scores, labels = legacy_validate(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def legacy_auprc(scores, labels):
    """Descending stable sort, then a Python loop over threshold drops."""
    scores, labels = legacy_validate(scores, labels)
    n_pos = int(labels.sum())
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tp_cum = np.cumsum(sorted_labels)
    n_seen = np.arange(1, labels.size + 1)
    boundary = np.flatnonzero(
        np.concatenate([sorted_scores[1:] != sorted_scores[:-1], [True]])
    )
    area = 0.0
    prev_recall = 0.0
    for b in boundary:
        recall = tp_cum[b] / n_pos
        precision = tp_cum[b] / n_seen[b]
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return float(area)


def legacy_summary(probs, labels, class_weights, threshold=0.5):
    """The evaluation row as computed from three separate metric calls."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    scores = probs[:, 1]
    tp, fp, tn, fn = legacy_confusion(scores, labels, threshold)
    out = {}
    out["sensitivity"] = tp / (tp + fn) if tp + fn else None
    out["specificity"] = tn / (tn + fp) if tn + fp else None
    out["precision"] = tp / (tp + fp) if tp + fp else None
    both_classes = out["sensitivity"] is not None and out["specificity"] is not None
    out["balanced_accuracy"] = (
        0.5 * (out["sensitivity"] + out["specificity"]) if both_classes else None
    )
    out["auroc"] = legacy_auroc(scores, labels) if both_classes else None
    out["auprc"] = legacy_auprc(scores, labels) if out["sensitivity"] is not None else None
    weights = np.asarray(class_weights, dtype=np.float64)
    p_true = np.clip(probs[np.arange(labels.size), labels], 1e-12, 1.0 - 1e-12)
    out["weighted_ce"] = float(np.mean(-weights[labels] * np.log(p_true)))
    return out


def tally_confusion(scores, labels, threshold):
    tp = fp = tn = fn = 0
    for s, y in zip(scores, labels):
        if s >= threshold:
            if y == 1:
                tp += 1
            else:
                fp += 1
        else:
            if y == 1:
                fn += 1
            else:
                tn += 1
    return tp, fp, tn, fn


# ----------------------------------------------------------------- confusion


def test_confusion_hand_tally():
    scores = np.array([0.9, 0.5, 0.4, 0.2, 0.6, 0.5])
    labels = np.array([1, 0, 1, 0, 1, 1])
    assert mt.confusion(scores, labels) == tally_confusion(scores, labels, 0.5)
    # tie at threshold predicts positive
    tp, fp, tn, fn = mt.confusion(np.array([0.5, 0.5]), np.array([1, 0]))
    assert (tp, fp, tn, fn) == (1, 1, 0, 0)


def test_confusion_accepts_two_column_probabilities():
    probs = np.array([[0.2, 0.8], [0.7, 0.3]])
    assert mt.confusion(probs, np.array([1, 0])) == (1, 0, 1, 0)
    with pytest.raises(DataError):
        mt.confusion(np.zeros((2, 3)), np.array([1, 0]))


# --------------------------------------------------------- balanced accuracy


def test_balanced_accuracy_hand_value():
    # tp=3, fn=1, tn=5, fp=1 -> (3/4 + 5/6) / 2
    scores = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 1], dtype=float)
    labels = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
    value = mt.balanced_accuracy(scores, labels)
    assert value == pytest.approx((3 / 4 + 5 / 6) / 2, abs=1e-15)


def test_balanced_accuracy_extremes():
    labels = np.array([1, 1, 0, 0])
    assert mt.balanced_accuracy(labels.astype(float), labels) == 1.0
    assert mt.balanced_accuracy(1.0 - labels, labels) == 0.0
    # constant positive prediction: sensitivity 1, specificity 0
    assert mt.balanced_accuracy(np.ones(4), labels) == 0.5


def test_balanced_accuracy_undefined_without_both_classes():
    with pytest.raises(UndefinedMetricError):
        mt.balanced_accuracy(np.array([0.1, 0.9]), np.array([1, 1]))
    with pytest.raises(UndefinedMetricError):
        mt.balanced_accuracy(np.array([0.1, 0.9]), np.array([0, 0]))


@settings(max_examples=40)
@given(st.integers(1, 30), st.integers(0, 2**31 - 1))
def test_balanced_accuracy_equals_accuracy_on_balanced_data(n_per_class, seed):
    rng = np.random.default_rng(seed)
    labels = np.array([0, 1] * n_per_class)
    scores = rng.uniform(size=labels.size)
    bal = mt.balanced_accuracy(scores, labels)
    acc = float(np.mean((scores >= 0.5).astype(int) == labels))
    assert bal == pytest.approx(acc, abs=1e-12)


# --------------------------------------------------------------------- auroc


def test_auroc_known_values():
    assert mt.auroc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0
    assert mt.auroc(np.array([0.5, 0.5, 0.5]), np.array([1, 0, 1])) == 0.5
    # one win, one loss out of two pairs
    assert mt.auroc(np.array([0.6, 0.7, 0.2]), np.array([1, 0, 0])) == 0.5


def test_auroc_matches_pairwise_oracle_exactly():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(2, 200))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        # quantised scores force plenty of ties
        scores = np.round(rng.uniform(size=n), 2)
        assert abs(mt.auroc(scores, labels) - pairwise_auroc(scores, labels)) <= 1e-12


@settings(max_examples=30)
@given(st.integers(2, 40), st.integers(0, 2**31 - 1))
def test_auroc_invariant_to_monotone_transforms(n, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    if labels.sum() in (0, n):
        labels[0] = 1 - labels[0]
    scores = rng.normal(size=n)
    base = mt.auroc(scores, labels)
    assert mt.auroc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)
    assert mt.auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)


def test_auroc_undefined_without_both_classes():
    with pytest.raises(UndefinedMetricError):
        mt.auroc(np.array([0.5, 0.6]), np.array([1, 1]))


# --------------------------------------------------------------------- auprc


def test_auprc_known_values():
    assert mt.auprc(np.array([0.9, 0.8, 0.1]), np.array([1, 1, 0])) == 1.0
    # single positive ranked last of N: one step of recall at precision 1/N
    n = 8
    scores = np.linspace(1.0, 0.1, n)
    labels = np.zeros(n, dtype=int)
    labels[-1] = 1
    assert mt.auprc(scores, labels) == pytest.approx(1.0 / n, abs=1e-15)


def test_auprc_matches_sweep_oracle_exactly():
    rng = np.random.default_rng(17)
    for trial in range(100):
        n = int(rng.integers(2, 200))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        scores = np.round(rng.uniform(size=n), 2)
        assert abs(mt.auprc(scores, labels) - sweep_auprc(scores, labels)) <= 1e-12


def test_auprc_needs_a_positive():
    with pytest.raises(UndefinedMetricError):
        mt.auprc(np.array([0.5, 0.6]), np.array([0, 0]))


# ---------------------------------------------------------------- forgetting


def test_forgetting_hand_cases():
    m = mt.AccuracyMatrix(3)
    # monotone improvement: no forgetting
    m.set(0, 0, 0.6)
    m.set(1, 0, 0.7)
    m.set(1, 1, 0.8)
    m.set(2, 0, 0.9)
    m.set(2, 1, 0.8)
    m.set(2, 2, 0.7)
    per, mean = mt.forgetting(m, 2)
    assert per.tolist() == [0.0, 0.0]
    assert mean == 0.0
    # dip of 0.2 from the peak
    m2 = mt.AccuracyMatrix(2)
    m2.set(0, 0, 0.9)
    m2.set(1, 0, 0.7)
    m2.set(1, 1, 0.8)
    per, mean = mt.forgetting(m2, 1)
    assert per.tolist() == [pytest.approx(0.2)]
    # full recovery scores zero
    m3 = mt.AccuracyMatrix(3)
    m3.set(0, 0, 0.9)
    m3.set(1, 0, 0.5)
    m3.set(1, 1, 0.8)
    m3.set(2, 0, 0.9)
    m3.set(2, 1, 0.8)
    m3.set(2, 2, 0.6)
    per, _ = mt.forgetting(m3, 2)
    assert per[0] == 0.0


def test_forgetting_is_nonnegative_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = mt.AccuracyMatrix(n)
        for i in range(n):
            for j in range(i + 1):
                m.set(i, j, float(rng.uniform()))
        per, mean = mt.forgetting(m, n - 1)
        assert np.all(per >= 0.0)
        assert mean >= 0.0


def test_forgetting_rejects_first_task_and_incomplete_matrix():
    m = mt.AccuracyMatrix(2)
    with pytest.raises(UsageError):
        mt.forgetting(m, 0)
    m.set(0, 0, 0.5)
    m.set(1, 1, 0.5)  # (1, 0) missing
    with pytest.raises(UndefinedMetricError):
        mt.forgetting(m, 1)


def test_accuracy_matrix_guards_upper_triangle():
    m = mt.AccuracyMatrix(3)
    with pytest.raises(UsageError):
        m.set(0, 1, 0.5)
    with pytest.raises(UsageError):
        m.get(0, 2)
    m.set(2, 1, 0.25)
    assert m.get(2, 1) == 0.25
    rows = m.to_lists()
    assert rows[2][1] == 0.25 and rows[0][0] is None
    back = mt.AccuracyMatrix.from_lists(rows)
    assert back.get(2, 1) == 0.25


# ----------------------------------------------------------------- bootstrap


def test_bootstrap_constant_values_give_degenerate_interval():
    lo, hi = mt.bootstrap_ci(np.full(5, 0.6), seed=1)
    assert lo == 0.6 and hi == 0.6


def test_bootstrap_is_deterministic_and_bounded():
    values = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    a = mt.bootstrap_ci(values, n_resamples=10000, seed=42)
    b = mt.bootstrap_ci(values, n_resamples=10000, seed=42)
    assert a == b
    lo, hi = a
    assert 0.0 <= lo <= 0.6 <= hi <= 1.0


def test_bootstrap_input_validation():
    with pytest.raises(DataError):
        mt.bootstrap_ci(np.array([1.0]))
    with pytest.raises(UsageError):
        mt.bootstrap_ci(np.array([1.0, 2.0]), level=1.5)


# ------------------------------------------------- classification summaries


def test_summary_values_match_direct_computation():
    probs = np.array([[0.2, 0.8], [0.9, 0.1], [0.4, 0.6], [0.3, 0.7]])
    labels = np.array([1, 0, 0, 1])
    weights = (2.0, 0.5)
    out = mt.summarize_classification(probs, labels, weights)
    assert set(out) == set(mt.METRIC_NAMES)
    assert out["sensitivity"] == 1.0
    assert out["specificity"] == 0.5
    assert out["precision"] == pytest.approx(2 / 3)
    assert out["balanced_accuracy"] == 0.75
    expected_ce = np.mean(
        [-0.5 * np.log(0.8), -2.0 * np.log(0.9), -2.0 * np.log(0.4), -0.5 * np.log(0.7)]
    )
    assert out["weighted_ce"] == pytest.approx(expected_ce, rel=1e-12)


def test_summary_single_class_labels_leave_undefined_metrics_as_none():
    probs = np.array([[0.2, 0.8], [0.6, 0.4]])
    out = mt.summarize_classification(probs, np.array([1, 1]), (1.0, 1.0))
    assert out["specificity"] is None
    assert out["balanced_accuracy"] is None
    assert out["auroc"] is None
    assert out["sensitivity"] == 0.5
    assert out["auprc"] is not None

    out = mt.summarize_classification(probs, np.array([0, 0]), (1.0, 1.0))
    assert out["sensitivity"] is None
    assert out["auprc"] is None
    assert out["specificity"] == 0.5


def exact(value):
    """Bit pattern of a metric value; NaN equals NaN, 0.0 differs from -0.0."""
    return value.hex() if isinstance(value, float) else value


@st.composite
def scored_labels(draw):
    """Scores with heavy ties, NaNs and signed zeros; labels may be one class."""
    n = draw(st.integers(1, 60))
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    pool = draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, np.nan]),
                  st.floats(0.0, 1.0)),
        min_size=1, max_size=12,
    ))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return np.array([pool[i] for i in picks]), labels


@settings(max_examples=300, deadline=None)
@given(scored_labels(), st.sampled_from([0.0, 0.5, 1.0]))
def test_kernel_is_bit_identical_to_legacy_metrics(data, threshold):
    scores, labels = data
    assert mt.confusion(scores, labels, threshold) == legacy_confusion(scores, labels, threshold)
    n_pos = int(labels.sum())
    if 0 < n_pos < labels.size:
        assert exact(mt.auroc(scores, labels)) == exact(legacy_auroc(scores, labels))
    if n_pos:
        assert exact(mt.auprc(scores, labels)) == exact(legacy_auprc(scores, labels))
    probs = np.stack([1.0 - scores, scores], axis=1)
    new = mt.summarize_classification(probs, labels, (0.7, 1.9), threshold)
    old = legacy_summary(probs, labels, (0.7, 1.9), threshold)
    assert list(new) == list(old)
    assert {k: exact(v) for k, v in new.items()} == {k: exact(v) for k, v in old.items()}


def test_kernel_keeps_nan_scores_last_in_the_precision_recall_sweep():
    # reversing an ascending sort would move the NaN group to the front
    scores = np.array([0.9, np.nan, 0.2, 0.8, np.nan])
    labels = np.array([1, 1, 0, 0, 1])
    assert exact(mt.auprc(scores, labels)) == exact(legacy_auprc(scores, labels))
    assert exact(mt.auroc(scores, labels)) == exact(legacy_auroc(scores, labels))


def test_summary_rejects_wrong_shape():
    with pytest.raises(DataError):
        mt.summarize_classification(np.array([0.5, 0.5]), np.array([1, 0]), (1, 1))
