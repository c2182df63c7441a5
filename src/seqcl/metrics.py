"""Evaluation metrics and the forgetting bookkeeping built on top of them.

Every metric here has a brute-force counterpart in the test suite (pairwise
AUROC counting, exhaustive PR sweeps, direct tallies); the implementations
below are the fast sort-based versions that must agree with those oracles to
1e-12 for cohort-sized inputs. The test suite also keeps the earlier
per-metric loop versions, which the shared kernel must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from .autodiff import PROB_EPS
from .errors import DataError, UndefinedMetricError, UsageError


def _validate_scores_labels(scores, labels):
    """Aligned float64 scores and int64 0/1 labels; the only label check."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise DataError(
            f"scores and labels must be aligned 1-d arrays, got {scores.shape} vs {labels.shape}"
        )
    if scores.size == 0:
        raise DataError("empty input")
    if np.issubdtype(labels.dtype, np.integer):
        binary = labels.min() >= 0 and labels.max() <= 1
    else:
        binary = np.all(np.isin(labels, (0, 1)))
    if not binary:
        raise DataError("labels must be binary 0/1")
    return scores, labels.astype(np.int64)


def _classify(scores, labels, threshold=0.5):
    """The classification kernel behind every metric in this module.

    Takes validated scores and labels and returns ((tp, fp, tn, fn), auroc,
    auprc); an area is None where undefined. Both areas come from one stable
    ascending argsort, read per tie group (a run of equal scores; every NaN
    is a group of its own, sorted last).

    AUROC is the Mann-Whitney rank sum with average ranks per tie group. The
    ranks are half-integers, so the sum is exact in any order.

    AUPRC sweeps the groups from the highest score down, predicting positive
    at score >= threshold, and sums (recall_k - recall_{k-1}) * precision_k
    with a cumulative sum, which keeps a strict left-to-right order. The
    NaN groups stay at the end of that sweep, in index order, where a
    descending stable sort puts them.
    """
    n = labels.size
    positive = labels == 1
    n_pos = int(np.count_nonzero(positive))
    n_neg = n - n_pos
    predicted = scores >= threshold
    tp = int(np.count_nonzero(predicted & positive))
    n_predicted = int(np.count_nonzero(predicted))
    counts = (tp, n_predicted - tp, n_neg - n_predicted + tp, n_pos - tp)
    if n_pos == 0:
        return counts, None, None

    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    # edges[k] is where tie group k starts; edges[-1] == n
    change = np.empty(n + 1, dtype=bool)
    change[0] = change[n] = True
    np.not_equal(ordered[1:], ordered[:-1], out=change[1:n])
    edges = np.flatnonzero(change)
    group_pos = np.add.reduceat(labels[order], edges[:-1])

    roc = None
    if n_neg:
        # group [i, j] (0-based, inclusive) has mean 1-based rank (i + j + 2) / 2
        rank_sum = 0.5 * int(np.dot(group_pos, edges[:-1] + edges[1:] + 1))
        roc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    n_groups = edges.size - 1
    n_nan = int(np.count_nonzero(np.isnan(ordered))) if np.isnan(ordered[-1]) else 0
    finite = n_groups - n_nan
    sweep = np.concatenate((np.arange(finite - 1, -1, -1), np.arange(finite, n_groups)))
    tp_cum = np.cumsum(group_pos[sweep])
    recall = tp_cum / n_pos
    precision = tp_cum / np.cumsum(np.diff(edges)[sweep])
    gain = recall.copy()
    gain[1:] -= recall[:-1]
    prc = float(np.cumsum(gain * precision)[-1])
    return counts, roc, prc


def auroc(scores, labels) -> float:
    """P(score_pos > score_neg) + 0.5 P(tie), via average ranks."""
    (tp, fp, tn, fn), value, _ = _classify(*_validate_scores_labels(scores, labels))
    if value is None:
        raise UndefinedMetricError(
            f"AUROC needs both classes present (positives={tp + fn}, negatives={tn + fp})"
        )
    return value


def auprc(scores, labels) -> float:
    """Step-interpolated area under the precision-recall curve.

    Thresholds sweep the distinct scores from high to low, predicting
    positive at score >= threshold; the area is sum over threshold steps of
    (recall_k - recall_{k-1}) * precision_k.
    """
    _, _, value = _classify(*_validate_scores_labels(scores, labels))
    if value is None:
        raise UndefinedMetricError("AUPRC needs at least one positive")
    return value


class AccuracyMatrix:
    """Lower-triangular record a[i][j]: metric on task j after training task i."""

    def __init__(self, n_tasks: int):
        if n_tasks < 1:
            raise UsageError("matrix needs at least one task")
        self.n_tasks = int(n_tasks)
        self.values = np.full((n_tasks, n_tasks), np.nan)

    def set(self, trained: int, evaluated: int, value: float) -> None:
        self._check(trained, evaluated)
        self.values[trained, evaluated] = float(value)

    def _check(self, trained, evaluated):
        if not (0 <= trained < self.n_tasks and 0 <= evaluated < self.n_tasks):
            raise UsageError(
                f"indices ({trained}, {evaluated}) outside matrix of {self.n_tasks} tasks"
            )
        if evaluated > trained:
            raise UsageError(
                f"entry ({trained}, {evaluated}) is above the diagonal: task "
                f"{evaluated} was unseen after training task {trained}"
            )


def forgetting(matrix: AccuracyMatrix, i: int):
    """Per-task drop from peak: F_j = max_{k <= i} a[k][j] - a[i][j] for j < i.

    Returns (per-task array over j in 0..i-1, mean). Never negative for a
    task at its running peak; recovery back to the peak scores 0.
    """
    if i <= 0 or i >= matrix.n_tasks:
        raise UsageError(f"forgetting needs 1 <= i < n_tasks, got i={i}")
    per_task = np.empty(i)
    for j in range(i):
        column = matrix.values[j : i + 1, j]
        if np.isnan(column).any():
            raise UndefinedMetricError(
                f"matrix entries for task {j} through training step {i} are incomplete"
            )
        per_task[j] = column.max() - column[-1]
    return per_task, float(per_task.mean())


def bootstrap_ci(values, n_resamples: int = 1000, level: float = 0.95, seed: int = 0):
    """Percentile bootstrap interval for the mean of run-level values."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise DataError("bootstrap needs at least two run-level values")
    if not 0.0 < level < 1.0:
        raise UsageError(f"level must be in (0, 1), got {level}")
    if n_resamples < 1:
        raise UsageError("n_resamples must be positive")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xB007)))
    draws = rng.integers(0, values.size, size=(n_resamples, values.size))
    means = values[draws].mean(axis=1)
    alpha = 0.5 * (1.0 - level)
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


METRIC_NAMES = (
    "balanced_accuracy",
    "sensitivity",
    "specificity",
    "precision",
    "auroc",
    "auprc",
    "weighted_ce",
)


def summarize_classification(probabilities, labels, class_weights, threshold=0.5):
    """One evaluation row: every metric in METRIC_NAMES, None where undefined."""
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != 2:
        raise DataError(f"probabilities must be [N, 2], got {probs.shape}")
    scores, labels = _validate_scores_labels(probs[:, 1], labels)
    (tp, fp, tn, fn), roc, prc = _classify(scores, labels, threshold)
    out = {}
    out["sensitivity"] = tp / (tp + fn) if tp + fn else None
    out["specificity"] = tn / (tn + fp) if tn + fp else None
    out["precision"] = tp / (tp + fp) if tp + fp else None
    both_classes = out["sensitivity"] is not None and out["specificity"] is not None
    out["balanced_accuracy"] = (
        0.5 * (out["sensitivity"] + out["specificity"]) if both_classes else None
    )
    out["auroc"] = roc
    out["auprc"] = prc
    weights = np.asarray(class_weights, dtype=np.float64)
    p_true = np.clip(probs[np.arange(labels.size), labels], PROB_EPS, 1.0 - PROB_EPS)
    out["weighted_ce"] = float(np.mean(-weights[labels] * np.log(p_true)))
    return out
