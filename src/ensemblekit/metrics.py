"""Evaluation metrics and report containers.

Classification quality is measured by negative log-likelihood with
probabilities clamped to [1e-7, 1 - 1e-7], plus error rate and (for
binary problems) rank-based AUC. Regression uses mean squared error; its
log-likelihood is the unit-variance Gaussian one, an affine function of
MSE, so both orderings agree. Reports can be normalized against the
single best base model, which makes numbers comparable across datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import DataValidationError, ShapeError, UndefinedMetricError

PROB_CLAMP_LO = 1e-7
PROB_CLAMP_HI = 1.0 - 1e-7

# 0.5 * log(2 * pi): constant part of the unit-variance Gaussian NLL.
_GAUSS_CONST = 0.5 * float(np.log(2.0 * np.pi))

_NORMALIZE_FLOOR = 1e-12


def _check_labels(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        if not np.all(labels == labels.astype(np.int64)):
            raise DataValidationError("classification labels must be integers")
    labels = labels.astype(np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataValidationError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def nll(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true class, clamped.

    ``probs`` has shape (N, C); each probability is clamped into
    [1e-7, 1 - 1e-7] before the log so degenerate predictions stay finite.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ShapeError(f"probs must be (N, C), got shape {probs.shape}")
    labels = _check_labels(labels, probs.shape[1])
    if labels.shape[0] != probs.shape[0]:
        raise ShapeError("probs and labels disagree on the number of instances")
    p_true = probs[np.arange(probs.shape[0]), labels]
    p_true = np.clip(p_true, PROB_CLAMP_LO, PROB_CLAMP_HI)
    return float(np.mean(-np.log(p_true)))


def error_rate(probs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of instances whose argmax class (ties to the lowest index)
    differs from the label."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ShapeError(f"probs must be (N, C), got shape {probs.shape}")
    labels = _check_labels(labels, probs.shape[1])
    predicted = np.argmax(probs, axis=1)
    return float(np.mean(predicted != labels))


def auc_binary(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the rank statistic, ties counted 0.5.

    ``scores`` are scores for the positive class (label 1). Raises if only
    one class is present, where the metric is undefined.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = _check_labels(labels, 2)
    if labels.shape[0] != scores.shape[0]:
        raise ShapeError("scores and labels disagree on the number of instances")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC is undefined when only one class is present")
    # Average 1-based ranks within tie groups.
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    group_rank = cum - (counts - 1) / 2.0
    ranks = group_rank[inverse]
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def mse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error between 1-D predictions and targets."""
    predictions = np.asarray(predictions, dtype=np.float64).reshape(-1)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    if predictions.shape != targets.shape:
        raise ShapeError("predictions and targets disagree on the number of instances")
    # Large finite inputs overflow to inf here; callers reject the
    # non-finite result, so numpy's overflow warning is noise.
    with np.errstate(over="ignore"):
        diff = predictions - targets
        return float(np.mean(diff * diff))


def regression_nll(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Unit-variance Gaussian negative log-likelihood: affine in MSE."""
    return _GAUSS_CONST + 0.5 * mse(predictions, targets)


def ambiguity(weights: np.ndarray, base_preds: np.ndarray) -> float:
    """Weighted spread of base predictions around their weighted mean.

    ``base_preds`` has shape (N, M): one scalar prediction per instance
    and model (for classification, the true-class probability). A 1-D
    vector is treated as a single instance (1, M). ``weights`` is a
    static simplex vector (M,) or per-instance weights (N, M). Returns
    the mean over instances of sum_m w_m * (z_m - zbar)^2 with
    zbar = sum_m w_m * z_m.
    """
    base_preds = np.asarray(base_preds, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if base_preds.ndim == 1:
        base_preds = base_preds[None, :]
    if base_preds.ndim != 2:
        raise ShapeError(f"base_preds must be (N, M), got shape {base_preds.shape}")
    if weights.ndim == 1:
        weights = np.broadcast_to(weights, base_preds.shape)
    if weights.shape != base_preds.shape:
        raise ShapeError(
            f"weights shape {weights.shape} incompatible with base_preds {base_preds.shape}"
        )
    if np.any(weights < 0):
        raise DataValidationError("ensemble weights must be nonnegative")
    row_sums = weights.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise DataValidationError("ensemble weight rows must sum to 1 within 1e-6")
    zbar = np.sum(weights * base_preds, axis=1, keepdims=True)
    spread = np.sum(weights * (base_preds - zbar) ** 2, axis=1)
    return float(np.mean(spread))


@dataclass(frozen=True)
class MetricReport:
    """Metric values for one method on one split.

    ``nll`` is always present. ``error_rate`` and ``auc`` apply to
    classification (AUC only when binary and both classes occur); ``mse``
    applies to regression.
    """

    nll: float
    error_rate: Optional[float] = None
    auc: Optional[float] = None
    mse: Optional[float] = None

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) is not None}


def classification_report(probs: np.ndarray, labels: np.ndarray) -> MetricReport:
    """NLL and error rate; AUC added for binary problems with both classes."""
    probs = np.asarray(probs, dtype=np.float64)
    auc = None
    if probs.ndim == 2 and probs.shape[1] == 2:
        present = np.unique(np.asarray(labels))
        if present.size == 2:
            auc = auc_binary(probs[:, 1], labels)
    return MetricReport(
        nll=nll(probs, labels),
        error_rate=error_rate(probs, labels),
        auc=auc,
    )


def regression_report(predictions: np.ndarray, targets: np.ndarray) -> MetricReport:
    value = mse(predictions, targets)
    return MetricReport(nll=_GAUSS_CONST + 0.5 * value, mse=value)


def normalize_report(report: MetricReport, reference: MetricReport) -> MetricReport:
    """Divide each metric by the reference value (floored at 1e-12).

    Both reports must carry the same set of metrics; a value of 1.0 means
    parity with the reference, below 1.0 means better on loss-like
    metrics and worse on AUC.
    """
    values = {}
    for f in fields(MetricReport):
        a = getattr(report, f.name)
        b = getattr(reference, f.name)
        if (a is None) != (b is None):
            raise DataValidationError(
                f"cannot normalize: metric '{f.name}' present in only one report"
            )
        if a is None:
            values[f.name] = None
        else:
            values[f.name] = a / max(b, _NORMALIZE_FLOOR)
    return MetricReport(**values)
