"""Evaluation metrics and report containers.

Classification quality is measured by negative log-likelihood with
probabilities clamped to [1e-7, 1 - 1e-7], plus error rate and (for
binary problems) rank-based AUC. Regression uses mean squared error; its
log-likelihood is the unit-variance Gaussian one, an affine function of
MSE, so both orderings agree. Reports can be normalized against the
single best base model, which makes numbers comparable across datasets.
``loss`` and ``loss_gradient`` define that loss once for every fitter,
and ``loss_index`` the entries of a prediction array it scores: each
row's true class, or the single regression column.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .data import TaskKind, check_labels
from .errors import DataValidationError, ShapeError, UndefinedMetricError

PROB_CLAMP_LO = 1e-7
PROB_CLAMP_HI = 1.0 - 1e-7

# 0.5 * log(2 * pi): constant part of the unit-variance Gaussian NLL.
_GAUSS_CONST = 0.5 * float(np.log(2.0 * np.pi))

_NORMALIZE_FLOOR = 1e-12


def loss_index(labels: np.ndarray, task: TaskKind) -> tuple:
    """Index of the entries ``loss`` scores in an (N, ..., C) array, taken
    on its last (class) axis: each row's true class for classification,
    the single column for regression. An (N, C) array gives (N,) values,
    an (N, M, C) cube (N, M)."""
    if task is TaskKind.CLASSIFICATION:
        labels = np.asarray(labels, dtype=np.int64)
        return (np.arange(labels.shape[0]), Ellipsis, labels)
    return (Ellipsis, 0)


def loss(values: np.ndarray, targets: np.ndarray, task: TaskKind):
    """Mean loss over axis 0 of (N,) or (N, K) values: a scalar, or one
    loss per column.

    Classification values are true-class probabilities, scored by NLL with
    each probability clamped into [1e-7, 1 - 1e-7]. Regression values are
    predictions, scored by squared error against the (N,) ``targets``; a
    squared error too large for float64 gives an infinite loss, which
    every caller rejects, so numpy's overflow warning is silenced.
    """
    # The ufuncs np.mean and np.clip call, without their Python wrappers:
    # the same values, bit for bit, in half the time on a training batch.
    # Each branch works in one new array the size of ``values``.
    n = values.shape[0]
    if task is TaskKind.CLASSIFICATION:
        terms = _clamp(values)
        np.log(terms, out=terms)
        np.negative(terms, out=terms)
        return np.add.reduce(terms, axis=0) / n
    targets = np.asarray(targets, dtype=np.float64)
    with np.errstate(over="ignore"):
        terms = values - targets.reshape((-1,) + (1,) * (values.ndim - 1))
        terms *= terms
        return np.add.reduce(terms, axis=0) / n


def _clamp(probs: np.ndarray) -> np.ndarray:
    """A new array of ``probs`` clamped into [PROB_CLAMP_LO, PROB_CLAMP_HI]."""
    clamped = np.maximum(probs, PROB_CLAMP_LO)
    return np.minimum(clamped, PROB_CLAMP_HI, out=clamped)


def loss_gradient(values: np.ndarray, targets: np.ndarray, task: TaskKind) -> np.ndarray:
    """dLoss/dvalues of ``loss`` for (N,) values; 0 where the clamp binds."""
    n = values.shape[0]
    if task is TaskKind.CLASSIFICATION:
        inside = (values > PROB_CLAMP_LO) & (values < PROB_CLAMP_HI)
        return np.where(inside, -1.0 / _clamp(values), 0.0) / n
    return 2.0 * (values - np.asarray(targets, dtype=np.float64)) / n


def _probs_and_labels(probs, labels, where: str) -> tuple:
    """``probs`` as a float64 (N, C) array of finite entries in [0, 1],
    with check_cube's 1e-12 slack, and ``labels`` checked against it;
    ``where`` starts each message."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ShapeError(f"probs must be (N, C), got shape {probs.shape}")
    labels = check_labels(labels, len(probs), TaskKind.CLASSIFICATION, probs.shape[1], where)
    # NaN fails both comparisons.
    if not (np.all(probs >= -1e-12) and np.all(probs <= 1.0 + 1e-12)):
        raise DataValidationError(f"{where} probabilities must be finite and in [0, 1]")
    return probs, labels


def nll(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true class, clamped.

    ``probs`` has shape (N, C); each probability is clamped into
    [1e-7, 1 - 1e-7] before the log so degenerate predictions stay finite.
    """
    probs, labels = _probs_and_labels(probs, labels, "nll")
    task = TaskKind.CLASSIFICATION
    return float(loss(probs[loss_index(labels, task)], labels, task))


def error_rate(probs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of instances whose argmax class (ties to the lowest index)
    differs from the label."""
    probs, labels = _probs_and_labels(probs, labels, "error_rate")
    return float(np.mean(np.argmax(probs, axis=1) != labels))


def auc_binary(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the rank statistic, ties counted 0.5.

    ``scores`` are scores for the positive class (label 1). Raises if only
    one class is present, where the metric is undefined.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = check_labels(labels, scores.shape[0], TaskKind.CLASSIFICATION, 2, "auc_binary")
    if not np.all(np.isfinite(scores)):
        raise DataValidationError("auc_binary scores must be finite")
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
    if predictions.size == 0:
        raise DataValidationError("mse has no instances")
    return float(loss(predictions, targets, TaskKind.REGRESSION))


def ambiguity(weights: np.ndarray, base_preds: np.ndarray) -> float:
    """Weighted spread of base predictions around their weighted mean.

    ``base_preds`` has shape (N, M) with N >= 1: one scalar prediction per
    instance and model (for classification, the true-class probability).
    A 1-D vector is treated as a single instance (1, M). ``weights`` is a
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
    if base_preds.shape[0] == 0:
        raise DataValidationError("ensemble base predictions need at least one instance")
    if weights.shape == base_preds.shape[1:]:
        weights = np.broadcast_to(weights, base_preds.shape)
    if weights.shape != base_preds.shape:
        raise ShapeError(
            f"weights shape {weights.shape} incompatible with base_preds {base_preds.shape}"
        )
    for name, values in (("weights", weights), ("base predictions", base_preds)):
        if not np.isfinite(values).all():
            raise DataValidationError(f"ensemble {name} must be finite")
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
    """MSE, and the unit-variance Gaussian NLL, which is affine in it."""
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
