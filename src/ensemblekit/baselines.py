"""Classical post-hoc ensembling baselines over frozen predictions.

Single best, random-N, top-N, quick and greedy selection, Akaike
weighting, and a gradient-fit constant model average. All of them fit on
the validation split only and produce either a static simplex weight
vector over the M base models or an explicit model selection. Selection
quality is judged by clamped NLL for classification and MSE for
regression; every tie goes to the lowest model index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import metrics, nn
from .data import TaskKind, check_integer, check_labels, check_seed
from .errors import ConfigError, ShapeError

DEFAULT_N = 50


@dataclass(frozen=True)
class ModelSelection:
    """An ordered pick list (repeats allowed) over M base models."""

    indices: Tuple[int, ...]
    n_models: int

    def __post_init__(self):
        check_integer("n_models", self.n_models, 1)
        if not isinstance(self.indices, (tuple, list)):
            raise ConfigError(f"indices must be a tuple or list, got {self.indices!r}")
        if len(self.indices) == 0:
            raise ConfigError("a model selection cannot be empty")
        for i in self.indices:
            check_integer("selection index", i, 0)
        if any(i >= self.n_models for i in self.indices):
            raise ConfigError(f"selection indices out of range for M={self.n_models}")

    def weights(self) -> np.ndarray:
        """Uniform average over the pick multiset as a simplex vector."""
        w = np.zeros(self.n_models)
        for i in self.indices:
            w[i] += 1.0
        return w / len(self.indices)


def predict_static(weights: np.ndarray, predictions: np.ndarray) -> np.ndarray:
    """Combine a prediction cube (N, M, C) with static weights (M,) -> (N, C)."""
    weights = np.asarray(weights, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    if predictions.ndim != 3 or weights.ndim != 1 or weights.shape[0] != predictions.shape[1]:
        raise ShapeError(
            f"weights {weights.shape} do not match prediction cube {predictions.shape}"
        )
    return np.einsum("m,nmc->nc", weights, predictions)


def model_losses(predictions: np.ndarray, labels: np.ndarray, task: TaskKind) -> np.ndarray:
    """Per-model validation loss (M,): clamped NLL or MSE."""
    labels = check_labels(labels, len(predictions), task, predictions.shape[-1], "model_losses")
    return metrics.loss(predictions[metrics.loss_index(labels, task)], labels, task)


def single_best(predictions: np.ndarray, labels: np.ndarray, task: TaskKind) -> int:
    """Index of the model with the lowest validation loss (ties -> lowest)."""
    return int(np.argmin(model_losses(predictions, labels, task)))


def top_n(
    predictions: np.ndarray, labels: np.ndarray, task: TaskKind, n: int = DEFAULT_N
) -> ModelSelection:
    """Uniform ensemble of the N individually best models."""
    check_integer("n", n, 1)
    losses = model_losses(predictions, labels, task)
    n = min(n, losses.shape[0])
    order = np.argsort(losses, kind="stable")[:n]
    return ModelSelection(indices=tuple(int(i) for i in order), n_models=losses.shape[0])


def random_n(n_models: int, n: int = DEFAULT_N, seed: int = 0) -> ModelSelection:
    """Uniform ensemble of N distinct models drawn uniformly at random."""
    check_integer("n", n, 1)
    check_integer("n_models", n_models, 1)
    check_seed(seed)
    n = min(n, n_models)
    rng = np.random.default_rng(seed)
    picks = rng.choice(n_models, size=n, replace=False)
    return ModelSelection(indices=tuple(int(i) for i in picks), n_models=n_models)


def greedy_select(
    predictions: np.ndarray, labels: np.ndarray, task: TaskKind, n_slots: int = DEFAULT_N
) -> ModelSelection:
    """Forward selection with replacement over uniform averages.

    Each round adds the model (repeats allowed) whose inclusion gives the
    lowest validation loss of the uniform average over all picks so far;
    ties go to the lowest index. Runs exactly ``n_slots`` rounds.
    """
    check_integer("n_slots", n_slots, 1)
    labels = check_labels(labels, len(predictions), task, predictions.shape[-1], "greedy_select")
    proj = predictions[metrics.loss_index(labels, task)]
    m_models = proj.shape[1]
    running = np.zeros(proj.shape[0])
    candidates = np.empty(proj.shape)  # every round's averages, in one buffer
    picks = []
    for k in range(n_slots):
        np.add(running[:, None], proj, out=candidates)
        candidates /= k + 1
        losses = metrics.loss(candidates, labels, task)
        best = int(np.argmin(losses))
        picks.append(best)
        running += proj[:, best]
    return ModelSelection(indices=tuple(picks), n_models=m_models)


def quick_select(
    predictions: np.ndarray, labels: np.ndarray, task: TaskKind, n: int = DEFAULT_N
) -> ModelSelection:
    """One-pass selection: visit models best-first, keep strict improvers.

    Starts from the single best model, then walks the remaining models in
    ascending individual-loss order, keeping a candidate only if adding
    it strictly lowers the loss of the uniform average. Stops after all
    models were considered or N models were kept. Never worse than the
    single best model on validation.
    """
    check_integer("n", n, 1)
    labels = check_labels(labels, len(predictions), task, predictions.shape[-1], "quick_select")
    proj = predictions[metrics.loss_index(labels, task)]
    losses = metrics.loss(proj, labels, task)
    order = np.argsort(losses, kind="stable")
    first = int(order[0])
    picks = [first]
    running = proj[:, first].copy()
    current_loss = float(metrics.loss(running, labels, task))
    for m in order[1:]:
        if len(picks) >= n:
            break
        candidate = (running + proj[:, m]) / (len(picks) + 1)
        cand_loss = float(metrics.loss(candidate, labels, task))
        if cand_loss < current_loss:
            picks.append(int(m))
            running += proj[:, m]
            current_loss = cand_loss
    return ModelSelection(indices=tuple(picks), n_models=proj.shape[1])


def akaike_weights(losses: np.ndarray) -> np.ndarray:
    """Constant weights w_i proportional to exp(-(loss_i - min loss) / 2)."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or losses.size == 0:
        raise ShapeError(f"losses must be a nonempty vector, got shape {losses.shape}")
    if not np.all(np.isfinite(losses)):
        raise ConfigError("losses must be finite")
    delta = losses - losses.min()
    w = np.exp(-0.5 * delta)
    return w / w.sum()


def _constant_ma_gradient(
    v: np.ndarray, projected: np.ndarray, labels: np.ndarray, task: TaskKind
) -> np.ndarray:
    """Gradient in v of the validation loss of softmax(v)-weighted averaging,
    ``metrics.loss(projected @ softmax(v), labels, task)``."""
    w = nn.softmax(v)
    dl_dw = projected.T @ metrics.loss_gradient(projected @ w, labels, task)
    return w * (dl_dw - float(np.dot(w, dl_dw)))


def fit_constant_ma(
    predictions: np.ndarray,
    labels: np.ndarray,
    task: TaskKind,
    steps: int = 2000,
    learning_rate: float = 1e-3,
) -> np.ndarray:
    """Learn a constant simplex weight vector by Adam on the validation loss.

    Weights are the softmax of a free vector initialized at zero, so the
    fit starts from the uniform average. The optimization is full-batch
    and deterministic.
    """
    check_integer("steps", steps, 1)
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = check_labels(labels, len(predictions), task, predictions.shape[-1], "fit_constant_ma")
    proj = predictions[metrics.loss_index(labels, task)]
    v = np.zeros(proj.shape[1])
    state = nn.adam_init(v, learning_rate=learning_rate)
    # An overflow reaches Adam as a non-finite gradient, which raises
    # NumericError there; numpy's warning on the way is noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            nn.adam_step_arrays(v, _constant_ma_gradient(v, proj, labels, task), state)
    return nn.softmax(v)
