"""Trainable per-instance ensemblers over frozen base-model predictions.

Two modes share one training loop:

* ``stacking``: a shared network scores each class column z^(c) (the M
  base-model outputs for class c) and the C scores go through a softmax
  (for regression, C=1, the score is the prediction).
* ``ma`` (model averaging): a deep-set gating network embeds every class
  column with a shared MLP, sums the embeddings, and maps the sum to M
  unnormalized weights. Their softmax gives per-instance simplex weights
  and the prediction is the weighted average of the base models.

Training regularizes with base-model dropout: each step samples one
Bernoulli retention mask shared across the batch, and the dropped models
leave the step. Only the retained models' predictions, scaled by 1/gamma
so the inference-time forward pass needs no compensation, reach the
networks' first layers. The MA gate, its softmax and the average run on
the retained models alone, models-major: the head's kept rows score a
(k, B) array, the softmax runs over its model axis, and the average
reads the kept cube model by model. ``keep`` always names the kept
models; inference is the same pass at gamma = 1 keeping them all, which
reads the cube as it is. The result equals zeroing the dropped models'
inputs and weights. Everything is deterministic in the config seed.

The forward pass returns the combiner's prediction in both modes: (B, C)
class probabilities, or the (B, 1) regression value. The training loss
is ``metrics.loss`` of the entries ``metrics.loss_index`` picks from it,
and ``predict`` is the same pass, unmasked, which keeps no activations.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import metrics, nn
from .data import (MetaDataset, SyntheticSpec, TaskKind, check_cube, check_integer, check_real,
                   generate)
from .errors import ConfigError, NumericError, ShapeError

MODE_STACKING = "stacking"
MODE_MA = "ma"

_MASK_RESAMPLE_LIMIT = 100


@dataclass(frozen=True)
class NEConfig:
    """Hyperparameters for one ensembler training run.

    ``dropout_rate`` is the probability delta of dropping a base model;
    the retention probability gamma is 1 - delta. ``layers`` and
    ``hidden_dim`` shape the stacking network; the model-averaging gater
    always uses a 3-layer embedding MLP plus a linear head, so ``layers``
    is ignored in that mode.
    """

    mode: str = MODE_MA
    dropout_rate: float = 0.75
    layers: int = 4
    hidden_dim: int = 32
    steps: int = 10000
    batch_size: int = 2048
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (MODE_STACKING, MODE_MA):
            raise ConfigError(f"mode must be '{MODE_STACKING}' or '{MODE_MA}', got {self.mode!r}")
        check_real("dropout rate", self.dropout_rate, "[0, 1)")
        for name in ("layers", "hidden_dim", "steps", "batch_size"):
            check_integer(name, getattr(self, name), 1)
        check_real("learning rate", self.learning_rate, "(0, inf)")
        check_integer("seed", self.seed, 0)

    @property
    def retain_prob(self) -> float:
        return 1.0 - self.dropout_rate


@dataclass
class NEParams:
    """Trained (or freshly initialized) ensembler networks.

    ``flat`` holds every trainable parameter. ``nets`` are DenseNets whose
    parameters are views into it, in ``flat`` order: the stacking column
    scorer, or the ma column embedder followed by the gating head.
    """

    mode: str
    n_models: int
    layer_dims: List[List[int]]
    flat: np.ndarray
    nets: List[nn.DenseNet] = field(init=False, repr=False)
    _bounds: List[Tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self):
        bounds = [0, *itertools.accumulate(map(nn.dense_param_count, self.layer_dims))]
        self._bounds = list(zip(bounds, bounds[1:]))
        self.nets = [nn.DenseNet(d, p) for d, p in zip(self.layer_dims, self.split(self.flat))]

    def split(self, vector: np.ndarray) -> List[np.ndarray]:
        """Per-net views of a vector laid out like ``flat``."""
        return [vector[start:end] for start, end in self._bounds]

    def __reduce__(self):
        # Pickled as its constructor arguments, so that a copy's nets are
        # views into the copy's own ``flat``, which is pickled once.
        return NEParams, (self.mode, self.n_models, self.layer_dims, self.flat)


def _layer_dims(config: NEConfig, n_models: int) -> List[List[int]]:
    """Layer dims of the combiner's networks, in ``NEParams.flat`` order."""
    check_integer("n_models", n_models, 1)
    h = config.hidden_dim
    if config.mode == MODE_STACKING:
        return [[n_models] + [h] * (config.layers - 1) + [1]]
    return [[n_models, h, h, h], [h, n_models]]


def param_count(config: NEConfig, n_models: int) -> int:
    """Exact trainable-parameter count; depends on (mode, M, H, L) only,
    never on the number of classes."""
    return sum(nn.dense_param_count(dims) for dims in _layer_dims(config, n_models))


def init_ne_params(config: NEConfig, n_models: int) -> NEParams:
    """Fresh networks for a dataset with ``n_models`` base models,
    deterministic in config.seed."""
    seeds = np.random.SeedSequence(config.seed).generate_state(2)
    dims = _layer_dims(config, n_models)
    flat = np.concatenate([nn.init_dense_net(d, int(s)).flat for d, s in zip(dims, seeds)])
    return NEParams(mode=config.mode, n_models=n_models, layer_dims=dims, flat=flat)


def sample_mask(n_models: int, retain_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli retention mask with at least one survivor.

    All-zero draws are resampled up to 100 times; if every draw still
    comes up empty, one uniformly chosen model is forced on.
    """
    if not 0.0 < retain_prob <= 1.0:
        raise ConfigError(f"retain_prob must be a number in (0, 1], got {retain_prob!r}")
    for _ in range(_MASK_RESAMPLE_LIMIT):
        mask = (rng.random(n_models) < retain_prob).astype(np.float64)
        if mask.any():
            return mask
    mask = np.zeros(n_models)
    mask[int(rng.integers(n_models))] = 1.0
    return mask


# ---------------------------------------------------------------------------
# Forward pass, training objective and analytic gradients
# ---------------------------------------------------------------------------


def _forward(
    params: NEParams, cube: np.ndarray, mask: Optional[np.ndarray], retain_prob: float
) -> Tuple[np.ndarray, tuple]:
    """Combiner prediction on a (B, M, C) cube plus the cache _backward needs.

    The prediction is (B, C): the softmax of the stacking column scores
    (the score itself when C = 1), or the ma average of the base models
    under the per-instance weights theta. ``keep`` names the models a
    mask keeps, all M without one; the first layer sees their columns
    only, scaled by 1/gamma, and a pass that keeps all M at gamma = 1
    reads the cube as it is. The ma gate scores the kept models only,
    models-major, as (k, B) scores softmaxed over the models. The cache
    starts with ``keep``; the ma cache ends with theta, (B, k). Inference,
    a pass without a mask, keeps no column activations: ``acts`` is None.
    """
    keep = np.arange(cube.shape[1]) if mask is None else np.flatnonzero(mask)
    kept = x = cube
    if len(keep) < cube.shape[1] or retain_prob != 1.0:
        # take, unlike cube[:, keep], returns a C-contiguous array; sums over
        # the models of a transposed layout would round differently.
        kept = cube.take(keep, axis=1)
        x = kept * (1.0 / retain_prob)
    # The column kernel: one shared network scores or embeds each class column;
    # only training keeps the columns' activations, for _backward.
    columns = (nn.forward(params.nets[0], x[:, :, c], columns=keep) for c in range(x.shape[2]))
    outs, acts = zip(*columns) if mask is not None else (map(operator.itemgetter(0), columns), None)
    if params.mode == MODE_STACKING:
        out = np.concatenate(list(outs), axis=1)
        if out.shape[1] > 1:
            out = nn.softmax(out)
        return out, (keep, acts, out)
    head = params.nets[1]
    embed = functools.reduce(np.add, outs)  # the deep-set sum, in class order
    weights = head.weights[0][keep]
    scores = weights @ embed.T
    scores += head.biases[0][keep, None]
    theta = nn.softmax(scores, axis=0)
    out = np.einsum("mb,bmc->bc", theta, kept)
    return out, (keep, kept, acts, embed, weights, theta.T)


def _objective(out: np.ndarray, labels: np.ndarray, task: TaskKind) -> Tuple[float, np.ndarray]:
    """Training loss of a _forward prediction and its gradient dLoss/dout:
    ``metrics.loss`` of the entries ``metrics.loss_index`` picks."""
    index = metrics.loss_index(labels, task)
    values = out[index]
    dout = np.zeros_like(out)
    dout[index] = metrics.loss_gradient(values, labels, task)
    return float(metrics.loss(values, labels, task)), dout


def _backward(params: NEParams, cache: tuple, dout: np.ndarray) -> np.ndarray:
    """Gradient of the loss in every parameter, laid out like params.flat.
    Models a mask dropped get exactly 0: their first-layer weight columns,
    and their rows and biases of the ma head."""
    grad = np.zeros_like(params.flat)
    grads = params.split(grad)
    if params.mode == MODE_STACKING:
        keep, acts, out = cache
        if out.shape[1] > 1:
            dout = nn.softmax_backward(out, dout)
        douts = [dout[:, c : c + 1] for c in range(dout.shape[1])]
    else:
        keep, kept, acts, embed, weights, theta = cache
        dscores = nn.softmax_backward(theta.T, np.einsum("bc,bmc->mb", dout, kept), axis=0)
        (grad_weights,), (grad_biases,) = params.nets[1].unpack(grads[1])
        grad_weights[keep] = dscores @ embed
        grad_biases[keep] = dscores.sum(axis=1)
        douts = [dscores.T @ weights] * len(acts)
    # The column kernel's gradient, summed over the class columns in class
    # order; only the kept models' first-layer weight columns get one.
    for a, column_dout in zip(acts, douts):
        nn.backward(params.nets[0], a, column_dout, grads[0], columns=keep)
    return grad


def _loss_and_gradients(
    params: NEParams,
    cube: np.ndarray,
    labels: np.ndarray,
    task: TaskKind,
    mask: Optional[np.ndarray],
    retain_prob: float,
) -> Tuple[float, np.ndarray]:
    """Training loss plus its analytic gradient, laid out like params.flat."""
    out, cache = _forward(params, cube, mask, retain_prob)
    loss, dout = _objective(out, labels, task)
    return loss, _backward(params, cache, dout)


# ---------------------------------------------------------------------------
# Inference and training
# ---------------------------------------------------------------------------


def _check_cube(params: NEParams, cube: np.ndarray) -> np.ndarray:
    cube = np.asarray(cube, dtype=np.float64)
    if cube.ndim != 3 or cube.shape[1] != params.n_models:
        raise ShapeError(f"prediction cube shape {cube.shape} does not match M={params.n_models}")
    check_cube(cube, "prediction cube")
    return cube


def predict(params: NEParams, cube: np.ndarray) -> np.ndarray:
    """Inference-path predictions for an (N, M, C) cube, run unmasked.

    Returns _forward's (N, C) class probabilities, or (N,) for
    regression (C = 1). Stacking rows are the softmax of the column
    scores; ma rows are convex combinations of base-model simplex rows,
    so they sum to 1 up to rounding.
    """
    cube = _check_cube(params, cube)
    out, _ = _forward(params, cube, None, 1.0)
    return out[:, 0] if cube.shape[2] == 1 else out


def ma_weights(params: NEParams, cube: np.ndarray) -> np.ndarray:
    """Inference-path per-instance weights (N, M); rows are simplex vectors."""
    if params.mode != MODE_MA:
        raise ConfigError(f"ma_weights needs a '{MODE_MA}' combiner, got {params.mode!r}")
    cube = _check_cube(params, cube)
    _, cache = _forward(params, cube, None, 1.0)
    return cache[-1]


def train(ds: MetaDataset, config: NEConfig) -> Tuple[NEParams, List[float]]:
    """Fit an ensembler on the validation split of ``ds``.

    Runs config.steps Adam updates. Each step samples a with-replacement
    batch of min(batch_size, N) validation instances and one retention
    mask shared across the batch, then minimizes clamped NLL
    (classification) or MSE (regression). Returns the trained parameters
    and the per-step training-loss trace. Fully deterministic in
    config.seed; the test split is never touched.
    """
    if ds.val is None:
        raise ConfigError(f"{ds.name}: train needs the val split, which is not loaded")
    cube = ds.val.predictions
    labels = ds.val.labels
    n = cube.shape[0]
    batch = min(config.batch_size, n)
    gamma = config.retain_prob

    params = init_ne_params(config, ds.n_models)
    state = nn.adam_init(params.flat, learning_rate=config.learning_rate)
    rng = np.random.default_rng(int(np.random.SeedSequence(config.seed).generate_state(3)[2]))

    trace: List[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.steps):
            idx = rng.integers(0, n, size=batch)
            mask = sample_mask(ds.n_models, gamma, rng)
            loss, grad = _loss_and_gradients(
                params, cube[idx], labels[idx], ds.task, mask, gamma
            )
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss at step {step}")
            nn.adam_step_arrays(params.flat, grad, state)
            trace.append(loss)
    return params, trace


# ---------------------------------------------------------------------------
# Diversity diagnostics
# ---------------------------------------------------------------------------


def diversity_limit_oracle(
    retain_prob: float,
    rho_p: float,
    n_models: int,
    n_samples: int = 20000,
    n_masks: int = 4000,
    seed: int = 0,
) -> float:
    """Monte-Carlo ambiguity of a dropout ensemble with correlation weights.

    Draws standardized preferred-model regression data, weights each
    model by its squared sample correlation with the target (normalized
    to a simplex), applies raw Bernoulli retention masks to the weighted
    mean, and averages sum_m theta_m (z_m - zbar)^2 over instances and
    masks. As rho_p -> 1 the result approaches the dropout rate
    1 - retain_prob; with full retention it approaches 0.
    """
    check_real("retain_prob", retain_prob, "(0, 1]")
    check_integer("n_samples", n_samples, 2)
    check_integer("n_masks", n_masks, 1)
    check_integer("seed", seed, 0)
    data_seed, mask_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    ds = generate(SyntheticSpec(kind="preferred", n_instances=n_samples, n_models=n_models,
                                rho_p=rho_p, seed=data_seed))
    z = ds.val.predictions[:, :, 0]
    y = ds.val.labels
    rho_hat = (z * y[:, None]).mean(axis=0)
    theta = rho_hat**2
    theta = theta / theta.sum()

    rng = np.random.default_rng(mask_seed)
    masks = (rng.random((n_masks, n_models)) < retain_prob).astype(np.float64)
    # Per instance the spread is A_i - 2*zbar_i*B_i + zbar_i^2 with
    # A = (z*z) @ theta, B = z @ theta and zbar = z @ (mask*theta).
    # Averaging over instances first reduces each mask to O(M^2) work
    # via the second-moment matrix of the predictions.
    n = z.shape[0]
    z_theta = z @ theta
    a_bar = float(((z * z) @ theta).mean())
    cross = (z.T @ z_theta) / n
    second_moment = (z.T @ z) / n
    w = masks * theta
    quad = np.einsum("km,mn,kn->k", w, second_moment, w)
    return a_bar - 2.0 * float((w @ cross).mean()) + float(quad.mean())
