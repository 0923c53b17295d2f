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
reads the kept cube model by model. Inference is the same pass with
every model kept. The result equals zeroing the dropped models'
inputs and weights. Everything is deterministic in the config seed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import metrics, nn
from .data import MetaDataset, SyntheticSpec, TaskKind, check_simplex, generate_preferred_model
from .errors import ConfigError, DataValidationError, NumericError, ShapeError

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
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        if self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")

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


def _layer_dims(config: NEConfig, n_models: int) -> List[List[int]]:
    """Layer dims of the combiner's networks, in ``NEParams.flat`` order."""
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
    if n_models < 1:
        raise ConfigError(f"need at least one base model, got {n_models}")
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
        raise ConfigError(f"retain_prob must lie in (0, 1], got {retain_prob}")
    for _ in range(_MASK_RESAMPLE_LIMIT):
        mask = (rng.random(n_models) < retain_prob).astype(np.float64)
        if mask.any():
            return mask
    mask = np.zeros(n_models)
    mask[int(rng.integers(n_models))] = 1.0
    return mask


# ---------------------------------------------------------------------------
# The column kernel: one shared network applied to every class column
# ---------------------------------------------------------------------------


def _columns_forward(
    net: nn.DenseNet, x: np.ndarray, keep: Optional[np.ndarray], pooled: bool
) -> Tuple[np.ndarray, List[List[np.ndarray]]]:
    """Run ``net`` on each class column x[:, :, c] of a (B, M, C) cube,
    or of a (B, k, C) cube of the models ``keep`` only.

    Returns the column outputs side by side, (B, C * d_out), or, when
    ``pooled``, summed over classes in class order (the deep-set
    embedding), plus each column's activations for _columns_backward.
    """
    outs, acts = [], []
    for c in range(x.shape[2]):
        out, a = nn.forward(net, x[:, :, c], columns=keep)
        outs.append(out)
        acts.append(a)
    if pooled:
        return functools.reduce(np.add, outs), acts
    return np.concatenate(outs, axis=1), acts


def _columns_backward(
    net: nn.DenseNet,
    acts: List[List[np.ndarray]],
    dout: np.ndarray,
    grad: np.ndarray,
    keep: Optional[np.ndarray],
    pooled: bool,
) -> None:
    """Add ``net``'s parameter gradients, summed over class columns in
    class order, into ``grad``; ``dout`` is dLoss/d(_columns_forward output).
    With ``keep``, only those columns of the first layer's weights get a
    gradient."""
    width = net.layer_dims[-1]
    for c, a in enumerate(acts):
        column_dout = dout if pooled else dout[:, c * width : (c + 1) * width]
        nn.backward(net, a, column_dout, grad, columns=keep)


# ---------------------------------------------------------------------------
# Forward pass, training objective and analytic gradients
# ---------------------------------------------------------------------------


def _forward(
    params: NEParams, cube: np.ndarray, mask: Optional[np.ndarray], retain_prob: float
) -> Tuple[np.ndarray, tuple]:
    """Combiner output on a (B, M, C) cube plus the cache _backward needs.

    The output is (B, C): the stacking column scores, or the ma average
    of the base models under the per-instance weights theta. A train-time
    mask drops models from the pass: the first layer sees the kept
    models' columns only, scaled by 1/gamma. The ma gate scores the kept
    models only, models-major: the head's kept rows give (k, B) scores,
    softmaxed over the models. The cache starts with ``keep`` and ends
    with theta, (B, k). Unmasked, every model is kept.
    """
    if mask is None:
        keep, kept, x = None, cube, cube
    else:
        keep = np.flatnonzero(mask)
        # take, unlike cube[:, keep], returns a C-contiguous array; sums over
        # the models of a transposed layout would round differently.
        kept = cube.take(keep, axis=1)
        x = kept * (1.0 / retain_prob)
    if params.mode == MODE_STACKING:
        scores, acts = _columns_forward(params.nets[0], x, keep, pooled=False)
        return scores, (keep, acts)
    embedder, head = params.nets
    embed, acts = _columns_forward(embedder, x, keep, pooled=True)
    rows = slice(None) if keep is None else keep
    weights = head.weights[0][rows]
    scores = weights @ embed.T
    scores += head.biases[0][rows, None]
    theta = nn.softmax(scores, axis=0)
    out = np.einsum("mb,bmc->bc", theta, kept)
    return out, (keep, kept, acts, embed, weights, theta.T)


def _objective(
    out: np.ndarray, labels: np.ndarray, task: TaskKind, mode: str
) -> Tuple[float, np.ndarray]:
    """Training loss of a _forward output and its gradient dLoss/dout.

    The loss is ``metrics.loss`` of one value per row: the true-class
    probability (of softmax(scores) for stacking, of the averaged
    probabilities for ma), or the single regression column.
    """
    if task is TaskKind.REGRESSION:
        values = out[:, 0]
        dout = metrics.loss_gradient(values, labels, task)[:, None]
        return float(metrics.loss(values, labels, task)), dout
    softmax = mode == MODE_STACKING
    scored = nn.softmax(out) if softmax else out
    rows = np.arange(out.shape[0])
    values = scored[rows, labels]
    dscored = np.zeros_like(scored)
    dscored[rows, labels] = metrics.loss_gradient(values, labels, task)
    dout = nn.softmax_backward(scored, dscored) if softmax else dscored
    return float(metrics.loss(values, labels, task)), dout


def _backward(params: NEParams, cache: tuple, dout: np.ndarray) -> np.ndarray:
    """Gradient of the loss in every parameter, laid out like params.flat.
    Models a mask dropped get exactly 0: their first-layer weight columns,
    and their rows and biases of the ma head."""
    grad = np.zeros_like(params.flat)
    if params.mode == MODE_STACKING:
        keep, acts = cache
        _columns_backward(params.nets[0], acts, dout, grad, keep, pooled=False)
        return grad
    keep, kept, acts, embed, weights, theta = cache
    embedder, head = params.nets
    grad_embedder, grad_head = params.split(grad)
    dscores = nn.softmax_backward(theta.T, np.einsum("bc,bmc->mb", dout, kept), axis=0)
    (grad_weights,), (grad_biases,) = head.unpack(grad_head)
    rows = slice(None) if keep is None else keep
    grad_weights[rows] = dscores @ embed
    grad_biases[rows] = dscores.sum(axis=1)
    _columns_backward(embedder, acts, dscores.T @ weights, grad_embedder, keep, pooled=True)
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
    loss, dout = _objective(out, labels, task, params.mode)
    return loss, _backward(params, cache, dout)


# ---------------------------------------------------------------------------
# Inference and training
# ---------------------------------------------------------------------------


def _check_cube(params: NEParams, cube: np.ndarray) -> np.ndarray:
    cube = np.asarray(cube, dtype=np.float64)
    if cube.ndim != 3 or cube.shape[1] != params.n_models:
        raise ShapeError(
            f"prediction cube shape {cube.shape} does not match M={params.n_models}"
        )
    finite = np.isfinite(cube)
    if not finite.all():
        i, m, c = np.argwhere(~finite)[0]
        raise DataValidationError(f"prediction cube entry (instance {i}, model {m}, "
                                  f"class {c}) is not finite: {cube[i, m, c]}")
    if cube.shape[2] > 1:
        check_simplex(cube, "prediction cube")
    return cube


def predict(params: NEParams, cube: np.ndarray) -> np.ndarray:
    """Inference-path predictions for an (N, M, C) cube, run unmasked.

    Returns (N, C) class probabilities, or (N,) for regression (C = 1).
    Stacking rows are the softmax of the column scores; ma rows are
    convex combinations of base-model simplex rows, so they sum to 1 up
    to rounding.
    """
    cube = _check_cube(params, cube)
    out, _ = _forward(params, cube, None, 1.0)
    if cube.shape[2] == 1:
        return out[:, 0]
    return nn.softmax(out) if params.mode == MODE_STACKING else out


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
    if not 0.0 < retain_prob <= 1.0:
        raise ConfigError(f"retain_prob must lie in (0, 1], got {retain_prob}")
    if n_samples < 2 or n_masks < 1:
        raise ConfigError("need n_samples >= 2 and n_masks >= 1")
    data_seed, mask_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    ds = generate_preferred_model(
        SyntheticSpec(kind="preferred", n_instances=n_samples, n_models=n_models,
                      rho_p=rho_p, seed=data_seed)
    )
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
