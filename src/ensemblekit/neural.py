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
Bernoulli retention mask shared across the batch, zeroes the dropped
models' inputs (and their MA weights, renormalizing over the survivors),
and scales retained inputs by 1/gamma so the inference-time forward pass
needs no compensation. Everything is deterministic in the config seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import nn
from .data import MetaDataset, SyntheticSpec, TaskKind, generate_preferred_model
from .errors import ConfigError, DataValidationError, NumericError, ShapeError
from .metrics import PROB_CLAMP_HI, PROB_CLAMP_LO

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

    def __post_init__(self):
        self.nets = [nn.DenseNet(d, p) for d, p in zip(self.layer_dims, self.split(self.flat))]

    def split(self, vector: np.ndarray) -> List[np.ndarray]:
        """Per-net views of a vector laid out like ``flat``."""
        return np.split(vector, np.cumsum([nn.dense_param_count(d) for d in self.layer_dims])[:-1])

    def parameter_count(self) -> int:
        return self.flat.size


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


def _masked_softmax(scores: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    """Row-wise softmax over the retained entries; masked entries exactly 0."""
    if mask is None:
        return nn.softmax(scores)
    blocked = np.where(mask[None, :] > 0, scores, -np.inf)
    shifted = blocked - blocked.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# The column kernel: one shared network applied to every class column
# ---------------------------------------------------------------------------


def _columns_forward(
    net: nn.DenseNet, x: np.ndarray, pooled: bool
) -> Tuple[np.ndarray, List[List[np.ndarray]]]:
    """Run ``net`` on each class column x[:, :, c] of a (B, M, C) cube.

    Returns the column outputs side by side, (B, C * d_out), or, when
    ``pooled``, summed over classes in class order (the deep-set
    embedding), plus each column's activations for _columns_backward.
    """
    outs, acts = [], []
    for c in range(x.shape[2]):
        out, a = nn.forward(net, x[:, :, c])
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
    pooled: bool,
) -> None:
    """Add ``net``'s parameter gradients, summed over class columns in
    class order, into ``grad``; ``dout`` is dLoss/d(_columns_forward output)."""
    width = net.layer_dims[-1]
    for c, a in enumerate(acts):
        column_dout = dout if pooled else dout[:, c * width : (c + 1) * width]
        nn.backward(net, a, column_dout, grad, input_gradient=False)


# ---------------------------------------------------------------------------
# Forward pass, training loss and analytic gradients
# ---------------------------------------------------------------------------


def _forward(
    params: NEParams, cube: np.ndarray, mask: Optional[np.ndarray], retain_prob: float
) -> Tuple[np.ndarray, tuple]:
    """Combiner output on a (B, M, C) cube plus the cache _backward needs.

    The output is (B, C): the stacking column scores, or the ma average
    of the base models under the per-instance weights theta. Train-time
    masks zero dropped models' inputs and scale the rest by 1/gamma.
    """
    x = cube if mask is None else cube * (mask / retain_prob)[None, :, None]
    if params.mode == MODE_STACKING:
        scores, acts = _columns_forward(params.nets[0], x, pooled=False)
        return scores, (acts,)
    embedder, head = params.nets
    embed, acts = _columns_forward(embedder, x, pooled=True)
    gate, head_acts = nn.forward(head, embed)
    theta = _masked_softmax(gate, mask)
    return np.einsum("bm,bmc->bc", theta, cube), (acts, head_acts, theta)


def _nll_output_grad(probs: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
    """Clamped mean NLL, per-instance weight u (0 where clamped), true-class p."""
    n = probs.shape[0]
    p_true = probs[np.arange(n), labels]
    clamped = np.clip(p_true, PROB_CLAMP_LO, PROB_CLAMP_HI)
    loss = float(np.mean(-np.log(clamped)))
    inside = (p_true > PROB_CLAMP_LO) & (p_true < PROB_CLAMP_HI)
    u = np.where(inside, 1.0 / n, 0.0)
    return loss, u, clamped


def _objective(
    out: np.ndarray, labels: np.ndarray, task: TaskKind, mode: str
) -> Tuple[float, np.ndarray]:
    """Training loss of a _forward output and its gradient dLoss/dout:
    clamped NLL of softmax(scores) (stacking) or of the averaged
    probabilities (ma), or the MSE of the single output column."""
    batch = out.shape[0]
    if task is TaskKind.REGRESSION:
        resid = out[:, 0] - labels
        return float(np.mean(resid * resid)), (2.0 * resid / batch)[:, None]
    rows = np.arange(batch)
    if mode == MODE_STACKING:
        probs = nn.softmax(out)
        loss, u, _ = _nll_output_grad(probs, labels)
        onehot = np.zeros_like(probs)
        onehot[rows, labels] = 1.0
        return loss, (probs - onehot) * u[:, None]
    loss, u, clamped = _nll_output_grad(out, labels)
    dout = np.zeros_like(out)
    dout[rows, labels] = -u / clamped
    return loss, dout


def _backward(params: NEParams, cube: np.ndarray, cache: tuple, dout: np.ndarray) -> np.ndarray:
    """Gradient of the loss in every parameter, laid out like params.flat."""
    grad = np.zeros_like(params.flat)
    if params.mode == MODE_STACKING:
        _columns_backward(params.nets[0], cache[0], dout, grad, pooled=False)
        return grad
    acts, head_acts, theta = cache
    embedder, head = params.nets
    grad_embedder, grad_head = params.split(grad)
    dtheta = np.einsum("bc,bmc->bm", dout, cube)
    # Softmax Jacobian restricted to the retained support: masked entries
    # have theta = 0, so their gate gradient vanishes exactly.
    dgate = theta * (dtheta - np.sum(theta * dtheta, axis=1, keepdims=True))
    dembed = nn.backward(head, head_acts, dgate, grad_head)
    _columns_backward(embedder, acts, dembed, grad_embedder, pooled=True)
    return grad


def _training_loss(
    params: NEParams,
    cube: np.ndarray,
    labels: np.ndarray,
    task: TaskKind,
    mask: Optional[np.ndarray],
    retain_prob: float,
) -> float:
    """Forward-only training objective; the finite-difference oracle target."""
    out, _ = _forward(params, cube, mask, retain_prob)
    return _objective(out, labels, task, params.mode)[0]


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
    return loss, _backward(params, cube, cache, dout)


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
    _, (_, _, theta) = _forward(params, cube, None, 1.0)
    return theta


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
