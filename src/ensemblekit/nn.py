"""Minimal dense feed-forward networks on float64 numpy arrays.

Everything a small combiner network needs and nothing more: fully
connected layers with rectifier hidden activations and an identity final
layer, hand-derived backpropagation, a bias-corrected Adam optimizer, a
numerically stable softmax, and a central finite-difference gradient
checker used to validate the analytic gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, NumericError, ShapeError


@dataclass
class DenseNet:
    """Fully connected network whose parameters live in one float64 vector.

    ``flat`` holds W0, b0, W1, b1, ... in that order; ``weights[l]``
    (shape (layer_dims[l+1], layer_dims[l])) and ``biases[l]`` (shape
    (layer_dims[l+1],)) are views into it, so updating ``flat`` in place
    updates the network. Hidden layers apply a rectifier; the final layer
    is identity so outputs live on the whole real line.
    """

    layer_dims: List[int]
    flat: np.ndarray
    weights: List[np.ndarray] = field(init=False, repr=False)
    biases: List[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        size = dense_param_count(self.layer_dims)
        if self.flat.shape != (size,):
            raise ShapeError(f"layer dims {self.layer_dims} need {size} parameters, "
                             f"got shape {self.flat.shape}")
        self.weights, self.biases = self.unpack(self.flat)

    def unpack(self, vector: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Per-layer weight and bias views of a vector laid out like ``flat``."""
        weights, biases, start = [], [], 0
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            weights.append(vector[start : start + fan_in * fan_out].reshape(fan_out, fan_in))
            start += fan_in * fan_out
            biases.append(vector[start : start + fan_out])
            start += fan_out
        return weights, biases

    def parameter_count(self) -> int:
        return self.flat.size


def dense_param_count(layer_dims: Sequence[int]) -> int:
    """Weights plus biases of a DenseNet with these layer dims."""
    return sum((d_in + 1) * d_out for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]))


def init_dense_net(layer_dims: Sequence[int], seed: int) -> DenseNet:
    """Create a DenseNet with scaled-uniform weights and zero biases.

    Weights for a layer with fan_in inputs are drawn uniformly from
    [-sqrt(6/fan_in), sqrt(6/fan_in)], a rectifier-friendly scale.
    Identical (layer_dims, seed) pairs yield bit-identical parameters.
    """
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2:
        raise ConfigError(f"need at least input and output dims, got {layer_dims}")
    if any(d <= 0 for d in dims):
        raise ConfigError(f"layer dims must be positive, got {layer_dims}")
    rng = np.random.default_rng(seed)
    net = DenseNet(layer_dims=dims, flat=np.zeros(dense_param_count(dims)))
    for w, fan_in in zip(net.weights, dims[:-1]):
        bound = np.sqrt(6.0 / fan_in)
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


def forward(net: DenseNet, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Run the network on a batch (B, d0).

    Returns the output (B, d_out) plus the activations backward needs:
    ``activations[0]`` is the input and ``activations[l+1]`` the
    post-activation output of layer l.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.layer_dims[0]:
        raise ShapeError(f"input has shape {x.shape}, expected (B, {net.layer_dims[0]})")
    activations = [x]
    a = x
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w.T
        a += b
        if l < last:
            np.maximum(a, 0.0, out=a)
        activations.append(a)
    return a, activations


def backward(
    net: DenseNet,
    activations: List[np.ndarray],
    output_gradient: np.ndarray,
    grad: np.ndarray,
    input_gradient: bool = True,
) -> Optional[np.ndarray]:
    """Backpropagate a loss gradient through a cached forward pass.

    ``output_gradient`` is dLoss/dOutput with the shape of the forward
    output. Parameter gradients, summed over the batch, are added into
    ``grad``, a vector laid out like ``net.flat``; adding rather than
    overwriting lets callers accumulate several passes of a shared
    network. Returns dLoss/dInput, or None without computing it when
    ``input_gradient`` is false.
    """
    delta = np.asarray(output_gradient, dtype=np.float64)
    if delta.shape != activations[-1].shape:
        raise ShapeError(
            f"output gradient shape {delta.shape} != output shape {activations[-1].shape}"
        )
    weight_grads, bias_grads = net.unpack(grad)
    for l in range(len(net.weights) - 1, -1, -1):
        a_prev = activations[l]
        weight_grads[l] += delta.T @ a_prev
        bias_grads[l] += delta.sum(axis=0)
        if l > 0:
            delta = delta @ net.weights[l]
            # a_prev is post-rectifier output of layer l-1: zero entries
            # had non-positive pre-activations, so they block the gradient.
            delta *= a_prev > 0.0
    return delta @ net.weights[0] if input_gradient else None


@dataclass
class AdamState:
    """Moment estimates and hyperparameters for bias-corrected Adam."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0


def adam_init(params: np.ndarray, learning_rate: float = 1e-3) -> AdamState:
    """Zero-initialized Adam state for a parameter vector."""
    if learning_rate < 0:
        raise ConfigError(f"learning rate must be nonnegative, got {learning_rate}")
    return AdamState(np.zeros_like(params), np.zeros_like(params), learning_rate)


def adam_step_arrays(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of the vector ``params``, in place.

    Raises before touching anything if a gradient entry is not finite.
    """
    if params.shape != state.first_moment.shape or grads.shape != params.shape:
        raise ShapeError(
            f"params {params.shape}, grads {grads.shape} and Adam state "
            f"{state.first_moment.shape} must have matching shapes"
        )
    if not np.all(np.isfinite(grads)):
        raise NumericError("non-finite gradient passed to Adam update")
    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    m, v = state.first_moment, state.second_moment
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * grads * grads
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    params -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    state.step_count = t


def softmax(values: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max is subtracted first)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0 or v.shape[-1] == 0:
        raise ConfigError("softmax of an empty vector is undefined")
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def finite_difference_gradients(
    loss_fn: Callable[[], float], params: Sequence[np.ndarray], step: float = 1e-5
) -> List[np.ndarray]:
    """Central-difference gradient of a scalar loss w.r.t. parameter arrays.

    ``loss_fn`` must read the arrays in ``params`` (they are perturbed in
    place and restored). This is the independent oracle the analytic
    backward pass is checked against.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            original = flat_p[i]
            flat_p[i] = original + step
            up = loss_fn()
            flat_p[i] = original - step
            down = loss_fn()
            flat_p[i] = original
            flat_g[i] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def gradient_errors(
    analytic: Sequence[np.ndarray],
    numeric: Sequence[np.ndarray],
    scale_fraction: float = 1e-3,
    floor: float = 1e-5,
) -> Tuple[float, float]:
    """Compare analytic vs numeric gradients.

    Per-element relative error is |a - n| / max(|a|, |n|, d) where the
    denominator floor d = max(floor, scale_fraction * g) and g is the
    largest gradient magnitude across all arrays. The floor keeps
    finite-difference noise on near-zero elements from registering as
    error: central differences cannot resolve loss changes below the
    float64 resolution of the loss itself, so true gradients under
    ~1e-10 legitimately read as zero. A genuinely wrong element, large
    or small, still stands out against the overall gradient scale.

    Returns (max relative error, max absolute error) over all elements.
    """
    scale = 0.0
    pairs = []
    for a, n in zip(analytic, numeric):
        a = np.asarray(a, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        if a.shape != n.shape:
            raise ShapeError(f"gradient shapes differ: {a.shape} vs {n.shape}")
        pairs.append((a, n))
        if a.size:
            scale = max(scale, float(np.max(np.abs(a))), float(np.max(np.abs(n))))
    denom_floor = max(floor, scale_fraction * scale)
    max_rel = 0.0
    max_abs = 0.0
    for a, n in pairs:
        if not a.size:
            continue
        diff = np.abs(a - n)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), denom_floor)
        max_rel = max(max_rel, float(np.max(diff / denom)))
        max_abs = max(max_abs, float(np.max(diff)))
    return max_rel, max_abs
