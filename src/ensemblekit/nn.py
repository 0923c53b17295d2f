"""Minimal dense feed-forward networks on float64 numpy arrays.

Everything a small combiner network needs and nothing more: fully
connected layers with rectifier hidden activations and an identity final
layer, hand-derived backpropagation, a bias-corrected Adam optimizer, a
numerically stable softmax with its backward pass.

``forward`` and ``backward`` take the same optional ``columns`` of inputs:
the first layer runs on W0[:, columns] alone, as if every other input
were zero, and its gradient adds into W0[:, columns] alone.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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
    # Per layer: weight start, bias start, bias end, weight shape.
    _layout: List[Tuple[int, int, int, Tuple[int, int]]] = field(init=False, repr=False)

    def __post_init__(self):
        size = dense_param_count(self.layer_dims)
        if self.flat.shape != (size,):
            raise ShapeError(f"layer dims {self.layer_dims} need {size} parameters, "
                             f"got shape {self.flat.shape}")
        self._layout, start = [], 0
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            bias = start + fan_in * fan_out
            self._layout.append((start, bias, bias + fan_out, (fan_out, fan_in)))
            start = bias + fan_out
        self.weights, self.biases = self.unpack(self.flat)

    def __reduce__(self):
        # Pickled as its constructor arguments, so that a copy's weights and
        # biases are views into the copy's own ``flat``.
        return DenseNet, (self.layer_dims, self.flat)

    def unpack(self, vector: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Per-layer weight and bias views of a vector laid out like ``flat``."""
        weights = [vector[w:b].reshape(shape) for w, b, _, shape in self._layout]
        biases = [vector[b:end] for _, b, end, _ in self._layout]
        return weights, biases


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


def forward(
    net: DenseNet, x: np.ndarray, columns: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Run the network on a batch (B, d0).

    With ``columns``, an index array of inputs, the first layer runs on
    W0[:, columns] and ``x`` holds only those inputs, (B, len(columns)):
    the result equals a full-width input that is zero elsewhere.

    Returns the output (B, d_out) plus the activations backward needs:
    ``activations[0]`` is the input and ``activations[l+1]`` the
    post-activation output of layer l.
    """
    x = np.asarray(x, dtype=np.float64)
    weights = net.weights if columns is None else [net.weights[0][:, columns], *net.weights[1:]]
    if x.ndim != 2 or x.shape[1] != weights[0].shape[1]:
        raise ShapeError(f"input has shape {x.shape}, expected (B, {weights[0].shape[1]})")
    activations = [x]
    a = x
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, net.biases)):
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
    columns: Optional[np.ndarray] = None,
) -> None:
    """Backpropagate a loss gradient through a cached forward pass.

    ``output_gradient`` is dLoss/dOutput with the shape of the forward
    output. Parameter gradients, summed over the batch, are added into
    ``grad``, a vector laid out like ``net.flat``; adding rather than
    overwriting lets callers accumulate several passes of a shared
    network. After a forward pass with ``columns``, pass the same
    ``columns``: the first layer's weight gradient is added into
    W0[:, columns] of ``grad`` and the other columns of W0 get nothing.
    """
    delta = np.asarray(output_gradient, dtype=np.float64)
    if delta.shape != activations[-1].shape:
        raise ShapeError(
            f"output gradient shape {delta.shape} != output shape {activations[-1].shape}"
        )
    weight_grads, bias_grads = net.unpack(grad)
    for l in range(len(net.weights) - 1, -1, -1):
        a_prev = activations[l]
        if l == 0 and columns is not None:
            weight_grads[0][:, columns] += delta.T @ a_prev
        else:
            weight_grads[l] += delta.T @ a_prev
        # Faster than delta.sum(axis=0) at these sizes, and equal to it
        # except on a one-wide layer, where the two round differently.
        bias_grads[l] += np.einsum("ij->j", delta)
        if l > 0:
            delta = delta @ net.weights[l]
            # a_prev is post-rectifier output of layer l-1: zero entries
            # had non-positive pre-activations, so they block the gradient.
            delta *= a_prev > 0.0


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Moment estimates, learning rate and step count for bias-corrected Adam."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    learning_rate: float = 1e-3
    step_count: int = 0


def check_learning_rate(rate) -> None:
    """Raise ConfigError unless ``rate`` is a learning rate: a finite
    number > 0, not a bool."""
    if isinstance(rate, bool) or not isinstance(rate, numbers.Real) or not 0.0 < rate < np.inf:
        raise ConfigError(f"learning rate must be a finite number > 0, got {rate!r}")


def adam_init(params: np.ndarray, learning_rate: float = 1e-3) -> AdamState:
    """Zero-initialized Adam state for a parameter vector."""
    check_learning_rate(learning_rate)
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
    if not np.isfinite(grads).all():
        raise NumericError("non-finite gradient passed to Adam update")
    t = state.step_count + 1
    m, v = state.first_moment, state.second_moment
    # Two scratch vectors, updated in place in the same operation order as
    # params -= lr * m_hat / (sqrt(v_hat) + eps), so the result is unchanged.
    step = grads * (1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += step
    np.multiply(grads, 1.0 - ADAM_BETA2, out=step)
    step *= grads
    v *= ADAM_BETA2
    v += step
    denom = v / (1.0 - ADAM_BETA2**t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPSILON
    np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
    step *= state.learning_rate
    step /= denom
    params -= step
    state.step_count = t


def softmax(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis`` (its max is subtracted first)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0 or v.shape[axis] == 0:
        raise ConfigError("softmax of an empty vector is undefined")
    e = v - v.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax_backward(probs: np.ndarray, dprobs: np.ndarray, axis: int = -1) -> np.ndarray:
    """dLoss/dvalues of ``probs = softmax(values, axis)`` from dLoss/dprobs;
    an entry with probability 0 gets exactly 0."""
    out = probs * dprobs
    np.subtract(dprobs, out.sum(axis=axis, keepdims=True), out=out)
    out *= probs
    return out
