"""Gradient oracles for the tests.

The analytic backward passes of ``ensemblekit`` (the dense networks, the
combiner's training objective, the constant mixture and the loss) are
checked against central finite differences, and the retained-only ma
training step against a plain full-width reference of the same step.
Import it as ``gradcheck`` from a test module in this directory.
"""

from typing import Callable, List, Sequence, Tuple

import numpy as np

from ensemblekit import metrics, neural, nn
from ensemblekit.data import TaskKind
from ensemblekit.errors import ShapeError


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


def training_loss(params, cube, labels, task, mask, retain_prob) -> float:
    """The combiner's training objective, forward only: the target the
    finite differences of its analytic gradient are taken from."""
    out, _ = neural._forward(params, cube, mask, retain_prob)
    return neural._objective(out, labels, task, params.mode)[0]


def ma_step_reference(params, cube, labels, task, mask, retain_prob):
    """The ma training step written out at full width, batch-major.

    Every model's column reaches the networks, the dropped ones zeroed
    and the kept ones scaled by 1/retain_prob; the gate scores all M
    models, and theta is their softmax with the dropped models at weight
    0. Returns the loss, its gradient laid out like ``params.flat`` and
    theta, (B, M).
    """
    embedder, head = params.nets
    x = cube * (mask / retain_prob)[None, :, None]
    columns = [nn.forward(embedder, x[:, :, c]) for c in range(cube.shape[2])]
    embed = sum(out for out, _ in columns)
    gate, head_acts = nn.forward(head, embed)
    kept = mask > 0.0
    shifted = np.where(kept, gate - gate[:, kept].max(axis=1, keepdims=True), -np.inf)
    theta = np.exp(shifted)
    theta /= theta.sum(axis=1, keepdims=True)
    out = np.einsum("bm,bmc->bc", theta, cube)

    rows = np.arange(cube.shape[0])
    column = labels if task is TaskKind.CLASSIFICATION else np.zeros(rows.size, dtype=int)
    values = out[rows, column]
    dout = np.zeros_like(out)
    dout[rows, column] = metrics.loss_gradient(values, labels, task)
    dtheta = np.einsum("bc,bmc->bm", dout, cube)
    dgate = theta * (dtheta - (theta * dtheta).sum(axis=1, keepdims=True))

    grad = np.zeros_like(params.flat)
    grad_embedder, grad_head = params.split(grad)
    nn.backward(head, head_acts, dgate, grad_head)
    dembed = dgate @ head.weights[0]
    for _, acts in columns:
        nn.backward(embedder, acts, dembed, grad_embedder)
    return float(metrics.loss(values, labels, task)), grad, theta
