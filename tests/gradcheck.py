"""Central finite-difference gradient oracle for the tests.

The analytic backward passes of ``ensemblekit`` (the dense networks, the
combiner's training objective, the constant mixture and the loss) are
checked against these numeric gradients. Import it as ``gradcheck`` from
a test module in this directory.
"""

from typing import Callable, List, Sequence, Tuple

import numpy as np

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
