"""Central differences, the tests' independent check of analytic gradients."""

from typing import Callable

import numpy as np


class NonFiniteValue(ValueError):
    """A function evaluation produced NaN or Inf."""


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient, entry i = (f(x + h e_i) - f(x - h e_i)) / 2h."""
    if h <= 0:
        raise ValueError("finite_diff_grad: h must be positive")
    g = np.empty_like(x, dtype=np.float64)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        hi = f(x + e)
        lo = f(x - e)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NonFiniteValue(f"finite_diff_grad: non-finite evaluation at entry {i}")
        g[i] = (hi - lo) / (2.0 * h)
    return g
