"""Vector types, random streams, minibatch sampling, finite differences, config checks.

Vectors are plain 1-d float64 numpy arrays. Random streams are built on the
Philox counter-based generator, so a given ``(seed, run_index)`` pair
reproduces the exact same draw sequence on every platform.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

Vector = np.ndarray
MiniBatch = np.ndarray  # integer index array, size B


class NonFiniteValue(ValueError):
    """A function evaluation produced NaN or Inf."""


class ConfigurationError(ValueError):
    """Invalid or inconsistent configuration."""


# field type -> the Python types it takes (never a bool) and their name in an error
_NUMBERS = {"int": (int, "an int"), "float": ((int, float), "a number")}


def check_fields(config) -> None:
    """Check each field of the dataclass ``config``: a field with ``choices`` metadata holds
    one of them (named by its ``setting`` metadata, else its name); an ``int`` field holds
    an int and a ``float`` field a finite int or float, neither of them a bool: the types a
    manifest's ``json.dump`` writes (np.float64 is a float; np.int64 and np.float32 are not)."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        choices = f.metadata.get("choices")
        if choices is not None and value not in choices:
            setting = f.metadata.get("setting", f.name.replace("_", " "))
            raise ConfigurationError(
                f"unknown {setting} {value!r}; expected one of {', '.join(choices)}")
        kind = _NUMBERS.get(f.type)
        if kind and (isinstance(value, bool) or not isinstance(value, kind[0])):
            raise ConfigurationError(f"{f.name} must be {kind[1]}, got {value!r}")
        if f.type == "float" and not math.isfinite(value):
            raise ConfigurationError(f"{f.name} must be finite, got {value}")


def stream(seed: int, run_index: int = 0) -> np.random.Generator:
    """Independent random stream keyed by ``(seed, run_index)``.

    Streams with distinct run indices under the same seed are statistically
    independent (Philox keyed through a spawned SeedSequence).
    """
    ss = np.random.SeedSequence(seed, spawn_key=(run_index,))
    return np.random.Generator(np.random.Philox(ss))


def finite_diff_grad(f: Callable[[Vector], float], x: Vector, h: float) -> Vector:
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


def sample_batch(rng: np.random.Generator, n: int, B: int) -> MiniBatch:
    """Draw B distinct indices uniformly from [0, n) without replacement."""
    if not 1 <= B <= n:
        raise ValueError(f"sample_batch: need 1 <= B <= n, got B={B}, n={n}")
    return rng.choice(n, size=B, replace=False)
