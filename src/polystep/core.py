"""Vector types, random streams, minibatch sampling, config checks.

Vectors are plain 1-d float64 numpy arrays. Random streams are built on the
Philox counter-based generator, so a given ``(seed, run_index)`` pair
reproduces the exact same draw sequence on every platform.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

Vector = np.ndarray
MiniBatch = np.ndarray  # integer index array, size B


class ConfigurationError(ValueError):
    """Invalid or inconsistent configuration."""


# field type -> the Python types it takes and their name in an error (a bool is only a bool)
_TYPES = {"int": (int, "an int"), "float": ((int, float), "a number"), "bool": (bool, "a bool"),
          "str": (str, "a str"), "str | None": ((str, type(None)), "a str or None")}
# a field's ``bound`` metadata -> its test
BOUNDS = {"positive": lambda v: v > 0, ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1,
          "in (0, 1)": lambda v: 0 < v < 1}


def check_fields(config, reader=None) -> None:
    """Check each field of the dataclass ``config`` as it is declared: its ``choices``, its
    annotated type (one a manifest's ``json.dump`` writes: np.float64 is a float, np.int64
    and np.float32 are not), a str without a NUL byte, a finite float, and its ``bound``
    unless its ``read_by`` leaves out ``reader``. A choice or bound message names the
    ``setting`` metadata, else the field."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        meta = f.metadata
        choices = meta.get("choices")
        if choices is not None and value not in choices:
            setting = meta.get("setting", f.name.replace("_", " "))
            raise ConfigurationError(
                f"unknown {setting} {value!r}; expected one of {', '.join(choices)}")
        kind = _TYPES.get(f.type)
        if kind and (not isinstance(value, kind[0])
                     or isinstance(value, bool) and f.type != "bool"):
            raise ConfigurationError(f"{f.name} must be {kind[1]}, got {value!r}")
        if isinstance(value, str) and "\0" in value:  # a path with one fails in open or mkdir
            raise ConfigurationError(f"{f.name} must hold no NUL byte, got {value!r}")
        if f.type == "float" and not math.isfinite(value):
            raise ConfigurationError(f"{f.name} must be finite, got {value}")
        bound = meta.get("bound")  # a field without read_by is read by every reader
        if bound and reader in meta.get("read_by", (reader,)) and not BOUNDS[bound](value):
            raise ConfigurationError(f"{meta.get('setting', f.name)} must be {bound}, got {value}")


def stream(seed: int, run_index: int = 0) -> np.random.Generator:
    """Independent random stream keyed by ``(seed, run_index)``.

    Streams with distinct run indices under the same seed are statistically
    independent (Philox keyed through a spawned SeedSequence).
    """
    ss = np.random.SeedSequence(seed, spawn_key=(run_index,))
    return np.random.Generator(np.random.Philox(ss))


def sample_batch(rng: np.random.Generator, n: int, B: int) -> MiniBatch:
    """Draw B distinct indices uniformly from [0, n) without replacement."""
    if not 1 <= B <= n:
        raise ValueError(f"sample_batch: need 1 <= B <= n, got B={B}, n={n}")
    return rng.choice(n, size=B, replace=False)
