"""Dataset loading (LIBSVM and delimited text), standardization, synthetic
data generation, and trace serialization."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace as dc_replace
from itertools import repeat
from typing import NamedTuple

import numpy as np


class LoadError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,), values in {-1, +1}
    name: str = ""
    standardized: bool = False
    constant_columns: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


class IterationRecord(NamedTuple):
    seed: int
    k: int
    f_sub: float
    f_sub_avg_iterate: float
    dist_sq: float
    gamma: float


TRACE_HEADER = IterationRecord._fields
METRICS = TRACE_HEADER[2:]
TRACE_FORMATS = {"csv": "csv", "json-lines": "jsonl"}  # format -> file extension


@dataclass(frozen=True)
class Trace:
    """The records of one run in columns, one row per seed (a grid pass keeps
    one row per (config, seed) and hands each config its ``slice``).

    Row r belongs to ``seeds[r]`` and holds its records at ``ks``. Iterating
    yields ``IterationRecord`` rows seed by seed, in trace-file order.
    """

    seeds: tuple[int, ...]
    ks: np.ndarray  # (n_records,) the record schedule
    f_sub: np.ndarray  # (R, n_records), and likewise the other metrics
    f_sub_avg_iterate: np.ndarray
    dist_sq: np.ndarray
    gamma: np.ndarray

    @classmethod
    def empty(cls, seeds, ks) -> "Trace":
        shape = (len(seeds), len(ks))
        return cls(tuple(seeds), np.asarray(ks), *(np.full(shape, np.nan) for _ in METRICS))

    def record(self, j: int, *values: np.ndarray) -> None:
        """Store record ``j`` (at k = ks[j]) of every row, one array per metric."""
        for name, v in zip(METRICS, values):
            getattr(self, name)[:, j] = v

    def slice(self, start: int, stop: int) -> "Trace":
        """Rows start:stop, as views of these columns."""
        return Trace(self.seeds[start:stop], self.ks,
                     *(getattr(self, name)[start:stop] for name in METRICS))

    def __len__(self) -> int:
        return len(self.seeds) * len(self.ks)

    def __iter__(self):
        ks = self.ks.tolist()
        columns = [getattr(self, name).tolist() for name in METRICS]
        for r, seed in enumerate(self.seeds):
            rows = zip(repeat(seed), ks, *(c[r] for c in columns))
            yield from map(IterationRecord._make, rows)


def _remap_labels(path: str, raw: np.ndarray) -> np.ndarray:
    vals = set(np.unique(raw).tolist())
    if vals <= {-1.0, 1.0}:
        return raw.astype(np.float64)
    if vals <= {0.0, 1.0}:
        return np.where(raw == 0.0, -1.0, 1.0)
    if vals <= {1.0, 2.0}:
        return np.where(raw == 2.0, -1.0, 1.0)
    raise LoadError(f"{path}: cannot map label values {sorted(vals)} to {{-1, +1}}")


def _dataset(path: str, name: str, X: np.ndarray, y: np.ndarray) -> Dataset:
    if X.shape[1] == 0:
        raise LoadError(f"{path}: no features")
    return Dataset(X, _remap_labels(path, y), name=name or path)


def load_libsvm(path: str, name: str = "") -> Dataset:
    """Parse `label idx:val ...` lines; 1-based indices are densified and
    d is the maximum index seen. A repeated index keeps its last value.

    The whole text is parsed at once; a text that the one-pass parse cannot
    vouch for goes to the line scan, which parses it alike or raises a
    ``LoadError`` naming the line."""
    with open(path) as fh:  # text mode: CRLF and CR line ends become newlines
        parsed = _parse_libsvm(fh.read().encode())
    if parsed is None:
        parsed = _scan_libsvm(path)
    labels, rows, idx, vals = parsed
    if not labels.size:
        raise LoadError(f"{path}: empty file")
    X = np.zeros((labels.size, int(idx.max(initial=0))))
    X[rows, idx - 1] = vals  # assigned in order: a repeated index keeps its last value
    return _dataset(path, name, X, labels)


def _scan_libsvm(path: str):
    """Line-by-line parse of a LIBSVM file, the reference for
    ``_parse_libsvm``: (labels, rows, indices, values), or a ``LoadError``
    naming the first bad line."""
    labels, rows, idx, vals = [], [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError as e:
                raise LoadError(f"{path}:{lineno}: bad label {parts[0]!r}") from e
            if not math.isfinite(label):
                raise LoadError(f"{path}:{lineno}: non-finite value {parts[0]!r}")
            feats = {}
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":")
                    i, val = int(idx_s), float(val_s)
                except ValueError as e:
                    raise LoadError(f"{path}:{lineno}: bad pair {tok!r}") from e
                if i < 1:
                    raise LoadError(f"{path}:{lineno}: index {i} is not 1-based")
                if not math.isfinite(val):
                    raise LoadError(f"{path}:{lineno}: non-finite value {tok!r}")
                feats[i] = val
            rows += [len(labels)] * len(feats)
            idx += feats.keys()
            vals += feats.values()
            labels.append(label)
    return (np.array(labels), np.array(rows, dtype=np.intp), np.array(idx, dtype=np.intp),
            np.array(vals, dtype=np.float64))


# The one-pass parse takes only texts made of these bytes; any other byte (a
# letter other than e/E, a non-ASCII character, a separator other than space,
# tab or newline) leaves the text to the line scan.
_LIBSVM_BYTES = b"0123456789+-.eE: \t\n"
_TAB_TO_BLANK = bytes.maketrans(b"\t", b" ")


def _parse_libsvm(raw: bytes):
    """One-pass parse of an encoded LIBSVM text with newline line ends: every
    number through one ``np.fromstring``, placed by the token layout of the
    bytes. Returns what ``_scan_libsvm`` returns, or None for a text it must
    judge itself.

    A text is taken only when every line is a colon-free label token followed
    by tokens with exactly one colon each, every index is a run of digits,
    every word parses and every number is finite."""
    if raw.translate(None, _LIBSVM_BYTES):
        return None
    b = np.frombuffer(raw, dtype=np.uint8)
    sep = np.ones(b.size + 1, dtype=bool)  # sep[i + 1]: byte i is blank or newline
    np.less_equal(b, ord(" "), out=sep[1:])
    starts = np.flatnonzero(sep[:-1] > sep[1:])  # first byte of each token
    del sep
    line = np.searchsorted(np.flatnonzero(b == ord("\n")), starts)
    first = np.diff(line, prepend=-1) != 0  # the label token of its line
    colons = np.flatnonzero(b == ord(":"))
    # one colon in every pair token, none in a label
    if not np.array_equal(np.searchsorted(starts, colons, side="right") - 1,
                          np.flatnonzero(~first)):
        return None
    # with the digits dropped, an all-digit index leaves its colon next to
    # the blank before its token (so does an empty index, which the count
    # of numbers below catches)
    if raw.translate(_TAB_TO_BLANK, b"0123456789").count(b" :") != colons.size:
        return None
    n_tokens, n_words = starts.size, starts.size + colons.size
    label_tokens = np.flatnonzero(first)
    del b, starts, line, first, colons  # freed before the number parse allocates
    try:
        numbers = np.fromstring(raw.replace(b":", b" "), sep=" ")
    except ValueError:
        return None
    del raw
    # one number per label, two per pair: fewer means an empty index or value
    if numbers.size != n_words or not np.isfinite(numbers).all():
        return None
    # a label's offset in numbers: one number per label before it, two per pair
    label_at = 2 * label_tokens - np.arange(label_tokens.size)
    labels = numbers[label_at]
    pair_numbers = np.delete(numbers, label_at).reshape(-1, 2)
    del numbers
    idx = pair_numbers[:, 0].astype(np.intp)
    if idx.size and idx.min() < 1:
        return None
    pairs_per_row = np.diff(label_tokens, append=n_tokens) - 1
    rows = np.repeat(np.arange(label_tokens.size), pairs_per_row)
    return labels, rows, idx, pair_numbers[:, 1]


def load_delimited(path: str, label_column: int = 0, name: str = "") -> Dataset:
    """Load a rectangular numeric table (comma or whitespace separated); one
    optional header row is skipped."""
    rows = []
    width = None
    header_skipped = False
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.replace(",", " ").split()
            try:
                row = [float(c) for c in cells]
            except ValueError:
                if not rows and not header_skipped:
                    header_skipped = True  # at most one header row
                    continue
                raise LoadError(f"{path}:{lineno}: non-numeric cell")
            bad = [c for c, v in zip(cells, row) if not math.isfinite(v)]
            if bad:
                raise LoadError(f"{path}:{lineno}: non-finite value {bad[0]!r}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise LoadError(
                    f"{path}:{lineno}: ragged row ({len(row)} cells, expected {width})"
                )
            rows.append(row)
    if not rows:
        raise LoadError(f"{path}: no data rows")
    table = np.array(rows)
    y = table[:, label_column]
    X = np.delete(table, label_column, axis=1)
    return _dataset(path, name, X, y)


def standardize(ds: Dataset) -> Dataset:
    """Center each feature column and divide by its population standard
    deviation. Zero-variance columns pass through unchanged and are flagged."""
    if ds.n < 2:
        raise ValueError("standardize needs at least 2 rows")
    mean = ds.features.mean(axis=0)
    std = ds.features.std(axis=0)  # population convention (divide by n)
    constant = std == 0.0
    safe = np.where(constant, 1.0, std)
    X = np.where(constant, ds.features, (ds.features - mean) / safe)
    return dc_replace(
        ds,
        features=X,
        standardized=True,
        constant_columns=tuple(np.flatnonzero(constant).tolist()),
    )


def make_synthetic(rng: np.random.Generator, n: int, d: int, name: str = "synthetic") -> Dataset:
    """i.i.d. standard-normal features with uniformly random +-1 labels."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    X = rng.standard_normal((n, d))
    y = rng.choice([-1.0, 1.0], size=n)
    return Dataset(X, y, name=name)


_CSV_ROW = "%d,%d,%.17g,%.17g,%.17g,%.17g\r\n"  # the csv module's line ending


def write_trace(records, path: str, fmt: str = "csv") -> None:
    """Write iteration records (a ``Trace`` or any iterable of
    ``IterationRecord``) with round-trip-exact decimal floats."""
    if fmt == "csv":
        lines = (_CSV_ROW % r for r in records)
        header = ",".join(TRACE_HEADER) + "\r\n"
    elif fmt == "json-lines":
        lines = (json.dumps(r._asdict()) + "\n" for r in records)
        header = ""
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    try:
        with open(path, "w", newline="") as fh:
            fh.write(header)
            fh.writelines(lines)
    except OSError as e:
        raise OSError(f"writing trace {path}: {e}") from e


def read_trace(path: str, fmt: str = "csv") -> list[IterationRecord]:
    out = []
    if fmt == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != TRACE_HEADER:
                raise LoadError(f"{path}: unexpected header {header}")
            for row in reader:
                out.append(IterationRecord(
                    int(row[0]), int(row[1]), float(row[2]), float(row[3]),
                    float(row[4]), float(row[5]),
                ))
    elif fmt == "json-lines":
        with open(path) as fh:
            for line in fh:
                d = json.loads(line)
                out.append(IterationRecord(
                    d["seed"], d["k"], d["f_sub"], d["f_sub_avg_iterate"],
                    d["dist_sq"], d["gamma"],
                ))
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    return out
