"""Dataset loading (LIBSVM and delimited text), standardization, synthetic
data generation, and trace serialization.

Every float in a CSV output (trace, aggregate, sweep summary) is written by
``write_csv`` exactly as Python's '%.17g' % x writes it, so it reads back to
the same double. ``write_csv`` encodes a block of values at a time with
numpy, scaling each to its 17 digits with one long-double multiply. The
values that multiply cannot round with certainty (0, -0, inf, nan, the
near-ties, integers such as 10: about 4 in 100 random values) are formatted
one at a time, and so is every value on a platform whose long double is no
wider than a double."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .core import ConfigurationError


class LoadError(ConfigurationError):
    """A dataset or trace file that cannot be read."""


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


METRICS = ("f_sub", "f_sub_avg_iterate", "dist_sq", "gamma")
TRACE_HEADER = ("seed", "k", *METRICS)
TRACE_FORMATS = {"csv": "csv", "json-lines": "jsonl"}  # format -> file extension


@dataclass(frozen=True)
class Trace:
    """The records of one run in columns, one row per seed (a grid pass keeps
    one row per (config, seed) and hands each config its ``slice``).

    Row r belongs to ``seeds[r]`` and holds its records at ``ks``; a trace
    file lists the rows seed by seed, each over all of ``ks``.
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
        """The number of records, one per (seed, k): the rows of a trace file."""
        return len(self.seeds) * len(self.ks)


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
        raise LoadError(f"{ds.name}: standardizing needs at least 2 rows")
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


# -- CSV text -------------------------------------------------------------
# Every float in a CSV output is written exactly as Python's '%.17g' % x
# writes it, but a block of values at a time. For a finite nonzero x with
# X = floor(log10|x|), t = |x| * 10**(16 - X) is formed by one long-double
# multiply, so it is within about 0.011 of the exact value. N = round(t) is
# then the correctly rounded 17-digit significand whenever 1e16 <= t,
# N < 1e17 and t is more than 0.02 away from a half-integer. Every other
# value takes the per-value path: 0, -0, inf, nan, the near-ties, a
# significand that rounds up to 1e17, and integers whose last digits before
# the point are zeros (10, 3e5): about 4 in 100 random values. On a platform
# whose long double is no wider than a double, every value takes it.
#
# A value's text is laid out in six 8-byte words of cells, zero where a cell
# is empty, and the empty cells are cut when a block is written:
#   word 0     comma, sign, "0.000" (the lead of 1e-4 <= |x| < 1), digit 0
#   words 1-4  digits 4i+1..4i+4, each after a cell for a point
#   word 5     "e+308" (the exponent of the exponential form)
# so each word comes from table lookups and ORs over whole blocks.

_LONG = np.finfo(np.longdouble)
# 64 significant bits bound the multiply's error, and the wider exponent
# range holds 10**340, which scales the smallest subnormal
_FAST_PATH = _LONG.nmant >= 63 and _LONG.maxexp > 1024

_E_LO, _E_HI = 16 - 308, 16 + 324  # the powers 10**(16 - X) the doubles need
# parsed from decimal text, so each is the correctly rounded long double
_POW10 = (np.array([np.longdouble(f"1e{e}") for e in range(_E_LO, _E_HI + 1)])
          if _FAST_PATH else None)
_WORDS = 6  # words per float: 48 cells
_TEN = 10 ** np.arange(18)


def _words(texts, at: int = 0) -> np.ndarray:
    """One word per text: its 8 bytes hold the text from byte ``at`` on,
    zero elsewhere."""
    cells = b"".join((b"\0" * at + t).ljust(8, b"\0") for t in texts)
    return np.frombuffer(cells, np.uint64)


def _group_words() -> np.ndarray:
    """The digit words by group value g = 0..9999, the characters of
    "%04d" % g at the odd bytes, and at g + 10000 the same with the
    trailing zeros cut."""
    cells = np.zeros((2, 10000, 8), np.uint8)
    chars = cells[:, :, 1::2]  # chars[:, g, c]: character c of "%04d" % g
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for c in range(4):
        chars[:, :, c] = np.tile(digits.repeat(10 ** (3 - c)), 10**c)
    g = np.arange(10000, dtype=np.uint16)
    kept = 4 - sum(g % 10**i == 0 for i in range(1, 5))  # up to the last nonzero
    chars[1, np.arange(4) >= kept[:, None]] = 0
    return cells.reshape(-1).view(np.uint64)


_X = range(-324, 309)  # floor(log10|x|) of the finite nonzero doubles
# word 0's lead and word 5, by X + 324
_LEAD = _words([b"0." + b"0" * (-X - 1) if -4 <= X < 0 else b"" for X in _X], 2)
_EXPONENT = _words([b"e%+03d" % X if X < -4 or X > 16 else b"" for X in _X])
_GROUP = _group_words()
# by p - 4i + 12: the point after digit p lies in word 1 + i when 4i <= p < 4i + 4
_POINT = _words([b"\0" * (2 * j - 24) + b"." if 12 <= j < 16 else b"" for j in range(29)])
_FIRST = _words([b"%d" % d for d in range(10)], 7)  # digit 0, the last byte of word 0
_MINUS, _COMMA = _words([b"-"], 1)[0], _words([b","])[0]
_BLANK_TO_EMPTY = bytes.maketrans(b" ", b"\0")


def _float_words(values) -> np.ndarray:
    """The text of each of ``values`` (1-D), one column each: a (6, m)
    uint64 array whose column i holds a comma and then '%.17g' % values[i],
    in memory order, with zero bytes among them."""
    x = np.asarray(values, dtype=np.float64)
    m = x.size
    words = np.zeros((_WORDS, m), np.uint64)
    a = np.abs(x)
    fast = (a > 0) & (a < np.inf) & _FAST_PATH
    if fast.any():
        a[~fast] = 1.0
        X = np.floor(np.log10(a)).astype(np.intp)
        t = a.astype(np.longdouble) * _POW10.take(16 - _E_LO - X)
        N = np.rint(t)
        fast &= (t >= 1e16) & (N < 1e17) & (np.abs(t - N) < 0.48)
        N[~fast] = 1e16  # any 17 digits, so that the slow values index the tables
        N = N.astype(np.int64)
        exponential = (X < -4) | (X > 16)
        fixed = ~exponential & (X >= 0)
        # an integer's zeros before the point would be cut with the trailing ones
        fast &= ~fixed | (N % _TEN.take(17 - np.clip(X, 0, 16)) != 0)
        point = np.where(fixed, X, 0)  # the digit it follows
        point[(~exponential & (X < 0)) | (N % _TEN.take(16 - point) == 0)] = 16  # none
        hi, lo = np.divmod(N, 10**8)
        groups = [hi // 10000 % 10000, hi % 10000, lo // 10000, lo % 10000]
        cut = np.ones(m, bool)  # every later group is zero
        for g in groups[::-1]:
            zero = g == 0
            g += 10000 * cut
            cut &= zero
        np.bitwise_or(_LEAD.take(X + 324), _FIRST.take(hi // 10**8), out=words[0])
        words[0] |= (x < 0) * _MINUS
        for i, g in enumerate(groups):
            np.bitwise_or(_GROUP.take(g), _POINT.take(point - 4 * i + 12), out=words[1 + i])
        _EXPONENT.take(X + 324, out=words[5])
    slow = np.flatnonzero(~fast)
    if slow.size:
        # after the comma's cell, padded with blanks that become empty cells
        text = (b" %-47.17g" * slow.size) % tuple(x[slow].tolist())
        words[:, slow] = np.frombuffer(text.translate(_BLANK_TO_EMPTY), np.uint64).reshape(
            slow.size, _WORDS).T
    words[0] |= _COMMA
    return words


def _text_words(texts, sep: str) -> np.ndarray:
    """(len(texts), w) words: row i holds sep + texts[i], zero-padded."""
    encoded = [(sep + t).encode() for t in texts]
    w = -(-max(map(len, encoded), default=0) // 8)
    return np.frombuffer(b"".join(e.ljust(8 * w, b"\0") for e in encoded),
                         np.uint64).reshape(len(encoded), w)


_BLOCK_VALUES = 4096  # floats per block: about 1 MB of temporaries; larger blocks ran no faster


def write_csv(fh, header, keys, floats, eol: str = "\n") -> None:
    """Write the line ``header`` and then one line per row to the binary
    file ``fh``: the row's text in each key column, then its value in each
    float column exactly as '%.17g' % value writes it, comma separated.

    ``keys`` lists one or more (texts, index) pairs: row i of the column
    reads texts[index[i]], so each distinct text is encoded once. ``floats``
    lists 1-D float arrays, one value per row. The rows are encoded and
    written a block at a time."""
    fh.write((",".join(header) + eol).encode())
    tables = [_text_words(texts, "," if c else "") for c, (texts, _) in enumerate(keys)]
    line_end = _words([eol.encode()])[0]
    F, n = len(floats), len(floats[0])
    width = sum(t.shape[1] for t in tables) + F * _WORDS + 1
    step = max(1, _BLOCK_VALUES // F)
    for start in range(0, n, step):
        stop = min(n, start + step)
        block = np.empty((stop - start, width), np.uint64)
        col = 0
        for table, (_, index) in zip(tables, keys):
            block[:, col:col + table.shape[1]] = table[index[start:stop]]
            col += table.shape[1]
        # row-major values, so the text of row r, float f is column r * F + f
        values = np.stack([f[start:stop] for f in floats], axis=1).ravel()
        words = _float_words(values)
        block[:, col:-1].reshape(stop - start, F, _WORDS)[:] = (
            words.reshape(_WORDS, stop - start, F).transpose(1, 2, 0))
        block[:, -1] = line_end
        fh.write(block.tobytes().translate(None, b"\0"))


def write_trace(trace: Trace, path: str, fmt: str = "csv") -> None:
    """Write a ``Trace``, one line per (seed, k) in file order, with
    round-trip-exact decimal floats: '%.17g' in a CSV file, ``json.dumps``
    in a JSON-lines file."""
    if fmt not in TRACE_FORMATS:
        raise ValueError(f"unknown trace format {fmt!r}")
    n = len(trace.ks)
    try:
        if fmt == "csv":
            rows = np.arange(len(trace))
            with open(path, "wb") as fh:
                write_csv(fh, TRACE_HEADER,
                          [(["%d" % s for s in trace.seeds], rows // max(n, 1)),
                           (["%d" % k for k in trace.ks.tolist()], rows % max(n, 1))],
                          [getattr(trace, name).ravel() for name in METRICS],
                          eol="\r\n")  # the csv module's line ending
        else:
            columns = [np.repeat(np.array(trace.seeds, dtype=np.int64), n).tolist(),
                       np.tile(trace.ks, len(trace.seeds)).tolist(),
                       *(getattr(trace, name).ravel().tolist() for name in METRICS)]
            with open(path, "w", newline="") as fh:
                fh.writelines(json.dumps(dict(zip(TRACE_HEADER, row))) + "\n"
                              for row in zip(*columns))
    except OSError as e:
        raise OSError(f"writing trace {path}: {e}") from e


def read_trace(path: str, fmt: str = "csv") -> Trace:
    """The ``Trace`` that ``write_trace`` wrote to ``path``. A file whose rows
    are not one contiguous block per seed, every block over the same ks, is
    a ``LoadError``."""
    if fmt == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != TRACE_HEADER:
                raise LoadError(f"{path}: unexpected header {header}")
            rows = list(reader)
        if any(len(r) != len(TRACE_HEADER) for r in rows):
            raise LoadError(f"{path}: a row without {len(TRACE_HEADER)} fields")
        rows = [(int(r[0]), int(r[1]), *map(float, r[2:])) for r in rows]
    elif fmt == "json-lines":
        with open(path) as fh:
            rows = [tuple(d[name] for name in TRACE_HEADER) for d in map(json.loads, fh)]
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    if not rows:
        return Trace.empty((), np.empty(0, dtype=np.int64))
    seed, k, *values = (np.array(c) for c in zip(*rows))
    changes = np.flatnonzero(seed[1:] != seed[:-1])
    n = changes[0] + 1 if changes.size else seed.size  # records per seed
    seeds = seed[::n]
    shape = (seeds.size, n)
    if (seed.size != seeds.size * n or np.unique(seeds).size != seeds.size
            or (seed.reshape(shape) != seeds[:, None]).any()
            or (k.reshape(shape) != k[:n]).any()):
        raise LoadError(f"{path}: the rows are not one block per seed over one k schedule")
    return Trace(tuple(seeds.tolist()), k[:n], *(v.reshape(shape) for v in values))
