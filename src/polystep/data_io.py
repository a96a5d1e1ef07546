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
import operator
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
    """The records of one run, one row per seed (a grid pass keeps one row
    per (config, seed) and hands each config its ``slice``).

    ``values[i, r, j]`` is metric ``METRICS[i]`` of row r (seed ``seeds[r]``)
    at k = ks[j], and each metric's name gives its (R, n_records) view. A
    trace file lists the rows seed by seed, each over all of ``ks``."""

    seeds: tuple[int, ...]
    ks: np.ndarray  # (n_records,) the record schedule
    values: np.ndarray  # (len(METRICS), R, n_records)

    f_sub = property(lambda self: self.values[0])
    f_sub_avg_iterate = property(lambda self: self.values[1])
    dist_sq = property(lambda self: self.values[2])
    gamma = property(lambda self: self.values[3])

    @classmethod
    def empty(cls, seeds, ks) -> "Trace":
        shape = (len(METRICS), len(seeds), len(ks))
        return cls(tuple(seeds), np.asarray(ks), np.full(shape, np.nan))

    def slice(self, start: int, stop: int) -> "Trace":
        """Rows start:stop, as a view of ``values``."""
        return Trace(self.seeds[start:stop], self.ks, self.values[:, start:stop])

    def __len__(self) -> int:
        """The number of records, one per (seed, k): the rows of a trace file."""
        return len(self.seeds) * len(self.ks)


def _remap_labels(path: str, raw: np.ndarray) -> np.ndarray:
    vals = set(raw.tolist())
    if vals <= {-1.0, 1.0}:
        return raw.astype(np.float64)
    if vals <= {0.0, 1.0}:
        return np.where(raw == 0.0, -1.0, 1.0)
    if vals <= {1.0, 2.0}:
        return np.where(raw == 2.0, -1.0, 1.0)
    raise LoadError(f"{path}: cannot map label values {sorted(vals)} to {{-1, +1}}")


def _text_lines(path: str, raw: bytes, first_line: int):
    """(line number, line) for each line of ``raw``, the first numbered
    ``first_line``, decoded as UTF-8; a byte that is not valid UTF-8 is a
    ``LoadError`` naming its line."""
    for lineno, line in enumerate(raw.split(b"\n"), first_line):
        try:
            yield lineno, line.decode()
        except UnicodeDecodeError as e:
            raise LoadError(f"{path}:{lineno}: byte {line[e.start]:#04x} is not valid UTF-8") from None


def load_libsvm(path: str) -> Dataset:
    """Parse `label idx:val ...` lines; 1-based indices are densified and
    d is the maximum index seen. A repeated index keeps its last value.

    A block the block parse cannot vouch for goes to the line scan, that
    block alone, so the file is read once and ``_load_blocks``'s memory
    bound holds: the scan parses it alike or raises a ``LoadError`` naming
    the first bad line (a byte that is not valid UTF-8, an index too large
    for the platform's integers)."""
    return _load_blocks(path, lambda text, first_line: (
        _parse_block(text) or _scan_block(path, text, first_line)), "empty file")


def _load_blocks(path: str, parse, empty: str) -> Dataset:
    """The dataset in the file at ``path``, streamed in blocks of whole
    lines that ``parse(text, first_line)`` turns into (labels, rows, 1-based
    indices, values). Each block is kept as its dense rows or its triples,
    whichever is smaller, until they fill the feature matrix: peak memory is
    at most about twice the matrix, and near the matrix alone for a sparse
    file. No rows is the ``LoadError`` ``empty``."""
    # the blocks' values go into one buffer and the rows and columns of their
    # triples into another: arrays kept per block scatter the heap, which the
    # matrix-sized arrays allocated later cannot reuse (4 MB more peak RSS
    # in a set-up from a 6.5-MB file)
    labels, parts, values, ints, n, d, first_line = [], [], bytearray(), bytearray(), 0, 0, 1
    with open(path, "rb") as fh:
        for text in _line_blocks(fh):
            y, rows, cols, vals = parse(text, first_line)
            first_line += text.count(b"\n")
            w = int(cols.max(initial=0))
            cols -= 1
            if y.size * w * vals.itemsize <= rows.nbytes + cols.nbytes + vals.nbytes:
                dense = np.zeros((y.size, w))
                dense[rows, cols] = vals  # in order: a repeated index keeps its last value
                parts.append((slice(n, n + y.size), slice(0, w), dense.shape))
                vals = dense
            else:
                ints += np.concatenate((rows + n, cols)).data
                parts.append((None, None, vals.shape))
            values += vals.data
            labels.append(y)
            n, d = n + y.size, max(d, w)
    labels = np.concatenate(labels)
    if not n:
        raise LoadError(f"{path}: {empty}")
    try:
        X = np.zeros((n, d))
    except (MemoryError, ValueError):  # ValueError: more bytes than an intp counts
        raise LoadError(f"{path}: cannot allocate the {n}x{d} feature matrix") from None
    values, ints = np.frombuffer(values), np.frombuffer(ints, np.intp)
    for rows, cols, shape in parts:  # views of the buffers, block by block, in order
        if rows is None:  # triples: their rows, then their columns
            (rows, cols), ints = ints[:2 * shape[0]].reshape(2, -1), ints[2 * shape[0]:]
        size = math.prod(shape)
        X[rows, cols] = values[:size].reshape(shape)
        values = values[size:]
    if not d:
        raise LoadError(f"{path}: no features")
    return Dataset(X, _remap_labels(path, labels), name=path)


_INTP_MAX = np.iinfo(np.intp).max


def _scan_block(path: str, text: bytes, first_line: int):
    """Line-by-line parse of the whole lines ``text``, newline line ends,
    whose first line is line ``first_line`` of ``path``; the reference for
    ``_parse_block``: what it returns, or a ``LoadError`` naming the first
    bad line."""
    labels, rows, idx, vals = [], [], [], []
    for lineno, line in _text_lines(path, text, first_line):
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
            if i > _INTP_MAX:
                raise LoadError(f"{path}:{lineno}: index {i} is too large")
            if not math.isfinite(val):
                raise LoadError(f"{path}:{lineno}: non-finite value {tok!r}")
            feats[i] = val
        rows += [len(labels)] * len(feats)
        idx += feats.keys()
        vals += feats.values()
        labels.append(label)
    return (np.array(labels, float), np.array(rows, np.intp), np.array(idx, np.intp),
            np.array(vals, float))


# The block parse takes only blocks made of these bytes; any other byte (a
# letter other than e/E, a non-ASCII character, a separator other than space,
# tab or newline) leaves the block to the line scan.
_LIBSVM_BYTES = b"0123456789+-.eE: \t\n"
# bytes per read: a block's arrays then stay below glibc's mmap threshold
# (128 KB); freeing a larger one raises it, and later arrays of a few MB come
# from the heap and stay resident (6 MB more peak with 512-KB reads)
_LIBSVM_BLOCK = 1 << 16
# the longest index the digit arithmetic builds: 18 digits on 64-bit intp
_INDEX_DIGITS = len(str(_INTP_MAX)) - 1
_TEN_POWERS = 10 ** np.arange(_INDEX_DIGITS, dtype=np.intp)
_NO_LINES = (np.empty(0), np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))


def _line_blocks(fh):
    """The binary file ``fh`` in blocks of whole lines, with CRLF and CR
    line ends made newlines as text mode reads them. It is read
    ``_LIBSVM_BLOCK`` bytes at a time, and a block ends at the last line end
    of a read, so a line longer than a read lengthens its block."""
    head = []  # the line the reads before left unfinished
    while True:
        chunk = fh.read(_LIBSVM_BLOCK)
        # a CR that ends a read may be the first half of a CRLF: it waits
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, -1)) + 1
        if cut or not chunk:
            yield b"".join([*head, chunk[:cut]]).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            head = []
        if not chunk:
            return
        head.append(chunk[cut:])


def _parse_block(text: bytes):
    """(labels, rows, indices, values) of the whole lines ``text``, rows
    counted from its first line, or None for a text the line scan must
    judge. The text is taken only when every line is a colon-free label
    token followed by tokens with exactly one colon each, every index is a
    run of 1 to ``_INDEX_DIGITS`` digits and not 0, every value is nonempty,
    and every word parses to a finite number. An index is built from its
    digits; the index and its colon are then blanked, a comma ends each
    token, and the labels and values go through one ``np.fromstring``,
    which stops at any token that is not exactly one number."""
    if text.translate(None, _LIBSVM_BYTES):
        return None
    b = np.frombuffer(text, np.uint8)
    edge = np.ones(b.size + 2, bool)  # edge[i + 1]: byte i is blank or newline
    np.less_equal(b, ord(" "), out=edge[1:-1])
    bounds = np.flatnonzero(edge[1:] != edge[:-1])  # token t is b[bounds[2t]:bounds[2t + 1]]
    starts, ends = bounds[0::2], bounds[1::2]
    if not starts.size:
        return _NO_LINES
    # a token is its line's label when a newline comes between it and the
    # token before; the first token of a block starts a line
    label = np.zeros(starts.size + 1, bool)
    label[np.searchsorted(starts, np.flatnonzero(b == ord("\n")))] = True
    label[0] = True
    label = label[:-1]
    pair = ~label
    pair_starts, pair_ends = starts[pair], ends[pair]
    colons = np.flatnonzero(b == ord(":"))
    # colon t lies in pair token t, after a nonempty index and before a
    # nonempty value: so every pair token holds one colon and no label holds one
    if colons.size != pair_starts.size:
        return None
    n_digits = colons - pair_starts
    longest = n_digits.max(initial=1)
    if (n_digits.min(initial=1) < 1 or longest > _INDEX_DIGITS
            or (colons + 1 >= pair_ends).any()):
        return None
    idx = np.zeros(colons.size, np.intp)
    numeric = b.copy()
    for j in range(longest):  # digit j from the right, where the index has one
        has = j < n_digits
        at = colons - 1 - j * has  # else the index's last digit again
        digit = b.take(at) - np.uint8(ord("0"))
        if (digit[has] > 9).any():
            return None
        idx += digit * (has * _TEN_POWERS[j])
        numeric[at] = ord(" ")
    if idx.min(initial=1) < 1:
        return None
    numeric[colons] = ord(" ")
    numeric[ends[:-1]] = ord(",")  # a comma after every token but the last
    try:  # from bytes, whose closing NUL byte stops strtod at the last number
        numbers = np.fromstring(numeric.tobytes(), sep=",")
    except ValueError:
        return None
    if numbers.size != starts.size or not np.isfinite(numbers).all():
        return None
    rows = np.cumsum(label)[pair] - 1
    return numbers[label], rows, idx, numbers[pair]


def load_delimited(path: str) -> Dataset:
    """Load a rectangular numeric table (comma or whitespace separated), the
    label in its first column; one optional header row is skipped. The text
    is read as UTF-8; a byte that is not valid UTF-8 is a ``LoadError``
    naming its line. The table streams through ``_load_blocks`` as LIBSVM
    files do, in dense blocks, so peak memory is at most about twice the
    feature matrix."""
    width, header = 0, True  # the table's width, and whether a header row may still come

    def parse(text: bytes, first_line: int):
        nonlocal width, header
        labels, values = [], []
        for lineno, line in _text_lines(path, text, first_line):
            line = line.strip()
            if not line:
                continue
            cells = line.replace(",", " ").split()
            first, header = header, False
            try:
                row = [float(c) for c in cells]
            except ValueError:
                if first:
                    continue  # at most one header row
                raise LoadError(f"{path}:{lineno}: non-numeric cell")
            bad = [c for c, v in zip(cells, row) if not math.isfinite(v)]
            if bad:
                raise LoadError(f"{path}:{lineno}: non-finite value {bad[0]!r}")
            width = width or len(row)
            if len(row) != width:
                raise LoadError(f"{path}:{lineno}: ragged row ({len(row)} cells, "
                                f"expected {width})")
            if not row:  # a row of commas alone, before the width is known
                raise LoadError(f"{path}:{lineno}: no features")
            labels.append(row[0])
            values += row[1:]
        rows, cols = np.indices((len(labels), max(width - 1, 0))).reshape(2, -1)
        return np.array(labels, float), rows, cols + 1, np.array(values, float)

    return _load_blocks(path, parse, "no data rows")


def standardize(ds: Dataset) -> Dataset:
    """Center each feature column and divide by its population standard
    deviation. Zero-variance columns pass through unchanged."""
    if ds.n < 2:
        raise LoadError(f"{ds.name}: standardizing needs at least 2 rows")
    F = ds.features
    std = F.std(axis=0)  # population convention (divide by n)
    constant = std == 0.0
    X = F - F.mean(axis=0)  # the one new n x d array: F is left as it is
    X /= np.where(constant, 1.0, std)
    X[:, constant] = F[:, constant]
    return dc_replace(ds, features=X)


def make_synthetic(rng: np.random.Generator, n: int, d: int) -> Dataset:
    """i.i.d. standard-normal features with uniformly random +-1 labels."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    try:
        X = rng.standard_normal((n, d))
    except (MemoryError, ValueError):  # ValueError: more bytes than an intp counts
        raise ConfigurationError(f"cannot allocate the {n}x{d} feature matrix") from None
    y = rng.choice([-1.0, 1.0], size=n)
    return Dataset(X, y, name="synthetic")


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
    # one buffer for all blocks: a fresh one per block shrinks and regrows the heap
    buffer = np.empty((min(n, step), width), np.uint64)
    for start in range(0, n, step):
        stop = min(n, start + step)
        block = buffer[:stop - start]
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
                          trace.values.reshape(len(METRICS), -1),
                          eol="\r\n")  # the csv module's line ending
        else:
            columns = [np.repeat(np.array(trace.seeds, dtype=np.int64), n).tolist(),
                       np.tile(trace.ks, len(trace.seeds)).tolist(),
                       *trace.values.reshape(len(METRICS), -1).tolist()]
            with open(path, "w", newline="") as fh:
                fh.writelines(json.dumps(dict(zip(TRACE_HEADER, row))) + "\n"
                              for row in zip(*columns))
    except OSError as e:
        raise OSError(f"writing trace {path}: {e}") from e


def _trace_row(seed, k, *metrics) -> tuple:
    """A trace row as the CSV and JSON-lines readers both give it: seed and
    k are 64-bit integers (no bools) and the metrics numbers, as floats."""
    if not all(type(v) is int and -2**63 <= v < 2**63 for v in (seed, k)):
        raise ValueError(f"seed and k must be 64-bit integers, got {seed!r} and {k!r}")
    if not all(type(v) in (int, float) for v in metrics):
        raise ValueError(f"metrics must be numbers, got {metrics!r}")
    return (seed, k, *map(float, metrics))


def read_trace(path: str, fmt: str = "csv") -> Trace:
    """The ``Trace`` that ``write_trace`` wrote to ``path``. A row that does
    not parse is a ``LoadError`` naming its line, and so is a file whose
    rows are not one contiguous block per seed, every block over the same
    ks."""
    if fmt == "csv":
        with open(path, newline="", errors="replace") as fh:  # a bad byte: an unreadable row
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != TRACE_HEADER:
                raise LoadError(f"{path}: unexpected header {header}")
            lines = [(reader.line_num, r) for r in reader]
        if any(len(r) != len(TRACE_HEADER) for _, r in lines):
            raise LoadError(f"{path}: a row without {len(TRACE_HEADER)} fields")
        parse = lambda r: _trace_row(int(r[0]), int(r[1]), *map(float, r[2:]))
    elif fmt == "json-lines":
        with open(path, errors="replace") as fh:
            lines = list(enumerate(fh, 1))
        fields = operator.itemgetter(*TRACE_HEADER)
        parse = lambda line: _trace_row(*fields(json.loads(line)))
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    rows = []
    for lineno, line in lines:
        try:
            rows.append(parse(line))
        except (ValueError, KeyError, TypeError, OverflowError) as e:  # a bad number or JSON
            raise LoadError(f"{path}:{lineno}: unreadable row ({type(e).__name__}: {e})") from None
    if not rows:
        return Trace.empty((), np.empty(0, dtype=np.int64))
    seed, k, *values = (np.array(c) for c in zip(*rows))
    changes = np.flatnonzero(seed[1:] != seed[:-1])
    n = changes[0] + 1 if changes.size else seed.size  # records per seed
    seeds = seed[::n]
    shape = (seeds.size, n)
    if (seed.size != seeds.size * n or len(set(seeds.tolist())) != seeds.size
            or (seed.reshape(shape) != seeds[:, None]).any()
            or (k.reshape(shape) != k[:n]).any()):
        raise LoadError(f"{path}: the rows are not one block per seed over one k schedule")
    return Trace(tuple(seeds.tolist()), k[:n], np.array(values).reshape(len(METRICS), *shape))
