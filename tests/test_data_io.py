import json
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polystep import data_io, runner
from polystep.core import stream
from polystep.data_io import (
    METRICS,
    TRACE_HEADER,
    LoadError,
    Trace,
    load_delimited,
    load_libsvm,
    make_synthetic,
    read_trace,
    standardize,
    write_trace,
)


class TestLibsvm:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 1:0.5 3:2.0\n-1 2:1.5\n")
        ds = load_libsvm(str(p))
        assert (ds.n, ds.d) == (2, 3)
        np.testing.assert_array_equal(ds.features, [[0.5, 0.0, 2.0], [0.0, 1.5, 0.0]])
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    def test_label_remap_12(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 1:1\n2 1:2\n")
        np.testing.assert_array_equal(load_libsvm(str(p)).labels, [1.0, -1.0])

    def test_label_remap_01(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("0 1:1\n1 1:2\n")
        np.testing.assert_array_equal(load_libsvm(str(p)).labels, [-1.0, 1.0])

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 1:1\n\n-1 1:2\n")
        assert load_libsvm(str(p)).n == 2

    @pytest.mark.parametrize("content,frag", [
        ("abc 1:1\n", "bad label"),
        ("+1 1:x\n", "bad pair"),
        ("+1 0:1\n", "1-based"),
        ("", "empty"),
    ])
    def test_errors_carry_context(self, tmp_path, content, frag):
        p = tmp_path / "d.libsvm"
        p.write_text(content)
        with pytest.raises(LoadError, match=frag):
            load_libsvm(str(p))

    @pytest.mark.parametrize("content,message", [
        ("1 1:0.5 2:1\n-1 1:nan 2:-1\n1 1:0.1 2:0.3\n", ":2: non-finite value '1:nan'"),
        ("1 1:0.5\n-1 1:1e400\n", ":2: non-finite value '1:1e400'"),
        ("1 1:0.5\ninf 1:2\n", ":2: non-finite value 'inf'"),
        ("1\n-1\n1\n", ": no features"),
        ("1 1:0.5\n3 1:1\n1 1:2\n", ": cannot map label values [1.0, 3.0] to {-1, +1}"),
    ])
    def test_rejects_nonfinite_values_and_no_features(self, tmp_path, content, message):
        p = tmp_path / "d.libsvm"
        p.write_text(content)
        with pytest.raises(LoadError) as err:
            load_libsvm(str(p))
        assert str(err.value) == str(p) + message


# Generated LIBSVM texts: sparse, unsorted and repeated indices, blank lines,
# tabs, CRLF and every label convention the loader maps.
VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.6g}"),
    st.sampled_from(["0", "-0", ".5", "5.", "+2", "1E3", "-1e-05", "007", "1e-400"]),
)
LABELS = [("+1", "-1"), ("1", "-1"), ("0", "1"), ("1", "2"), ("2",)]
BLANKS = st.sampled_from([" ", "\t", "  ", " \t"])


@st.composite
def libsvm_lines(draw) -> list[str]:
    labels = draw(st.sampled_from(LABELS))
    d = draw(st.integers(1, 12))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        idx = draw(st.lists(st.integers(1, d), max_size=d))
        tokens = [draw(st.sampled_from(labels))]
        tokens += [f"{i}:{draw(VALUE)}" for i in idx]
        line = draw(BLANKS).join(tokens)
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " "])))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    return lines


# Lines whose block the block parse must leave to the line scan. Most are
# errors; the scan accepts `+1:`, `1_0`, the vertical tab and the 19-digit
# index. The pair of lines is bad only together: its missing and extra
# numbers cancel in the block's total; `1 3: 1:1-2` does so within one
# line. The last is a byte that is not valid UTF-8.
MUTATIONS = [
    ["1 3:"], ["1 :3"], ["1 1:2:3"], ["1 0:1"], ["1 1.5:2"], ["1 1e2:2"], ["1 +1:2"],
    ["1 2 3:4"], ["-1 :5", "1 2 3:4"], ["1 1:nan"], ["nan 1:2"], ["1 1:1e400"],
    ["1 1:2,5"], ["1 1:0x1p3"], ["1:2 3:4"], ["1:2 5"], ["1 1:1_0"], ["1 1:2\x0b2:3"],
    ["1 1000000000000000000:2"], ["1 3: 1:1-2"], ["1 1:0.5\xff 2:1"],
]
# the default read size, and reads so small that nearly every line is a
# block of its own and spans several reads
BLOCKS = [data_io._LIBSVM_BLOCK, 3]


def whole_text(path):
    """The bytes of the file at ``path`` with the line ends text mode's
    universal newlines give; latin-1 maps each byte to one character."""
    with open(path, encoding="latin-1") as fh:
        return fh.read().encode("latin-1")


def load_by_scan(path):
    """``load_libsvm`` with the whole file one block, sent to the line scan:
    a reference that shares no block boundary, row offset or line offset
    with the load under test."""
    with mock.patch.object(data_io, "_parse_block", lambda text: None), \
            mock.patch.object(data_io, "_line_blocks", lambda fh: [whole_text(path)]):
        return load_libsvm(path)


def assert_loads_like_scan(path):
    try:
        want = load_by_scan(path)
    except LoadError as e:
        with pytest.raises(LoadError) as got:
            load_libsvm(path)
        assert str(got.value) == str(e)
        return
    got = load_libsvm(path)
    np.testing.assert_array_equal(got.features, want.features)
    assert got.features.tobytes() == want.features.tobytes()  # -0.0 kept apart from 0.0
    np.testing.assert_array_equal(got.labels, want.labels)


def refused_blocks(path):
    """The blocks of the file at ``path`` that the block parse refuses, as
    ``load_libsvm`` reads them; checks first that the reader cuts the file
    into whole lines."""
    with open(path, "rb") as fh:
        blocks = list(data_io._line_blocks(fh))
    assert b"".join(blocks) == whole_text(path)
    assert all(block.endswith(b"\n") for block in blocks[:-1])
    return [block for block in blocks if data_io._parse_block(block) is None]


def write_dense(path, n, d=40):
    """A file shaped like the benchmark's input: every index in order,
    '%.6g' values over six decades. Returns its features and labels."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, d)
    y = rng.choice([-1, 1], n)
    rows = [[f"{v:.6g}" for v in row] for row in X]
    path.write_text("".join(f"{label:d} " + " ".join(f"{j}:{v}" for j, v in enumerate(row, 1))
                            + "\n" for label, row in zip(y, rows)))
    return np.array(rows, dtype=float), y


class TestOnePassParse:
    """The block parse agrees with the line scan on every text, at any block
    size: the same dataset, or the same ``LoadError`` message and line."""

    @settings(max_examples=150, deadline=None)
    @given(lines=libsvm_lines(), eol=st.sampled_from(["\n", "\r\n", "\r"]),
           last_eol=st.booleans())
    def test_generated_files(self, tmp_path_factory, lines, eol, last_eol):
        text = eol.join(lines) + (eol if last_eol else "")
        path = tmp_path_factory.mktemp("svm") / "d.svm"
        path.write_bytes(text.encode())
        for block in BLOCKS:
            with mock.patch.object(data_io, "_LIBSVM_BLOCK", block):
                assert not refused_blocks(path)  # no block scanned
                assert_loads_like_scan(str(path))

    @settings(max_examples=150, deadline=None)
    @given(lines=libsvm_lines(), bad=st.sampled_from(MUTATIONS), at=st.integers(0, 20))
    def test_mutated_files(self, tmp_path_factory, lines, bad, at):
        at = min(at, len(lines))
        lines = lines[:at] + bad + lines[at:]
        path = tmp_path_factory.mktemp("svm") / "d.svm"
        # the generated lines are ASCII; latin-1 writes the mutation's \xff as one byte
        path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        for block in BLOCKS:
            with mock.patch.object(data_io, "_LIBSVM_BLOCK", block):
                assert refused_blocks(path)
                assert_loads_like_scan(str(path))

    def test_every_mutation(self, tmp_path):
        # hypothesis draws the first mutations most often; this takes each one
        for i, bad in enumerate(MUTATIONS):
            path = tmp_path / f"m{i}.svm"
            path.write_bytes(("\n".join(["1 1:0.5 2:1", *bad, "-1 2:3"]) + "\n").encode("latin-1"))
            for block in BLOCKS:
                with mock.patch.object(data_io, "_LIBSVM_BLOCK", block):
                    assert refused_blocks(path), bad
                    assert_loads_like_scan(str(path))

    def test_dense_file_takes_the_block_parse(self, tmp_path):
        path = tmp_path / "dense.svm"
        X, y = write_dense(path, 300)
        for block in BLOCKS + [4096]:  # 4096: a block edge every few lines
            with mock.patch.object(data_io, "_LIBSVM_BLOCK", block), \
                    mock.patch.object(data_io, "_scan_block", side_effect=AssertionError):
                ds = load_libsvm(str(path))
            np.testing.assert_array_equal(ds.features, X)
            np.testing.assert_array_equal(ds.labels, y)

    @pytest.mark.parametrize("text", [
        b"1 1:0.5\r\n-1 2:3\r\n1 1:2\r\n",  # 8-byte reads split the first CRLF
        b"1 1:0.5\r-1 2:3\r\r1 1:2",  # CR line ends, a blank line, no last line end
        b"1 1:0.5 2:0.25 3:-1e-3 5:7\n\n-1 2:3",  # a line longer than most reads
        b"1 1:0.5 2:1\n-1 9:3 9:4\n1 30:2\n",  # blocks kept as triples, and dense ones
        b"\n \r\n\t\r\n\n",  # blank lines only: an empty file
    ])
    def test_every_read_size(self, tmp_path, text):
        path = tmp_path / "d.svm"
        path.write_bytes(text)
        for block in range(1, len(text) + 2):
            with mock.patch.object(data_io, "_LIBSVM_BLOCK", block):
                assert not refused_blocks(path)
                assert_loads_like_scan(str(path))
        if not text.strip():
            with pytest.raises(LoadError, match="empty file"):
                load_libsvm(str(path))

    def test_bad_line_in_a_late_block(self, tmp_path):
        path = tmp_path / "dense.svm"
        write_dense(path, 600)
        lines = path.read_text().splitlines()
        lines[570] = "1 1:0.5 2:x 3:1"
        path.write_text("\n".join(lines) + "\n")
        with open(path, "rb") as fh:
            assert len(list(data_io._line_blocks(fh))) > 4  # line 571 is in a late block
        with pytest.raises(LoadError) as err:
            load_libsvm(str(path))
        assert str(err.value) == f"{path}:571: bad pair '2:x'"
        assert_loads_like_scan(str(path))

    def test_first_bad_line_is_named_at_any_read_size(self, tmp_path):
        # a byte that is not valid UTF-8 on a later line, in the same block
        # or another, does not hide the bad line before it
        svm, csv = tmp_path / "d.svm", tmp_path / "d.csv"
        svm.write_bytes(b"1 1:0.5\n-1 1:x\n1 1:0.5\xff\n")
        csv.write_bytes(b"1,0.5\n-1,x\n1,0.5\xff\n")
        for block in BLOCKS:
            with mock.patch.object(data_io, "_LIBSVM_BLOCK", block):
                for load, path, message in ((load_libsvm, svm, ":2: bad pair '1:x'"),
                                            (load_delimited, csv, ":2: non-numeric cell")):
                    with pytest.raises(LoadError) as err:
                        load(str(path))
                    assert str(err.value) == str(path) + message

    def test_only_refused_blocks_are_scanned(self, tmp_path):
        path = tmp_path / "dense.svm"
        write_dense(path, 600)
        lines = path.read_text().splitlines()
        lines[570] = "1 1:1_0 2:1"  # the line scan reads 1_0 as 10
        path.write_text("\n".join(lines) + "\n")
        with open(path, "rb") as fh:
            assert len(list(data_io._line_blocks(fh))) > 4  # line 571 is in a late block
        assert len(refused_blocks(path)) == 1
        with mock.patch.object(data_io, "_scan_block", wraps=data_io._scan_block) as scan:
            ds = load_libsvm(str(path))
        assert scan.call_count == 1
        assert ds.features[570, :3].tolist() == [10.0, 1.0, 0.0]
        want = load_by_scan(str(path))
        assert ds.features.tobytes() == want.features.tobytes()
        assert ds.labels.tobytes() == want.labels.tobytes()

    def test_peak_memory_is_about_twice_the_matrix(self, tmp_path):
        # a file-sized temporary (the file is about 1.6 times the matrix)
        # breaks the bound; the 1-MB allowance holds the temporaries of a
        # block, the line scan's of a refused one too
        path, refused = tmp_path / "dense.svm", tmp_path / "refused.svm"
        X, _ = write_dense(path, 4000)
        lines = path.read_text().splitlines(keepends=True)
        lines[3900] = "1 1:1_0\n"  # a late line that only the line scan takes
        refused.write_text("".join(lines))
        for p in (path, refused):
            spec = runner.ProblemSpec("dataset", dataset_path=str(p))
            for load in (lambda: load_libsvm(str(p)), lambda: runner.build_problem(spec)):
                load()  # first-call imports and caches are not the load's
                tracemalloc.start()
                try:
                    load()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 2.5 * X.nbytes + (1 << 20), p.name

    def test_sparse_file_costs_its_pairs_not_its_rows(self, tmp_path):
        # blocks kept as dense rows until the end would double the peak
        path = tmp_path / "sparse.svm"
        n, d = 100, 10000
        path.write_text("".join(f"{1 - 2 * (i % 2)} 1:0.5 {d - i}:1\n" for i in range(n)))
        load_libsvm(str(path))  # first-call imports and caches are not the load's
        tracemalloc.start()
        try:
            ds = load_libsvm(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.shape == (n, d) and ds.features.sum() == 1.5 * n
        np.testing.assert_array_equal(ds.features[np.arange(n), d - 1 - np.arange(n)], 1.0)
        assert peak <= ds.features.nbytes + (1 << 20)

    def test_repeated_index_keeps_last_value(self, tmp_path):
        p = tmp_path / "d.svm"
        p.write_text("1 2:5 1:1 2:7\n-1 1:3\n")
        np.testing.assert_array_equal(load_libsvm(str(p)).features, [[1.0, 7.0], [3.0, 0.0]])


class TestDelimited:
    def test_csv_with_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,f1,f2\n1,0.5,2\n-1,1.5,3\n")
        ds = load_delimited(str(p))
        assert (ds.n, ds.d) == (2, 2)
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    def test_whitespace_no_header(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 0.5 2\n-1 1.5 3\n")
        assert load_delimited(str(p)).d == 2

    def test_second_nonnumeric_row_raises(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("h1,h2\noops,x\n1,2\n")
        with pytest.raises(LoadError, match="non-numeric"):
            load_delimited(str(p))

    def test_ragged_row_raises(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3\n1,2\n")
        with pytest.raises(LoadError, match="ragged"):
            load_delimited(str(p))

    @pytest.mark.parametrize("content,message", [
        ("1,0.5,2\n-1,nan,3\n", ":2: non-finite value 'nan'"),
        ("1,0.5,2\n-1,1e400,3\n", ":2: non-finite value '1e400'"),
        ("1\n-1\n", ": no features"),
        ("1,0.5\n3,1\n1,2\n", ": cannot map label values [1.0, 3.0] to {-1, +1}"),
        # a row of commas alone has no cells, before the width is known
        (",\n", ":1: no features"),
        (",,\n1,2\n", ":1: no features"),
        ("a,b\n,\n1,2\n", ":2: no features"),
    ])
    def test_rejects_nonfinite_values_and_no_features(self, tmp_path, content, message):
        p = tmp_path / "d.csv"
        p.write_text(content)
        with pytest.raises(LoadError) as err:
            load_delimited(str(p))
        assert str(err.value) == str(p) + message

    # a block carries the table's width and whether a header may still come
    # to the next: each text loads alike, or fails on the same line, at
    # every read size, from one line per block to the whole file in one
    @pytest.mark.parametrize("text,want", [
        (b"label,f1,f2\r\n1,0.5,2\r\n\r\n-1,1.5,3\r\n", ([[0.5, 2], [1.5, 3]], [1, -1])),
        (b"\n \r\nlabel f1\r1 0.5\r\r-1\t-2\r1,3", ([[0.5], [-2], [3]], [1, -1, 1])),
        (b"1,0.5,2\n-1,1.5,3\n\n1,2,3\n-1,2\n", ":5: ragged row (2 cells, expected 3)"),
        (b"1,0.5,2\n-1,1.5,3\n\n1,x,3\n", ":4: non-numeric cell"),
        (b"label,f1\n\n", ": no data rows"),
        (b"y\n1\n-1\n", ": no features"),
    ])
    def test_every_read_size(self, tmp_path, text, want):
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        for block in range(1, len(text) + 2):
            with mock.patch.object(data_io, "_LIBSVM_BLOCK", block):
                if isinstance(want, str):
                    with pytest.raises(LoadError) as err:
                        load_delimited(str(path))
                    assert str(err.value) == str(path) + want, block
                else:
                    ds = load_delimited(str(path))
                    assert (ds.features.tolist(), ds.labels.tolist()) == want, block

    def test_peak_memory_is_about_twice_the_matrix(self, tmp_path):
        # a file-sized temporary or a Python float per cell breaks the bound;
        # the 1-MB allowance holds the temporaries of a block
        X, y = write_dense(tmp_path / "dense.svm", 4000)
        path = tmp_path / "dense.csv"
        path.write_text("label," + ",".join(f"f{j}" for j in range(X.shape[1])) + "\n"
                        + "".join(f"{label:d}," + ",".join(f"{v:.6g}" for v in row) + "\n"
                                  for label, row in zip(y, X)))
        np.testing.assert_array_equal(load_delimited(str(path)).features, X)
        spec = runner.ProblemSpec("dataset", dataset_path=str(path), dataset_format="delimited")
        for load in (lambda: load_delimited(str(path)), lambda: runner.build_problem(spec)):
            load()  # first-call imports and caches are not the load's
            tracemalloc.start()
            try:
                load()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2.5 * X.nbytes + (1 << 20)


class TestStandardize:
    def test_zero_mean_unit_population_std(self):
        ds = make_synthetic(stream(0), 50, 4)
        out = standardize(ds)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_passthrough(self):
        ds = make_synthetic(stream(1), 20, 3)
        X = ds.features.copy()
        X[:, 1] = 7.0
        ds = type(ds)(X, ds.labels)
        out = standardize(ds)
        np.testing.assert_array_equal(out.features[:, 1], 7.0)

    def test_input_unchanged_and_one_new_array(self):
        ds = make_synthetic(stream(5), 2000, 50)
        ds.features[:, 2] = -3.0
        F = ds.features.copy()
        standardize(ds)  # first-call imports and caches are not the call's
        tracemalloc.start()
        try:
            out = standardize(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * F.nbytes  # the result, and no second n x d array
        assert ds.features.tobytes() == F.tobytes()
        std = F.std(axis=0)
        want = np.where(std == 0, F, (F - F.mean(axis=0)) / np.where(std == 0, 1.0, std))
        assert out.features.tobytes() == want.tobytes()

    def test_needs_two_rows(self):
        ds = make_synthetic(stream(2), 2, 2)
        with pytest.raises(ValueError):
            standardize(type(ds)(ds.features[:1], ds.labels[:1]))


class TestSynthetic:
    def test_shapes_and_labels(self):
        ds = make_synthetic(stream(3), 30, 5)
        assert ds.features.shape == (30, 5)
        assert set(np.unique(ds.labels)) <= {-1.0, 1.0}

    def test_reproducible(self):
        a = make_synthetic(stream(4), 10, 3)
        b = make_synthetic(stream(4), 10, 3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


def assert_same_trace(got, want):
    """Equal seeds, and every column equal bit for bit, so -0.0 and nan count."""
    assert got.seeds == want.seeds
    for name in ("ks", *METRICS):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def make_trace(seeds, ks, values) -> Trace:
    """A Trace over ``seeds`` x ``ks`` filled, metric by metric and row by
    row, from the flat sequence ``values``."""
    trace = Trace.empty(seeds, ks)
    columns = np.array(values, dtype=np.float64).reshape(len(METRICS), len(seeds), len(ks))
    for name, column in zip(METRICS, columns):
        getattr(trace, name)[:] = column
    return trace


EXT = {"csv": "t.csv", "json-lines": "t.jsonl"}


def json_row(**values) -> str:
    """A JSON-lines trace row: seed 0, k 2 and every metric 1.0, but for ``values``."""
    return json.dumps({**dict(zip(TRACE_HEADER, (0, 2, 1.0, 1.0, 1.0, 1.0))), **values})

SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def traces(draw) -> Trace:
    R, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    seeds = draw(st.lists(st.integers(0, 2**40), min_size=R, max_size=R, unique=True))
    ks = sorted(draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True)))
    value = finite | st.sampled_from(SPECIALS)
    size = len(METRICS) * R * n
    return make_trace(seeds, ks, draw(st.lists(value, min_size=size, max_size=size)))


class TestTraces:
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_round_trip_exact(self, tmp_path, fmt):
        rng = stream(5)
        values = rng.standard_normal(len(METRICS) * 3 * 5) * 10.0 ** rng.integers(-8, 8, 60)
        values[:len(SPECIALS)] = SPECIALS
        trace = make_trace((0, 1, 2), range(5), values)
        path = tmp_path / EXT[fmt]
        write_trace(trace, str(path), fmt)
        back = read_trace(str(path), fmt)
        assert isinstance(back, Trace) and len(back) == 15
        assert_same_trace(back, trace)  # bit-exact floats after serialization

    def test_csv_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(Trace.empty((), []), str(path), "csv")
        assert path.read_text().strip() == "seed,k,f_sub,f_sub_avg_iterate,dist_sq,gamma"
        empty = read_trace(str(path), "csv")
        assert empty.seeds == () and len(empty) == 0

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n")
        with pytest.raises(LoadError):
            read_trace(str(path), "csv")

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("seed,k,f_sub,f_sub_avg_iterate,dist_sq,gamma\n0,1,2\n")
        with pytest.raises(LoadError, match="a row without 6 fields"):
            read_trace(str(path), "csv")

    @pytest.mark.parametrize("fmt,row", [
        ("csv", "0,0,1,2,3,x"),  # a cell that is not a number
        ("json-lines", '{"seed": 0, "k": 0}'),  # missing fields
        ("json-lines", "[1,2]"),  # not an object
        ("json-lines", '{"seed": 0,'),  # not JSON
        # seed and k are integers and the metrics numbers, in either format
        ("csv", "99999999999999999999,2,1,1,1,1"),
        ("json-lines", json_row(f_sub="x")),
        ("json-lines", json_row(seed=[0])),
        ("json-lines", json_row(k=None)),
        ("json-lines", json_row(seed=True)),
        ("json-lines", json_row(k=0.5)),
        ("json-lines", json_row(gamma=False)),
        ("json-lines", json_row(gamma=10**400)),
    ], ids=["csv_cell", "json_fields", "json_list", "json_syntax", "csv_huge_seed",
            "json_string_metric", "json_list_seed", "json_null_k", "json_bool_seed",
            "json_float_k", "json_bool_metric", "json_huge_metric"])
    def test_bad_row_names_its_line(self, tmp_path, fmt, row):
        path = tmp_path / EXT[fmt]
        write_trace(make_trace((0,), [0, 1], np.arange(8.0)), str(path), fmt)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines) + row + "\n")
        with pytest.raises(LoadError) as err:
            read_trace(str(path), fmt)
        assert str(err.value).startswith(f"{path}:{len(lines) + 1}: unreadable row (")

    def test_json_integer_metrics_load_as_floats(self, tmp_path):
        path = tmp_path / EXT["json-lines"]
        path.write_text("".join(json_row(k=k, f_sub=3, gamma=k) + "\n" for k in (0, 1)))
        trace = read_trace(str(path), "json-lines")
        assert trace.ks.dtype == np.int64 and trace.ks.tolist() == [0, 1]
        assert all(getattr(trace, name).dtype == np.float64 for name in METRICS)
        assert trace.f_sub.tolist() == [[3.0, 3.0]] and trace.gamma.tolist() == [[0.0, 1.0]]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace(Trace.empty((), []), str(tmp_path / "t.x"), "xml")

    # the data rows of a 2-seed x 3-k trace, seed by seed, rearranged
    @pytest.mark.parametrize("keep", [
        [0, 2, 3, 4, 5],  # seed 0 misses a k
        [0, 2, 3, 4],  # the seeds have different ks
        [0, 3, 1, 4, 2, 5],  # the seeds interleave
    ], ids=["missing_k", "different_ks", "interleaved"])
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_non_rectangular_file_rejected(self, tmp_path, fmt, keep):
        path = tmp_path / EXT[fmt]
        write_trace(make_trace((4, 9), [0, 5, 10], np.arange(24.0)), str(path), fmt)
        lines = path.read_text().splitlines(keepends=True)
        header = lines[:1] if fmt == "csv" else []
        rows = lines[len(header):]
        path.write_text("".join(header + [rows[i] for i in keep]))
        with pytest.raises(LoadError, match="one block per seed") as err:
            read_trace(str(path), fmt)
        assert str(err.value).startswith(str(path))

    @settings(max_examples=50, deadline=None)
    @given(trace=traces(), fmt=st.sampled_from(["csv", "json-lines"]))
    def test_round_trip_property(self, tmp_path_factory, trace, fmt):
        path = tmp_path_factory.mktemp("tr") / EXT[fmt]
        write_trace(trace, str(path), fmt)
        assert_same_trace(read_trace(str(path), fmt), trace)


def format_floats(values) -> list[str]:
    """The texts the CSV writers' block encoder makes of ``values``."""
    words = data_io._float_words(np.asarray(values, dtype=np.float64))
    return words.T.tobytes().translate(None, b"\0").decode().split(",")[1:]


def percent_g(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def with_neighbours(values) -> np.ndarray:
    """values, their negatives and the doubles on either side of each."""
    v = np.asarray(values, dtype=np.float64)
    v = np.concatenate([v, -v])
    return np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])


def ties() -> np.ndarray:
    """Doubles m * 2**-k whose exact decimal has 18 significant digits, the
    last a 5: the 17-digit rounding is a tie, broken to the even digit."""
    rng = np.random.default_rng(3)
    out = [2.0**-25]
    for k in range(3, 26):
        lo, hi = -(-10**17 // 5**k), (10**18 - 1) // 5**k
        for m in rng.integers(lo, min(hi, 2**53), 20).tolist():
            m |= 1  # odd, so the last digit of m * 5**k is a 5
            if m * 5**k < 10**18:
                out.append(m / 2**k)
    return np.array(out)


class TestFloatText:
    """The CSV writers' encoder writes exactly what '%.17g' % x writes."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    @example([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308,
              1.7976931348623157e308])
    def test_property(self, values):
        assert format_floats(np.array(values)) == percent_g(values)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(16).integers(0, 2**64, 200_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert format_floats(values) == percent_g(values)

    def test_powers_of_two_and_ten(self):
        values = with_neighbours([2.0**e for e in range(-1074, 1024)]
                                 + [float(f"1e{e}") for e in range(-323, 309)])
        assert format_floats(values) == percent_g(values)

    def test_switch_between_fixed_and_exponential_form(self):
        values = with_neighbours([1e-5, 1e-4, 1e16, 1e17, 9.99995e-5, 9.9999999999999995e16])
        assert format_floats(values) == percent_g(values)

    def test_ties_and_integers(self):
        values = with_neighbours(np.concatenate(
            [ties(), np.arange(-300.0, 301.0), 7.0 * 10.0 ** np.arange(17)]))
        assert format_floats(values) == percent_g(values)

    @pytest.mark.parametrize("shift", [-1e-12, 1e-12])
    def test_exponent_one_off_takes_the_per_value_path(self, monkeypatch, shift):
        # a log10 a few ulps off puts floor(log10|x|) one off near a power of
        # ten; such values must be found and formatted one at a time
        values = with_neighbours([float(f"1e{e}") for e in range(-300, 300)])
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        assert format_floats(values) == percent_g(values)

    def test_per_value_path_alone(self, monkeypatch, tmp_path):
        # a long double no wider than a double sends every value the per-value way
        rng = np.random.default_rng(5)
        values = with_neighbours(rng.standard_normal(500) * 10.0 ** rng.integers(-30, 30, 500))
        values[:4] = [np.nan, np.inf, 0.0, -0.0]
        trace = make_trace((0, 1), range(len(values) // 2), np.resize(values, 4 * len(values)))
        write_trace(trace, str(tmp_path / "fast.csv"))
        monkeypatch.setattr(data_io, "_FAST_PATH", False)
        assert format_floats(values) == percent_g(values)
        write_trace(trace, str(tmp_path / "slow.csv"))
        assert (tmp_path / "slow.csv").read_bytes() == (tmp_path / "fast.csv").read_bytes()

    @pytest.mark.skipif(not data_io._FAST_PATH, reason="no long double wider than a double")
    def test_power_table_within_half_an_ulp(self):
        for e, p in zip(range(data_io._E_LO, data_io._E_HI + 1), data_io._POW10):
            exact = Fraction(10) ** e
            assert abs(Fraction(*p.as_integer_ratio()) - exact) <= exact / 2**64, e


# What a reader may be handed: small pieces of numbers, separators, line ends
# and junk, a byte that is not valid UTF-8 among them.
READER_BYTES = [b"0", b"1", b"2", b"-", b"+", b".", b"e", b",", b":", b" ", b"\t", b"\n",
                b"\r", b"x", b"\xff", b"nan", b"1e400"]
# the cells of a trace row, each written as is into a CSV or JSON-lines row
TRACE_CELLS = [b"0", b"1", b"-1", b"2.5", b"1e400", b"99999999999999999999", b"nan",
               b"NaN", b"true", b"null", b'"x"', b"[0]", b"x", b"", b"\xff"]


@st.composite
def reader_files(draw) -> tuple[str, bytes]:
    """(reader, file bytes): a dataset from ``READER_BYTES``, or a trace whose
    rows, after a CSV file's header, are 5 to 7 cells from ``TRACE_CELLS``."""
    reader = draw(st.sampled_from(["delimited", "libsvm", "csv", "json-lines"]))
    if reader in ("delimited", "libsvm"):
        text = b"".join(draw(st.lists(st.sampled_from(READER_BYTES), max_size=40)))
        # an index of 6 or more digits is a valid file whose matrix may take
        # gigabytes; the allocation failure has its own test
        assume(not re.search(rb"\d{6,}:", text))
        return reader, text
    rows = draw(st.lists(st.lists(st.sampled_from(TRACE_CELLS), min_size=5, max_size=7),
                         max_size=4))
    if reader == "csv":
        lines = [",".join(TRACE_HEADER).encode()] + [b",".join(r) for r in rows]
    else:
        keys = [*TRACE_HEADER, "extra"]
        lines = [b"{" + b", ".join(b'"%s": %s' % (k.encode(), v) for k, v in zip(keys, r))
                 + b"}" for r in rows]
    return reader, b"".join(line + draw(st.sampled_from([b"\n", b"\r\n"])) for line in lines)


# reader -> its call on a path
READERS = {"delimited": load_delimited, "libsvm": load_libsvm,
           "csv": lambda path: read_trace(path, "csv"),
           "json-lines": lambda path: read_trace(path, "json-lines")}


@settings(max_examples=400, deadline=None)
@given(file=reader_files())
@example(file=("delimited", b",\n"))
@example(file=("json-lines", json_row(f_sub="x").encode()))
@example(file=("json-lines", json_row(seed=[0]).encode()))
@example(file=("json-lines", json_row(k=None).encode()))
def test_every_file_loads_clean_values_or_fails_with_one_load_error(tmp_path_factory, file):
    # a dataset loads as finite float64 features with +-1 labels; a trace as
    # integer seeds and ks and float64 metrics; anything else is a LoadError
    reader, text = file
    path = tmp_path_factory.mktemp("reader") / "file"
    path.write_bytes(text)
    try:
        got = READERS[reader](str(path))
    except LoadError:
        return
    if isinstance(got, Trace):
        assert all(type(s) is int for s in got.seeds) and got.ks.dtype == np.int64
        for name in METRICS:
            column = getattr(got, name)
            assert column.dtype == np.float64 and column.shape == (len(got.seeds), len(got.ks))
    else:
        assert got.features.dtype == np.float64 and np.isfinite(got.features).all()
        assert got.features.shape == (got.n, got.d) and min(got.n, got.d) >= 1
        assert set(got.labels.tolist()) <= {-1.0, 1.0}
