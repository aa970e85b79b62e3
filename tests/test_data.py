import io
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from astra import data
from astra.data import (
    DataFormatError,
    Dataset,
    RawData,
    field_types,
    fold_split,
    orient_labels,
    parse_csv,
    parse_sparse,
    read_records,
    standardize,
    stratified_folds,
    undersample_minority,
    write_records,
    write_sparse,
)


class TestParseSparse:
    def test_basic(self):
        raw = parse_sparse(io.StringIO("1 1:0.5 3:2\n-1 2:1\n"))
        assert raw.X.tolist() == [[0.5, 0, 2], [0, 1, 0]]
        assert raw.labels.tolist() == [1, -1]

    def test_one_two_labels_preserved(self):
        raw = parse_sparse(io.StringIO("2 1:1\n1 1:2\n2 1:3\n"))
        assert raw.labels.tolist() == [2, 1, 2]

    def test_bad_label(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_sparse(io.StringIO("1 1:1\nxx 1:1\n"))

    def test_bad_token(self):
        with pytest.raises(DataFormatError, match="line 1"):
            parse_sparse(io.StringIO("1 1:a\n"))

    def test_non_ascending_indices(self):
        with pytest.raises(DataFormatError, match="ascending"):
            parse_sparse(io.StringIO("1 2:1 2:2\n"))

    def test_empty_file(self):
        with pytest.raises(DataFormatError, match="empty"):
            parse_sparse(io.StringIO(""))

    def test_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 5))
        X[rng.random(X.shape) < 0.3] = 0.0
        labels = rng.choice([-1.0, 1.0], 20)
        path = tmp_path / "data.txt"
        write_sparse(path, X, labels)
        raw = parse_sparse(path)
        assert np.array_equal(raw.X, X)
        assert np.array_equal(raw.labels, labels)


def reference_parse_sparse(source) -> RawData:
    """The sparse reader as a per-line loop over ``read().splitlines()``
    with a dict per row: the behaviour parse_sparse keeps."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source) as fh:
            lines = fh.read().splitlines()
    rows = []
    labels = []
    n_x = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise DataFormatError(f"line {lineno}: bad label {tokens[0]!r}")
        row = {}
        prev = 0
        for tok in tokens[1:]:
            try:
                idx_s, val_s = tok.split(":")
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DataFormatError(f"line {lineno}: bad feature token {tok!r}")
            if idx <= prev:
                raise DataFormatError(
                    f"line {lineno}: indices must be ascending and 1-based")
            prev = idx
            row[idx] = val
            n_x = max(n_x, idx)
        rows.append(row)
    if not rows:
        raise DataFormatError("empty file")
    X = np.zeros((len(rows), n_x))
    for i, row in enumerate(rows):
        for idx, val in row.items():
            X[i, idx - 1] = val
    return RawData(X=X, labels=np.array(labels))


def outcome(parse, source):
    """What a parse gives: the bytes of the result, or the error."""
    try:
        raw = parse(source)
    except Exception as exc:
        return type(exc), str(exc)
    return (raw.X.shape, raw.X.dtype, raw.X.tobytes(), raw.labels.dtype,
            raw.labels.tobytes())


# Texts on which parse_sparse must agree with reference_parse_sparse.
EDGE_CORPUS = {
    "bad-label-after-blanks": "1 1:1\n\n   \n\t\nxx 1:1\n",
    "label-with-colon": "1:1 2:2\n",
    "empty-value": "1 1:\n",
    "empty-index": "1 :1\n",
    "empty-value-then-token": "1 1: 2:3\n",
    "empty-index-then-token": "1 :1 2:3\n",
    "bare-colon": "1 1:2 :\n",
    "two-colons": "1 1:2:3\n",
    "double-colon": "1 1::2\n",
    "no-colon": "1 1:2 5 3:4\n",
    "no-colon-and-two-colons": "1 1:2 3 4:5:6\n",
    "float-index": "1 1.0:2\n",
    "exponent-index": "1 1e0:2\n",
    "hex-value": "1 1:0x10\n",
    "zero-index": "1 0:1\n",
    "negative-index": "1 -1:1\n",
    "repeated-index": "1 1:1 1:2\n",
    "descending-index": "1 2:1 1:2\n",
    "descending-in-second-row": "1 1:1 2:2\n-1 1:1 3:1 2:1\n",
    "signed-index": "1 +1:2\n",
    "zero-padded-index": "1 01:2 002:3\n",
    "underscore-index": "1 1_0:2\n",
    "underscore-value": "1_0 1:1_0.5\n",
    "non-ascii-digits": "1 \u0661:\u0663.\u0665\n",
    "surrogate": "1 1:2\ud800\n",
    "nan-inf-values": "nan 1:nan 2:inf 3:-inf 4:-nan 5:1e400\ninf 1:-0.0\n",
    "crlf": "1 1:2\r\n-1 2:3\r\n",
    "lone-cr": "1 1:2\r-1 2:3\rxx\n",
    "label-only-lines": "1\n-1 1:2\n2\n",
    "no-features": "1\n2\n",
    "form-feed-in-line": "1 1:2\f-1 2:3\n",
    "vertical-tab-in-line": "1 1:2\v-1 2:3\vyy 1:1\n",
    "separators-in-line": "1 1:2\x1c2 1:3\x1d3 1:4\x1e4 1:5\x85zz\n",
    "unicode-breaks": "1 1:2\u20282 1:3\u20293 1:4\n",
    "unit-separator": "1 1:2\x1f2:3\n",
    "tabs-and-spaces": "1\t1:2   3:4 \t\n-1  2:5\n",
    "no-final-newline": "1 1:2\n-1 3:4",
    "varying-width": "1 5:1\n-1 1:2\n1\n-1 2:3 9:4\n",
    "index-beyond-int64": "1 18446744073709551616:1\n",
    "empty": "",
    "blank-lines-only": "\n  \n\t\n",
}


@pytest.fixture(params=[1, 2, 3, 256], ids=lambda n: f"block{n}")
def block_lines(request, monkeypatch):
    """Each test runs with blocks of 1, 2, 3 and 256 lines."""
    monkeypatch.setattr(data, "BLOCK_LINES", request.param)
    return request.param


class TestParseSparseMatchesReference:
    @pytest.mark.parametrize("text", EDGE_CORPUS.values(), ids=EDGE_CORPUS.keys())
    def test_edge_corpus(self, block_lines, text):
        assert (outcome(parse_sparse, io.StringIO(text))
                == outcome(reference_parse_sparse, io.StringIO(text)))

    def test_error_line_in_a_later_block(self, block_lines):
        text = "".join(f"{i % 2} 1:{i}.5 3:{i}\n" for i in range(40)) + "1 2:1 1:1\n"
        got = outcome(parse_sparse, io.StringIO(text))
        assert got == (DataFormatError,
                       "line 41: indices must be ascending and 1-based")
        assert got == outcome(reference_parse_sparse, io.StringIO(text))

    @pytest.mark.parametrize("raw", [b"1 1:2\r\n-1 2:3\r\n", b"1 1:2\r-1 2:3\rxx\r\n"],
                             ids=["crlf", "cr"])
    def test_path_reads_universal_newlines(self, block_lines, tmp_path, raw):
        path = tmp_path / "d.txt"
        path.write_bytes(raw)
        assert outcome(parse_sparse, path) == outcome(reference_parse_sparse, path)

    def test_stream_splitting_on_cr_only(self, block_lines):
        # Iterating this stream splits "\r\n" between two lines;
        # read().splitlines() keeps it one line break.
        def stream():
            return io.TextIOWrapper(
                io.BytesIO(b"1 1:2\r\n-1 2:3\r\n\r\nxx 1:1\r\n"), newline="\r")
        got = outcome(parse_sparse, stream())
        assert got == (DataFormatError, "line 4: bad label 'xx'")
        assert got == outcome(reference_parse_sparse, stream())

    def test_stream_left_open(self):
        fh = io.StringIO("1 1:1\n")
        parse_sparse(fh)
        assert not fh.closed
        assert fh.read() == ""

    @pytest.mark.parametrize("shape", [(12000, 22), (20034, 3)], ids=["wide", "skin"])
    def test_benchmark_shaped_files(self, tmp_path, shape):
        path = tmp_path / "d.txt"
        X, labels = generated(shape)
        write_sparse(path, X, labels)
        assert outcome(parse_sparse, path) == outcome(reference_parse_sparse, path)

    def test_peak_memory_bounded(self, tmp_path):
        # Measured: 4.4 MB for this file, 2.1 MB of it the result; the
        # per-line loop with a dict per row peaked at 29.6 MB.
        path = tmp_path / "d.txt"
        write_sparse(path, *generated((12000, 22)))
        tracemalloc.start()
        try:
            raw = parse_sparse(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * raw.X.nbytes

    def test_roundtrip_property(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st
        from hypothesis.extra.numpy import arrays

        boundary = st.sampled_from([
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            2.225073858507201e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, float("inf"), float("-inf"), 0.1, 1.0])
        values = st.one_of(boundary, st.floats(allow_nan=False))
        path = tmp_path / "d.txt"

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(
            st.integers(1, 20).flatmap(lambda n: st.tuples(
                arrays(np.float64, st.tuples(st.just(n), st.integers(1, 8)),
                       elements=values),
                arrays(np.float64, n, elements=values))))
        def roundtrip(case):
            X, labels = case
            write_sparse(path, X, labels)
            raw = parse_sparse(path)
            # Trailing columns of +0.0 alone leave no index behind.
            written = np.flatnonzero(((X != 0) | np.signbit(X)).any(axis=0))
            width = written[-1] + 1 if len(written) else 0
            assert raw.X.tobytes() == X[:, :width].tobytes()
            assert raw.X.shape == (len(X), width)
            assert raw.labels.tobytes() == labels.tobytes()
            assert outcome(parse_sparse, path) == outcome(reference_parse_sparse, path)

        roundtrip()


def generated(shape):
    """Seeded normal features and two labels, the minority 1% of rows."""
    rng = np.random.default_rng(shape)
    X = rng.normal(size=shape)
    labels = np.where(np.arange(shape[0]) < shape[0] // 100, 1.0, -1.0)
    return X, labels


def reference_parse_csv(source) -> RawData:
    """The CSV reader as a per-line loop over ``read().splitlines()`` with
    a list per row: the behaviour parse_csv keeps."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source) as fh:
            lines = fh.read().splitlines()
    rows = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            if lineno == 1:
                continue
            raise DataFormatError(f"line {lineno}: bad value in {line!r}")
        if rows and len(row) != len(rows[0]):
            raise DataFormatError(f"line {lineno}: expected {len(rows[0])} "
                                  f"values, got {len(row)}")
        rows.append(row)
    if not rows:
        raise DataFormatError("empty file")
    arr = np.array(rows)
    return RawData(X=arr[:, 1:], labels=arr[:, 0])


# Texts on which parse_csv must agree with reference_parse_csv.
CSV_CORPUS = {
    "header": "label,f1,f2\n1,2,3\n0,4,5\n",
    "header-only": "label,f1\n",
    "numeric-line-1-kept": "1,2\n0,3\n",
    "non-numeric-line-2": "1,2\nlabel,f1\n",
    "header-after-blank-line": "\nlabel,f1\n1,2\n",
    "two-headers": "label,f1\nlabel,f1\n1,2\n",
    "bad-value-after-blanks": "1,2\n\n   \n\t\n0,x\n",
    "empty-value": "1,,2\n",
    "trailing-comma": "1,2,\n",
    "space-inside-value": "1,2 3\n",
    "spaces-around-values": " 1 , 2 \n0,\t3\n",
    "ragged-short": "1,2,3\n0,1\n",
    "ragged-long": "1,2\n0,1,2\n",
    "ragged-after-header": "label,f1\n1,2.0\n\n0,1.0,3.0\n",
    "ragged-and-bad": "1,2\n0,x,3\n",
    "label-only": "1\n0\n",
    "hex-value": "1,0x10\n",
    "underscore-value": "1_0,1_0.5\n",
    "non-ascii-digits": "1,\u0663.\u0665\n",
    "surrogate": "1,2\ud800\n",
    "nan-inf-values": "nan,nan,inf\n-inf,-nan,1e400\n1,-0.0,5e-324\n",
    "crlf": "1,2\r\n0,3\r\n",
    "lone-cr": "1,2\r0,3\rx,1\n",
    "form-feed-in-line": "1,2\f0,3\n",
    "separators-in-line": "1,2\x1c0,3\x1d1,4\x1e0,5\x85x,1\n",
    "unicode-breaks": "1,2\u20280,3\u20291,4\n",
    "unit-separator-in-value": "1,2\x1f\n",
    "nbsp-around-value": "1,\xa02\xa0\n",
    "no-final-newline": "1,2\n0,3",
    "semicolons": "1;2\n",
    "empty": "",
    "blank-lines-only": "\n  \n\t\n",
}


class TestParseCsvMatchesReference:
    @pytest.mark.parametrize("text", CSV_CORPUS.values(), ids=CSV_CORPUS.keys())
    def test_edge_corpus(self, block_lines, text):
        assert (outcome(parse_csv, io.StringIO(text))
                == outcome(reference_parse_csv, io.StringIO(text)))

    @pytest.mark.parametrize("last, message", [
        ("1,2,x\n", "line 42: bad value in '1,2,x'"),
        ("1,2\n", "line 42: expected 3 values, got 2"),
        ("1,2,3,4\n", "line 42: expected 3 values, got 4"),
    ], ids=["bad-value", "short-row", "long-row"])
    def test_error_line_in_a_later_block(self, block_lines, last, message):
        text = "label,a,b\n" + "".join(f"{i % 2},{i}.5,{i}\n" for i in range(40)) + last
        got = outcome(parse_csv, io.StringIO(text))
        assert got == (DataFormatError, message)
        assert got == outcome(reference_parse_csv, io.StringIO(text))

    def test_path_reads_universal_newlines(self, block_lines, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"f,g\r\n1,2\r0,3\r\nx,1\r\n")
        assert outcome(parse_csv, path) == outcome(reference_parse_csv, path)

    def test_stream_left_open(self):
        fh = io.StringIO("1,1\n")
        parse_csv(fh)
        assert not fh.closed
        assert fh.read() == ""

    @pytest.mark.parametrize("shape", [(12000, 22), (20034, 3)], ids=["wide", "skin"])
    def test_benchmark_shaped_files(self, tmp_path, shape):
        path = tmp_path / "d.csv"
        write_csv(path, *generated(shape))
        assert outcome(parse_csv, path) == outcome(reference_parse_csv, path)

    def test_peak_memory_bounded(self, tmp_path):
        # Measured: 4.4 MB for this file, 2.1 MB of it the result; the
        # per-line loop over the whole text peaked at 18.2 MB.
        path = tmp_path / "d.csv"
        write_csv(path, *generated((12000, 22)))
        tracemalloc.start()
        try:
            raw = parse_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * raw.X.nbytes


def write_csv(path, X, labels) -> None:
    """A header line, then the label and features of each row, round-trip exact."""
    with open(path, "w") as fh:
        fh.write(",".join(["label"] + [f"f{j}" for j in range(X.shape[1])]) + "\n")
        for label, row in zip(labels.tolist(), X.tolist()):
            fh.write(",".join(map(repr, [label] + row)) + "\n")


class TestParseCsv:
    def test_basic(self):
        raw = parse_csv(io.StringIO("1,0.5,2\n0,1.5,-1\n"))
        assert raw.X.tolist() == [[0.5, 2], [1.5, -1]]
        assert raw.labels.tolist() == [1, 0]

    def test_header_skipped(self):
        raw = parse_csv(io.StringIO("label,f1\n1,2.0\n"))
        assert raw.labels.tolist() == [1]

    @pytest.mark.parametrize("text, message", [
        ("1,0.5,2\n0,1.5\n", "line 2: expected 3 values, got 2"),
        ("label,f1\n1,2.0\n\n0,1.0,3.0\n", "line 4: expected 2 values, got 3"),
    ])
    def test_ragged_row_rejected(self, text, message):
        # Rows are counted from the first data row, after a skipped header.
        with pytest.raises(DataFormatError, match=message):
            parse_csv(io.StringIO(text))


@dataclass(frozen=True)
class Row:
    name: str
    count: int
    flag: bool | None = None
    value: float | None = None
    note: str | None = None


class TestRecordCsv:
    ROWS = [Row("a", 1, True, 0.1, 'x, "y"\nz'), Row("b", -2, False, -0.0),
            Row("c", 0, None, 1e-310), Row("d", 3, value=float("inf"))]

    def test_field_types(self):
        assert field_types(Row) == {"name": str, "count": int, "flag": bool,
                                    "value": float, "note": str}

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_records(self.ROWS, Row, path)
        back = read_records(Row, path)
        assert back == self.ROWS
        assert str(back[1].value) == "-0.0"
        assert path.read_text().splitlines()[:4] == [
            "name,count,flag,value,note", 'a,1,True,0.1,"x, ""y""', 'z"',
            "b,-2,False,-0.0,"]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("name,count,flag,value,note\n\na,1,,,\n\n")
        assert read_records(Row, path) == [Row("a", 1)]

    @pytest.mark.parametrize("text, message", [
        ("name,count\na,1\n", "line 1: unexpected header"),
        ("", "line 1: unexpected header"),
        ("name,count,flag,value,note\n", "line 1: no records"),
        ("name,count,flag,value,note\na,1,yes,,\n", "line 2: not a bool: 'yes'"),
        ("name,count,flag,value,note\na,,,,\n", "line 2: invalid literal"),
        ("name,count,flag,value,note\n\na,1,,x,\n", "line 3: could not convert"),
    ])
    def test_rejected(self, tmp_path, text, message):
        path = tmp_path / "rows.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=f"{path} {message}"):
            read_records(Row, path)


class TestOrientLabels:
    def test_minority_to_one(self):
        labels = np.array([2.0] * 100 + [1.0] * 5)
        ds = orient_labels(RawData(X=np.zeros((105, 1)), labels=labels))
        assert ds.m1 == 5 and ds.m0 == 100
        assert ds.ir == pytest.approx(20.0)
        assert np.all(ds.y[-5:] == 1)

    def test_tie_takes_larger_label(self):
        labels = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
        ds = orient_labels(RawData(X=np.zeros((6, 1)), labels=labels))
        assert np.array_equal(ds.y, [0, 1, 0, 1, 0, 1])

    def test_skin_like_ir(self):
        labels = np.array([1.0] * 20000 + [2.0] * 34)
        ds = orient_labels(RawData(X=np.zeros((20034, 1)), labels=labels))
        assert ds.ir == pytest.approx(20000 / 34)

    def test_wrong_label_count(self):
        with pytest.raises(ValueError):
            orient_labels(RawData(X=np.zeros((3, 1)), labels=np.array([1.0, 2.0, 3.0])))


class TestStandardize:
    def test_train_moments(self):
        rng = np.random.default_rng(1)
        ds = Dataset(X=rng.normal(5, 3, (50, 4)), y=np.array([0] * 49 + [1]))
        scaled, _, _, _ = standardize(ds)
        assert np.allclose(scaled.X.mean(axis=0), 0, atol=1e-9)
        assert np.allclose(scaled.X.std(axis=0), 1, atol=1e-9)

    def test_constant_feature_centered_only(self):
        X = np.ones((10, 2))
        X[:, 1] = np.arange(10)
        ds = Dataset(X=X, y=np.array([0] * 9 + [1]))
        scaled, _, _, _ = standardize(ds)
        assert np.allclose(scaled.X[:, 0], 0)

    def test_others_use_train_statistics(self):
        train = Dataset(X=np.array([[0.0], [2.0]]), y=np.array([0, 1]))
        test = Dataset(X=np.array([[10.0]]), y=np.array([1]))
        _, (scaled_test,), mean, std = standardize(train, [test])
        assert mean[0] == 1.0 and std[0] == 1.0
        assert scaled_test.X[0, 0] == 9.0


class TestStratifiedFolds:
    def test_one_positive_per_fold(self):
        rng = np.random.default_rng(2)
        ds = Dataset(X=rng.normal(size=(105, 2)), y=np.array([0] * 100 + [1] * 5))
        plan = stratified_folds(ds, 5, seed=0)
        for f in range(5):
            assert np.sum(ds.y[np.flatnonzero(plan == f)] == 1) == 1

    def test_fold_sizes_balanced_per_class(self):
        rng = np.random.default_rng(3)
        ds = Dataset(X=rng.normal(size=(83, 2)),
                     y=(rng.random(83) < 0.3).astype(int))
        plan = stratified_folds(ds, 5, seed=1)
        for cls in (0, 1):
            counts = [np.sum(ds.y[np.flatnonzero(plan == f)] == cls) for f in range(5)]
            assert max(counts) - min(counts) <= 1

    def test_deterministic(self):
        ds = Dataset(X=np.zeros((20, 1)), y=np.array([0] * 15 + [1] * 5))
        a = stratified_folds(ds, 5, seed=7)
        b = stratified_folds(ds, 5, seed=7)
        assert np.array_equal(a, b)

    def test_partition(self):
        ds = Dataset(X=np.zeros((37, 1)), y=np.array([0] * 30 + [1] * 7))
        plan = stratified_folds(ds, 5, seed=3)
        all_idx = np.concatenate([np.flatnonzero(plan == f) for f in range(5)])
        assert sorted(all_idx) == list(range(37))

    def test_errors(self):
        ds = Dataset(X=np.zeros((3, 1)), y=np.array([0, 0, 1]))
        with pytest.raises(ValueError):
            stratified_folds(ds, 5, seed=0)


class TestFoldSplit:
    def test_roles_partition(self):
        ds = Dataset(X=np.arange(40.0).reshape(40, 1),
                     y=np.array([0] * 35 + [1] * 5))
        plan = stratified_folds(ds, 5, seed=4)
        for rotation in range(5):
            tr, val, te = fold_split(ds, plan, rotation, (rotation + 1) % 5)
            total = sorted(np.concatenate([tr.X[:, 0], val.X[:, 0], te.X[:, 0]]))
            assert total == sorted(ds.X[:, 0])
            assert tr.m_tot + val.m_tot + te.m_tot == 40

    @pytest.mark.parametrize("k", range(3, 11))
    def test_train_rows_are_the_isin_reference(self, k):
        # Each row's index as its feature, so a subset shows its rows.
        rng = np.random.default_rng(k)
        m = int(rng.integers(4 * k, 12 * k))
        y = np.zeros(m, dtype=int)
        y[rng.choice(m, k, replace=False)] = 1
        ds = Dataset(X=np.arange(m, dtype=float)[:, None], y=y)
        plan = stratified_folds(ds, k, seed=k)
        for test_fold in range(k):
            for val_fold in set(range(k)) - {test_fold}:
                test_idx = np.flatnonzero(plan == test_fold)
                val_idx = np.flatnonzero(plan == val_fold)
                mask = ~np.isin(np.arange(m), np.concatenate([test_idx, val_idx]))
                want = (np.flatnonzero(mask), val_idx, test_idx)
                got = fold_split(ds, plan, test_fold, val_fold)
                for part, idx in zip(got, want, strict=True):
                    assert np.array_equal(part.X[:, 0], idx)
                    assert np.array_equal(part.y, y[idx])

    def test_same_fold_rejected(self):
        ds = Dataset(X=np.zeros((10, 1)), y=np.array([0] * 8 + [1] * 2))
        plan = stratified_folds(ds, 5, seed=0)
        with pytest.raises(ValueError):
            fold_split(ds, plan, 1, 1)


class TestUndersample:
    def test_counts_and_ir(self):
        ds = Dataset(X=np.zeros((20034, 3)), y=np.array([0] * 20000 + [1] * 34))
        reduced, kept = undersample_minority(ds, 5, seed=0)
        assert reduced.m_tot == 20005
        assert reduced.m1 == 5
        assert reduced.ir == pytest.approx(4000.0)
        assert len(kept) == 5

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(5)
        ds = Dataset(X=rng.normal(size=(30, 2)), y=np.array([0] * 25 + [1] * 5))
        reduced, _ = undersample_minority(ds, 5, seed=1)
        assert np.array_equal(reduced.X, ds.X)
        assert np.array_equal(reduced.y, ds.y)

    def test_negatives_untouched(self):
        rng = np.random.default_rng(6)
        ds = Dataset(X=rng.normal(size=(50, 2)), y=np.array([0] * 40 + [1] * 10))
        reduced, _ = undersample_minority(ds, 3, seed=2)
        assert np.array_equal(reduced.X[reduced.y == 0], ds.X[ds.y == 0])

    def test_seeded(self):
        ds = Dataset(X=np.zeros((50, 1)), y=np.array([0] * 40 + [1] * 10))
        _, a = undersample_minority(ds, 3, seed=9)
        _, b = undersample_minority(ds, 3, seed=9)
        assert np.array_equal(a, b)

    def test_keep_out_of_range(self):
        ds = Dataset(X=np.zeros((10, 1)), y=np.array([0] * 8 + [1] * 2))
        with pytest.raises(ValueError):
            undersample_minority(ds, 3, seed=0)
