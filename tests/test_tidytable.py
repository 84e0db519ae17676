import csv
import math
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parsemunge as pm
from parsemunge import tidytable
from parsemunge.errors import DataError
from parsemunge.tidytable import (
    COLTYPE_ALL_MISSING,
    COLTYPE_CATEGORIC,
    COLTYPE_NUMERIC,
    TidyTable,
    distinct_counts,
    factorize,
    format_number,
    infer_coltype,
    load_csv,
    parse_number,
    write_csv,
)

from .oracles import reference_load_csv, reference_write_csv


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_mixed_parse(self, tmp_path):
        table = load_csv(_write(tmp_path, "a,b\n1,x\n,y\n"))
        assert table.headers == ["a", "b"]
        assert table.columns[0] == [1.0, None]
        assert table.columns[1] == ["x", "y"]

    def test_missing_sentinels(self, tmp_path):
        table = load_csv(_write(tmp_path, "a\nNaN\nNA\nnull\n"))
        assert table.columns[0] == [None, None, None]

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(DataError, match="'a'"):
            load_csv(_write(tmp_path, "a,a\n1,2\n"))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(DataError, match="row 2"):
            load_csv(_write(tmp_path, "a,b\n1,2\n3\n"))

    @pytest.mark.parametrize("text, line, reason", [
        ("a\n" + "x" * 131_073 + "\n", 2, "field larger than field limit"),
        ("a\n1\n\"x\n", 3, "unexpected end of data"),  # ends inside an open quote
        ("a\n\"x\"y\n", 2, "',' expected after '\"'"),  # text after a closing quote
    ], ids=["oversized-field", "open-quote-at-end", "text-after-closing-quote"])
    def test_malformed_csv_names_file_and_line(self, tmp_path, text, line, reason):
        path = _write(tmp_path, text)
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value).startswith(f"{path}: malformed CSV at line {line}: {reason}")

    def test_not_utf8_is_a_data_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a\n\xff\xfe\n")
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: not UTF-8: byte 0xff: invalid start byte"

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # Spreadsheet tools start a "CSV UTF-8" export with one; only a leading one goes.
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\nx,1\n\xef\xbb\xbf,2\n")
        table = load_csv(path)
        assert table.headers == ["a", "b"]
        assert table.column("a") == ["x", "\ufeff"]
        assert table == reference_load_csv(path)
        _, artifact = pm.fit(table, {"a": "onht"})
        assert artifact.per_source["a"].root == "onht"

    def test_custom_missing_tokens(self, tmp_path):
        table = load_csv(_write(tmp_path, "a\nNA\n"), missing_tokens={""})
        assert table.columns[0] == ["NA"]

    def test_overflow_decimal_is_missing(self, tmp_path):
        table = load_csv(_write(tmp_path, "a\n1e999\n"))
        assert table.columns[0] == [None]

    def test_numeric_grammar(self):
        assert parse_number("-2.5e3") == -2500.0
        assert parse_number("1_0") is None
        assert parse_number("inf") is None
        assert parse_number("nan") is None


class TestWriteCsv:
    def test_quoting_and_missing(self, tmp_path):
        # a bare CR would end the row for a CSV reader, so a text holding one is quoted
        path = tmp_path / "out.csv"
        write_csv(TidyTable(headers=["t", "u"],
                            columns=[["a,b", None, 2.5, "x\ry"], ["1", "2", "3", "4"]]), path)
        assert path.read_bytes() == b't,u\n"a,b",1\n,2\n2.5,3\n"x\ry",4\n'

    def test_single_column_missing_quoted_empty(self, tmp_path):
        # a bare blank line would be dropped by CSV readers; the writer quotes
        # the lone empty field so the row survives the round trip
        path = tmp_path / "out.csv"
        write_csv(TidyTable(headers=["t"], columns=[[None]]), path)
        assert path.read_text() == 't\n""\n'
        assert load_csv(path).columns[0] == [None]

    def test_number_formatting(self):
        assert format_number(2.5) == "2.5"
        assert format_number(1.0) == "1"
        assert format_number(-0.0) == "-0"
        assert parse_number(format_number(-0.0)) == 0.0

    def test_round_trip_example(self, tmp_path):
        table = TidyTable(headers=["a", "b"], columns=[[1.0, None], ["x", "y,z"]])
        path = tmp_path / "rt.csv"
        write_csv(table, path)
        assert load_csv(path) == table


_texts = st.text(alphabet="abcXYZ _.;", min_size=1).filter(
    lambda s: s.strip() == s and s not in {"NA", "NaN", "null"}
)
_cells = st.one_of(
    st.none(),
    _texts,
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_cells, min_size=1, max_size=6), min_size=1, max_size=4)
       .filter(lambda cols: len({len(c) for c in cols}) == 1))
def test_round_trip_property(tmp_path_factory, cols):
    table = TidyTable(headers=[f"c{i}" for i in range(len(cols))], columns=cols)
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    write_csv(table, path)
    assert load_csv(path) == table


_csv_texts = st.text(alphabet='ab ,"\r\n', min_size=1)  # no digit, so never a number


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.lists(
    st.tuples(st.one_of(st.just(""), _csv_texts),
              st.lists(st.one_of(st.none(), _csv_texts), min_size=n, max_size=n)),
    min_size=1, max_size=4, unique_by=lambda column: column[0])))
def test_texts_and_headers_round_trip(tmp_path_factory, columns):
    """Texts and headers holding commas, quotes, CR, LF and spaces read back
    as written, in one-column tables too."""
    table = TidyTable(headers=[h for h, _ in columns], columns=[cells for _, cells in columns])
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    write_csv(table, path)
    assert load_csv(path) == table


# Blocks of one or a few rows put block boundaries inside the small tables
# drawn here; the default size checks the single-block path.
_block_rows = st.sampled_from([1, 2, 3, tidytable.BLOCK_ROWS])

_EDGE_FLOATS = [0.0, -0.0, 1e16, -1e16, 1e16 - 2, -(1e16 - 2), 2.0**53 + 1, 2.0**53 - 1,
                5e-324, 1.7976931348623157e308]
_raw_floats = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]).filter(math.isfinite)
_any_floats = st.one_of(_raw_floats, st.sampled_from(_EDGE_FLOATS),
                        st.floats(allow_nan=False, allow_infinity=False))
_quoted_texts = st.text(alphabet='ab ,"\n\r-.0123eE', min_size=1)
_headers = st.one_of(st.just(""), _quoted_texts)
# Cells of a list column: texts, empty texts and missing cells beside floats,
# and the int, bool and str-subclass cells that are written through str().
_list_cells = st.one_of(st.none(), st.just(""), _any_floats, _quoted_texts, st.integers(),
                        st.booleans(), _quoted_texts.map(np.str_))


def _named(columns):
    """Unique headers from ``_headers``, one per column."""
    return st.lists(_headers, min_size=len(columns), max_size=len(columns), unique=True).map(
        lambda headers: TidyTable(headers, columns))


def _tables(cells, max_cols=4):
    """Tables of 1..max_cols columns, all of one drawn length, cells from ``cells``."""
    return st.integers(0, 12).flatmap(lambda n: st.lists(
        st.lists(cells, min_size=n, max_size=n), min_size=1, max_size=max_cols)
    ).flatmap(_named)


def _typed(table):
    """A table's cells by type and repr, so -0.0 and 0.0 differ."""
    return table.headers, [[(type(c), repr(c)) for c in col] for col in table.columns]


def _outcome(load, path, **kw):
    try:
        return _typed(load(path, **kw))
    except DataError as exc:
        return "DataError", str(exc)


class TestAgainstReference:
    """The columnar reader and writer against the cell-by-cell reference."""

    def _assert_same_bytes(self, tmp_path_factory, table, block_rows):
        d = tmp_path_factory.mktemp("w")
        with mock.patch.object(tidytable, "BLOCK_ROWS", block_rows):
            write_csv(table, d / "new.csv")
        reference_write_csv(table, d / "ref.csv")
        assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(_tables(_any_floats), _block_rows)
    def test_float_columns_write_the_reference_bytes(self, tmp_path_factory, table, block_rows):
        self._assert_same_bytes(tmp_path_factory, table, block_rows)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
           _block_rows)
    def test_lone_negative_zero_among_zeros(self, tmp_path_factory, n_at, block_rows):
        n, at = n_at
        col = [0.0] * n
        col[at] = -0.0
        self._assert_same_bytes(tmp_path_factory, TidyTable(headers=["z"], columns=[col]),
                                block_rows)

    @settings(max_examples=150, deadline=None)
    @given(_tables(_list_cells), _block_rows)
    def test_mixed_columns_write_the_reference_bytes(self, tmp_path_factory, table, block_rows):
        self._assert_same_bytes(tmp_path_factory, table, block_rows)

    @settings(max_examples=40, deadline=None)
    @given(_tables(st.one_of(st.none(), st.just(""), _any_floats), max_cols=1), _block_rows)
    @example(TidyTable([""], [[None, "", 1.0]]), 1)
    def test_one_column_with_missing_writes_the_reference_bytes(self, tmp_path_factory, table,
                                                                block_rows):
        self._assert_same_bytes(tmp_path_factory, table, block_rows)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.lists(st.tuples(st.booleans(), st.one_of(
        st.lists(_any_floats, min_size=n, max_size=n),
        st.lists(_list_cells, min_size=n, max_size=n))),
        min_size=1, max_size=5)).flatmap(lambda drawn: _named(
            [np.array(col) if as_array and col and {type(c) for c in col} == {float}
             else col for as_array, col in drawn])), _block_rows)
    def test_array_and_list_columns_write_the_reference_bytes(self, tmp_path_factory, table,
                                                              block_rows):
        """All-float columns stored as arrays or lists, beside mixed ones."""
        self._assert_same_bytes(tmp_path_factory, table, block_rows)

    @settings(max_examples=100, deadline=None)
    @given(_tables(st.one_of(st.none(), _any_floats)), _block_rows)
    @example(TidyTable(["a", "b"], [[None, -0.0, 1e17], [2.5, None, None]]), 1)
    def test_float_and_missing_columns_write_the_reference_bytes(self, tmp_path_factory, table,
                                                                 block_rows):
        """Lists of floats and missing cells, as ``invert`` gives for a numeric source."""
        self._assert_same_bytes(tmp_path_factory, table, block_rows)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_float_beside_missing_raises_as_the_reference(self, tmp_path, bad):
        table = TidyTable(headers=["x", "y"], columns=[[None, bad], ["a", "b"]])
        with pytest.raises(Exception) as ref:
            reference_write_csv(table, tmp_path / "ref.csv")
        with pytest.raises(ref.type, match=re.escape(str(ref.value))):
            write_csv(table, tmp_path / "new.csv")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises_as_the_reference(self, tmp_path, bad):
        table = TidyTable(headers=["x"], columns=[[1.0, bad]])
        with pytest.raises(Exception) as ref:
            reference_write_csv(table, tmp_path / "ref.csv")
        with pytest.raises(ref.type, match=re.escape(str(ref.value))):
            write_csv(table, tmp_path / "new.csv")

    _tokens = st.one_of(
        st.sampled_from(["-0", "0", "-0.0", "1e999", "-1e999", "NA", "NaN", "null", "", "inf",
                         "nan", " 1", "1_0", "+.5", "5.", "2.5e-3", "007", "a,b", 'q"t']),
        _any_floats.map(repr),
        st.text(alphabet="ab0123.-+eE ", max_size=6),
    )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(_tokens, min_size=1, max_size=4), max_size=12),
           st.none() | st.sets(st.sampled_from(["", "NA", "-0", "0", "1e999", "x"])),
           st.booleans(), _block_rows)
    def test_load_matches_the_reference(self, tmp_path_factory, rows, missing, ragged,
                                        block_rows):
        """Cells match by type and repr, and a ragged row names the same row;
        an empty row list is a header-only file."""
        width = len(rows[0]) if rows else 2
        if not ragged:
            rows = [(row * width)[:width] for row in rows]
        path = tmp_path_factory.mktemp("l") / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f"h{i}" for i in range(width)])
            writer.writerows(rows)
        with mock.patch.object(tidytable, "BLOCK_ROWS", block_rows):
            got = _outcome(load_csv, path, missing_tokens=missing)
        assert got == _outcome(reference_load_csv, path, missing_tokens=missing)

    def test_ragged_row_in_a_later_block_is_named(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n3,4\n5,6\n7\n8,9\n")
        with mock.patch.object(tidytable, "BLOCK_ROWS", 2), \
                pytest.raises(DataError, match="row 4 has 1 fields, expected 2"):
            load_csv(path)


class TestColumnLookup:
    def test_lookup_compares_one_header(self):
        # A wide table is read column by column (invert of a wide onht), so a
        # lookup must not compare the header with every other one.
        class CountingStr(str):
            calls = 0

            def __eq__(self, other):
                CountingStr.calls += 1
                return str.__eq__(self, other)

            __hash__ = str.__hash__

        headers = [f"h{i}" for i in range(2000)]
        table = TidyTable(headers=headers, columns=[[float(i)] for i in range(2000)])
        assert table.column(CountingStr("h1999")) == [1999.0]
        assert CountingStr.calls <= 1

    def test_unknown_and_duplicate_headers(self):
        table = TidyTable(headers=["a", "b"], columns=[[1.0], [2.0]])
        assert table.column("b") == [2.0]
        with pytest.raises(DataError, match="no such column: 'c'"):
            table.column("c")
        with pytest.raises(DataError, match="duplicate header: 'a'"):
            TidyTable(headers=["a", "b", "a"], columns=[[1.0], [2.0], [3.0]])


class TestInferColtype:
    @pytest.mark.parametrize("col,expected", [
        ([1.0, 2.0, None], COLTYPE_NUMERIC),
        (["x", 3.0], COLTYPE_CATEGORIC),
        ([None, None], COLTYPE_ALL_MISSING),
    ])
    def test_examples(self, col, expected):
        assert infer_coltype(col) == expected

    @given(st.lists(_cells, min_size=1, max_size=12), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, col, rnd):
        shuffled = list(col)
        rnd.shuffle(shuffled)
        assert infer_coltype(shuffled) == infer_coltype(col)


class TestFactorize:
    def test_zeros_are_one_key_placed_last(self):
        distinct, codes = factorize(["a", -0.0, "b", 0.0, -0.0, None])
        assert distinct == ["a", "b", None, 0.0]
        assert math.copysign(1.0, distinct[-1]) == 1.0
        assert codes.tolist() == [0, 3, 1, 3, 3, 2]

    @given(st.lists(st.sampled_from(["a", "b", "", None, -0.0, 0.0, 1.0, -2.5]), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_keys_are_those_of_distinct_counts(self, col):
        distinct, codes = factorize(col)
        view = distinct_counts(col)
        assert list(map(repr, distinct)) == list(map(repr, view.values))
        assert view.counts.tolist() == list(map(col.count, view.values))
        assert [distinct[c] for c in codes] == col
