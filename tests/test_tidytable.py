import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsemunge.errors import DataError
from parsemunge.tidytable import (
    COLTYPE_ALL_MISSING,
    COLTYPE_CATEGORIC,
    COLTYPE_NUMERIC,
    TidyTable,
    format_number,
    infer_coltype,
    load_csv,
    parse_number,
    write_csv,
)


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
        path = tmp_path / "out.csv"
        write_csv(TidyTable(headers=["t", "u"],
                            columns=[["a,b", None, 2.5], ["1", "2", "3"]]), path)
        assert path.read_text() == 't,u\n"a,b",1\n,2\n2.5,3\n'

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
