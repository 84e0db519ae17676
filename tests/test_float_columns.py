"""Encoded float columns held as float64 arrays: the table reads them as
lists of Python floats, ``fit`` and ``apply`` make them, and ``invert``
decodes them (and list-backed tables) as the per-row reference does
(tests/oracles.py::reference_invert)."""

import gc
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parsemunge as pm
from parsemunge.errors import DataError
from parsemunge.registry import BEHAVIORS, builtin_registry, merge_overrides
from parsemunge.tidytable import TidyTable, distinct_counts, format_number

from .oracles import reference_decoder, reference_invert

ROOTS = {"a": "ord3", "b": "onht", "c": "1010", "d": "or19", "e": "nmbr", "f": "mnmx",
         "g": "bnry"}
TRAIN = TidyTable(list("abcdefg"), [
    ["x", "y", "x", None, "z", "y", "x", "z"],
    ["p", "q", "r", "p", None, "q", "r", "r"],
    ["u", "v", "w", "u", "t", "s", "v", None],
    ["ab12", "ab13", "cd12", None, "AB12", "cd7", "ab12", "ef"],
    [1.0, 2.5, None, -4.0, 3.0, 0.0, -0.0, 1e300],
    [0.0, 10.0, 5.0, None, 2.0, -0.0, 7.5, 10.0],
    ["yes", "no", "yes", None, "no", "no", "yes", "yes"],
])
ENCODED, ARTIFACT = pm.fit(TRAIN, ROOTS)
ROWS = list(zip(*ENCODED.columns))
PROBES = [0.0, -0.0, 1.0, 0.5, 2.0, -1.0, 1e308, math.nan, "junk", "1", "", None]


def as_lists(table: TidyTable) -> TidyTable:
    return TidyTable(list(table.headers), table.columns)


def typed(table: TidyTable) -> list:
    """Cells by type and bits, so -0.0 and 0.0 differ."""
    return [[(type(c), c.hex() if isinstance(c, float) else c) for c in col]
            for col in table.columns]


def outcome(invert, artifact, table):
    try:
        recovered, failed = invert(artifact, table)
    except DataError as exc:
        return DataError, str(exc)
    return recovered.headers, typed(recovered), failed


def _stored(draw, columns: list[list]) -> TidyTable:
    """The columns under ENCODED's headers, some left out, some with each zero
    as -0.0; each all-float column stored as an array or a list."""
    negative = draw(st.sets(st.integers(0, len(columns) - 1), max_size=4))
    kept = draw(st.lists(st.integers(0, 9).map(bool), min_size=len(columns),
                         max_size=len(columns)))
    headers, stored = [], []
    for j, (header, col, keep) in enumerate(zip(ENCODED.headers, columns, kept)):
        if not keep:
            continue
        if j in negative:
            col = [-0.0 if isinstance(c, float) and c == 0.0 else c for c in col]
        if col and {type(c) for c in col} == {float} and draw(st.booleans()):
            col = np.array(col)
        headers.append(header)
        stored.append(col)
    return TidyTable(headers, stored)


def _rows(draw) -> list[list]:
    return [list(ROWS[i]) for i in draw(st.lists(st.integers(0, len(ROWS) - 1), max_size=12))]


def _columns(rows: list[list]) -> list[list]:
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in ENCODED.headers]


@st.composite
def encoded_tables(draw):
    """Rows the fitted steps output, some cells swapped for probes or -0.0,
    some columns left out; each all-float column stored as an array or a list."""
    rows = _rows(draw)
    for r, j, probe in draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, len(ROWS[0]) - 1),
                                               st.sampled_from(PROBES)), max_size=6)):
        if r < len(rows):
            rows[r][j] = probe
    return _stored(draw, _columns(rows))


def _at(*prefixes: str) -> list[int]:
    return [j for j, h in enumerate(ENCODED.headers) if h.startswith(prefixes)]


BITS_1010 = [_at("c_1010"), _at("d_UPCS_1010")]  # top code 5 in 3 bits each: 6 and 7 are above
ONHT = _at("b_onht")
ORD3 = _at("a_ord3")  # top code 3
NUMERIC = _at("e_nmbr", "f_mnmx", "a_ord3", "b_onht", "c_1010", "g_bnry")
# Number cells that are no float, an int beyond the float range (which decodes
# nowhere), and cells that are no number.
NUMBERS = [1, 0, 2, True, False, 10**400, -10**400, "junk", None]
NARW = {h[0]: j for j, h in enumerate(ENCODED.headers) if h.endswith("_NArw")}
DECODED = {source: [j for j in _at(source + "_") if j != NARW[source]] for source in NARW}


@st.composite
def malformed_tables(draw):
    """Rows the fitted steps output, with edits that only the validity rules
    reject: a 1010 bit pattern above the top code, an onht row with two 1.0s,
    an ord3 code of top + 1, below 0 or out of range; int, bool and
    too-large int cells; and rows whose NArw is 1.0 while their other
    columns hold text, None or NaN, which decode as missing."""
    rows = [list(ROWS[i]) for i in draw(st.lists(st.integers(0, len(ROWS) - 1), min_size=1,
                                                 max_size=12))]
    for _ in range(draw(st.integers(0, 4))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["bits", "ones", "code", "number", "flag"]))
        if kind == "bits":
            bits, code = draw(st.sampled_from(BITS_1010)), draw(st.integers(0, 7))
            for shift, j in enumerate(reversed(bits)):
                row[j] = float(code >> shift & 1)
        elif kind == "ones":
            for j in draw(st.sets(st.sampled_from(ONHT), min_size=2, max_size=2)):
                row[j] = 1.0
        elif kind == "code":
            row[draw(st.sampled_from(ORD3))] = draw(st.sampled_from(
                [4.0, 3.0, -1.0, 1e308, math.inf, -math.inf]))
        elif kind == "number":
            row[draw(st.sampled_from(NUMERIC))] = draw(st.sampled_from(NUMBERS))
        else:
            source = draw(st.sampled_from(sorted(NARW)))
            row[NARW[source]] = 1.0
            for j in DECODED[source]:
                row[j] = draw(st.sampled_from(["junk", None, math.nan]))
    return _stored(draw, _columns(rows))


class TestInvert:
    @settings(max_examples=300, deadline=None)
    @given(encoded_tables())
    def test_matches_the_per_row_reference(self, table):
        assert outcome(pm.invert, ARTIFACT, table) == outcome(reference_invert, ARTIFACT, table)

    @settings(max_examples=300, deadline=None)
    @given(malformed_tables())
    def test_validity_rules_match_the_per_row_reference(self, table):
        assert outcome(pm.invert, ARTIFACT, table) == outcome(reference_invert, ARTIFACT, table)

    @pytest.mark.parametrize("header, cell, decodes", [
        ("e_nmbr", 10**400, False), ("f_mnmx", -10**400, False), ("c_1010_2", 10**400, False),
        ("e_nmbr", True, True), ("f_mnmx", 2, True), ("a_ord3", 2, True),
        ("b_onht_p", False, True)],
        ids=["nmbr-big-int", "mnmx-big-int", "1010-big-int", "nmbr-bool", "mnmx-int", "ord3-int",
             "onht-bool"])
    def test_int_and_bool_cells_decode_as_their_float(self, header, cell, decodes):
        columns = ENCODED.columns
        j = ENCODED.headers.index(header)
        row = next(r for r, flag in enumerate(ENCODED.column(header[0] + "_NArw")) if flag == 0.0)
        columns[j][row] = cell
        table = TidyTable(ENCODED.headers, columns)
        expected = outcome(reference_invert, ARTIFACT, table)
        assert (expected[0] is not DataError) is decodes
        assert outcome(pm.invert, ARTIFACT, table) == expected

    @pytest.mark.parametrize("flag, decoded", [
        (1.0, None), (1, None), (True, None), (np.float64(1.0), None),
        (np.float32(1.0), "y"), (np.int64(1), "y"), ("1", "y"), (0.0, "y")])
    def test_a_flag_counts_as_a_number_cell_equal_to_one(self, flag, decoded):
        # As a decoded cell: a numpy scalar that is no float or int is no number.
        table = TidyTable(["a_ord3", "a_NArw"], [[1.0, 2.0, 2.0], [0.0, 0.0, flag]])
        expected = outcome(reference_invert, ARTIFACT, table)
        assert expected[:2] == (["a"], typed(TidyTable(["a"], [["x", "y", decoded]])))
        assert outcome(pm.invert, ARTIFACT, table) == expected

    def test_an_unflagged_cell_that_is_no_number_raises(self):
        table = TidyTable(["a_ord3", "a_NArw"], [[1.0, 2.0, np.float32(2.0)], [0.0, 0.0, 0.0]])
        assert outcome(pm.invert, ARTIFACT, table)[0] is DataError

    def test_encoded_table_recovers_the_source(self):
        recovered, failed = pm.invert(ARTIFACT, ENCODED)
        assert failed == []
        assert outcome(pm.invert, ARTIFACT, ENCODED) == outcome(reference_invert, ARTIFACT, ENCODED)
        assert recovered.column("a") == TRAIN.column("a")
        assert recovered.column("d") == [None if c is None else c.upper() for c in TRAIN.column("d")]

    @pytest.mark.parametrize("rows", [[0], [0, 1], [3, 0, 2]])
    def test_two_ones_in_onht_name_the_first_such_row(self, rows):
        columns = ENCODED.columns
        j = ENCODED.headers.index("b_onht_q")
        for r in rows:
            columns[j][r] = 1.0
        columns[j] = np.array(columns[j])
        table = TidyTable(ENCODED.headers, columns)
        expected = outcome(reference_invert, ARTIFACT, table)
        assert expected[0] is DataError and "b_onht" in expected[1]
        assert outcome(pm.invert, ARTIFACT, table) == expected

    @pytest.mark.parametrize("bad", [(2.5, 0.5), (0.5, 2.5)])
    def test_the_first_undecodable_row_is_named_whichever_sorts_first(self, bad):
        columns = ENCODED.columns
        j = ENCODED.headers.index("a_ord3")
        columns[j][1], columns[j][2] = bad
        table = TidyTable(ENCODED.headers, [np.array(col) for col in columns])
        expected = outcome(reference_invert, ARTIFACT, table)
        assert expected == (DataError, f"cannot invert source 'a': step 'ord3' columns"
                                       f" ['a_ord3'] hold the pattern [{bad[0]}], which the"
                                       " fitted step never outputs")
        assert outcome(pm.invert, ARTIFACT, table) == expected

    def test_wide_patterns_renumber_before_the_key_overflows(self):
        # 90 one-hot columns: more than a 64-bit key of their bits could hold.
        rnd = random.Random(3)
        entries = [f"e{i:02d}" for i in range(90)]
        encoded, artifact = pm.fit(TidyTable(["a"], [entries + [None] * 10]), {"a": "onht"})
        rows = [rnd.randrange(encoded.row_count) for _ in range(400)]
        table = TidyTable(encoded.headers, [np.array(col)[rows] for col in encoded.columns])
        recovered, failed = pm.invert(artifact, table)
        assert failed == [] and recovered.column("a") == [(entries + [None] * 10)[r] for r in rows]
        assert outcome(pm.invert, artifact, table) == outcome(reference_invert, artifact, table)

    @pytest.mark.parametrize("name", ["nmbr", "mnmx"])
    def test_column_decoder_matches_the_cell_decoder(self, name):
        rnd = random.Random(11)
        values = [rnd.uniform(-1e3, 1e3) for _ in range(200)] + [
            0.0, -0.0, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan]
        for fit_values in ([1.0, 2.5, -4.0], [1.7e308, -1.7e308, 3.0], [5.0, 5.0]):
            state = BEHAVIORS[name].fit(distinct_counts(fit_values), {}, "numeric_parse")
            decode = reference_decoder(name, state)
            column, valid = BEHAVIORS[name].decode(state, iter([np.array(values)]), len(values))
            assert valid.all()
            assert [x.hex() for x in column.tolist()] == [decode((v,)).hex() for v in values]

    def test_zero_rows_and_no_decoded_columns(self):
        empty = TidyTable(ENCODED.headers, [[] for _ in ENCODED.headers])
        assert outcome(pm.invert, ARTIFACT, empty) == outcome(reference_invert, ARTIFACT, empty)


class TestTableColumns:
    def test_fit_and_apply_store_float_columns_as_arrays(self):
        stored = {h: ENCODED.column_data(h) for h in ENCODED.headers}
        assert all(isinstance(col, np.ndarray) for col in stored.values())
        # excl on a numeric source with no missing cell, nmc7 where every text
        # holds a digit, srch, and the overlap activations and codes.
        overlapping = ["abcdefx", "abcdefy", "zzabcdef", "q", "abcdefx"]
        table = TidyTable(list("nxsptbq"), [[1.5, -0.0, 2.0, 1.5, 7.0],
                                            ["a1", "b 22", "c3,4", "a1", "9"],
                                            ["red car", "blue", "RED", "x", None],
                                            *[overlapping] * 2, ["abcdef", *overlapping[1:]],
                                            overlapping])
        roots = dict(zip("nxsptbq", ["excl", "nmc7", "srch", "splt", "sp15", "sbst", "sp19"]))
        opts = pm.Options(assignparam={"srch": {"s": {"search": ["red", "blue"]}}})
        encoded, artifact = pm.fit(table, roots, opts=opts)
        assert {h.split("_")[1] for h in encoded.headers} == {*roots.values(), "NArw"}
        for out in (encoded, pm.apply(artifact, table)):
            assert [h for h in out.headers if not isinstance(out.column_data(h), np.ndarray)] == []
        text = TidyTable(["s"], [["a", None, "b"]])
        out, _ = pm.fit(text, {"s": "excl"})
        assert isinstance(out.column_data(out.headers[0]), list)

    @pytest.mark.parametrize("kind", ["meaninfill", "medianinfill", "modeinfill"])
    def test_infill_keeps_arrays_and_stores_python_floats(self, kind):
        def leaves(node):
            if isinstance(node, dict | list):
                items = node.values() if isinstance(node, dict) else node
                return [leaf for item in items for leaf in leaves(item)]
            return [node]

        table = TidyTable(["a", "b"], [[1.5, None, 2.0, 1.5], ["x", "y", None, "x"]])
        encoded, artifact = pm.fit(table, {"b": "ord3"},
                                   opts=pm.Options(assigninfill={kind: ["a", "b"]}))
        for out in (encoded, pm.apply(artifact, table)):
            assert all(isinstance(out.column_data(h), np.ndarray) for h in out.headers)
        assert artifact.infill_spec
        plans = [{**vars(p), "steps": list(map(vars, p.steps))} for p in artifact.per_source.values()]
        assert {type(leaf) for leaf in leaves([artifact.infill_spec, plans])} <= {
            str, float, int, bool, type(None)}

    @pytest.mark.parametrize("kind", ["zeroinfill", "oneinfill", "negzeroinfill", "meaninfill",
                                      "medianinfill", "modeinfill", "adjinfill"])
    def test_a_list_that_infill_fills_to_all_floats_becomes_an_array(self, kind):
        # excl and nmcm make a list where a cell is missing or holds no number;
        # a float fill of those cells leaves only floats. A text cell that no
        # fill reaches keeps its column a list.
        reg = merge_overrides(builtin_registry(), {"nmcq": {"parents": ["nmcq"]}},
                              {"nmcq": {"behavior": "nmcm"}})
        table = TidyTable(["a", "n", "t"], [[1.0, None, 2.0, 1.0], ["a1", "b", None, "c 7"],
                                            ["x", None, "y", "x"]])
        opts = pm.Options(assigninfill={kind: ["a", "n", "t"]})
        encoded, artifact = pm.fit(table, {"a": "excl", "n": "nmcq", "t": "excl"}, reg=reg,
                                   opts=opts)
        numeric_only = kind in ("meaninfill", "medianinfill")  # which excl takes no part in
        for out in (encoded, pm.apply(artifact, table)):
            assert isinstance(out.column_data("a_excl"), np.ndarray) != numeric_only
            assert isinstance(out.column_data("n_nmcm"), np.ndarray)
            assert isinstance(out.column_data("t_excl"), list)
            assert out == as_lists(out)

    def test_column_gives_python_floats_one_object_per_bit_pattern(self):
        table = TidyTable(["x"], [np.array([1.5, -0.0, 1.5, 0.0, -0.0])])
        col = table.column("x")
        assert col == [1.5, -0.0, 1.5, 0.0, -0.0]
        assert {type(c) for c in col} == {float}
        assert [math.copysign(1.0, c) for c in col[1:]] == [-1.0, 1.0, 1.0, -1.0]
        assert col[0] is col[2] and col[1] is col[4] and col[1] is not col[3]
        assert table.columns == [col] and table.columns[0] is not col

    def test_fit_output_equals_the_table_rebuilt_from_lists(self):
        relisted = as_lists(ENCODED)
        assert all(isinstance(relisted.column_data(h), list) for h in relisted.headers)
        assert ENCODED == relisted and relisted == ENCODED
        assert typed(relisted) == typed(ENCODED)
        applied = pm.apply(ARTIFACT, TRAIN)
        assert applied == ENCODED and as_lists(applied) == ENCODED

    def test_array_columns_compare_as_their_lists(self):
        a = TidyTable(["x"], [np.array([0.0, 1.0])])
        assert a == TidyTable(["x"], [np.array([-0.0, 1.0])]) == TidyTable(["x"], [[-0.0, 1.0]])
        assert a != TidyTable(["x"], [np.array([0.0, 2.0])])
        assert a != TidyTable(["x"], [[0.0, "1"]])
        assert a != TidyTable(["y"], [np.array([0.0, 1.0])])

    @pytest.mark.parametrize("array", [np.array([1, 2]), np.zeros((2, 1)),
                                       np.array(["a", "b"])])
    def test_an_array_column_must_be_flat_float64(self, array):
        with pytest.raises(DataError, match="one-dimensional float64"):
            TidyTable(["x"], [array])

    def test_apply_output_of_a_numeric_table_takes_less_memory(self):
        # 3 nmbr/mnmx sources and their NArw columns over 15k rows, about 95%
        # distinct: as lists of shared floats they took 19.8 bytes a cell.
        rnd = random.Random(1)
        cols = {h: [None if rnd.random() < 0.02 else round(rnd.uniform(0, 1000), 4)
                    for _ in range(15_000)] for h in "abc"}
        table = TidyTable(list(cols), list(cols.values()))
        _, artifact = pm.fit(table, {"b": "mnmx"})
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = pm.apply(artifact, table)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(out.headers) == 6
        assert retained < 10 * out.row_count * len(out.headers)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_format_number_raises_data_error_naming_the_value(self, bad):
        with pytest.raises(DataError, match=f"number {bad!r} is not finite"):
            format_number(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_categoric_root_over_a_non_finite_cell_raises_data_error(self, bad):
        with pytest.raises(DataError, match="not finite"):
            pm.fit(TidyTable(["a"], [["x", bad, "y"]]), {"a": "nmcm"})

    def test_serialize_names_a_non_finite_fit_value(self):
        _, artifact = pm.fit(TidyTable(["a"], [[1.0, math.nan, 2.0]]), {"a": "mnmx"})
        with pytest.raises(DataError, match=r"cannot serialize artifact\['per_source'\]\[0\]"
                                            r".*: nan has no JSON form"):
            pm.serialize(artifact)

    def test_write_csv_names_a_non_finite_array_cell(self, tmp_path):
        table = TidyTable(["x"], [np.array([1.0, -math.inf, math.nan])])
        with pytest.raises(DataError, match="number -inf is not finite"):
            pm.write_csv(table, tmp_path / "x.csv")


class TestTargets:
    def test_infill_without_an_narw_step_marks_its_targets(self):
        """A custom family without NArw: infill marks the source's values itself."""
        reg = merge_overrides(builtin_registry(), {"nmbq": {"parents": ["nmbq"]}},
                              {"nmbq": {"behavior": "nmbr"}})
        table = TidyTable(["a"], [[1.0, None, 3.0, None]])
        opts = pm.Options(assigninfill={"meaninfill": ["a"]})
        encoded, artifact = pm.fit(table, {"a": "nmbq"}, reg=reg, opts=opts)
        [header] = encoded.headers  # no NArw column
        assert artifact.infill_spec == {header: {"kind": "mean", "value": 0.0}}
        assert encoded.column(header) == [-1.0, 0.0, 1.0, 0.0]
        assert pm.apply(artifact, table) == encoded
