import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parsemunge as pm
from parsemunge.encoders import auto_root_select, binary_width, sanitize_token
from parsemunge.errors import DataError
from parsemunge.registry import BEHAVIORS
from parsemunge.tidytable import TidyTable, canon_text, factorize

from . import oracles
from .helpers import run_behavior


class TestUpcs:
    def test_case_consolidation(self):
        assert run_behavior("UPCS", ["usa", "Usa", "USA"])[1] == [["USA", "USA", "USA"]]

    def test_missing_unchanged(self):
        assert run_behavior("UPCS", [None])[1] == [[None]]

    def test_fixed_points(self):
        assert run_behavior("UPCS", ["a1_b"])[1] == [["A1_B"]]

    def test_disabled(self):
        assert run_behavior("UPCS", ["usa"], {"enabled": False})[1] == [["usa"]]


class TestNarw:
    def test_missing_marked(self):
        assert run_behavior("NArw", ["x", None, "y"])[1] == [[0.0, 1.0, 0.0]]

    def test_numeric_parse_rule(self):
        assert run_behavior("NArw", ["3", "q"], root_rule="numeric_parse")[1] == [[0.0, 1.0]]

    def test_all_present(self):
        assert run_behavior("NArw", ["a", "b", "c"])[1] == [[0.0, 0.0, 0.0]]


def _codes(state):
    """ord3's entry -> code map: the ranked entries, coded from 1."""
    return {e: i + 1 for i, e in enumerate(state["entries"])}


class TestOrd3:
    def test_frequency_then_alpha(self):
        state, [codes] = run_behavior("ord3", ["b", "a", "b", "c"])
        assert _codes(state) == {"b": 1, "a": 2, "c": 3}
        assert codes == [1.0, 2.0, 1.0, 3.0]

    def test_alphabetical_tie_break(self):
        state, _ = run_behavior("ord3", ["circle", "square", "triangle"])
        assert _codes(state) == {"circle": 1, "square": 2, "triangle": 3}

    def test_unseen_reserved_zero(self):
        state, _ = run_behavior("ord3", ["a", "b"])
        assert run_behavior("ord3", ["zzz", None, "a"], state=state)[1] == [[0.0, 0.0, 1.0]]

    def test_rank_property(self):
        col = ["w"] * 5 + ["q"] * 3 + ["a"] * 3 + ["z"]
        state, _ = run_behavior("ord3", col)
        assert _codes(state) == {"w": 1, "a": 2, "q": 3, "z": 4}


class TestOnht:
    def test_two_entries(self):
        state, columns = run_behavior("onht", ["a", "b"])
        assert state["entries"] == ["a", "b"]
        assert columns == [[1.0, 0.0], [0.0, 1.0]]

    def test_frequency_ordering(self):
        state, columns = run_behavior("onht", ["b", "a", "b"])
        assert state["entries"] == ["b", "a"]
        assert columns == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]

    def test_missing_all_zero(self):
        _, columns = run_behavior("onht", ["a", "b", None])
        assert [col[2] for col in columns] == [0.0, 0.0]

    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_single_activation_per_seen_row(self, col):
        _, columns = run_behavior("onht", col)
        for i in range(len(col)):
            assert sum(c[i] for c in columns) == 1.0

    @given(entries=st.lists(st.text("abcdef", min_size=1, max_size=3), unique=True, max_size=12),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_decoder_matches_the_pattern_table(self, entries, data):
        """On every pattern the step outputs, on rows equal to one under
        ``==`` (-0.0, ints, bools) and on malformed rows (two 1.0s, 0.5, NaN,
        text, a wrong width), the decoder answers as a dict of every pattern."""
        behavior = BEHAVIORS["onht"]
        state = {"entries": entries}
        width = len(entries)
        patterns = [tuple(float(j == i) for j in range(width)) for i in range(-1, width)]
        cell = st.sampled_from([0.0, -0.0, 1.0, 0, 1, True, False, 0.5, math.nan, "1.0", None])
        rows = patterns + [tuple(data.draw(st.lists(cell, min_size=w, max_size=w)))
                           for w in (width, width, width, width + 1, max(width - 1, 0))]
        if width >= 2:
            rows.append((1.0, 1.0) + (0.0,) * (width - 2))

        def outcome(decode, row):
            try:
                return decode(row)
            except KeyError:
                return KeyError

        fast, table = behavior.decoder(state), oracles.table_decoder(behavior, state)
        for row in rows:
            assert outcome(fast, row) == outcome(table, row), row

    @pytest.mark.parametrize("width", [250, 1000])
    def test_inverting_a_wide_onht_takes_memory_linear_in_its_width(self, width):
        # A table of every pattern would hold (width + 1) x width cells: at
        # 2,000 entries, 62 MiB to invert five rows.
        entries = [f"e{i}" for i in range(width)]
        encoded, artifact = pm.fit(TidyTable(["a"], [entries]), {"a": "onht"})
        head = TidyTable(encoded.headers, [column[:5] for column in encoded.columns])
        tracemalloc.start()
        try:
            recovered, failed = pm.invert(artifact, head)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert failed == [] and recovered.column("a") == entries[:5]
        assert peak < 400 * width


class TestBnry:
    def test_mode_rule(self):
        state, [codes] = run_behavior("bnry", ["y", "n", "y"])
        assert {state["one"]: 1, state["zero"]: 0} == {"y": 1, "n": 0}
        assert codes == [1.0, 0.0, 1.0]

    def test_missing_gets_mode(self):
        _, [codes] = run_behavior("bnry", ["y", "n", None, "y"])
        assert codes[2] == 1.0

    def test_requires_two_entries(self):
        with pytest.raises(DataError, match="2 distinct"):
            run_behavior("bnry", ["a", "b", "c"])


class TestB1010:
    def test_three_entries_width_two(self):
        state, columns = run_behavior("1010", ["a", "b", "c", "a"])
        assert BEHAVIORS["1010"].output_tokens(state) == ["0", "1"]
        assert state["entries"] == ["a", "b", "c"]
        # codes: a=01, b=10, c=11; missing would be 00
        assert [col[0] for col in columns] == [0.0, 1.0]
        assert [col[1] for col in columns] == [1.0, 0.0]
        assert [col[2] for col in columns] == [1.0, 1.0]

    def test_degenerate_single_entry(self):
        state, columns = run_behavior("1010", ["solo", "solo"])
        assert BEHAVIORS["1010"].output_tokens(state) == ["0"]
        assert columns == [[1.0, 1.0]]

    def test_width_formula(self):
        assert binary_width(8) == 4
        for n in range(1, 301):
            assert binary_width(n) == math.ceil(math.log2(n + 1))

    def test_compiled_codes_match_list_index(self):
        rnd = random.Random(1010)
        col = [f"e{rnd.randint(0, 60)}" for _ in range(300)] + [None, 7.0]
        state, _ = run_behavior("1010", col)
        behavior = BEHAVIORS["1010"]
        compiled = behavior.compile(state)
        entries, width = state["entries"], len(behavior.output_tokens(state))
        for cell in sorted(set(col) - {None, 7.0}) + [7.0, None, "unseen", "e61"]:
            text = canon_text(cell)
            code = entries.index(text) + 1 if text in entries else 0
            expected = tuple(float((code >> (width - 1 - i)) & 1) for i in range(width))
            assert behavior.apply_cell(compiled, cell) == expected

    def test_seen_codes_never_all_zero(self):
        state, columns = run_behavior("1010", list("abcdefgh"))
        for i in range(len(state["entries"])):
            assert any(col[i] == 1.0 for col in columns)


class TestNumeric:
    def test_nmbr_population_std(self):
        state, [values] = run_behavior("nmbr", [1.0, 2.0, 3.0])
        assert state["mean"] + state["shift"] == pytest.approx(2.0)
        assert state["std"] == pytest.approx(0.8165, abs=1e-4)
        assert values == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)

    def test_nmbr_zero_variance(self):
        _, [values] = run_behavior("nmbr", [5.0, 5.0, 5.0])
        assert values == [0.0, 0.0, 0.0]

    def test_mnmx_extrapolation(self):
        from parsemunge.encoders import MnmxBehavior
        behavior = MnmxBehavior()
        state = behavior.fit({0.0: 1, 10.0: 1}, {}, "numeric_parse")
        assert behavior.apply_cell(behavior.compile(state), 20.0) == (2.0,)

    def test_mnmx_missing_uses_scaled_mean(self):
        _, [values] = run_behavior("mnmx", [0.0, 10.0, None])
        assert values[2] == pytest.approx(0.5)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=40))
    @example([0.0, 3.011038763261972e-160])  # squared deviations fall below the normal range
    @example([0.0, 5e-324])  # the std rounds to the smallest subnormal, twice the true one
    @settings(max_examples=60, deadline=None)
    def test_nmbr_standardization_property(self, values):
        state, [encoded] = run_behavior("nmbr", values)
        if state["std"] > 0:
            mean = sum(encoded) / len(encoded)
            var = sum((v - mean) ** 2 for v in encoded) / len(encoded)
            assert abs(mean) < 1e-9
            assert abs(math.sqrt(var) - 1.0) < 1e-9

    def test_nmbr_fit_survives_squares_beyond_float_range(self):
        col = [0.0, 1e200, 5e199]
        table = pm.TidyTable(headers=["x"], columns=[col])
        encoded, artifact = pm.fit(table, {"x": "nmbr"})
        plan = artifact.per_source["x"]
        state = next(rec.fit for rec in plan.steps if rec.behavior == "nmbr")
        assert state["std"] == pytest.approx(5e199 * math.sqrt(2 / 3))
        assert encoded.column("x_nmbr") == pytest.approx([-1.2247, 1.2247, 0.0], abs=1e-4)
        assert plan.source_stats["std"] == state["std"]

    @pytest.mark.parametrize("col,mean,std,expected", [
        ([1e308, -1e308, 1e308], 1e308 / 3, 1e308 / 3 * math.sqrt(8), [0.7071, -1.4142, 0.7071]),
        ([1e308, 1e308, 0.0], 1e308 / 3 * 2, 1e308 / 3 * math.sqrt(2), [0.7071, 0.7071, -1.4142]),
    ])
    def test_nmbr_fit_survives_sums_beyond_float_range(self, col, mean, std, expected):
        table = pm.TidyTable(headers=["x"], columns=[col])
        encoded, artifact = pm.fit(table, {"x": "nmbr"})
        rebuilt = pm.deserialize(pm.serialize(artifact))
        plan = rebuilt.per_source["x"]
        state = next(rec.fit for rec in plan.steps if rec.behavior == "nmbr")
        assert state["mean"] + state["shift"] == pytest.approx(mean)
        assert state["std"] == pytest.approx(std)
        assert encoded.column("x_nmbr") == pytest.approx(expected, abs=1e-4)
        assert plan.source_stats["mean"] == pytest.approx(mean)
        assert plan.source_stats["std"] == pytest.approx(std)


    @pytest.mark.parametrize("root,col,expected", [
        ("nmbr", [1.7e308, -1.7e308, -1.7e308], [1.4142, -0.7071, -0.7071]),
        ("mnmx", [1e308, -1e308, 0.0], [1.0, 0.0, 0.5]),
    ])
    def test_differences_beyond_float_range(self, root, col, expected):
        # v - mean and max - min overflow here, though every value is finite.
        table = pm.TidyTable(headers=["x"], columns=[col])
        encoded, artifact = pm.fit(table, {"x": root})
        rebuilt = pm.deserialize(pm.serialize(artifact))
        applied = pm.apply(rebuilt, table)
        assert applied == encoded
        assert encoded.column(f"x_{root}") == pytest.approx(expected, abs=1e-4)
        recovered, failed = pm.invert(rebuilt, applied)
        assert failed == []
        assert all(math.isfinite(v) for v in recovered.column("x"))
        assert recovered.column("x") == pytest.approx(col, rel=1e-12)


class TestAutoRootSelect:
    @pytest.mark.parametrize("col,expected", [
        ([1.0, 2.0, None], "nmbr"),
        ([None, None], "excl"),
        (["a", "b"], "bnry"),
        (["a", "b", "c"], "onht"),
        (["a", "b", "c", "d"], "1010"),
        (["only"], "1010"),
        (["a", -0.0, 0.0, "a"], "bnry"),  # both zeros are one value
    ])
    def test_rules(self, col, expected):
        # The distinct values, which fit passes, give the root the cells give.
        assert auto_root_select(col) == auto_root_select(factorize(col)[0]) == expected

    def test_threshold_route(self):
        col = [f"e{i}" for i in range(300)] * 2
        for values in (col, factorize(col)[0]):
            assert auto_root_select(values, threshold=255) == "ord3"
            assert auto_root_select(values, threshold=300) == "1010"


class TestSanitizeToken:
    def test_strip_and_escape(self):
        assert sanitize_token("chrome ") == "chrome"
        assert sanitize_token("Mac OS X 10_") == "Macx20OSx20Xx2010x5f"
        assert "," not in sanitize_token("a,b")
        assert "_" not in sanitize_token("a_b")
