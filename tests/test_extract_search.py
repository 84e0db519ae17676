import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parsemunge as pm
from parsemunge.encoders import sanitize_token
from parsemunge.errors import ConfigError
from parsemunge.extract_search import extract_numbers, nmcm_extract
from parsemunge.tidytable import TEXT_END, Distinct, TidyTable

from .helpers import run_behavior
from .oracles import oracle_extract, reference_nmcm_extract, reference_srch_cell

FLAG_NAMES = ("allow_commas", "allow_decimal", "allow_negative")
FLAG_SETS = list(itertools.product((False, True), repeat=3))
# Digits, the characters of the grammar, characters that are no ASCII digit
# ("٣", "９", "²"), the character that ends each text in a view's code array,
# a lone surrogate, and digit runs beyond the float range.
PIECES = [*"0123456789", ",", ".", "-", "a", "Z", " ", "\n", "\x00", TEXT_END,
          "\u0663", "\uff19", "\u00b2", "\ud800", "9" * 400, "1" + "0" * 400]
TEXTS = st.lists(st.sampled_from(PIECES), max_size=12).map("".join)


@st.composite
def _batches(draw):
    """0, 1 or many texts, missing and empty ones among them, some repeated;
    a place to split them at, and an order to shuffle them in."""
    batch = draw(st.lists(st.one_of(st.none(), st.just(""), TEXTS), max_size=8))
    if batch:
        batch += draw(st.lists(st.sampled_from(batch), max_size=3))
    return (draw(st.permutations(batch)), draw(st.integers(0, len(batch))),
            draw(st.permutations(range(len(batch)))))


def _bits(values):
    """Extractions compared bit for bit: -0.0 apart from 0.0."""
    return [None if v is None else v.hex() for v in values]


def extracted(values, *flags, **named) -> list:
    """``extract_numbers`` of the view of the values, as cells: None where
    a text holds no number."""
    numbers, found = extract_numbers(Distinct(values), *flags, **named)
    return np.where(found, numbers, None).tolist()


class TestNmcmExtract:
    def test_longest_partition_wins(self):
        assert nmcm_extract("123 Main St 94107") == 94107.0
        assert oracle_extract("123 Main St 94107") == 94107.0

    def test_comma_format(self):
        assert nmcm_extract("1,234,567 units") == 1234567.0
        assert oracle_extract("1,234,567 units") == 1234567.0

    def test_no_digits(self):
        assert nmcm_extract("no digits") is None

    def test_tie_earliest(self):
        assert nmcm_extract("12 and 34") == 12.0

    def test_decimal(self):
        assert nmcm_extract("v2.5 beta") == 2.5

    def test_negative_flag(self):
        assert nmcm_extract("t -40 degrees") == 40.0
        assert nmcm_extract("t -40 degrees", allow_negative=True) == -40.0

    def test_flags_off(self):
        assert nmcm_extract("1,234", allow_commas=False) == 234.0
        assert nmcm_extract("1.25", allow_decimal=False) == 25.0

    def test_overlapping_partition_found(self):
        # the valid "2.345" substring crosses the greedy leftmost match "1.2"
        assert nmcm_extract("1.2.345") == oracle_extract("1.2.345") == 2.345

    @pytest.mark.parametrize("flags", [
        {},
        {"allow_commas": False},
        {"allow_decimal": False},
        {"allow_negative": True},
        {"allow_commas": False, "allow_decimal": False},
    ])
    def test_oracle_equivalence_random(self, flags):
        rnd = random.Random(99)
        alphabet = "ab01234,. -"
        for _ in range(800):
            s = "".join(rnd.choice(alphabet) for _ in range(rnd.randint(0, 24)))
            assert nmcm_extract(s, **flags) == oracle_extract(s, **flags), repr(s)

    def test_overflow_saturates_to_largest_float(self):
        top = sys.float_info.max
        assert nmcm_extract("a" + "9" * 400) == top
        assert nmcm_extract("t -" + "9" * 400, allow_negative=True) == -top
        assert nmcm_extract("1" + "0" * 309 + ".5") == top
        assert nmcm_extract("9" * 308) < top

    @given(st.text(alphabet="a0129,.- \u0663", max_size=20))
    @example("-" + "9" * 400)
    @settings(max_examples=150, deadline=None)
    def test_oracle_equivalence_every_flag_set(self, s):
        # Only digit-run starts and "-" signs are tried; no other start can
        # begin a longest match.
        for flags in itertools.product((False, True), repeat=3):
            assert nmcm_extract(s, *flags) == oracle_extract(s, *flags), (s, flags)


class TestExtractNumbers:
    @given(_batches())
    @example((["", None, "1,2.5", "-" + "9" * 400, "a" + TEXT_END + "-3", "-3"], 2,
              [5, 4, 3, 2, 1, 0]))
    @settings(max_examples=300, deadline=None)
    def test_each_text_as_the_reference_in_any_batch(self, drawn):
        # The batch equals the one-text regex reference, text by text, under
        # every flag set; splitting or shuffling the batch changes no text's result.
        batch, cut, order = drawn
        for flags in FLAG_SETS:
            want = _bits(None if t is None else reference_nmcm_extract(t, *flags) for t in batch)
            assert _bits(extracted(batch, *flags)) == want, flags
            split = extracted(batch[:cut], *flags) + extracted(batch[cut:], *flags)
            assert _bits(split) == want, flags
            shuffled = extracted([batch[i] for i in order], *flags)
            assert _bits(shuffled) == [want[i] for i in order], flags

    def test_no_match_crosses_texts(self):
        # Joined, "1," + "2" and "3" + ".4" would read as 1,2 and 3.4.
        assert extracted(["1,", "2", "3", ".4", "5-", "-6"],
                         allow_negative=True) == [1.0, 2.0, 3.0, 4.0, 5.0, -6.0]

    def test_number_cells_are_read_as_their_text(self):
        # 1e20 reads "1e+20", and -0.0 "-0"
        found = extracted([1e20, -0.0, None, "x 7"], allow_negative=True)
        assert _bits(found) == _bits([20.0, -0.0, None, 7.0])


class TestNmcmColumn:
    def test_basic_extraction(self):
        _, [values] = run_behavior("nmcm", ["a 12", "b 7"])
        assert values == [12.0, 7.0]

    def test_all_text_column(self):
        _, [values] = run_behavior("nmcm", ["alpha", "beta"])
        assert values == [None, None]

    def test_missing_passthrough(self):
        _, [values] = run_behavior("nmcm", ["a 12", None])
        assert values == [12.0, None]


def _one_column(cells: list) -> TidyTable:
    return TidyTable(["a"], [cells])


def _rows(table: TidyTable) -> list[tuple]:
    return list(zip(*map(table.column, table.headers)))


class TestNmc7Apply:
    """The nmc7 category's step is an nmcm step: apply extracts every text."""

    def test_step_stores_only_the_flags(self):
        _, artifact = pm.fit(_one_column(["a 12", "b 7"]), {"a": "nmc7"})
        step = artifact.per_source["a"].steps[0]
        assert (step.category, step.behavior, step.output_headers) == ("nmc7", "nmcm", ["a_nmc7"])
        assert step.fit == {"flags": {"allow_commas": True, "allow_decimal": True,
                                      "allow_negative": False}}

    def test_replay_equals_fit_output(self):
        table = _one_column(["a 12", "b 7", "a 12"])
        encoded, artifact = pm.fit(table, {"a": "nmc7"})
        assert pm.apply(pm.deserialize(pm.serialize(artifact)), table) == encoded

    def test_unseen_fresh_parse(self):
        encoded, artifact = pm.fit(_one_column(["a 12", "b 88"]), {"a": "nmc7"})
        assert _rows(pm.apply(artifact, _one_column(["zone 88"]))) == _rows(encoded)[1:]

    def test_unseen_without_digits(self):
        encoded, artifact = pm.fit(_one_column(["a 12", "b 7", "alpha"]), {"a": "nmc7"})
        assert _rows(pm.apply(artifact, _one_column(["none"]))) == _rows(encoded)[2:]


# No lone surrogate: the artifact stores the train texts in its source
# statistics, and UTF-8 has no form for one.
_CELLS = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False),
                   st.lists(st.sampled_from([p for p in PIECES if p != "\ud800"]),
                            max_size=12).map("".join))


def _outcome(root: str, train: list, test: list, flags: dict) -> list:
    """Headers, with the root's suffix as nmcm's, and each output column bit
    for bit, of the fit of ``root`` on ``train`` and of the apply of its
    deserialized artifact on ``test``."""
    opts = pm.Options(assignparam={"global_assignparam": flags})
    encoded, artifact = pm.fit(_one_column(train), {"a": root}, opts=opts)
    restored = pm.deserialize(pm.serialize(artifact))
    assert pm.apply(restored, _one_column(train)) == encoded
    return [([h.replace("_nmc7", "_nmcm") for h in table.headers],
             [_bits(table.column(h)) for h in table.headers])
            for table in (encoded, pm.apply(restored, _one_column(test)))]


@pytest.mark.parametrize("flags", [dict(zip(FLAG_NAMES, bits)) for bits in FLAG_SETS])
@given(train=st.lists(_CELLS, min_size=1, max_size=8), test=st.lists(_CELLS, max_size=8))
@settings(max_examples=60, deadline=None)
def test_nmc7_and_nmc8_roots_encode_as_nmcm(flags, train, test):
    # The categories differ from nmcm in their headers' suffix alone, at fit
    # and in the apply of a deserialized artifact.
    expected = _outcome("nmcm", train, test, flags)
    for root in ("nmc7", "nmc8"):
        assert _outcome(root, train, test, flags) == expected, root


class TestSrch:
    def test_case_insensitive_terms(self):
        state, columns = run_behavior(
            "srch", ["MAC OS X 10_7_5", "CHROME 62.0"], {"aggregate": [["Mac"], ["chrome"]]},
        )
        assert state["labels"] == ["Mac", "chrome"]
        assert columns == [[1.0, 0.0], [0.0, 1.0]]

    def test_ordinal_no_matches(self):
        _, [out] = run_behavior("srch", ["aa", "bb"], {"aggregate": [["zz"]], "ordinal": True})
        assert out == [0.0, 0.0]

    def test_group_aggregation(self):
        _, columns = run_behavior(
            "srch", ["made in USA", "U.S. source", "elsewhere"], {"aggregate": [["USA", "U.S."]]},
        )
        assert len(columns) == 1
        assert columns[0] == [1.0, 1.0, 0.0]

    def test_ordinal_first_group_wins(self):
        _, [out] = run_behavior("srch", ["ab"], {"aggregate": [["a"], ["b"]], "ordinal": True})
        assert out == [1.0]

    @pytest.mark.parametrize("params", [{"search": [""]}, {"search": ["a", ""]},
                                        {"aggregate": [["a"], ["b", ""]]}])
    def test_empty_term_rejected(self, params):
        with pytest.raises(ConfigError, match="^srch terms must be nonempty strings$"):
            run_behavior("srch", ["a"], params)

    @pytest.mark.parametrize("params", [{}, {"search": []}, {"aggregate": []},
                                        {"aggregate": [["a"], []]}])
    def test_no_terms_rejected(self, params):
        with pytest.raises(ConfigError, match="^srch requires at least one search term$"):
            run_behavior("srch", ["a"], params)

    def test_labels_must_be_unique(self):
        # "a " and "a" sanitize to one label.
        with pytest.raises(ConfigError, match="^srch group labels must be unique$"):
            run_behavior("srch", ["a"], {"search": ["a ", "a"]})

    @pytest.mark.parametrize("case_sensitive", [False, True])
    def test_lone_surrogate_fits_and_applies(self, case_sensitive):
        # A lone surrogate has no UTF-8 form, and the search never encodes one.
        cells = ["abc", "x\ud800yabc", "zzz", "\ud800", None]
        params = {"search": ["abc", "\ud800y", "Z"], "case_sensitive": case_sensitive}
        opts = pm.Options(assignparam={"srch": {"a": params}})
        encoded, artifact = pm.fit(_one_column(cells), {"a": "srch"}, opts=opts)
        test = ["\ud800Z", "ABC\ud800", None, "y"]
        applied = pm.apply(artifact, _one_column(test))
        step = artifact.per_source["a"].steps[0]
        for table, values in ((encoded, cells), (applied, test)):
            rows = list(zip(*map(table.column, step.output_headers)))
            assert rows == [reference_srch_cell(step.fit, v) for v in values]

    @pytest.mark.parametrize("ordinal", [False, True])
    @pytest.mark.parametrize("case_sensitive", [False, True])
    def test_containment_equivalence_random(self, case_sensitive, ordinal):
        # NUL, the TEXT_END that follows each text among the code points, a
        # lone surrogate, and "ß" and "ﬁ", which upper-case to two characters;
        # terms longer than every text; empty and missing cells.
        rnd = random.Random(3)
        alphabet = ["a", "b", "B", "s", "S", " ", "\x00", TEXT_END, "\ud800", "ß", "ﬁ", "F"]
        cells = [None if rnd.random() < 0.05 else
                 "".join(rnd.choice(alphabet) for _ in range(rnd.randint(0, 8)))
                 for _ in range(300)]
        terms = {"".join(rnd.choice(alphabet) for _ in range(rnd.randint(1, 3)))
                 for _ in range(30)}
        terms |= {"ab" * 5, "\x00" * 9, TEXT_END.join("ab" * 4)}
        terms = sorted({sanitize_token(t): t for t in sorted(terms)}.values())  # one per label
        params = {"aggregate": [[t, u] for t, u in zip(terms, terms[::-1])],
                  "ordinal": ordinal, "case_sensitive": case_sensitive}
        state, columns = run_behavior("srch", cells, params)
        assert list(zip(*columns)) == [reference_srch_cell(state, c) for c in cells]

    def test_case_sensitivity_flag(self):
        _, columns = run_behavior("srch", ["Mac"], {"search": ["mac"], "case_sensitive": True})
        assert columns[0] == [0.0]
