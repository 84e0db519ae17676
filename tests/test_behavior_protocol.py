"""Every registered behaviour evaluates a view in and columns out: one column
per output, a float64 array exactly when all its cells are floats, equal
value by value to its one-value reference rule in ``tests/oracles.py``, and
independent of the order and batching of values.
Its fit on a view whose values carry counts equals its fit on the rows that
repeat each value by its count."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsemunge.encoders import sanitize_token
from parsemunge.registry import BEHAVIORS
from parsemunge.tidytable import Distinct, distinct_counts, factorize

from .helpers import cells
from .oracles import REFERENCE_CELLS

# Near ±1.7e308, a value and the train mean may lie more than the float range
# apart, which takes nmbr and mnmx through their quartered terms.
NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, 1.7e308, -1.7e308, 1.6e308, -1.6e308, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# "ß" and "ﬁ" upper-case to two characters; NUL is the character that
# fixed-width numpy strings drop at the end. Digits, commas, dots and minus
# signs make numeric extractions and parsable texts.
TEXTS = st.one_of(st.text(alphabet="aAbcdßﬁS\x001,.- ", max_size=8),
                  st.sampled_from(["", "1", "2.5", "-0", "1,234.5", "1e3", "n/a"]))
CELLS = st.one_of(st.none(), NUMBERS, TEXTS)
RULES = st.sampled_from(["missing_only", "numeric_parse", "numeric_extract"])
SCANS = ("splt", "sp15", "sbst", "sp19", "spl2", "spl5", "spl9", "sp10")
FLAGS = st.fixed_dictionaries({k: st.booleans() for k in
                               ("allow_commas", "allow_decimal", "allow_negative")})
PARAMS = {
    **dict.fromkeys(SCANS, st.fixed_dictionaries({"min_len": st.integers(2, 3)})),
    "UPCS": st.fixed_dictionaries({"enabled": st.booleans()}),
    "nmcm": FLAGS,
    "srch": st.fixed_dictionaries({"search": st.lists(TEXTS.filter(bool), min_size=1, max_size=3,
                                                      unique_by=sanitize_token),
                                   "ordinal": st.booleans(),
                                   "case_sensitive": st.booleans()}),
}


@st.composite
def _fitted(draw, name):
    """A fit state of ``name`` as fit makes it, and the train cells it fit on.

    The train cells, each with a weight, also make a weighted view as the
    engine makes a derived header's (the counts of a factorize's codes, each
    counting its weight); the fit on it must equal the fit on the rows that
    repeat each cell by its weight, in any order, as the artifact stores
    them. The cells mix -0.0 and 0.0, which are one value, and "1" beside
    1.0, which share a text."""
    if name == "bnry":  # fits on exactly two entries
        pair = draw(st.lists(TEXTS, min_size=2, max_size=2, unique=True))
        train = pair + draw(st.lists(st.sampled_from(pair), max_size=6))
    else:
        train = draw(st.lists(CELLS, max_size=10))
    params, rule = draw(PARAMS.get(name, st.just({}))), draw(RULES)
    weights = draw(st.lists(st.integers(1, 3), min_size=len(train), max_size=len(train)))
    distinct, codes = factorize(train)
    weighted = Distinct(distinct, np.bincount(codes, weights, len(distinct)).astype(np.int64))
    rows = draw(st.permutations([cell for cell, n in zip(train, weights) for _ in range(n)]))
    # As the artifact stores a state: keys sorted, and -0.0 apart from 0.0.
    assert (json.dumps(BEHAVIORS[name].fit(weighted, params, rule), sort_keys=True)
            == json.dumps(BEHAVIORS[name].fit(distinct_counts(rows), params, rule), sort_keys=True))
    return BEHAVIORS[name].fit(distinct_counts(train), params, rule), train


@st.composite
def _search_states(draw):
    """A srch fit state with term groups of any size, as an artifact may hold."""
    case_sensitive = draw(st.booleans())
    groups = draw(st.lists(st.lists(TEXTS.filter(bool), max_size=3), max_size=4))
    if not case_sensitive:
        groups = [[t.upper() for t in g] for g in groups]
    state = {"groups": groups, "labels": [f"g{i}" for i in range(len(groups))],
             "ordinal": draw(st.booleans()), "case_sensitive": case_sensitive}
    return state, [t for g in groups for t in g]


@st.composite
def _overlap_states(draw):
    """A spl2-family state, and train entries that the values are partly drawn
    from, so that seen and unseen entries mix."""
    overlaps = draw(st.lists(st.text(alphabet="abc", min_size=2, max_size=5),
                             min_size=1, max_size=10))
    seen = draw(st.lists(st.text(alphabet="abcd", max_size=8), max_size=6))
    assignment = {**{f"#{o}": o for o in overlaps}, **{t: overlaps[0] for t in seen}}
    return {"assignment": assignment, "plug": "zzzplug"}, seen


STATES = {
    name: st.one_of(_fitted(name), _search_states()) if name == "srch"
    else st.one_of(_fitted(name), _overlap_states()) if name in ("spl2", "spl5", "spl9", "sp10")
    else _fitted(name)
    for name in BEHAVIORS
}


def _bits(cell):
    """A cell compared bit for bit: a float by its hex form, which tells -0.0 from 0.0."""
    return cell.hex() if isinstance(cell, float) else cell


def check_columns(name: str, state: dict, values: list, rnd: random.Random) -> None:
    behavior = BEHAVIORS[name]
    compiled = behavior.compile(state)

    def evaluate(batch: list) -> list[list]:
        return list(map(cells, behavior.apply_distinct(compiled, Distinct(batch))))

    stored = behavior.apply_distinct(compiled, Distinct(values))
    assert len(stored) == len(behavior.output_tokens(state))
    assert all(len(column) == len(values) for column in stored)
    for column in stored:
        if isinstance(column, np.ndarray):
            assert column.dtype == np.float64 and column.ndim == 1
        if values:  # a non-empty column is an array exactly when all its cells are floats
            assert isinstance(column, np.ndarray) == all(type(c) is float for c in cells(column))
    columns = list(map(cells, stored))
    rows = [tuple(_bits(column[i]) for column in columns) for i in range(len(values))]
    assert rows == [tuple(map(_bits, REFERENCE_CELLS[name](state, v))) for v in values]
    order = list(range(len(values)))
    rnd.shuffle(order)
    shuffled = evaluate([values[i] for i in order])
    assert shuffled == [[column[i] for i in order] for column in columns]
    chunk = rnd.randint(1, 4)
    parts = [evaluate(values[i:i + chunk]) for i in range(0, len(values), chunk)]
    assert [sum((p[j] for p in parts), []) for j in range(len(columns))] == columns


def test_every_behavior_has_a_reference():
    assert set(REFERENCE_CELLS) == set(BEHAVIORS)


@pytest.mark.parametrize("name", sorted(BEHAVIORS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), rnd=st.randoms(use_true_random=False))
def test_apply_distinct_returns_the_reference_columns(name, data, rnd):
    state, train = data.draw(STATES[name], label="state, train")
    pool = st.one_of(CELLS, st.sampled_from(train)) if train else CELLS
    check_columns(name, state, data.draw(st.lists(pool, max_size=12), label="values"), rnd)


# Cases the strategies reach rarely or not at all.
EDGE_CASES = [
    # srch: NUL ends, two-character upper cases, no groups, an empty term.
    ("srch", {"groups": [["\x00"], ["SS"], ["A\x00"]], "labels": ["a", "b", "c"],
              "ordinal": False, "case_sensitive": False},
     ["a\x00", "\x00a", "straße", "ß", "b", None, 1.0]),
    ("srch", {"groups": [["\x00\x00"], ["FI"]], "labels": ["a", "b"],
              "ordinal": True, "case_sensitive": False}, ["ﬁ", "x\x00\x00", "\x00", ""]),
    ("srch", {"groups": [], "labels": [], "ordinal": True, "case_sensitive": True}, ["a", None]),
    ("srch", {"groups": [], "labels": [], "ordinal": False, "case_sensitive": True}, ["a", None]),
    ("srch", {"groups": [[""]], "labels": ["a"], "ordinal": False, "case_sensitive": True},
     [None, "", "a"]),
    ("srch", {"groups": [[""]], "labels": ["a"], "ordinal": False, "case_sensitive": False}, []),
    # srch: a lone surrogate, and TEXT_END, which follows each text among the
    # code points, in terms and texts; no window runs from one text into the next.
    ("srch", {"groups": [["\ud800"], ["\x1f"], ["A\x1fB"], ["B\x1f"]], "labels": list("abcd"),
              "ordinal": False, "case_sensitive": False},
     ["x\ud800", "a", "b", "a\x1fb", "\x1f", "b\x1f", "", None]),
    ("srch", {"groups": [["a\x1fb"], ["\ud800\x1f"]], "labels": ["a", "b"],
              "ordinal": True, "case_sensitive": True}, ["a", "b", "\ud800", "\x1f", "\ud800\x1fb"]),
    # nmbr and mnmx: values and train statistics more than the float range apart.
    ("nmbr", {"mean": 5e307, "shift": 1e291, "std": 1.6e308},
     [-1.7e308, 1.7e308, -0.0, None, "-1.7e308", 5e-324]),
    ("nmbr", {"mean": 0.0, "shift": 0.0, "std": 0.0}, [1.0, None]),
    ("mnmx", {"min": -1.7e308, "max": 1.7e308, "mean": 1e300}, [-1.7e308, 1.7e308, None, -0.0]),
    ("mnmx", {"min": 3.0, "max": 3.0, "mean": 3.0}, [3.0, None]),
    # Array columns of behaviours whose form follows their view or extraction.
    ("excl", {}, [1.5, -0.0, 1.5]),
    ("nmcm", {"flags": {"allow_commas": True, "allow_decimal": True, "allow_negative": False}},
     ["a1", "2,5", 3.0]),
    # Code maps: no entries, and an empty batch.
    ("onht", {"entries": []}, ["a", None]),
    ("1010", {"entries": []}, ["a", None]),
    ("sp19", {"codes": {}}, ["a"]),
    ("sp19", {"codes": {"a": 2**70, "b": 5}}, ["a", "b", "c"]),
    ("onht", {"entries": ["a", "b"]}, []),
    ("splt", {"overlaps": ["ab"], "assignment": {"xab": "ab", "q": "gone"}}, ["xab", "q", None]),
]


@pytest.mark.parametrize("name, state, values", EDGE_CASES)
def test_apply_distinct_returns_the_reference_columns_at_edges(name, state, values):
    check_columns(name, state, values, random.Random(0))
