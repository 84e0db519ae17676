"""Numeric statistics over float64 arrays (tidytable.numbers) against the
loops over sorted (value, count) pairs that they replaced (tests/oracles.py),
bit for bit; the infill statistics' overflow; the collector's cost of a fit."""

import gc
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parsemunge as pm
from parsemunge.encoders import _weighted_moments
from parsemunge.errors import ConfigError, DataError
from parsemunge.infill import mark_targets, train_stat
from parsemunge.registry import BEHAVIORS, builtin_registry, merge_overrides
from parsemunge.tidytable import (
    Distinct,
    TidyTable,
    as_number,
    distinct_counts,
    factorize,
    infer_coltype,
    numbers,
    sum_scale_exponent,
)
from parsemunge.treeengine import Options, _row_stats, _source_stats

from .oracles import (
    reference_categoric_source_stats,
    reference_mark_targets,
    reference_min_max,
    reference_numeric_source_stats,
    reference_train_stat,
    reference_weighted_moments,
)

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308, 1.6e308, -1.6e308, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e-310, 0.1, 2.5]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),
)
NUMERALS = st.one_of(st.sampled_from(["-0", "0", "0.0", "1.7e308", "-1.7e308", "5e-324", "3"]),
                     FLOATS.map(repr).filter(lambda t: as_number(t) is not None))
KEYS = st.one_of(st.none(), FLOATS, NUMERALS, st.sampled_from(["n/a", "", "abc", "inf"]),
                 st.sampled_from([math.inf, -math.inf]))
# Values whose deviations' pow() squares sum to a spread one ulp away from
# that of d * d squares.
POW_SQUARES = [970.7166274077084, 771.6453126800599, 729.1659754648239]
COUNTS = st.one_of(st.integers(1, 4), st.integers(1, 10**6))


def outcome(fn):
    """A result comparable bit for bit: floats by float.hex, an exception by type."""
    try:
        result = fn()
    except (ArithmeticError, ValueError, ConfigError, DataError) as exc:
        return type(exc)
    if isinstance(result, (tuple, list)):
        return tuple(x.hex() if isinstance(x, float) else x for x in result)
    if isinstance(result, dict):
        return {k: v.hex() if isinstance(v, float) else v for k, v in result.items()}
    return result.hex() if isinstance(result, float) else result


def view_of(counts: dict) -> Distinct:
    """The view of the keys of ``counts``, each counting its count."""
    return Distinct(list(counts), np.fromiter(counts.values(), np.int64, len(counts)))


def scaled_reference_mean(pairs: list[tuple]) -> float | None:
    """The old mean of the values divided by 2**sum_scale_exponent, as nmbr's
    moments scale them, times it again: the old mean itself where it is 0."""
    numeric = [(v, c) for v, c in pairs if isinstance(v, float)]
    if numeric and len(numeric) == sum(v is not None for v, _ in pairs):
        exp = sum_scale_exponent(max(abs(v) for v, _ in numeric), sum(c for _, c in numeric))
        return math.ldexp(reference_train_stat(
            "mean", [(math.ldexp(v, -exp), c) for v, c in numeric]), exp)
    return reference_train_stat("mean", pairs)


def check_stat(kind: str, values: list, counts: list[int]) -> None:
    pairs = list(zip(values, counts))
    new = outcome(lambda: train_stat(kind, values, np.array(counts, np.int64)))
    if kind == "mean":
        assert new == outcome(lambda: scaled_reference_mean(pairs))
        return
    old = outcome(lambda: reference_train_stat(kind, pairs))
    if new != old:
        # Only where the old median overflowed: now a finite value in range.
        assert kind == "median" and old in (math.inf.hex(), (-math.inf).hex())
        stat = float.fromhex(new)
        present = [v for v in values if v is not None]
        assert math.isfinite(stat) and min(present) <= stat <= max(present)


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(KEYS, COUNTS, max_size=12))
@example({0.0: 2, "-0": 3, None: 4})
@example({"-0": 1, 0.0: 1})
@example({1.7e308: 3, -1.7e308: 1, "1.6e308": 2, 5e-324: 7})
@example({1.7e308: 1, 1.6e308: 1})
@example({5e-324: 10**6, -5e-324: 3, 1e-310: 2})
@example({1.7e308: 2, "1.7e308": 1, math.inf: 1})
@example({math.inf: 1, -math.inf: 1})
@example({1.7e308: 1, -1.7e308: 1, 5e-324: 3})
@example({1.7e308: 3})
@example(dict.fromkeys(POW_SQUARES, 1))
def test_statistics_match_the_loops_over_sorted_pairs(counts):
    moments = outcome(lambda: reference_weighted_moments(counts))
    assert outcome(lambda: _weighted_moments(view_of(counts))) == moments
    nmbr = outcome(lambda: BEHAVIORS["nmbr"].fit(view_of(counts), {}, "numeric_parse"))
    mnmx = outcome(lambda: BEHAVIORS["mnmx"].fit(view_of(counts), {}, "numeric_parse"))
    if isinstance(moments, tuple):
        lo, hi = reference_min_max(counts)
        mean, shift, std = map(float.fromhex, moments[:3])
        assert mnmx == outcome(lambda: {"min": lo, "max": hi, "mean": mean + shift})
        std = 0.0 if std < sys.float_info.min else std  # as nmbr's fit counts a subnormal
        assert nmbr == outcome(lambda: {"mean": mean, "shift": shift, "std": std})
    else:
        assert nmbr == mnmx == moments
    keys = list(counts)
    for rule in ("missing_only", "numeric_parse", "numeric_extract"):
        assert outcome(lambda: mark_targets(Distinct(keys), rule).tolist()) == outcome(
            lambda: reference_mark_targets(keys, rule))
    numeric = [as_number(k) for k in keys]  # a numeric column over the same values
    for kind in ("mean", "median", "mode"):
        check_stat(kind, numeric, list(counts.values()))
    check_stat("mode", keys, list(counts.values()))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.one_of(st.none(), FLOATS, st.sampled_from([math.inf, -math.inf])),
             min_size=1, max_size=30).filter(lambda col: any(v is not None for v in col)),
    # the categoric branch: text beside numbers, and no value at all
    st.lists(st.one_of(st.none(), FLOATS, st.sampled_from(["a", "b", "0", "-0", "1", ""])),
             min_size=1, max_size=30).filter(lambda col: infer_coltype(col) != "numeric"),
))
@example([1.7e308, -1.7e308, 1.7e308, None])
@example([-0.0, 0.0, None])
@example([5e-324] * 5 + [1e-310])
@example([math.inf, -math.inf])
@example([math.inf, 1.0])
@example(POW_SQUARES)
@example(["-0", -0.0, "a", 0.0, None, "a"])
@example([None, None])
def test_numeric_source_stats_match_the_loop_over_sorted_cells(col):
    # Over the cells, and over the distinct values with their counts, as fit takes them.
    reference = (reference_numeric_source_stats if infer_coltype(col) == "numeric"
                 else reference_categoric_source_stats)
    expected = outcome(lambda: reference(col))
    distinct, codes = factorize(col)
    assert outcome(lambda: _row_stats("x", col)) == expected
    assert outcome(lambda: _source_stats("x", Distinct(distinct, np.bincount(codes)))) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(KEYS, st.just(math.nan)),
                max_size=20))
@example([1.0, None, math.nan])
@example([None, None])
@example([math.nan])
def test_numbers_is_as_number_of_every_value(values):
    array, present = numbers(values)
    expected = [as_number(v) for v in values]
    assert present.tolist() == [v is not None for v in expected]
    assert [x.hex() for x in array[present].tolist()] == [
        v.hex() for v in expected if v is not None]


def _run(name, col):
    behavior = BEHAVIORS[name]
    state = behavior.fit(distinct_counts(col), {}, "numeric_parse")
    return state, behavior.apply_distinct(behavior.compile(state), Distinct(col))


class TestNonFiniteCells:
    """A NaN cell is present, not missing, and makes the sums NaN, as it did.
    (Infinite cells are among the drawn values above.)"""

    def test_nan_cell_is_counted_and_never_a_target(self):
        counts = {math.nan: 1, 1.0: 2, None: 5}
        mean, shift, std, total = _weighted_moments(view_of(counts))
        assert total == 3 and all(map(math.isnan, (mean, shift, std)))
        ref = reference_weighted_moments(counts)
        assert ref[3] == 3 and all(map(math.isnan, ref[:3]))
        for rule in ("missing_only", "numeric_parse"):
            assert mark_targets(Distinct([math.nan, None]), rule).tolist() == [False, True]
        _, [column] = _run("nmbr", [math.nan, 1.0, None, 3.0])
        assert math.isnan(column[0]) and column[2] == 0.0


class TestInfillStatisticOverflow:
    def test_mean_of_huge_values_is_finite(self):
        stat = train_stat("mean", [1.7e308, 1.6e308], np.array([2, 1]))
        assert stat == pytest.approx(1.7e308 / 3 * 2 + 1.6e308 / 3, rel=1e-15)
        assert reference_train_stat("mean", [(1.7e308, 2), (1.6e308, 1)]) == math.inf
        assert train_stat("mean", [-1.7e308, -1.7e308], np.array([1, 1])) == -1.7e308

    def test_median_of_huge_values_is_finite(self):
        assert reference_train_stat("median", [(1.7e308, 1), (1.6e308, 1)]) == math.inf
        assert train_stat("median", [1.7e308, 1.6e308], np.array([1, 1])) == (
            1.7e308 / 2 + 1.6e308 / 2)
        assert train_stat("median", [-1.7e308, -1.6e308], np.array([1, 1])) == (
            -1.7e308 / 2 - 1.6e308 / 2)
        # Sums that stay in range keep their bits.
        assert train_stat("median", [1.0, 2.0], np.array([1, 1])) == 1.5
        assert train_stat("median", [math.inf, 1.0], np.array([1, 1])) == math.inf

    def test_meaninfill_of_saturated_extractions_serializes(self):
        reg = merge_overrides(builtin_registry(), {"nmcq": {"parents": ["nmcq"]}},
                              {"nmcq": {"behavior": "nmcm"}})
        table = TidyTable(headers=["a"], columns=[["9" * 400 + " a", "9" * 400 + " a", "7 x", None]])
        encoded, artifact = pm.fit(table, {"a": "nmcq"}, reg,
                                   Options(assigninfill={"meaninfill": ["a"]}))
        [(header, entry)] = artifact.infill_spec.items()
        largest = 1.7976931348623157e308  # nmcm saturates at the largest float
        assert entry == {"kind": "mean",
                         "value": pytest.approx(largest / 3 * 2 + 7.0 / 3, rel=1e-15)}
        assert encoded.column(header) == [largest, largest, 7.0, entry["value"]]
        restored = pm.deserialize(pm.serialize(artifact))
        assert pm.apply(restored, table) == encoded


def test_numeric_meaninfill_fit_leaves_the_collector_idle():
    # Per-value tuples kept alive in a fit cost the cyclic collector one
    # generation-0 collection per 700 of them; 20k rows took about 100.
    rnd = random.Random(3)
    col = [None if rnd.random() < 0.02 else round(rnd.uniform(0, 1000), 4)
           for _ in range(20_000)]
    table = TidyTable(headers=["x"], columns=[col])
    opts = Options(assigninfill={"meaninfill": ["x"]})
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    thresholds = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    gc.collect()
    gc.callbacks.append(count)
    try:
        pm.fit(table, opts=opts)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*thresholds)
    assert len(collections) <= 5, collections
