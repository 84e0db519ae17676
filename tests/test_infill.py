import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parsemunge.extract_search import extract_numbers
from parsemunge.infill import apply_infill, mark_targets, train_stat
from parsemunge.tidytable import Distinct, canon_text

from .helpers import cells
from .oracles import reference_nmcm_extract


def pair_stat(kind, pairs):
    """train_stat over (value, count) pairs."""
    return train_stat(kind, [v for v, _ in pairs], np.array([c for _, c in pairs], np.int64))


class TestMarkTargets:
    def test_missing_always(self):
        assert mark_targets(Distinct(["x", None])).tolist() == [False, True]

    def test_numeric_parse_rule(self):
        assert mark_targets(Distinct(["3", "q"]), "numeric_parse").tolist() == [False, True]

    def test_numeric_extract_rule(self):
        targets = mark_targets(Distinct(["zip 94107", "none"]), "numeric_extract")
        assert targets.tolist() == [False, True]

    def test_all_valid(self):
        assert mark_targets(Distinct(["a", "b"])).tolist() == [False, False]

    def test_number_cells_parse(self):
        assert mark_targets(Distinct([3.0, -0.0]), "numeric_parse").tolist() == [False, False]

    @given(st.lists(st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False),
                              st.text(), st.text(alphabet="ab09,.- \u0663\uff19\u00b2")),
                    max_size=8))
    @example(["\u0663"])  # a non-ASCII digit is no digit to the extraction
    @example(["-,.", None, "", 0.0])
    @example(["9" * 400, -1e300])  # beyond the float range: saturated, still found
    @settings(max_examples=200, deadline=None)
    def test_numeric_extract_rule_is_the_extraction_failing(self, values):
        # The rule tests each text for an ASCII digit; extraction fails
        # exactly without one, whatever its flags.
        view = Distinct(values)
        targets = mark_targets(view, "numeric_extract").tolist()
        for flags in itertools.product((False, True), repeat=3):
            assert targets == [text is None or reference_nmcm_extract(text, *flags) is None
                               for text in map(canon_text, values)]
            assert targets == (~extract_numbers(view, *flags)[1]).tolist()


class TestApplyInfill:
    def test_mean_two_point(self):
        col, mask = [1.0, None, 3.0], [False, True, False]
        stat = pair_stat("mean", [(1.0, 1), (3.0, 1)])
        filled = apply_infill(col, mask, "mean", stat)
        assert isinstance(filled, np.ndarray)  # a list filled to all floats is an array
        assert cells(filled) == [1.0, 2.0, 3.0]

    def test_adjacent_all_target(self):
        assert cells(apply_infill([None, None], [True, True], "adjacent")) == [0.0, 0.0]

    def test_mode(self):
        pairs = [(1.0, 2), (2.0, 1)]
        stat = pair_stat("mode", pairs)
        assert stat == 1.0
        assert cells(apply_infill([1.0, None, 1.0, 2.0], [False, True, False, False],
                                  "mode", stat)) == [1.0, 1.0, 1.0, 2.0]

    def test_zero_one_negzero(self):
        col, mask = [5.0, None], [False, True]
        assert apply_infill(col, mask, "zero")[1] == 0.0
        assert apply_infill(col, mask, "one")[1] == 1.0
        import math
        filled = apply_infill(col, mask, "negzero")[1]
        assert filled == 0.0 and math.copysign(1.0, filled) < 0

    def test_non_targets_never_altered(self):
        col = [9.0, None, 4.0]
        out = apply_infill(col, [False, True, False], "mean", 6.5)
        assert out[0] == 9.0 and out[2] == 4.0


class TestTrainStat:
    def test_weighted_mean(self):
        assert pair_stat("mean", [(1.0, 3), (5.0, 1)]) == 2.0

    def test_weighted_median_odd(self):
        assert pair_stat("median", [(1.0, 1), (2.0, 1), (9.0, 1)]) == 2.0

    def test_weighted_median_even(self):
        assert pair_stat("median", [(1.0, 2), (9.0, 2)]) == 5.0

    def test_mode_tie_smallest(self):
        assert pair_stat("mode", [(2.0, 2), (1.0, 2)]) == 1.0

    def test_no_stat_kinds(self):
        assert pair_stat("zero", [(1.0, 1)]) is None
        assert pair_stat("adjacent", [(1.0, 1)]) is None
