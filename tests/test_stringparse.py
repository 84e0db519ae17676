import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parsemunge as pm
from parsemunge import stringparse
from parsemunge.errors import ConfigError
from parsemunge.registry import BEHAVIORS
from parsemunge.stringparse import (
    OverlapScanConfig,
    Spl2Behavior,
    Spl5Behavior,
    _match_train_overlap,
    config_from_params,
    scan_overlaps,
)
from parsemunge.tidytable import distinct_counts

from .helpers import run_behavior
from .oracles import (
    oracle_pair_longest_common,
    oracle_single_assignment,
    reference_match_train_overlap,
    reference_sbst_fit,
    reference_scan_multi,
    reference_scan_single,
)


class TestScanOverlaps:
    def test_chrome_pair(self):
        omap = scan_overlaps({"chrome 62.0", "chrome 49.0"}, OverlapScanConfig(min_len=5))
        assert omap.assignment == {"chrome 62.0": "chrome ", "chrome 49.0": "chrome "}
        assert omap.overlaps == ["chrome "]

    def test_mac_pair(self):
        omap = scan_overlaps({"Mac OS X 10_11_6", "Mac OS X 10_7_5"},
                             OverlapScanConfig(min_len=5))
        assert set(omap.assignment.values()) == {"Mac OS X 10_"}
        assert len("Mac OS X 10_") == 12

    def test_no_overlap(self):
        omap = scan_overlaps({"abc", "xyz"}, OverlapScanConfig(min_len=2))
        assert omap.overlaps == []
        assert omap.assignment == {}

    def test_min_len_validated(self):
        with pytest.raises(ConfigError):
            scan_overlaps({"ab", "abc"}, OverlapScanConfig(min_len=1))

    def test_exclusion_soundness(self):
        cfg = OverlapScanConfig(min_len=2, exclude_chars=frozenset(" "))
        omap = scan_overlaps({"ab cd", "ab ce", "zz cd"}, cfg)
        for overlap in omap.overlaps:
            assert " " not in overlap

    def test_matches_oracle_small_random(self):
        rnd = random.Random(17)
        for _ in range(60):
            n = rnd.randint(2, 8)
            uniques = {"".join(rnd.choice("abc") for _ in range(rnd.randint(1, 9)))
                       for _ in range(n)}
            got = scan_overlaps(uniques, OverlapScanConfig(min_len=2)).assignment
            assert got == oracle_single_assignment(uniques, min_len=2)

    def test_matches_oracle_with_exclusions(self):
        rnd = random.Random(5)
        exclude = frozenset("b")
        for _ in range(40):
            uniques = {"".join(rnd.choice("abc ") for _ in range(rnd.randint(2, 8)))
                       for _ in range(rnd.randint(2, 6))}
            cfg = OverlapScanConfig(min_len=2, exclude_chars=exclude)
            got = scan_overlaps(uniques, cfg).assignment
            assert got == oracle_single_assignment(uniques, min_len=2, exclude=exclude)

    def test_multi_mode_matches_pairwise_oracle(self):
        rnd = random.Random(23)
        for _ in range(40):
            uniques = sorted({"".join(rnd.choice("abc") for _ in range(rnd.randint(1, 8)))
                              for _ in range(rnd.randint(2, 6))})
            omap = scan_overlaps(uniques, OverlapScanConfig(min_len=2, single_id=False))
            expected = set()
            for i, a in enumerate(uniques):
                for b in uniques[i + 1:]:
                    expected |= oracle_pair_longest_common(a, b, min_len=2)
            assert set(omap.overlaps) == expected

    @given(st.lists(st.text(alphabet="abc -", max_size=8), min_size=1, max_size=7, unique=True),
           st.integers(2, 4), st.frozensets(st.sampled_from("ab -"), max_size=2))
    @example(["", "ab", "cd"], 2, frozenset())  # an empty entry; entries without an overlap
    @example(["ab-ab", "xab-", "-abx"], 2, frozenset("-"))
    @settings(max_examples=300, deadline=None)
    def test_multi_mode_matches_pairwise_reference(self, uniques, min_len, exclude):
        """The whole multi-mode map, the overlaps' order and the assignment's
        key order included, equals the pair-by-pair reference."""
        cfg = OverlapScanConfig(min_len=min_len, exclude_chars=exclude, single_id=False)
        omap = scan_overlaps(uniques, cfg)
        overlaps, assignment = reference_scan_multi(uniques, min_len, exclude)
        assert omap.overlaps == overlaps
        assert list(omap.assignment.items()) == list(assignment.items())


class TestSplt:
    def test_chrome_column(self):
        state, columns = run_behavior("splt", ["chrome 62.0", "chrome 49.0"], {"min_len": 5})
        assert state["overlaps"] == ["chrome "]
        assert columns == [[1.0, 1.0]]

    def test_no_overlaps_zero_columns(self):
        state, columns = run_behavior("splt", ["abc", "xyz"], {"min_len": 2})
        assert columns == [] and state["overlaps"] == []

    def test_unseen_entry_all_zero(self):
        from parsemunge.stringparse import SpltBehavior
        behavior = SpltBehavior()
        state = behavior.fit(distinct_counts(["chrome 62.0", "chrome 49.0"]), {"min_len": 5},
                             "missing_only")
        assert behavior.apply_cell(behavior.compile(state), "edge 99.0") == (0.0,)


class TestSp15:
    def test_concurrent_activations(self):
        state, columns = run_behavior("sp15", ["ab cd", "ab xy", "zz cd"], {"min_len": 2})
        row = {o: [col[i] for i in range(3)] for o, col in zip(state["overlaps"], columns)}
        assert "ab " in row and " cd" in row
        assert row["ab "] == [1.0, 1.0, 0.0]
        assert row[" cd"] == [1.0, 0.0, 1.0]

    def test_single_overlap_equals_splt(self):
        col = ["chrome 62.0", "chrome 49.0"]
        params = {"min_len": 5}
        assert run_behavior("sp15", col, params)[1] == run_behavior("splt", col, params)[1]

    def test_disjoint_zero_columns(self):
        _, columns = run_behavior("sp15", ["abc", "xyz"], {"min_len": 2})
        assert columns == []


class TestSpl2:
    def test_chrome_replacement(self):
        _, [out] = run_behavior("spl2", ["chrome 62.0", "chrome 49.0"], {"min_len": 5})
        assert out == ["chrome ", "chrome "]

    def test_unchanged_without_overlap(self):
        assert run_behavior("spl2", ["abc", "xyz"], {"min_len": 2})[1] == [["abc", "xyz"]]

    def test_mixed_set_matches_oracle(self):
        col = ["chrome 62.0", "chrome 49.0", "safari 11.0", "edge 17.0", "opera 9.0"]
        expected_assignment = oracle_single_assignment(set(col), min_len=5)
        _, [out] = run_behavior("spl2", col, {"min_len": 5})
        assert out == [expected_assignment.get(c, c) for c in col]

    def test_cardinality_monotonic(self):
        col = ["chrome 62.0", "chrome 49.0", "safari 11.0", "safari 12.0", "lynx"]
        _, [out] = run_behavior("spl2", col, {"min_len": 5})
        assert len(set(out)) <= len(set(col))


class TestSpl5:
    def test_plug_for_unassigned(self):
        _, [out] = run_behavior("spl5", ["chrome 62.0", "chrome 49.0", "safari"], {"min_len": 5})
        assert out == ["chrome ", "chrome ", "zzzplug"]

    def test_no_plugs_when_all_assigned(self):
        _, [out] = run_behavior("spl5", ["chrome 62.0", "chrome 49.0"], {"min_len": 5})
        assert "zzzplug" not in out

    def test_all_plugs_without_overlaps(self):
        _, [out] = run_behavior("spl5", ["abc", "xyz"], {"min_len": 2})
        assert out == ["zzzplug", "zzzplug"]

    def test_plug_collision_resolved(self):
        from parsemunge.stringparse import Spl5Behavior
        behavior = Spl5Behavior()
        counts = distinct_counts(["aaaa1", "aaaa2", "zz"])
        state = behavior.fit(counts, {"min_len": 4, "plug": "aaaa"}, "missing_only")
        assert state["plug"] != "aaaa"
        assert behavior.apply_cell(behavior.compile(state), "zz") == (state["plug"],)


class TestSp19:
    def test_three_patterns_two_columns(self):
        col = ["ab cd", "ab xy", "zz cd"]
        state, columns = run_behavior("sp19", col, {"min_len": 2})
        assert BEHAVIORS["sp19"].output_tokens(state) == ["0", "1"]
        assert len(columns) == 2

    def test_degenerate_zero_patterns(self):
        state, columns = run_behavior("sp19", ["abc", "xyz"], {"min_len": 2})
        assert BEHAVIORS["sp19"].output_tokens(state) == ["0"]
        assert columns == [[0.0, 0.0]]

    def test_single_pattern_single_column(self):
        state, columns = run_behavior("sp19", ["chrome 62.0", "chrome 49.0"], {"min_len": 5})
        assert BEHAVIORS["sp19"].output_tokens(state) == ["0"]
        assert columns == [[1.0, 1.0]]

    def test_pattern_injectivity(self):
        col = ["ab cd", "ab xy", "zz cd", "zz xy"]
        state, _ = run_behavior("sp19", col, {"min_len": 2})
        codes = [state["codes"][e] for e in sorted(state["codes"])]
        assert len(set(codes)) == len(codes)


class TestSbst:
    def test_containment(self):
        state, columns = run_behavior("sbst", ["chrome", "chrome 62.0"], {"min_len": 5})
        assert state["overlaps"] == ["chrome"]
        assert columns == [[0.0, 1.0]]

    def test_no_containment(self):
        state, columns = run_behavior("sbst", ["abc", "xyz"], {"min_len": 2})
        assert columns == [] and state["overlaps"] == []

    def test_longest_contained_entry_wins(self):
        from parsemunge.stringparse import SbstBehavior
        behavior = SbstBehavior()
        state = behavior.fit(distinct_counts(["a", "ba", "cba"]), {"min_len": 1},
                             "missing_only")
        assert state["assignment"]["cba"] == "ba"
        assert state["assignment"]["ba"] == "a"
        assert state["overlaps"] == ["ba", "a"]

    @given(st.lists(st.text(alphabet="ab c", max_size=6), max_size=14),
           st.fixed_dictionaries({"min_len": st.integers(1, 3)},
                                 optional={"exclude_chars": st.sampled_from(["", " ", "c"]),
                                           "space_and_punctuation": st.booleans()}))
    @settings(max_examples=200, deadline=None)
    def test_fit_matches_the_two_pass_reference(self, col, params):
        # One containment pass gives the assignment and, as the union of each
        # text's contained candidates, the overlaps.
        state = BEHAVIORS["sbst"].fit(distinct_counts(col), params, "missing_only")
        assert state == reference_sbst_fit(set(col) - {None}, params)


class TestTestEfficientVariants:
    def test_spl9_replay(self):
        col = ["chrome 62.0", "chrome 49.0", "safari"]
        state, _ = run_behavior("spl9", col, {"min_len": 5})
        assert (run_behavior("spl9", col, state=state)[1]
                == run_behavior("spl2", col, {"min_len": 5})[1])

    def test_sp10_replay(self):
        col = ["chrome 62.0", "chrome 49.0", "safari"]
        state, _ = run_behavior("sp10", col, {"min_len": 5})
        assert (run_behavior("sp10", col, state=state)[1]
                == run_behavior("spl5", col, {"min_len": 5})[1])

    def test_spl9_unseen_passthrough(self):
        state, _ = run_behavior("spl9", ["chrome 62.0", "chrome 49.0"], {"min_len": 5})
        assert run_behavior("spl9", ["edge 99.0"], state=state)[1] == [["edge 99.0"]]

    def test_sp10_unseen_plug(self):
        state, _ = run_behavior("sp10", ["chrome 62.0", "chrome 49.0"], {"min_len": 5})
        assert run_behavior("sp10", ["edge 99.0"], state=state)[1] == [["zzzplug"]]

    def test_spl2_unseen_containment_match(self):
        from parsemunge.stringparse import Spl2Behavior
        behavior = Spl2Behavior()
        state = behavior.fit(distinct_counts(["chrome 62.0", "chrome 49.0"]), {"min_len": 5},
                             "missing_only")
        assert behavior.apply_cell(behavior.compile(state), "chrome 88.0") == ("chrome ",)


_entries = st.sets(st.text(alphabet="abcd", min_size=1, max_size=8), min_size=1, max_size=7)


@given(_entries)
@settings(max_examples=60, deadline=None)
def test_single_id_oracle_property(uniques):
    got = scan_overlaps(uniques, OverlapScanConfig(min_len=2)).assignment
    assert got == oracle_single_assignment(uniques, min_len=2)


@given(_entries)
@settings(max_examples=40, deadline=None)
def test_train_consistency_property(uniques):
    col = sorted(uniques)
    params = {"min_len": 2}
    _, first = run_behavior("spl2", col, params)
    state, _ = run_behavior("spl9", col, params)
    assert run_behavior("spl9", col, state=state)[1] == first


@given(_entries)
@settings(max_examples=40, deadline=None)
def test_cardinality_monotonicity_property(uniques):
    col = sorted(uniques)
    params = {"min_len": 2}
    _, [reduced] = run_behavior("spl2", col, params)
    _, [plugged] = run_behavior("spl5", col, params)
    assert len(set(reduced)) <= len(set(col))
    assert len(set(plugged)) <= len(set(reduced)) + 1


@given(_entries)
@settings(max_examples=30, deadline=None)
def test_every_variant_replays_train_entries(uniques):
    import parsemunge.stringparse as sp
    from parsemunge.tidytable import distinct_counts

    col = sorted(uniques)
    counts = distinct_counts(col)
    params = {"min_len": 2}
    for behavior in (sp.SpltBehavior(), sp.Sp15Behavior(), sp.Spl2Behavior(),
                     sp.Spl5Behavior(), sp.Spl9Behavior(), sp.Sp10Behavior(),
                     sp.Sp19Behavior(), sp.SbstBehavior()):
        state = behavior.fit(counts, params, "missing_only")
        compiled = behavior.compile(state)
        fit_rows = [behavior.apply_cell(compiled, c) for c in col]
        replay_rows = [behavior.apply_cell(compiled, c) for c in col]
        assert fit_rows == replay_rows


def _by_length_then_text(s):
    return (-len(s), s)


@given(_entries, st.booleans(), st.sampled_from([frozenset(), frozenset("b")]))
@settings(max_examples=80, deadline=None)
def test_assignment_matches_containment(uniques, single_id, exclude):
    cfg = OverlapScanConfig(min_len=2, exclude_chars=exclude, single_id=single_id)
    omap = scan_overlaps(uniques, cfg)
    for e, mine in omap.assignment.items():
        assert all(s in e for s in ([mine] if single_id else mine))
    if single_id:
        assert set(omap.overlaps) == set(omap.assignment.values())
    else:
        for e in uniques:
            mine = sorted((s for s in omap.overlaps if s in e), key=_by_length_then_text)
            assert omap.assignment.get(e, []) == mine


@given(st.sets(st.text(alphabet="ab c", max_size=9), max_size=14), st.booleans(),
       st.integers(min_value=2, max_value=4), st.sampled_from([frozenset(), frozenset(" ")]))
@settings(max_examples=150, deadline=None)
def test_overlaps_are_ordered_assigned_and_shared(uniques, single_id, min_len, exclude):
    """In both modes the overlaps are in column order, longest first, then
    smallest; they are exactly the assigned ones; and each is contained in at
    least two entries."""
    cfg = OverlapScanConfig(min_len=min_len, exclude_chars=exclude, single_id=single_id)
    omap = scan_overlaps(uniques, cfg)
    assert omap.overlaps == sorted(set(omap.overlaps), key=_by_length_then_text)
    # spl2/spl5/spl9/sp10 store only the single-id assignment and rebuild the
    # overlaps from its values, which loses nothing only while this holds.
    assigned = [[mine] if single_id else mine for mine in omap.assignment.values()]
    assert set(omap.overlaps) == set().union(*assigned)
    for s in omap.overlaps:
        assert sum(s in e for e in uniques) >= 2


@given(st.sets(st.text(alphabet="abc", min_size=1, max_size=5), max_size=12),
       st.text(alphabet="abcd", min_size=1, max_size=9))
@example({"ab", "ba", "c"}, "bab")  # two overlaps of the longest length tie
@example({"abcd", "bcda"}, "abc")  # text shorter than every overlap
@example(set(), "abc")
@settings(max_examples=150, deadline=None)
def test_compiled_overlap_match_equals_linear_scan(overlaps, text):
    expected = reference_match_train_overlap(text, overlaps)
    # Each stored overlap is assigned to one train entry; "#" keeps those
    # entries out of the texts' alphabet, so no text is a train entry.
    state = {"assignment": {f"#{o}": o for o in overlaps}, "plug": "zzzplug"}
    for behavior in (Spl2Behavior(), Spl5Behavior()):
        compiled = behavior.compile(state)
        assert _match_train_overlap([text], compiled["keys"]) == [expected]
        fallback = text if behavior.name == "spl2" else "zzzplug"
        assert behavior.apply_cell(compiled, text) == (expected or fallback,)


# NUL and U+10FFFF bound the code points; the astral characters take four
# bytes in UTF-8 and two code units in UTF-16.
_MATCH_ALPHABETS = ["ab", "abc", "a\x00b\U0010ffff", "x\U0001f600y\U00010000\x00"]


@st.composite
def _match_inputs(draw):
    """Stored overlaps (maybe none) and texts over one small alphabet, so that
    equal-length overlaps often tie within a text; some texts are shorter
    than every overlap, and some hold an overlap between other characters."""
    alphabet = draw(st.sampled_from(_MATCH_ALPHABETS))
    overlaps = draw(st.sets(st.text(alphabet=alphabet, min_size=2, max_size=6), max_size=10))
    text = st.text(alphabet=alphabet, max_size=12)
    texts = draw(st.lists(text, max_size=12))
    shortest = min(map(len, overlaps), default=1)
    texts += draw(st.lists(st.text(alphabet=alphabet, max_size=shortest - 1), max_size=3))
    if overlaps:
        held = st.tuples(text, st.sampled_from(sorted(overlaps)), text).map("".join)
        texts += draw(st.lists(held, max_size=6))
    return overlaps, texts


@given(_match_inputs(), st.randoms(use_true_random=False), st.integers(1, 5))
@settings(max_examples=300, deadline=None)
@example((set(), ["abc", ""]), random.Random(0), 1)
@example(({"", "ab"}, ["xab", "q", ""]), random.Random(0), 1)  # as a hand-edited artifact may hold
@example(({"ab", "ba"}, ["bab", "aba", "a"]), random.Random(0), 2)
@example(({"a\x00", "\x00b", "b\U0010ffff"}, ["a\x00b\U0010ffff", "\x00", "b"]),
         random.Random(0), 1)
def test_batched_match_equals_reference_in_any_batching(case, rnd, chunk):
    overlaps, texts = case
    keys = stringparse._overlap_keys(overlaps)
    expected = [reference_match_train_overlap(t, overlaps) for t in texts]
    assert _match_train_overlap(texts, keys) == expected
    order = list(range(len(texts)))
    rnd.shuffle(order)
    shuffled = _match_train_overlap([texts[i] for i in order], keys)
    assert shuffled == [expected[i] for i in order]
    chunked = [m for i in range(0, len(texts), chunk)
               for m in _match_train_overlap(texts[i:i + chunk], keys)]
    assert chunked == expected
    with mock.patch.object(stringparse, "MATCH_BLOCK", chunk):
        assert _match_train_overlap(texts, keys) == expected


@pytest.mark.parametrize("name", ["spl9", "sp10"])
def test_lookup_variants_never_match_unseen_entries(name):
    train = pm.TidyTable(["s"], [["chrome 62.0", "chrome 49.0", "safari 7.1"]])
    test = pm.TidyTable(["s"], [["chrome 88.0", "edge 99.0", None, 3.0]])

    def refuse(texts, keys):
        raise AssertionError("the unseen-entry matcher ran")

    with mock.patch.object(stringparse, "_match_train_overlap", refuse):
        _, artifact = pm.fit(train, {"s": name}, opts=pm.Options())
        pm.apply(artifact, test)


def test_matcher_runs_once_per_step_and_only_for_unseen_entries():
    train = pm.TidyTable(["s"], [["chrome 62.0", "chrome 49.0", "safari 7.1"]])
    test = pm.TidyTable(["s"], [["chrome 88.0", "edge 9", "chrome 62.0", "chrome 88.0"]])
    match = stringparse._match_train_overlap
    calls = []

    def record(texts, keys):
        calls.append(list(texts))
        return match(texts, keys)

    with mock.patch.object(stringparse, "_match_train_overlap", record):
        _, artifact = pm.fit(train, {"s": "spl2"}, opts=pm.Options())
        assert calls == [["safari 7.1"]]  # the train entry without an overlap
        out = pm.apply(artifact, test)
    assert calls[1:] == [["chrome 88.0", "edge 9"]]
    assert out.columns[0] == [1.0, 0.0, 1.0, 1.0]  # spl2's ord3 codes: "chrome " is 1


def _naive_row(name: str, state: dict, text):
    """One cell's outputs straight from the fit state: each stored entry or
    overlap compared with the cell's text in turn."""
    if name in ("ord3", "onht", "1010"):
        entries = state["entries"]
        code = entries.index(text) + 1 if text in entries else 0
        if name == "ord3":
            return (float(code),)
        if name == "onht":
            return tuple(1.0 if text == e else 0.0 for e in entries)
        top = len(entries)
    elif name == "sp19":
        code, top = state["codes"].get(text, 0), max(state["codes"].values(), default=0)
    else:
        mine = state["assignment"].get(text)
        if name == "sp15":
            return tuple(1.0 if o in (mine or ()) else 0.0 for o in state["overlaps"])
        return tuple(1.0 if o == mine else 0.0 for o in state["overlaps"])
    width = max(1, math.ceil(math.log2(top + 1)))
    return tuple(float((code >> (width - 1 - i)) & 1) for i in range(width))


@given(st.lists(st.text(alphabet="ab c", min_size=1, max_size=7), min_size=1, max_size=12),
       st.lists(st.text(alphabet="abc d", max_size=7), max_size=6))
@settings(max_examples=80, deadline=None)
def test_compiled_apply_equals_naive_reference(col, unseen):
    from parsemunge.tidytable import distinct_counts

    counts = distinct_counts(col)
    for name in ("ord3", "onht", "1010", "sp19", "splt", "sp15", "sbst"):
        behavior = BEHAVIORS[name]
        state = behavior.fit(counts, {"min_len": 2}, "missing_only")
        compiled = behavior.compile(state)
        for cell in col + unseen + [None]:
            row = behavior.apply_cell(compiled, cell)
            assert row == _naive_row(name, state, cell), (name, cell)
            assert len(row) == len(behavior.output_tokens(state))


@pytest.mark.parametrize("name", ["splt", "sp15", "sbst"])
def test_assignment_to_no_stored_overlap_activates_nothing(name):
    behavior = BEHAVIORS[name]
    state = {"overlaps": ["ab", "cd"],
             "assignment": {"x": "zz", "y": ["zz", "cd"], "w": "ab"}}
    compiled = behavior.compile(state)
    assert behavior.apply_cell(compiled, "x") == (0.0, 0.0)
    assert behavior.apply_cell(compiled, "y") == (0.0, 1.0)
    assert behavior.apply_cell(compiled, "w") == (1.0, 0.0)


def _assert_same_as_width_loop(uniques, cfg):
    """The single-id scan equals the width-loop reference: the same overlaps
    in the same order, and the same assignment in the same key order."""
    got = scan_overlaps(uniques, cfg)
    entries = sorted(uniques)
    overlaps, assignment = reference_scan_single(entries, max(map(len, entries)) - 1, cfg)
    assert got.overlaps == overlaps
    assert list(got.assignment.items()) == list(assignment.items())


# NUL and U+10FFFF bound the code points; the astral characters take four
# bytes in UTF-8 and two code units in UTF-16.
_SCAN_ALPHABETS = ["ab", "abc", " -ab", "a\x00b\U0010ffff", "x\U0001f600y\U00010000-"]


@st.composite
def _scan_inputs(draw):
    alphabet = draw(st.sampled_from(_SCAN_ALPHABETS))
    text = st.text(alphabet=alphabet, max_size=24)
    base = draw(text)
    entries = set(draw(st.lists(text, min_size=1, max_size=8)))
    for nested, start, stop, tail in draw(st.lists(
            st.tuples(st.booleans(), st.integers(0, 24), st.integers(0, 24), text), max_size=6)):
        if nested:  # inside another entry
            entries.add(draw(st.sampled_from(sorted(entries)))[start:stop])
        else:  # sharing a long prefix with the others of its kind
            entries.add(base[:start] + tail)
    params = {
        "min_len": draw(st.integers(2, 6)),
        "exclude_chars": "".join(draw(st.sets(st.sampled_from(alphabet), max_size=2))),
        "space_and_punctuation": draw(st.booleans()),
    }
    return entries, config_from_params(params)


@given(_scan_inputs())
@settings(max_examples=400, deadline=None)
@example(({"abcab"}, OverlapScanConfig(min_len=2)))
@example(({"ab-ab", "xab-"}, OverlapScanConfig(min_len=2, exclude_chars=frozenset("-"))))
@example(({"", "\x00\x00", "\x00\x00\x00"}, OverlapScanConfig(min_len=2)))
def test_single_scan_matches_width_loop_reference(case):
    _assert_same_as_width_loop(*case)


def _benchmark_scan_inputs(name: str, seed: int = 7):
    """The single-id scan inputs of fitting a benchmark workload."""
    from perfbench import workloads
    from perfbench.pipeline import as_table

    w = getattr(workloads, name)(seed)
    inputs = []

    def record(uniques, cfg):
        inputs.append((sorted(uniques), cfg))
        return scan_overlaps(uniques, cfg)

    with mock.patch.object(stringparse, "scan_overlaps", record):
        pm.fit(as_table(w.train), w.assignments, opts=pm.Options(**w.options))
    return [(u, cfg) for u, cfg in inputs if cfg.single_id]


@pytest.mark.parametrize("name", ["parse_highcard", "wide_roundtrip", "unseen_drift",
                                  "importance_prefix"])
def test_benchmark_scans_match_width_loop_reference(name):
    inputs = _benchmark_scan_inputs(name)
    assert inputs
    for uniques, cfg in inputs:
        _assert_same_as_width_loop(uniques, cfg)
