import dataclasses
import functools
import hashlib
import json
import logging
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parsemunge as pm
from parsemunge import encoders, extract_search, infill, stringparse, tidytable, treeengine
from parsemunge.errors import ConfigError, DataError, ParsemungeError
from parsemunge.infill import CONFIG_KIND_NAMES, mark_targets
from parsemunge.registry import BEHAVIORS, builtin_registry
from parsemunge.schema import checker
from parsemunge.tidytable import Distinct, TidyTable, distinct_counts, factorize, write_csv
from parsemunge.treeengine import FORMAT_VERSION, Options
from perfbench import workloads

from .helpers import FORMAT_4_OR19, make_random_table, random_text_cell, retyped, run_behavior
from .oracles import reference_adjacent_fill

ADDRESSES = ["123 Main St 94107", "456 Oak Ave 94110", "789 Main Blvd 94107",
             "12 Pine Rd 94110", None]


def _table(**cols) -> TidyTable:
    return TidyTable(headers=list(cols), columns=[list(v) for v in cols.values()])


class TestFit:
    def test_or19_returned_headers(self):
        table = _table(col2=ADDRESSES)
        encoded, artifact = pm.fit(table, {"col2": "or19"})
        assert encoded.headers == [
            "col2_UPCS_1010_0", "col2_UPCS_1010_1", "col2_UPCS_1010_2",
            "col2_UPCS_nmc7_nmbr",
            "col2_UPCS_spl9_ord3",
            "col2_UPCS_spl9_sp10_ord3",
            "col2_NArw",
        ]
        # NArw marks the missing source row
        assert encoded.column("col2_NArw") == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_excl_passthrough(self):
        table = _table(a=["x", "y", None])
        encoded, artifact = pm.fit(table, {"a": "excl"})
        assert encoded.headers == ["a_excl"]
        assert encoded.column("a_excl") == ["x", "y", None]
        assert len(artifact.per_source["a"].steps) == 1

    def test_unknown_assigned_header(self):
        with pytest.raises(DataError, match="zz"):
            pm.fit(_table(a=["x"]), {"zz": "ord3"})

    def test_unknown_category(self):
        with pytest.raises(ConfigError, match="qq"):
            pm.fit(_table(a=["x"]), {"a": "qq"})
        with pytest.raises(ConfigError, match="qq"):  # checked before the header
            pm.fit(_table(a=["x"]), {"zz": "qq"})

    def test_empty_table(self):
        with pytest.raises(DataError, match="empty"):
            pm.fit(TidyTable(headers=[], columns=[]), {})

    def test_auto_assignment(self):
        table = _table(num=[1.0, 2.0], two=["a", "b"])
        encoded, artifact = pm.fit(table)
        assert artifact.per_source["num"].root == "nmbr"
        assert artifact.per_source["two"].root == "bnry"

    def test_labels_column_excluded(self):
        table = _table(a=["x", "y"], label=["p", "q"])
        encoded, artifact = pm.fit(table, opts=Options(labels_column="label"))
        assert "label" not in artifact.per_source
        assert all(not h.startswith("label") for h in encoded.headers)

    def test_nmc8_override_reroutes_headers(self):
        reg = pm.merge_overrides(pm.builtin_registry(), trees={
            "nmc8": {"parents": ["nmc8"], "cousins": ["NArw"], "children": ["ord3"]}
        })
        table = _table(col2=ADDRESSES)
        encoded, _ = pm.fit(table, {"col2": "or19"}, reg=reg)
        assert "col2_UPCS_nmc7_ord3" in encoded.headers
        assert "col2_UPCS_nmc7_nmbr" not in encoded.headers

    def test_or20_adds_spl9_tier(self):
        table = _table(col2=["chrome 62.0", "chrome 49.0", "safari 11.0"])
        encoded, _ = pm.fit(table, {"col2": "or20"})
        assert "col2_UPCS_spl9_spl9_sp10_ord3" in encoded.headers

    def test_header_collision_dedup(self):
        # source "a" under or19 emits a_UPCS_1010_*; source "a_UPCS" under a
        # bare 1010 root generates the same header family
        table = _table(**{"a": ["x", "y"], "a_UPCS": ["p", "q"]})
        encoded, _ = pm.fit(table, {"a": "or19", "a_UPCS": "1010"})
        assert len(set(encoded.headers)) == len(encoded.headers)
        assert any(h.endswith("_1") or h.endswith("_2") for h in encoded.headers)

    def test_splt_without_overlaps_still_records_step(self):
        table = _table(a=["abc", "xyz", "pq"])
        encoded, artifact = pm.fit(table, {"a": "splt"})
        assert encoded.headers == ["a_NArw"]
        steps = artifact.per_source["a"].steps
        assert steps[0].category == "splt" and steps[0].output_headers == []

    def test_shuffle_train_permutes_rows(self):
        table = _table(a=[float(i) for i in range(20)])
        plain, artifact = pm.fit(table, {"a": "excl"})
        shuffled, _ = pm.fit(table, {"a": "excl"}, opts=Options(shuffle_train=True, seed=1))
        assert sorted(shuffled.column("a_excl")) == sorted(plain.column("a_excl"))
        assert shuffled.column("a_excl") != plain.column("a_excl")
        # apply never shuffles
        assert pm.apply(artifact, table) == plain


class TestOr19Differential:
    def test_engine_matches_hand_composed_pipeline(self):
        rnd = random.Random(19)
        pool = [f"{p} {rnd.randint(10, 60)}.{rnd.randint(0, 9)}"
                for p in ("chrome", "safari", "edge") for _ in range(8)]
        col = [rnd.choice(pool) for _ in range(120)]
        for _ in range(6):
            col[rnd.randrange(120)] = None

        encoded, _ = pm.fit(_table(src=col), {"src": "or19"})

        _, [up] = run_behavior("UPCS", col)
        state, bit_cols = run_behavior("1010", up)
        for i in range(len(BEHAVIORS["1010"].output_tokens(state))):
            assert encoded.column(f"src_UPCS_1010_{i}") == bit_cols[i]

        _, [extracted] = run_behavior("nmcm", up)
        _, [z_vals] = run_behavior("nmbr", extracted)
        assert encoded.column("src_UPCS_nmc7_nmbr") == z_vals

        _, [s9] = run_behavior("spl9", up)
        _, [s9_codes] = run_behavior("ord3", s9)
        assert encoded.column("src_UPCS_spl9_ord3") == s9_codes

        _, [s10] = run_behavior("sp10", s9)
        _, [s10_codes] = run_behavior("ord3", s10)
        assert encoded.column("src_UPCS_spl9_sp10_ord3") == s10_codes

        assert encoded.column("src_NArw") == run_behavior("NArw", col)[1][0]


class TestApply:
    def test_replay_bit_identity(self):
        rnd = random.Random(42)
        for _ in range(10):
            table, assignments = make_random_table(rnd)
            encoded, artifact = pm.fit(table, assignments)
            assert pm.apply(artifact, table) == encoded

    def test_unseen_ord3_zero(self):
        train = _table(a=["x", "y", "x"])
        _, artifact = pm.fit(train, {"a": "ord3"})
        out = pm.apply(artifact, _table(a=["zzz"]))
        assert out.column("a_ord3") == [0.0]

    def test_extra_column_ignored_with_warning(self, caplog):
        train = _table(a=["x", "y"])
        _, artifact = pm.fit(train, {"a": "ord3"})
        test = _table(a=["x", "y"], junk=["1", "2"])
        with caplog.at_level(logging.WARNING):
            out = pm.apply(artifact, test)
        assert out == pm.apply(artifact, _table(a=["x", "y"]))
        assert any("junk" in rec.message for rec in caplog.records)

    def test_missing_source_column(self):
        _, artifact = pm.fit(_table(a=["x", "y"]), {"a": "ord3"})
        with pytest.raises(DataError, match="a"):
            pm.apply(artifact, _table(b=["x"]))

    def test_row_permutation_equivariance(self):
        rnd = random.Random(7)
        table, assignments = make_random_table(rnd, rows=30)
        _, artifact = pm.fit(table, assignments)
        order = list(range(30))
        rnd.shuffle(order)
        permuted = TidyTable(
            headers=table.headers,
            columns=[[col[i] for i in order] for col in table.columns],
        )
        direct = pm.apply(artifact, permuted)
        reordered = pm.apply(artifact, table)
        expected = TidyTable(
            headers=reordered.headers,
            columns=[[col[i] for i in order] for col in reordered.columns],
        )
        assert direct == expected

    def test_column_stability_under_content(self):
        train = _table(a=["x", "y", "z"])
        _, artifact = pm.fit(train, {"a": "1010"})
        out1 = pm.apply(artifact, _table(a=["x"]))
        out2 = pm.apply(artifact, _table(a=["unrelated"]))
        assert out1.headers == out2.headers == artifact.output_order

    @pytest.mark.parametrize("root,col,opts", [
        ("ord3", ["a", "b", "a", 0.0, -0.0, -0.0], Options()),
        # -0.0 and 0.0 as intermediate values, consumed by the nmbr child
        ("nmcm", ["t -0", "t 0", "u 3", "v -3"],
         Options(assignparam={"nmcm": {"a": {"allow_negative": True}}})),
    ])
    def test_signed_zero_outputs_do_not_depend_on_row_order(self, root, col, opts):
        # == cannot tell the zeros apart; json.dumps renders "-0.0"
        def render(table):
            return json.dumps(table.columns)

        encoded, artifact = pm.fit(_table(a=col), {"a": root}, opts=opts)
        for order in (range(len(col)), reversed(range(len(col))),
                      sorted(range(len(col)), key=lambda i: str(col[i]))):
            order = list(order)
            permuted = _table(a=[col[i] for i in order])
            expected = TidyTable(encoded.headers, [[c[i] for i in order] for c in encoded.columns])
            assert render(pm.apply(artifact, permuted)) == render(expected)
            refit, reartifact = pm.fit(permuted, {"a": root}, opts=opts)
            assert render(refit) == render(expected)
            assert pm.serialize(reartifact) == pm.serialize(artifact)

    def test_fit_evaluates_each_step_once_per_distinct_value(self, monkeypatch):
        # apply_distinct is the engine's one call per step evaluation; it also
        # sees the behaviours that never call apply_cell (spl9, sp10, spl2,
        # spl5, srch).
        calls = []
        for behavior in BEHAVIORS.values():
            def counted(compiled, view, _original=behavior.apply_distinct):
                calls.append(list(view.values))
                return _original(compiled, view)
            monkeypatch.setattr(behavior, "apply_distinct", counted)
        rnd = random.Random(3)
        serial = [random_text_cell(rnd) if rnd.random() > 0.1 else None for _ in range(300)]
        table = _table(
            serial=serial,
            amount=[round(rnd.uniform(0, 50), 1) if rnd.random() > 0.1 else None
                    for _ in range(300)],
            parts=[f"{rnd.choice(['ab', 'cd'])}{rnd.randint(0, 30)}x" for _ in range(300)],
            found=serial[::-1],
        )
        roots = {"serial": "or19", "amount": "nmbr", "parts": "spl5", "found": "srch"}
        opts = Options(assigninfill={"meaninfill": ["amount"]},
                       assignparam={"srch": {"found": {"search": ["A", "9"]}}})
        encoded, artifact = pm.fit(table, roots, opts=opts)
        in_fit = calls.copy()
        calls.clear()
        assert pm.apply(artifact, table) == encoded
        steps = sum(len(plan.steps) for plan in artifact.per_source.values())
        assert len(in_fit) == len(calls) == steps
        for values in in_fit + calls:
            assert len(set(values)) == len(values)
        assert sum(map(len, in_fit)) == sum(map(len, calls)) > 0
        assert {plan.root for plan in artifact.per_source.values()} >= {"or19", "spl5", "srch"}
        behaviors = {rec.behavior for plan in artifact.per_source.values() for rec in plan.steps}
        assert {"spl9", "sp10", "spl5", "srch"} <= behaviors

    def test_fit_reads_each_source_rows_once(self, monkeypatch):
        # One factorize per source reads its rows, in fit and in apply; every
        # other helper sees distinct values only, and _evaluate is never
        # handed a source's distinct values to factorize again. Each header a
        # step reads is converted once: factorize runs once per header, and
        # no distinct_counts; canon_text runs at most once per distinct value
        # of each such header, and numbers at most once per header.
        calls, factorized, texts, converted = [], [], [], []
        for module in (treeengine, encoders):
            for name in ("factorize", "distinct_counts", "infer_coltype", "checked_coltype",
                         "numbers"):
                if not hasattr(module, name):
                    continue

                def counted(*args, _original=getattr(module, name), _name=name):
                    values = args[1] if _name == "checked_coltype" else args[0]
                    calls.append((_name, len(values)))
                    if _name == "factorize":
                        factorized.append(list(values))
                    return _original(*args)
                monkeypatch.setattr(module, name, counted)
        # Wherever canon_text and numbers are bound and called.
        for module in (tidytable, infill, encoders, extract_search, stringparse, treeengine):
            for name, seen in (("canon_text", texts), ("numbers", converted)):
                if hasattr(module, name):
                    def recorded(arg, _original=getattr(module, name), _seen=seen):
                        _seen.append(arg)
                        return _original(arg)
                    monkeypatch.setattr(module, name, recorded)

        def check(table):
            row_calls = [name for name, n in calls if n == table.row_count]
            assert row_calls == ["factorize"] * len(table.headers) == ["factorize"] * 8
            sources = [factorize(c)[0] for c in table.columns]
            assert all(len(d) < table.row_count for d in sources)
            assert not [v for v in factorized if any(v == d for d in sources)]
            assert "distinct_counts" not in {name for name, _ in calls}
            read = [list(map(repr, v)) for v in factorized]
            assert len(read) > 8 and len(set(map(tuple, read))) == len(read)
            # How many of the headers read hold each value as a distinct value.
            holders = Counter(v for values in factorized for v in factorize(values)[0])
            assert not [v for v, n in Counter(texts).items() if n > holders[v]]
            assert len(texts) <= sum(holders.values())
            numbered = [tuple(map(repr, v)) for v in converted]
            assert 0 < len(numbered) == len(set(numbered))
            converted_texts = len(texts)
            for seen in (calls, factorized, texts, converted):
                seen.clear()
            return converted_texts

        w = workloads.wide_roundtrip(7)
        # Text beside numbers, whose texts are converted, and text alone, whose are not.
        mixed = {h: [float(i % 7) if h in ("tier", "state", "serial") and i % 40 == 0 else v
                     for i, v in enumerate(col)] for h, col in w.train.items()}
        for cells, texted in ((w.train, False), (mixed, True)):
            train = TidyTable(list(cells), list(cells.values()))
            test = TidyTable(list(w.test), list(w.test.values()))
            _, artifact = pm.fit(train, w.assignments, opts=Options(**w.options))
            assert bool(check(train)) == texted
            pm.apply(artifact, test if not texted else train)
            assert bool(check(test if not texted else train)) == texted

    def test_infill_target_rule_runs_once_per_distinct_value(self, monkeypatch):
        # Targets are marked by one mark_targets call per NArw step, in fit
        # and in apply, each over exactly one source's distinct values: a mark
        # taken per row fails here. Infill reads the marks of the source's
        # NArw step, and marks only a source without one.
        marked = []
        original_mark = infill.mark_targets

        def counted_mark(view, rule):
            marked.append((list(view.values), rule))
            return original_mark(view, rule)

        monkeypatch.setattr(infill, "mark_targets", counted_mark)
        rnd = random.Random(5)
        table = _table(
            amount=[rnd.choice([None, 0.0, -0.0, "n/a", 1.5, 2.5]) for _ in range(300)],
            plain=[rnd.choice([None, "x", "y"]) for _ in range(300)],
            serial=[rnd.choice([None, "zip 94107", "none", "v2"]) for _ in range(300)],
        )
        opts = Options(assigninfill={"meaninfill": ["amount"], "adjinfill": ["serial"]})
        roots = {"amount": "nmbr", "plain": "onht", "serial": "nmcm"}
        amount, plain, serial = [(factorize(table.column(h))[0], rule) for h, rule in
                                 (("amount", "numeric_parse"), ("plain", "missing_only"),
                                  ("serial", "numeric_extract"))]
        assert [len(values) for values, _ in (amount, plain, serial)] == [5, 3, 4]
        # Each source's NArw step; infill marks nothing again.
        expected = [amount, plain, serial]
        encoded, artifact = pm.fit(table, roots, opts=opts)
        assert marked == expected  # both zeros are one distinct value
        marked.clear()
        assert pm.apply(artifact, table) == encoded
        assert marked == expected
        marked.clear()
        pm.apply(artifact, _table(amount=[1.5] * 50, plain=[None] * 50, serial=["v2"] * 50))
        assert marked == [([1.5], "numeric_parse"), ([None], "missing_only"),
                          (["v2"], "numeric_extract")]
        # A source without an infill entry marks its targets only for NArw.
        _, artifact = pm.fit(table, roots)
        marked.clear()
        pm.apply(artifact, table)
        assert marked == [amount, plain, serial]


class TestEdgeCases:
    def test_zero_row_apply(self):
        train = _table(a=["x", "y", "x"])
        _, artifact = pm.fit(train, {"a": "or19"})
        out = pm.apply(artifact, _table(a=[]))
        assert out.row_count == 0
        assert out.headers == artifact.output_order

    def test_single_row_fit_replays(self):
        table = _table(a=["solo 1.0"])
        encoded, artifact = pm.fit(table, {"a": "or19"})
        assert pm.apply(artifact, table) == encoded

    def test_unicode_case_consolidation(self):
        # upper() changes the string length here; variants still consolidate
        table = _table(a=["straße", "STRASSE", "straße"])
        encoded, artifact = pm.fit(table, {"a": "or19"})
        recovered, failed = pm.invert(artifact, encoded)
        assert failed == []
        assert recovered.column("a") == ["STRASSE", "STRASSE", "STRASSE"]

    def test_mixed_numeric_text_column(self):
        table = _table(a=["x9", 3.5, None, 3.5])
        encoded, artifact = pm.fit(table, {"a": "or19"})
        assert pm.apply(artifact, table) == encoded
        recovered, _ = pm.invert(artifact, encoded)
        # numbers canonicalize to shortest-decimal text for categoric treatment
        assert recovered.column("a") == ["X9", "3.5", None, "3.5"]

    def test_all_missing_column_auto_excl(self):
        table = _table(a=[None, None], b=["x", "y"])
        _, artifact = pm.fit(table)
        assert artifact.per_source["a"].root == "excl"

    def test_sanitized_token_collision_dedup(self):
        # overlaps "ab " and " ab" both sanitize to token "ab"
        opts = Options(assignparam={"splt": {"a": {"min_len": 3}}})
        table = _table(a=["xab ", "yab ", "q ab", "r ab"])
        encoded, artifact = pm.fit(table, {"a": "splt"}, opts=opts)
        state = artifact.per_source["a"].steps[0].fit
        assert sorted(state["overlaps"]) == [" ab", "ab "]
        splt_headers = [h for h in encoded.headers if "_splt_" in h]
        assert len(splt_headers) == 2
        assert len(set(splt_headers)) == 2

    def test_overflowing_extraction_stays_finite(self, tmp_path):
        # A digit run beyond the float range saturates, so every nmc7 output
        # is finite: the artifact serializes and the encoded table writes.
        huge = "chrome " + "9" * 400
        table = _table(a=[huge, "chrome 62.0", "safari 11.0"])
        encoded, artifact = pm.fit(table, {"a": "or19"})
        assert all(math.isfinite(v) for v in encoded.column("a_UPCS_nmc7_nmbr"))
        restored = pm.deserialize(pm.serialize(artifact))
        assert pm.apply(restored, table) == encoded
        _, plain = pm.fit(_table(a=["chrome 61.0", "chrome 62.0", "safari 11.0"]), {"a": "or19"})
        applied = pm.apply(plain, table)
        assert all(math.isfinite(v) for v in applied.column("a_UPCS_nmc7_nmbr"))
        write_csv(applied, tmp_path / "applied.csv")
        write_csv(encoded, tmp_path / "encoded.csv")


class TestCellTypes:
    """A cell is a str, float or None, or of a subclass of str or float; any
    other type raises DataError naming the column and the type."""

    @pytest.mark.parametrize("col,root,type_name", [
        ([1, 2, 3], None, "int"),
        (["x", 2, "y"], None, "int"),
        ([None, True, 2.5], "nmbr", "bool"),
        (["a", b"b", None], "ord3", "bytes"),
    ])
    def test_fit(self, col, root, type_name):
        assignments = {"a": root} if root else {}
        with pytest.raises(DataError, match=f"column 'a' holds a cell of type {type_name};"):
            pm.fit(_table(a=col, b=["x"] * len(col)), assignments)

    def test_apply(self):
        _, artifact = pm.fit(_table(a=[1.0, 2.0, None], b=["x", "y", "x"]))
        with pytest.raises(DataError, match="column 'a' holds a cell of type int;"):
            pm.apply(artifact, _table(a=[1, 2.0, None], b=["x", "y", "x"]))
        with pytest.raises(DataError, match="column 'b' holds a cell of type bytes;"):
            pm.apply(artifact, _table(a=[1.0, 2.0, None], b=["x", b"y", "x"]))

    def test_drift_report(self):
        # Checked where drift reads the types: a numeric source's cells.
        _, artifact = pm.fit(_table(a=[1.0, 2.0, None], b=["x", "y", "x"]))
        with pytest.raises(DataError, match="column 'a' holds a cell of type int;"):
            pm.drift_report(artifact, _table(a=[1, 2.0, None], b=["x", "y", "x"]))

    @pytest.mark.parametrize("cell,type_name", [(2, "int"), (b"y", "bytes"), (["y"], "list")])
    def test_drift_report_on_a_categoric_source(self, cell, type_name):
        # A categoric source's distinct values are checked, as apply checks
        # them: a cell of another type is no unseen entry.
        _, artifact = pm.fit(_table(a=["x", "y", "x"]))
        cells = ["x", cell, "x", None]
        message = f"column 'a' holds a cell of type {type_name};"
        with pytest.raises(DataError, match=message):
            pm.apply(artifact, _table(a=cells))
        with pytest.raises(DataError, match=message):
            pm.drift_report(artifact, _table(a=cells))

    @pytest.mark.parametrize("cells,type_name", [
        ([["x"], ["y"], "z"], "list"),
        (["x", {"k": 1}, None], "dict"),
        ([2.5, {2.5}, None], "set"),
    ])
    def test_unhashable_cells(self, cells, type_name):
        # Named where the one read of the rows fails on them, in fit, apply
        # and a categoric or numeric drift report alike.
        message = f"column 'a' holds a cell of type {type_name};"
        with pytest.raises(DataError, match=message):
            pm.fit(_table(a=cells, b=["x"] * len(cells)))
        _, categoric = pm.fit(_table(a=["x", "y", "z"], b=["x", "y", "x"]))
        _, numeric = pm.fit(_table(a=[1.0, 2.0, None], b=["x", "y", "x"]))
        for artifact in (categoric, numeric):
            with pytest.raises(DataError, match=message):
                pm.apply(artifact, _table(a=cells, b=["x", "y", "x"]))
            with pytest.raises(DataError, match=message):
                pm.drift_report(artifact, _table(a=cells, b=["x", "y", "x"]))

    def test_subclasses_of_str_and_float_are_cells(self):
        class Text(str):
            pass

        class Number(float):
            pass

        plain = _table(a=[1.0, 2.5, None], b=["x", "y", "x"], c=[2.5, "z", 1.0])
        derived = _table(a=[Number(1.0), Number(2.5), None], b=[Text("x"), "y", Text("x")],
                         c=[np.float64(2.5), "z", np.float64(1.0)])
        encoded, artifact = pm.fit(plain)
        encoded2, artifact2 = pm.fit(derived)
        assert encoded2 == encoded and pm.serialize(artifact2) == pm.serialize(artifact)
        assert pm.apply(artifact, derived) == encoded
        assert pm.drift_report(artifact, derived) == pm.drift_report(artifact, plain)

    @pytest.mark.parametrize("root", ["nmcm", "nmc7"])
    def test_unseen_subclass_texts_are_extracted(self, root):
        class Text(str):
            pass

        _, artifact = pm.fit(_table(a=["a1", "b2.5", None]), {"a": root})
        plain = ["a1", "z9", "q3.5x", "none", None]
        expected = pm.apply(artifact, _table(a=plain))
        assert all(type(v) is float for c in expected.columns for v in c)
        for cell in (Text, np.str_):
            derived = [None if v is None else cell(v) for v in plain]
            assert pm.apply(artifact, _table(a=derived)) == expected
            unseen = [None if v is None else cell(v) for v in plain[1:]]
            assert pm.apply(artifact, _table(a=unseen)) == pm.apply(artifact, _table(a=plain[1:]))

    def test_invert_reads_ints_and_bools_as_codes(self):
        # The onht decoder compares cells by ==, so 1 and True read as 1.0.
        encoded, artifact = pm.fit(_table(a=["x", "y", "z"]), {"a": "onht"})
        cells = [[int(v) for v in c] for c in encoded.columns]
        cells[0] = [bool(v) for v in cells[0]]
        recovered, failed = pm.invert(artifact, TidyTable(encoded.headers, cells))
        assert failed == [] and recovered.column("a") == ["x", "y", "z"]


_nasty_cells = st.one_of(
    st.none(),
    st.text(alphabet='ab9 ,."\'_ß€\n', min_size=1, max_size=10),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
)


@given(
    st.lists(_nasty_cells, min_size=2, max_size=25),
    st.sampled_from(["ord3", "onht", "1010", "or19", "spl2", "nmcm", "splt"]),
)
@settings(max_examples=40, deadline=None)
def test_replay_property_nasty_content(col, root):
    table = TidyTable(headers=["src"], columns=[list(col)])
    encoded, artifact = pm.fit(table, {"src": root})
    assert pm.apply(artifact, table) == encoded
    rebuilt = pm.deserialize(pm.serialize(artifact))
    assert pm.apply(rebuilt, table) == encoded


_BATCH_TRAIN = ["chrome 62.0", "Chrome 49.0", "safari 11.0", "3", 2.5, None, -0.0, 7.0,
                "edge 17", "safari"]
# Every fill kind but adjinfill, whose leading targets take the applied batch's first value.
_BATCH_KINDS = sorted(set(CONFIG_KIND_NAMES) - {"adjinfill"})


@functools.cache
def _batch_fit(root: str, kind: str):
    col = ["y", "n", None, "y"] if root == "bnry" else _BATCH_TRAIN
    opts = Options(assigninfill={kind: ["a"]}, assignparam={
        "global_assignparam": {"min_len": 3}, "srch": {"a": {"search": ["chrome", "1"]}}})
    return pm.fit(_table(a=col), {"a": root}, opts=opts)[1]


@pytest.mark.parametrize("root", sorted(builtin_registry().trees))
@given(st.lists(st.one_of(st.sampled_from(_BATCH_TRAIN + ["y", "n", "unseen 5", 0.0, 99.0]),
                          st.text(alphabet="ab9 .", max_size=6)), max_size=8),
       st.sampled_from(_BATCH_KINDS))
@settings(max_examples=20, deadline=None)
def test_apply_is_batch_invariant(root, col, kind):
    """apply(A ++ B) == apply(A) ++ apply(B) at every row split; json.dumps
    tells the signed zeros apart."""
    artifact = _batch_fit(root, kind)
    whole = json.dumps(pm.apply(artifact, _table(a=col)).columns)
    for k in range(len(col) + 1):
        head, tail = pm.apply(artifact, _table(a=col[:k])), pm.apply(artifact, _table(a=col[k:]))
        assert json.dumps([x + y for x, y in zip(head.columns, tail.columns)]) == whole


_num_infill_cells = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 2.5, -7.0, "n/a", "4"]),
                              st.floats(-1e3, 1e3, allow_nan=False))
_cat_infill_cells = st.one_of(st.none(), st.sampled_from(["x", "y", "v2", "zip 94107", 0.0]),
                              st.text(alphabet="ab9 .", max_size=5))


@given(st.lists(st.tuples(_num_infill_cells, _cat_infill_cells), min_size=1, max_size=10),
       st.lists(st.tuples(_num_infill_cells, _cat_infill_cells), max_size=8),
       st.lists(st.tuples(_num_infill_cells, _cat_infill_cells), max_size=8),
       st.sampled_from(["nmbr", "mnmx", "excl"]),
       st.sampled_from(["ord3", "onht", "1010", "or19", "nmcm", "spl5"]),
       st.sampled_from(_BATCH_KINDS))
@settings(max_examples=60, deadline=None)
def test_apply_is_batch_invariant_on_numeric_and_categoric_roots(train, head, tail, num_root,
                                                                 cat_root, kind):
    """apply(A ++ B) == apply(A) ++ apply(B) for every fill kind but adjinfill,
    with a numeric and a categoric root infilled in one table."""
    def table(rows):
        return _table(n=[r[0] for r in rows], c=[r[1] for r in rows])
    opts = Options(assigninfill={kind: ["n", "c"]},
                   assignparam={"global_assignparam": {"min_len": 2}})
    _, artifact = pm.fit(table(train), {"n": num_root, "c": cat_root}, opts=opts)
    whole = pm.apply(artifact, table(head + tail))
    parts = pm.apply(artifact, table(head)), pm.apply(artifact, table(tail))
    assert json.dumps(whole.columns) == json.dumps(
        [x + y for x, y in zip(parts[0].columns, parts[1].columns)])


_ORDER_ROOTS = ["or19", "or20", "nmbr", "mnmx", "splt", "spl5", "sp19", "nmc7", "srch", "1010",
                "onht", "bnry", "ord3", "excl"]
_order_cells = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 2.5, -7.0, "0", "-0", "x", "y",
                                                     "ab 1", "ab 2", "zz 9", "n/a"]))


@given(st.lists(st.tuples(_order_cells, _order_cells), min_size=1, max_size=12),
       st.sampled_from(_ORDER_ROOTS), st.sampled_from(_ORDER_ROOTS),
       st.sampled_from(_BATCH_KINDS), st.data())
@example([(0.0, "x"), (-0.0, "y"), (None, "x")], "ord3", "excl", "modeinfill", None)
@example([(-0.0, "ab 1"), (0.0, "ab 2"), (2.5, None)], "nmbr", "splt", "meaninfill", None)
@example([(None, None), ("x", "0"), (None, "-0")], "or19", "mnmx", "stdrdinfill", None)
@settings(max_examples=150, deadline=None)
def test_fit_does_not_depend_on_row_order(rows, root_a, root_b, kind, data):
    """fit on any row permutation gives the same artifact bytes, and the
    encoded train rows permuted alike (or the same error); json.dumps tells
    the signed zeros apart. Every fill kind but adjinfill, which reads the
    rows in order."""
    order = list(reversed(range(len(rows)))) if data is None else data.draw(
        st.permutations(range(len(rows))))
    opts = Options(assigninfill={kind: ["a", "b"]}, assignparam={
        "global_assignparam": {"min_len": 2}, "srch": {"a": {"search": ["x", "ab"]},
                                                       "b": {"search": ["0", "Y"]}}})

    def outcome(rows):
        table = _table(a=[r[0] for r in rows], b=[r[1] for r in rows])
        try:
            encoded, artifact = pm.fit(table, {"a": root_a, "b": root_b}, opts=opts)
        except ParsemungeError as exc:
            return type(exc), str(exc)
        return pm.serialize(artifact), json.dumps(encoded.columns)

    before, after = outcome(rows), outcome([rows[i] for i in order])
    if isinstance(before[0], type):
        assert after == before
        return
    assert after[0] == before[0]
    columns = json.loads(before[1])
    assert after[1] == json.dumps([[c[i] for i in order] for c in columns])


_adjacent_cells = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 2.5, 7.0, "x", "v9", "n/a"]))


@given(st.lists(_adjacent_cells, min_size=1, max_size=12), st.lists(_adjacent_cells, max_size=10),
       st.sampled_from(["excl", "nmbr", "ord3", "onht", "nmcm"]), st.booleans())
@example([5.0, None, None], [None, None], "excl", False)  # forward fill; every row a target
@example([None, 7.0, None], [None, 7.0, None], "excl", False)  # leading targets
@example([None, 7.0, None, 2.5, None], [None, None, "x", 2.5], "nmbr", True)
@example([None, None], [None], "ord3", True)
@settings(max_examples=80, deadline=None)
def test_adjacent_infill_matches_row_by_row_reference(train, batch, root, shuffle):
    """fit and apply with adjinfill equal the infill-free output filled row by
    row; shuffle_train fills in row order first and then shuffles."""
    opts = Options(seed=4, shuffle_train=shuffle, assigninfill={"adjinfill": ["a"]})
    encoded, artifact = pm.fit(_table(a=train), {"a": root}, opts=opts)
    plain = dataclasses.replace(artifact, infill_spec={})
    rule = artifact.per_source["a"].target_rule
    narw = {h for h, b in artifact.per_source["a"].column_behaviors().items() if b.name == "NArw"}
    assert set(artifact.infill_spec) == set(encoded.headers) - narw

    def reference(col):
        out, mask = pm.apply(plain, _table(a=col)), mark_targets(Distinct(col), rule)
        return [c if h in narw else reference_adjacent_fill(c, mask)
                for h, c in zip(out.headers, out.columns)]

    order = list(range(len(train)))
    if shuffle:
        random.Random(4).shuffle(order)
    expected = [[c[i] for i in order] for c in reference(train)]
    assert json.dumps(encoded.columns) == json.dumps(expected)
    assert json.dumps(pm.apply(artifact, _table(a=batch)).columns) == json.dumps(reference(batch))


@pytest.mark.parametrize("kind", sorted(CONFIG_KIND_NAMES))
def test_narw_is_one_exactly_on_the_missing_rows_under_every_infill_kind(kind):
    """Infill never fills NArw, which records missingness: in fit, in apply,
    and in apply after a serialize/deserialize round trip. stdrdinfill stores
    no entry, and mean/median go only to the numeric column."""
    train = _table(a=[1.0, None, 3.0, None, 2.5], c=["x", None, "y", "x", None])
    test = _table(a=[None, 4.0, None, -0.0], c=["y", None, "z", None])
    encoded, artifact = pm.fit(train, {"a": "nmbr", "c": "onht"},
                               opts=Options(assigninfill={kind: ["a", "c"]}))
    filled = {"stdrdinfill": set(), "meaninfill": {"a_nmbr"}, "medianinfill": {"a_nmbr"}}
    assert set(artifact.infill_spec) == filled.get(kind, {"a_nmbr", "c_onht_x", "c_onht_y"})
    rebuilt = pm.deserialize(pm.serialize(artifact))
    for table, out in ((train, encoded), (train, pm.apply(artifact, train)),
                       (test, pm.apply(artifact, test)), (test, pm.apply(rebuilt, test))):
        for h in ("a", "c"):
            assert out.column(f"{h}_NArw") == [1.0 if v is None else 0.0 for v in table.column(h)]


def test_stored_narw_infill_entry_is_refused():
    _, artifact = pm.fit(_table(a=[1.0, None, 3.0, None]), {"a": "nmbr"},
                         opts=Options(assigninfill={"zeroinfill": ["a"]}))
    doc = json.loads(pm.serialize(artifact))
    doc["infill_spec"]["a_NArw"] = {"kind": "zero"}
    with pytest.raises(DataError, match="NArw column 'a_NArw'.*refit"):
        pm.deserialize(json.dumps(doc))


_text_cells = st.one_of(st.none(), st.text(alphabet="ab9 ,.-", min_size=1, max_size=8))
_number_cells = st.one_of(st.none(), st.sampled_from([0.0, -0.0]),
                          st.floats(allow_nan=False, allow_infinity=False))


@given(st.one_of(
    st.lists(_text_cells, min_size=1, max_size=12),
    st.lists(_number_cells, min_size=1, max_size=12),
    st.lists(st.one_of(_text_cells, _number_cells), min_size=1, max_size=12),
    st.lists(st.sampled_from(["y", "n", None, 0.0, -0.0]), min_size=1, max_size=12),
    st.lists(st.none(), min_size=1, max_size=3),
))
@settings(max_examples=80, deadline=None)
def test_every_fit_state_matches_its_schema(col):
    params = {"min_len": 2, "search": ["a", "9"]}
    for name, behavior in BEHAVIORS.items():
        try:
            state = behavior.fit(distinct_counts(col), params, "missing_only")
        except DataError:
            assert name == "bnry"  # which needs exactly two distinct entries
            continue
        check = checker(behavior.fit_schema, f"{name} fit")
        check(state)
        check(json.loads(json.dumps(state)))
        assert behavior.fit_fault(state) is None


# sha256 of the serialized artifact of _golden_artifact().
GOLDEN_ARTIFACT_SHA256 = "702043922fc4a54b897e6abad3431ecc736628725147c4a8a2a1631ca45b47da"


def _step_of(plan: dict, behavior: str) -> dict:
    """A serialized plan's first step of ``behavior``."""
    return next(step for step in plan["steps"] if step["behavior"] == behavior)


def _fit_of(plan: dict, behavior: str) -> dict:
    """The fit state of a serialized plan's first step of ``behavior``."""
    return _step_of(plan, behavior)["fit"]


def _with_top_code(step: dict, top: int) -> None:
    """Rewrite a 1010 or sp19 fit so that its highest code is ``top``; the step
    keeps its output headers, which fit 3 bits for the tests' fits."""
    assert len(step["output_headers"]) == 3
    if step["behavior"] == "1010":
        step["fit"]["entries"] = [f"e{i}" for i in range(top)]
    else:
        step["fit"]["codes"]["E"] = top


def _first_assigned(state: dict, value) -> None:
    """Set the value of a fit's first assignment entry."""
    state["assignment"][next(iter(state["assignment"]))] = value


def _plan_of(doc: dict, header: str) -> dict:
    """The serialized plan of source ``header``."""
    return next(plan for plan in doc["per_source"] if plan["header"] == header)


def _golden_table() -> TidyTable:
    text = ["chrome 62.0", "Chrome 49.0", "safari 11.0", "safari", None, "edge 17"]
    return _table(
        u=text, o=text, s1=text, s2=text, s3=text, s4=text, s5=text, s6=text, x=text,
        q=text, e=text, h=["a", "b", "c", "a", "b", None],
        b=["y", "n", "y", "n", None, "y"], m=[1.0, 2.5, None, 4.0, -3.0, 0.5],
        n=[0.25, -1.5, 3.0, None, 8.0, 1.0],
    )


def _golden_artifact():
    """A fit of _golden_table() that uses every built-in behaviour, a numeric
    and a categoric source, and infill entries."""
    roots = {"u": "or19", "o": "ord3", "s1": "splt", "s2": "sp15", "s3": "spl2",
             "s4": "spl5", "s5": "sp19", "s6": "sbst", "x": "nmcm", "q": "srch",
             "e": "excl", "h": "onht", "b": "bnry", "m": "mnmx", "n": "nmbr"}
    opts = Options(assignparam={"srch": {"q": {"search": ["chrome", "safari"]}}},
                   assigninfill={"meaninfill": ["n"], "modeinfill": ["h"]})
    return pm.fit(_golden_table(), roots, opts=opts)[1]


def _stored_keys(doc: dict) -> dict[str, tuple]:
    """Path of each key a serialized artifact stores: the top-level keys, the
    keys of a plan and of a step, the source_stats keys of a numeric and of a
    categoric source, and the fit-state keys of each behaviour."""
    plans = doc["per_source"]
    paths = {k: (k,) for k in doc}
    paths.update({f"plan.{k}": ("per_source", 0, k) for k in plans[0]})
    paths.update({f"step.{k}": ("per_source", 0, "steps", 0, k) for k in plans[0]["steps"][0]})
    for i, plan in enumerate(plans):
        stats = plan["source_stats"]
        paths.update({f"source_stats.{stats['coltype']}.{k}": ("per_source", i, "source_stats", k)
                      for k in stats})
        for j, step in enumerate(plan["steps"]):
            paths.update({f"fit.{step['behavior']}.{k}": ("per_source", i, "steps", j, "fit", k)
                          for k in step["fit"]})
    return paths


_GOLDEN_BLOB = pm.serialize(_golden_artifact())
_GOLDEN_KEYS = _stored_keys(json.loads(_GOLDEN_BLOB))


class TestSerialization:
    def test_canonical_fixed_point(self):
        _, artifact = pm.fit(_table(a=["x", "y"]), {"a": "ord3"})
        blob = pm.serialize(artifact)
        assert pm.serialize(pm.deserialize(blob)) == blob

    def test_deterministic_across_runs(self):
        table = _table(col2=ADDRESSES)
        _, a1 = pm.fit(table, {"col2": "or19"}, opts=Options(seed=5))
        _, a2 = pm.fit(table, {"col2": "or19"}, opts=Options(seed=5))
        assert pm.serialize(a1) == pm.serialize(a2)

    @pytest.mark.parametrize("table, opts, message", [
        (_table(a=["\ud800", "x"]), Options(),
         r"cannot serialize source 'a': artifact\['per_source'\]\[0\]\['steps'\]\[0\]\['fit'\]"
         r"\['entries'\]\[[01]\] holds the text '\\ud800', whose lone surrogate has no UTF-8 form"),
        (_table(**{"a": ["y", "x"], "b\udc00": ["p", "q"]}), Options(),
         r"cannot serialize source 'b\\udc00': artifact\['per_source'\]\[1\]\['header'\]"),
        (_table(**{"a": ["y", "x"], "l\udc00": ["p", "q"]}), Options(labels_column="l\udc00"),
         r"cannot serialize artifact: artifact\['labels_column'\] holds the text 'l\\udc00'"),
    ], ids=["cell", "header", "labels-column"])
    def test_lone_surrogate_raises_data_error_naming_the_source(self, table, opts, message):
        _, artifact = pm.fit(table, {"a": "ord3"}, opts=opts)
        with pytest.raises(DataError, match=message):
            pm.serialize(artifact)

    def test_version_mismatch(self):
        _, artifact = pm.fit(_table(a=["x"]), {"a": "ord3"})
        for version in (999, FORMAT_VERSION - 1):
            doc = pm.serialize(artifact).decode("utf-8").replace(
                f'"format_version":{FORMAT_VERSION}', f'"format_version":{version}')
            with pytest.raises(DataError, match=str(version)):
                pm.deserialize(doc)

    def test_format_4_artifact_refused(self):
        blob = FORMAT_4_OR19.read_bytes()
        with pytest.raises(DataError, match="format_version 4, expected 5"):
            pm.deserialize(blob)
        # Refused by the step schema as well, whatever the version says.
        with pytest.raises(DataError, match="behavior 'nmc7'"):
            pm.deserialize(blob.replace(b'"format_version":4', b'"format_version":5'))

    def test_golden_artifact(self):
        artifact = _golden_artifact()
        blob = pm.serialize(artifact)
        used = {rec.behavior for plan in artifact.per_source.values() for rec in plan.steps}
        assert used == set(BEHAVIORS)
        assert pm.serialize(pm.deserialize(blob)) == blob
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_ARTIFACT_SHA256, (
            "the serialized artifact changed: a change to the artifact format must bump "
            "FORMAT_VERSION on purpose, and then re-pin this digest")

    @pytest.mark.parametrize("path", list(_GOLDEN_KEYS.values()), ids=list(_GOLDEN_KEYS))
    def test_every_stored_key_is_required(self, path):
        doc = json.loads(_GOLDEN_BLOB)
        *parents, key = path
        node = doc
        for p in parents:
            node = node[p]
        del node[key]
        with pytest.raises(DataError):
            pm.deserialize(json.dumps(doc))

    def test_output_order_survives_round_trip(self):
        table = _table(b=["x", "y", "x"], a=[1.0, 2.0, None])
        encoded, artifact = pm.fit(table)
        assert encoded.headers[0].startswith("b_")
        rebuilt = pm.deserialize(pm.serialize(artifact))
        assert list(rebuilt.per_source) == ["b", "a"]
        assert rebuilt.output_order == artifact.output_order == encoded.headers
        assert pm.apply(rebuilt, table) == encoded

    def test_malformed_document(self):
        for data in (b"{not json", b"\xff\xfe{", b"[" * 100_000):
            with pytest.raises(DataError, match="malformed"):
                pm.deserialize(data)

    @pytest.mark.parametrize("mutate", [
        lambda doc, plan: plan["steps"][0].pop("retained"),
        lambda doc, plan: doc.update(registry_snapshot={}),
        lambda doc, plan: doc.update(per_source={plan["header"]: plan}),
        lambda doc, plan: doc["per_source"].append(plan),
        lambda doc, plan: plan.update(steps={}),
        lambda doc, plan: plan.pop("root"),
        lambda doc, plan: plan["steps"][-1].update(input_header="nowhere"),
        lambda doc, plan: doc["infill_spec"].update(ghost={"kind": "zero"}),
        lambda doc, plan: _fit_of(plan, "1010").clear(),
        lambda doc, plan: _fit_of(plan, "ord3").clear(),
        lambda doc, plan: _fit_of(plan, "nmcm").clear(),
        lambda doc, plan: _step_of(plan, "nmcm").update(behavior="nmc7"),
        lambda doc, plan: _fit_of(plan, "nmcm").update(lookup={"123 MAIN ST 94107": 94107.0}),
        lambda doc, plan: _fit_of(plan, "spl9").clear(),
        lambda doc, plan: _fit_of(plan, "sp10").clear(),
        lambda doc, plan: _fit_of(plan, "UPCS").clear(),
        lambda doc, plan: _fit_of(plan, "nmbr").update(bogus=1),
        lambda doc, plan: plan["steps"][0].update(fit=[]),
        lambda doc, plan: _with_top_code(_step_of(plan, "1010"), 2 ** 3),
        lambda doc, plan: _with_top_code(_step_of(plan, "1010"), 1),
        lambda doc, plan: _with_top_code(_step_of(_plan_of(doc, "pat"), "sp19"), 2 ** 3),
        lambda doc, plan: _plan_of(doc, "num").update(source_stats={"coltype": "numeric"}),
        lambda doc, plan: plan["source_stats"].update(top=[["a"]]),
        lambda doc, plan: plan["source_stats"].update(top=[["a", "1"]]),
        lambda doc, plan: plan["source_stats"].update(top={"a": 1}),
        lambda doc, plan: plan["source_stats"].update(uniques=["a", 1.0]),
        lambda doc, plan: doc["infill_spec"].update(col2_NArw="mean"),
        lambda doc, plan: doc["infill_spec"].update(col2_NArw={"kind": "?"}),
        lambda doc, plan: doc["infill_spec"].update(col2_NArw={"kind": "default"}),
        lambda doc, plan: _first_assigned(_fit_of(_plan_of(doc, "spl"), "splt"), 5),
        lambda doc, plan: _fit_of(_plan_of(doc, "q"), "srch")["groups"].pop(),
        lambda doc, plan: _fit_of(_plan_of(doc, "q"), "srch")["groups"].append(["Pine"]),
        lambda doc, plan: _fit_of(_plan_of(doc, "pat"), "sp19")["codes"].update(E=-1),
        lambda doc, plan: _fit_of(_plan_of(doc, "pat"), "sp19")["codes"].update(E=0),
        lambda doc, plan: doc["infill_spec"].update(num_nmbr={"kind": "mean", "value": "zz"}),
        lambda doc, plan: doc["infill_spec"].update(num_nmbr={"kind": "median", "value": "zz"}),
        lambda doc, plan: doc["infill_spec"].update(col2_UPCS_1010_0={"kind": "mean", "value": 0.5}),
        lambda doc, plan: doc["infill_spec"].update(col2_UPCS_1010_0={"kind": "median"}),
        lambda doc, plan: doc["infill_spec"].update(col2_NArw={"kind": "mode", "value": [1.0]}),
        lambda doc, plan: doc["infill_spec"].update(num_nmbr={"kind": "zero", "value": 0.0}),
        lambda doc, plan: doc["infill_spec"].update(num_nmbr={"kind": "one", "value": 1.0}),
        lambda doc, plan: doc["infill_spec"].update(num_nmbr={"kind": "negzero", "value": 0.0}),
        lambda doc, plan: doc["infill_spec"].update(num_nmbr={"kind": "adjacent", "value": 1.0}),
        lambda doc, plan: doc["infill_spec"].update(num_NArw={"kind": "zero"}),
    ], ids=["step-without-retained", "unknown-top-level-key", "per-source-not-a-list",
            "duplicate-plan-header", "steps-not-a-list", "plan-without-root",
            "unproduced-input-header", "unproduced-output", "empty-1010-fit",
            "empty-ord3-fit", "empty-nmcm-fit", "nmc7-behavior", "nmcm-fit-with-lookup",
            "empty-spl9-fit", "empty-sp10-fit",
            "empty-UPCS-fit", "unknown-fit-key", "fit-not-an-object",
            "1010-entries-above-headers", "1010-entries-below-headers",
            "sp19-codes-above-headers", "numeric-source-stats-without-moments",
            "top-not-pairs", "top-count-not-int", "top-not-a-list", "uniques-not-text",
            "infill-spec-entry-not-an-object", "infill-spec-unknown-kind",
            "infill-spec-default-kind", "splt-assignment-not-text",
            "srch-fewer-groups-than-labels", "srch-more-groups-than-labels",
            "sp19-code-negative", "sp19-code-zero", "mean-value-text", "median-value-text",
            "mean-on-boolean-column", "median-on-boolean-column", "mode-value-a-list",
            "zero-with-value", "one-with-value", "negzero-with-value", "adjacent-with-value",
            "infill-spec-fills-NArw"])
    def test_malformed_artifact_raises_data_error(self, mutate):
        table = _table(col2=ADDRESSES, num=[1.0, 2.5, None, 4.0, 0.5], pat=ADDRESSES,
                       spl=ADDRESSES, q=ADDRESSES)
        opts = Options(assignparam={"srch": {"q": {"search": ["Main", "Oak"]}}})
        _, artifact = pm.fit(table, {"col2": "or19", "num": "nmbr", "pat": "sp19", "spl": "splt",
                                     "q": "srch"}, opts=opts)
        doc = json.loads(pm.serialize(artifact))
        mutate(doc, _plan_of(doc, "col2"))
        with pytest.raises(DataError):
            pm.deserialize(json.dumps(doc))

    @pytest.mark.parametrize("cells, root, column", [
        ([1.0, None, 3.0], "nmbr", "a_nmbr"),
        (["x", "y", None, "x"], "onht", "a_onht_y"),
    ], ids=["numeric-column", "boolean-column"])
    def test_text_mode_value_on_a_float_column_is_refused(self, cells, root, column):
        """Numeric and boolean columns hold floats, so fit gives them a float
        mode; a text one would put text in the encoded column at apply."""
        opts = Options(assigninfill={"modeinfill": ["a"]})
        _, artifact = pm.fit(_table(a=cells), {"a": root}, opts=opts)
        doc = json.loads(pm.serialize(artifact))
        doc["infill_spec"][column] = {"kind": "mode", "value": "zz"}
        with pytest.raises(DataError, match=f"column '{column}', which holds floats"):
            pm.deserialize(json.dumps(doc))

    @pytest.mark.parametrize("source, step, name, message", [
        ("a", "NArw", "a", "'NArw' of source 'a' names the output 'a', which the source"),
        ("a", "NArw", "a_ord3", "'NArw' of source 'a' names the output 'a_ord3', which the"),
        ("b", "ord3", "a_ord3", "'ord3' of source 'b' names the output 'a_ord3', which the"),
    ], ids=["output-names-its-source", "output-names-an-earlier-output",
            "output-named-by-two-sources"])
    def test_colliding_output_headers_rejected(self, source, step, name, message):
        table = _table(a=["x", "y", None], b=["p", "q", "r"])
        _, artifact = pm.fit(table, {"a": "ord3", "b": "ord3"})
        doc = json.loads(pm.serialize(artifact))
        _step_of(_plan_of(doc, source), step)["output_headers"] = [name]
        with pytest.raises(DataError, match=message):
            pm.deserialize(json.dumps(doc))

    def test_retyped_values_raise_only_parsemunge_errors(self):
        """Every stored value of the golden artifact, swapped in turn for each
        probe value of another JSON type: deserialize, apply, invert and
        drift_report may raise only ParsemungeError."""
        table, doc = _golden_table(), json.loads(_GOLDEN_BLOB)
        encoded = pm.apply(pm.deserialize(_GOLDEN_BLOB), table)
        escapes, count = [], 0
        for path, probe in retyped(doc):
            count += 1
            blob = json.dumps(doc)
            try:
                artifact = pm.deserialize(blob)
                pm.apply(artifact, table)
                pm.invert(artifact, encoded)
                pm.drift_report(artifact, table)
            except ParsemungeError:
                pass
            except Exception as exc:  # noqa: BLE001 - every other escape is the failure
                escapes.append(f"{path} = {probe!r}: {type(exc).__name__}: {exc}")
        assert count == 7209  # the golden artifact is pinned, so is its mutation count
        assert not escapes, f"{len(escapes)} of {count} escaped, first: {escapes[:5]}"

    def test_apply_after_round_trip(self):
        table = _table(col2=ADDRESSES)
        encoded, artifact = pm.fit(table, {"col2": "or19"})
        rebuilt = pm.deserialize(pm.serialize(artifact))
        assert pm.apply(rebuilt, table) == encoded

    def test_round_trip_with_params_and_infill(self):
        opts = Options(
            assignparam={"splt": {"a": {"min_len": 2}}},
            assigninfill={"meaninfill": ["b"]},
        )
        table = _table(a=["abq", "abr", None], b=[1.0, None, 3.0])
        encoded, artifact = pm.fit(table, {"a": "splt", "b": "nmbr"}, opts=opts)
        rebuilt = pm.deserialize(pm.serialize(artifact))
        assert pm.apply(rebuilt, table) == encoded
        assert rebuilt.infill_spec == artifact.infill_spec
        assert list(rebuilt.infill_spec) == ["b_nmbr"]
        assert rebuilt.infill_spec["b_nmbr"]["kind"] == "mean"


class TestInvert:
    @pytest.mark.parametrize("root", ["ord3", "onht", "1010"])
    def test_categoric_round_trip(self, root):
        col = ["b", "a", "b", None, "c"]
        table = _table(a=col)
        encoded, artifact = pm.fit(table, {"a": root})
        recovered, failed = pm.invert(artifact, encoded)
        assert failed == []
        assert recovered.column("a") == col

    def test_bnry_round_trip(self):
        col = ["y", "n", "y", None]
        encoded, artifact = pm.fit(_table(a=col), {"a": "bnry"})
        recovered, _ = pm.invert(artifact, encoded)
        assert recovered.column("a") == col

    def test_or19_recovers_uppercase(self):
        col = ["usa", "Usa", "USA", None]
        encoded, artifact = pm.fit(_table(a=col), {"a": "or19"})
        recovered, failed = pm.invert(artifact, encoded)
        assert failed == []
        assert recovered.column("a") == ["USA", "USA", "USA", None]

    def test_nmbr_round_trip(self):
        col = [1.0, 2.0, 4.0]
        encoded, artifact = pm.fit(_table(a=col), {"a": "nmbr"})
        recovered, _ = pm.invert(artifact, encoded)
        assert recovered.column("a") == pytest.approx(col)

    @pytest.mark.parametrize("root", ["splt", "spl2"])  # spl2: ord3 codes its lossy output
    def test_lossy_paths_not_invertible(self, root):
        col = ["chrome 62.0", "chrome 49.0"]
        encoded, artifact = pm.fit(_table(a=col), {"a": root})
        recovered, failed = pm.invert(artifact, encoded)
        assert failed == ["a"]
        assert recovered.headers == []

    def test_requested_non_invertible_raises(self):
        col = ["chrome 62.0", "chrome 49.0"]
        encoded, artifact = pm.fit(_table(a=col), {"a": "splt"})
        with pytest.raises(DataError, match="a"):
            pm.invert(artifact, encoded, sources=["a"])

    def test_invalid_1010_pattern(self):
        # width 3 with only 4 entries: pattern 111 (code 7) is out of range
        bad4 = _table(a=["w", "x", "y", "z"])
        enc4, art4 = pm.fit(bad4, {"a": "1010"})
        cols = {h: list(enc4.column(h)) for h in enc4.headers}
        for h in enc4.headers:
            if h.startswith("a_1010"):
                cols[h][0] = 1.0  # pattern 111 = code 7 > 4 entries
        broken = TidyTable(headers=list(cols), columns=[cols[h] for h in cols])
        with pytest.raises(DataError, match="pattern"):
            pm.invert(art4, broken)

    def test_fractional_ord3_code_raises(self):
        encoded, artifact = pm.fit(_table(a=["x", "y", "x"]), {"a": "ord3"})
        broken = _table(a_ord3=[1.0, 2.5, 1.0], a_NArw=[0.0, 0.0, 0.0])
        with pytest.raises(DataError, match=r"'a'.*'ord3'.*\['a_ord3'\].*pattern \[2.5\]"):
            pm.invert(artifact, broken)

    def test_missing_cell_where_narw_is_0_raises(self):
        encoded, artifact = pm.fit(_table(a=[1.0, 2.0, None]), {"a": "nmbr"})
        assert encoded.column("a_NArw") == [0.0, 0.0, 1.0]
        assert pm.invert(artifact, _table(a_nmbr=[0.5, None, None],
                                          a_NArw=[0.0, 1.0, 1.0]))[0].column("a")[1:] == [None] * 2
        with pytest.raises(DataError, match="pattern"):
            pm.invert(artifact, _table(a_nmbr=[0.5, None, None], a_NArw=[0.0, 0.0, 1.0]))

    def test_onht_without_entries_inverts_to_missing(self):
        encoded, artifact = pm.fit(_table(a=[None, None], b=["x", "y"]), {"a": "onht"})
        assert [h for h in encoded.headers if h.startswith("a_")] == ["a_NArw"]
        narw_off = _table(**{h: [0.0, 0.0] if h == "a_NArw" else encoded.column(h)
                             for h in encoded.headers})
        for table in (encoded, narw_off):
            assert pm.invert(artifact, table, ["a"])[0].column("a") == [None, None]

    def test_malformed_cells_raise_only_data_error(self):
        """Each cell of an encoded table of seven roots, swapped in turn for
        each probe value: invert returns or raises DataError."""
        roots = {"a": "ord3", "b": "onht", "c": "1010", "d": "or19", "e": "nmbr",
                 "f": "mnmx", "g": "bnry"}
        table = _table(a=["x", "y", "x", None, "z"], b=["p", "q", "r", "p", None],
                       c=["u", "v", "w", "u", "t"], d=["ab12", "ab13", "cd12", None, "AB12"],
                       e=[1.0, 2.5, None, -4.0, 3.0], f=[0.0, 10.0, 5.0, None, 2.0],
                       g=["yes", "no", "yes", None, "no"])
        encoded, artifact = pm.fit(table, roots)
        recovered, failed = pm.invert(artifact, encoded)
        assert failed == [] and recovered.column("c") == table.column("c")
        escapes, count = [], 0
        for j, header in enumerate(encoded.headers):
            for r in range(encoded.row_count):
                for probe in ("junk", "", "1", None, 0.5, 2.5, -1.0, 99.0, float("nan")):
                    columns = list(encoded.columns)
                    columns[j] = columns[j][:r] + [probe] + columns[j][r + 1:]
                    count += 1
                    try:
                        pm.invert(artifact, TidyTable(encoded.headers, columns))
                    except DataError:
                        pass
                    except Exception as exc:  # noqa: BLE001 - every other escape is the failure
                        escapes.append(f"{header}[{r}] = {probe!r}: {type(exc).__name__}: {exc}")
        assert count == 990
        assert not escapes, f"{len(escapes)} of {count} escaped, first: {escapes[:5]}"

    def test_preference_order_prefers_1010(self):
        # or19 retains both a 1010 branch and ord3 branches; inversion should
        # decode the full-information 1010 path even if ord3 columns are noisy
        col = ["aa", "bb", "aa"]
        encoded, artifact = pm.fit(_table(a=col), {"a": "or19"})
        tampered_cols = []
        for h in encoded.headers:
            values = list(encoded.column(h))
            if "ord3" in h:
                values = [0.0 for _ in values]
            tampered_cols.append(values)
        tampered = TidyTable(headers=encoded.headers, columns=tampered_cols)
        recovered, _ = pm.invert(artifact, tampered)
        assert recovered.column("a") == ["AA", "BB", "AA"]


class TestDrift:
    def test_identity_zero_deltas(self):
        table = _table(num=[1.0, 2.0, 3.0], cat=["a", "b", "a"])
        _, artifact = pm.fit(table)
        report = pm.drift_report(artifact, table)
        assert report.per_source["num"]["deltas"]["mean"] == 0.0
        assert report.per_source["num"]["deltas"]["std"] == 0.0
        assert report.per_source["cat"]["unseen_rate"] == 0.0

    def test_shifted_numeric(self):
        table = _table(num=[1.0, 2.0, 3.0])
        _, artifact = pm.fit(table)
        shifted = _table(num=[2.0, 3.0, 4.0])
        report = pm.drift_report(artifact, shifted)
        assert report.per_source["num"]["deltas"]["mean"] == pytest.approx(1.0, abs=1e-9)

    def test_numeric_source_turned_text_is_a_type_change(self):
        _, artifact = pm.fit(_table(num=[1.0, 2.0, 3.0]))
        report = pm.drift_report(artifact, _table(num=["x", "y", 5.0]))
        assert report.per_source["num"] == {
            "kind": "type_change", "train_coltype": "numeric",
            "new_coltype": "categoric", "new_total": 3}
        report = pm.drift_report(artifact, _table(num=[None, None]))
        assert report.per_source["num"]["new_coltype"] == "all-missing"

    def test_disjoint_categoric(self):
        table = _table(cat=["a", "b", "a", "c"])
        _, artifact = pm.fit(table)
        report = pm.drift_report(artifact, _table(cat=["q", "r"]))
        assert report.per_source["cat"]["unseen_rate"] == 1.0


    def test_signed_zeros_count_as_one_value(self):
        _, artifact = pm.fit(_table(cat=["a", -0.0, "b", 0.0, 0.0]), {"cat": "ord3"})
        stats = artifact.per_source["cat"].source_stats
        assert stats["uniques"] == ["0", "a", "b"]
        assert stats["top"] == [["0", 3], ["a", 1], ["b", 1]]
        report = pm.drift_report(artifact, _table(cat=[-0.0, "a", 0.0]))
        assert report.per_source["cat"]["top"]["0"]["new"] == pytest.approx(2 / 3)
        _, artifact = pm.fit(_table(cat=["a", 0.0, "b", 0.0]), {"cat": "ord3"})
        report = pm.drift_report(artifact, _table(cat=[-0.0, "a"]))
        assert report.per_source["cat"]["unseen_rate"] == 0.0


class TestInfillIntegration:
    def test_zero_infill(self):
        opts = Options(assigninfill={"zeroinfill": ["a"]})
        table = _table(a=[1.0, None, 3.0])
        encoded, _ = pm.fit(table, {"a": "excl"}, opts=opts)
        assert encoded.column("a_excl") == [1.0, 0.0, 3.0]

    def test_mean_infill_uses_train_stats_at_apply(self):
        opts = Options(assigninfill={"meaninfill": ["a"]})
        train = _table(a=[0.0, 10.0, None])
        encoded, artifact = pm.fit(train, {"a": "mnmx"}, opts=opts)
        assert encoded.column("a_mnmx") == [0.0, 1.0, 0.5]
        out = pm.apply(artifact, _table(a=[None, 100.0, None]))
        # fill value stays the train-basis mean of the encoded column (0.5)
        assert out.column("a_mnmx") == [0.5, 10.0, 0.5]

    def test_adjacent_infill(self):
        opts = Options(assigninfill={"adjinfill": ["a"]})
        table = _table(a=["x", None, None, "y"])
        encoded, _ = pm.fit(table, {"a": "ord3"}, opts=opts)
        assert encoded.column("a_ord3") == [1.0, 1.0, 1.0, 2.0]

    def test_mean_skipped_on_categoric_outputs(self):
        opts = Options(assigninfill={"meaninfill": ["a"]})
        table = _table(a=["x", None, "y"])
        encoded, artifact = pm.fit(table, {"a": "ord3"}, opts=opts)
        # ord3 is categoric-output: the reserved code stays in place
        assert encoded.column("a_ord3")[1] == 0.0
        assert "a_ord3" not in artifact.infill_spec

    def test_mode_infill_on_ord3(self):
        opts = Options(assigninfill={"modeinfill": ["a"]})
        table = _table(a=["x", None, "x", "y"])
        encoded, _ = pm.fit(table, {"a": "ord3"}, opts=opts)
        assert encoded.column("a_ord3") == [1.0, 1.0, 1.0, 2.0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="fancy"):
            pm.fit(_table(a=["x"]), {"a": "ord3"},
                   opts=Options(assigninfill={"fancy": ["a"]}))

    def test_unknown_column_rejected(self):
        with pytest.raises(ConfigError, match="zz"):
            pm.fit(_table(a=["x"]), {"a": "ord3"},
                   opts=Options(assigninfill={"zeroinfill": ["zz"]}))
