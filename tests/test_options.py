"""Option and per-column parameter plumbing through the engine."""

import dataclasses

import pytest

import parsemunge as pm
from parsemunge.errors import ConfigError, DataError
from parsemunge.tidytable import TidyTable
from parsemunge.treeengine import OPTIONS_SPEC, Options

from .helpers import retyped


def _table(**cols) -> TidyTable:
    return TidyTable(headers=list(cols), columns=[list(v) for v in cols.values()])


class TestOptionRouting:
    def test_threshold_routes_high_cardinality_to_ord3(self):
        col = [f"e{i}" for i in range(10)]
        table = _table(a=col)
        _, low = pm.fit(table, opts=Options(threshold=5))
        _, high = pm.fit(table, opts=Options(threshold=50))
        assert low.per_source["a"].root == "ord3"
        assert high.per_source["a"].root == "1010"


class TestAssignparam:
    def test_upcs_disable(self):
        opts = Options(assignparam={"UPCS": {"col2": {"enabled": False}}})
        table = _table(col2=["usa", "Usa"])
        encoded, _ = pm.fit(table, {"col2": "or19"}, opts=opts)
        # with the uppercase step off, case variants stay distinct entries
        b1 = [encoded.column(h) for h in encoded.headers if "1010" in h]
        patterns = {tuple(col[i] for col in b1) for i in range(2)}
        assert len(patterns) == 2

    def test_upcs_enabled_consolidates(self):
        table = _table(col2=["usa", "Usa"])
        encoded, _ = pm.fit(table, {"col2": "or19"})
        b1 = [encoded.column(h) for h in encoded.headers if "1010" in h]
        patterns = {tuple(col[i] for col in b1) for i in range(2)}
        assert len(patterns) == 1

    def test_splt_space_and_punctuation_false(self):
        opts = Options(assignparam={
            "splt": {"col1": {"space_and_punctuation": False, "min_len": 2}}
        })
        table = _table(col1=["ab cd", "ab ce", "zz cd"])
        encoded, artifact = pm.fit(table, {"col1": "splt"}, opts=opts)
        state = artifact.per_source["col1"].steps[0].fit
        assert all(" " not in o for o in state["overlaps"])

    def test_spl5_plug_param(self):
        opts = Options(assignparam={"spl5": {"c": {"plug": "other", "min_len": 5}}})
        table = _table(c=["chrome 62.0", "chrome 49.0", "safari"])
        _, artifact = pm.fit(table, {"c": "spl5"}, opts=opts)
        assert artifact.per_source["c"].steps[0].fit["plug"] == "other"

    def test_min_len_override(self):
        table = _table(c=["abq", "abr"])
        opts = Options(assignparam={"splt": {"c": {"min_len": 2}}})
        _, artifact = pm.fit(table, {"c": "splt"}, opts=opts)
        assert artifact.per_source["c"].steps[0].fit["overlaps"] == ["ab"]

    def test_srch_root_with_terms(self):
        opts = Options(assignparam={
            "srch": {"ua": {"search": ["mac", "chrome"]}}
        })
        table = _table(ua=["Mac OS X 10_7_5", "chrome 62.0", "lynx"])
        encoded, _ = pm.fit(table, {"ua": "srch"}, opts=opts)
        assert encoded.column("ua_srch_mac") == [1.0, 0.0, 0.0]
        assert encoded.column("ua_srch_chrome") == [0.0, 1.0, 0.0]

    def test_srch_ordinal_mode(self):
        opts = Options(assignparam={
            "srch": {"ua": {"search": ["mac", "chrome"], "ordinal": True}}
        })
        table = _table(ua=["Mac OS X", "chrome 62.0", "lynx"])
        encoded, _ = pm.fit(table, {"ua": "srch"}, opts=opts)
        assert encoded.column("ua_srch") == [1.0, 2.0, 0.0]

    def test_default_assignparam_layer(self):
        opts = Options(assignparam={
            "default_assignparam": {"splt": {"min_len": 2}},
        })
        table = _table(c=["abq", "abr"])
        _, artifact = pm.fit(table, {"c": "splt"}, opts=opts)
        assert artifact.per_source["c"].steps[0].fit["overlaps"] == ["ab"]

    def test_column_layer_overrides_default(self):
        opts = Options(assignparam={
            "default_assignparam": {"splt": {"min_len": 2}},
            "splt": {"c": {"min_len": 3}},
        })
        table = _table(c=["abq", "abr"])
        _, artifact = pm.fit(table, {"c": "splt"}, opts=opts)
        assert artifact.per_source["c"].steps[0].fit["overlaps"] == []

    @pytest.mark.parametrize("assignparam, where", [
        ({"splt": {"c": {"min_len": 2.0}}}, r"\['splt'\]\['c'\]\['min_len'\] must be an integer"),
        ({"default_assignparam": {"splt": {"plug": "p"}}},
         r"\['default_assignparam'\]\['splt'\] must be an object with keys"),
        ({"global_assignparam": {"min_len": "2"}},
         r"\['global_assignparam'\]\['min_len'\] must be an integer"),
        ({"splt": ["c"]}, r"assignparam\['splt'\] must be an object"),
    ])
    def test_mistyped_parameter_is_a_config_error(self, assignparam, where):
        with pytest.raises(ConfigError, match=where):
            pm.fit(_table(c=["abq", "abr"]), {"c": "splt"}, opts=Options(assignparam=assignparam))

    def test_global_keys_reach_only_the_behaviours_that_declare_them(self):
        opts = Options(assignparam={"global_assignparam": {"min_len": 2, "plug": 5}})
        _, artifact = pm.fit(_table(c=["abq", "abr"]), {"c": "splt"}, opts=opts)
        assert artifact.per_source["c"].steps[0].fit["overlaps"] == ["ab"]


class TestDeclaredInputs:
    def test_every_option_field_is_declared(self):
        assert set(OPTIONS_SPEC) == {f.name for f in dataclasses.fields(Options)}

    @pytest.mark.parametrize("assignments, options, where", [
        ({"c": ["splt"]}, {}, r"^assignments\['c'\] must be text, not a list"),
        ({}, {"assigninfill": {"meaninfill": 5}},
         r"^assigninfill\['meaninfill'\] must be a list, not an integer"),
        ({}, {"assigninfill": {"meaninfill": "n"}},
         r"^assigninfill\['meaninfill'\] must be a list, not text"),
        ({}, {"assigninfill": {"mean": ["n"]}}, r"^assigninfill must be an object with keys"),
        ({}, {"threshold": "x"}, r"^threshold must be an integer, not text"),
        ({}, {"seed": "x", "shuffle_train": True}, r"^seed must be an integer, not text"),
        ({}, {"labels_column": 5}, r"^labels_column must be text or null"),
        ({}, {"shuffle_train": 1}, r"^shuffle_train must be a boolean"),
        ({}, {"assignparam": None}, r"^assignparam must be an object, not null"),
    ])
    def test_mistyped_input_is_a_config_error(self, assignments, options, where):
        table = _table(c=["abq", "abr"], n=[1.0, None])
        with pytest.raises(ConfigError, match=where):
            pm.fit(table, assignments, opts=Options(**options))

    def test_retyped_inputs_raise_only_parsemunge_errors(self):
        """Every value of a fit call that sets every Options field, swapped in
        turn for each probe value of another JSON type: fit returns or raises
        ConfigError or DataError."""
        table = _table(c=["abq", "abr", "abq", None], d=["x", "y", "z", "x"],
                       n=[1.0, None, 3.0, 2.0], y=["p", "q", "p", "q"])
        doc = {
            "assignments": {"c": "splt"},
            "options": {
                "threshold": 2, "seed": 7, "labels_column": "y", "shuffle_train": True,
                "assignparam": {"global_assignparam": {"min_len": 2},
                                "default_assignparam": {"splt": {"min_len": 2}},
                                "splt": {"c": {"space_and_punctuation": False}}},
                "assigninfill": {"zeroinfill": ["n"], "modeinfill": ["d"]},
            },
        }
        pm.fit(table, doc["assignments"], opts=Options(**doc["options"]))
        escapes, count = [], 0
        for path, probe in retyped(doc):
            if path == ("options",):
                continue  # Options(**probe) itself is no fit call
            count += 1
            try:
                pm.fit(table, doc["assignments"], opts=Options(**doc["options"]))
            except (ConfigError, DataError):
                pass
            except Exception as exc:  # noqa: BLE001 - every other escape is the failure
                escapes.append(f"{path} = {probe!r}: {type(exc).__name__}: {exc}")
        assert not escapes, f"{len(escapes)} of {count} escaped, first: {escapes[:5]}"
