import time

import pytest

import parsemunge as pm
from parsemunge.errors import ConfigError
from parsemunge.registry import (
    ALL_SLOTS,
    BEHAVIORS,
    DOWNSTREAM_SLOTS,
    MAX_DEPTH,
    PRIMITIVE_SEMANTICS,
    UPSTREAM_SLOTS,
    Registry,
    builtin_registry,
    merge_overrides,
    validate_registry,
)
from parsemunge.tidytable import TidyTable

from .helpers import retyped

REQUIRED_KEYS = [
    "ord3", "onht", "bnry", "1010", "nmbr", "mnmx", "NArw", "UPCS", "excl",
    "splt", "sp15", "spl2", "spl5", "sp19", "sbst", "spl9", "sp10",
    "srch", "nmcm", "nmc7", "or19", "or20", "nmc8",
]


class TestBuiltins:
    def test_required_keys_present(self):
        reg = builtin_registry()
        for key in REQUIRED_KEYS:
            assert reg.has(key), key

    def test_text_alias(self):
        reg = builtin_registry()
        assert reg.entry("text").behavior.name == "onht"

    def test_or19_tree(self):
        reg = builtin_registry()
        tree = reg.tree("or19")
        assert tree.parents == ("UPCS",)
        assert tree.cousins == ("NArw",)

    def test_upcs_branches(self):
        tree = builtin_registry().tree("UPCS")
        assert tree.children == ("1010", "nmc8", "spl9")

    def test_nmc8_defaults(self):
        reg = builtin_registry()
        assert reg.tree("nmc8").children == ("nmbr",)
        assert reg.entry("nmc8").suffix == reg.entry("nmc7").suffix == "nmc7"
        assert reg.entry("nmc8").behavior is reg.entry("nmc7").behavior is BEHAVIORS["nmcm"]

    def test_spl9_chain(self):
        reg = builtin_registry()
        assert reg.tree("spl9").children == ("ord3", "sp10")
        assert reg.tree("sp10").children == ("ord3",)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="zzzz"):
            builtin_registry().tree("zzzz")

    def test_builtins_validate_clean(self):
        assert validate_registry(builtin_registry()) == []

    def test_snapshot_round_trip(self):
        reg = builtin_registry()
        snap = reg.snapshot()
        # the snapshot holds all the override path needs to rebuild the registry
        rebuilt = merge_overrides(Registry(aliases=snap["aliases"]), snap["trees"], snap["entries"])
        assert rebuilt.snapshot() == snap


class TestPrimitiveSemantics:
    def test_total_over_slots(self):
        assert set(PRIMITIVE_SEMANTICS) == set(ALL_SLOTS)
        assert len(ALL_SLOTS) == 8

    def test_upstream_downstream_pairing(self):
        for up, down in zip(UPSTREAM_SLOTS, DOWNSTREAM_SLOTS):
            assert PRIMITIVE_SEMANTICS[up] == PRIMITIVE_SEMANTICS[down]

    def test_assignments(self):
        assert PRIMITIVE_SEMANTICS["parents"] == (True, False)
        assert PRIMITIVE_SEMANTICS["siblings"] == (True, True)
        assert PRIMITIVE_SEMANTICS["auntsuncles"] == (False, False)
        assert PRIMITIVE_SEMANTICS["cousins"] == (False, True)


class TestMergeOverrides:
    def test_empty_overrides_identity(self):
        base = builtin_registry()
        merged = merge_overrides(base)
        assert merged.snapshot() == base.snapshot()

    def test_idempotent(self):
        trees = {"nmc8": {"parents": ["nmc8"], "cousins": ["NArw"], "children": ["ord3"]}}
        once = merge_overrides(builtin_registry(), trees=trees)
        twice = merge_overrides(once, trees=trees)
        assert once.snapshot() == twice.snapshot()

    def test_nmc8_children_override(self):
        trees = {"nmc8": {"parents": ["nmc8"], "cousins": ["NArw"], "children": ["ord3"]}}
        merged = merge_overrides(builtin_registry(), trees=trees)
        assert merged.tree("nmc8").children == ("ord3",)
        # untouched built-ins stay put
        assert merged.tree("UPCS").children == ("1010", "nmc8", "spl9")

    def test_dangling_reference(self):
        with pytest.raises(ConfigError, match="qqqq"):
            merge_overrides(builtin_registry(),
                            trees={"ord3": {"parents": ["qqqq"]}})

    def test_tree_without_entry(self):
        with pytest.raises(ConfigError, match="wxyz"):
            merge_overrides(builtin_registry(),
                            trees={"wxyz": {"parents": ["ord3"]}})

    def test_unknown_behavior(self):
        with pytest.raises(ConfigError, match="nope"):
            merge_overrides(builtin_registry(),
                            entries={"wxyz": {"behavior": "nope"}})
        # nmc7 is a category whose behaviour is nmcm, and no behaviour of its own.
        with pytest.raises(ConfigError, match="unknown behavior 'nmc7'"):
            merge_overrides(builtin_registry(), entries={"wxyz": {"behavior": "nmc7"}})

    def test_entry_spec_accepts_behavior_and_suffix_only(self):
        with pytest.raises(ConfigError, match="default_infill"):
            merge_overrides(builtin_registry(),
                            entries={"wxyz": {"behavior": "ord3", "default_infill": "mean"}})
        with pytest.raises(ConfigError, match="must be an object"):
            merge_overrides(builtin_registry(), entries={"wxyz": "ord3"})
        with pytest.raises(ConfigError, match="must be an object"):
            merge_overrides(builtin_registry(), trees={"ord3": ["parents"]})

    @pytest.mark.parametrize("trees, entries, where", [
        ({"ord3": {"parents": 5}}, None,
         r"^transformdict\['ord3'\]\['parents'\] must be a list, not an integer"),
        ({"ord3": {"parents": "ord3"}}, None,
         r"^transformdict\['ord3'\]\['parents'\] must be a list, not text"),
        ({"ord3": {"parents": ["ord3"], "uncles": []}}, None, r"^transformdict\['ord3'\] must be"),
        (None, {"zz": {"behavior": "ord3", "suffix": 5}},
         r"^processdict\['zz'\]\['suffix'\] must be text, not an integer"),
        (None, {"zz": {"behavior": ["ord3"]}},
         r"^processdict\['zz'\]\['behavior'\] must be text, not a list"),
        ([], None, r"^transformdict must be an object, not a list"),
    ])
    def test_mistyped_override_is_a_config_error(self, trees, entries, where):
        with pytest.raises(ConfigError, match=where):
            merge_overrides(builtin_registry(), trees, entries)

    def test_retyped_overrides_raise_only_config_errors(self):
        """Every value of an override pair that fills every slot and entry
        key, swapped in turn for each probe value of another JSON type:
        merge_overrides returns or raises ConfigError."""
        doc = {
            "trees": {"mytr": {"parents": ["mytr"], "siblings": ["ord3"], "auntsuncles": ["onht"],
                               "cousins": ["NArw"], "children": ["ord3"],
                               "niecesnephews": ["nmbr"], "coworkers": ["bnry"],
                               "friends": ["1010"]}},
            "entries": {"mytr": {"behavior": "UPCS", "suffix": "my"}},
        }
        merge_overrides(builtin_registry(), **doc)
        escapes, count = [], 0
        for path, probe in retyped(doc):
            count += 1
            try:
                merge_overrides(builtin_registry(), **doc)
            except ConfigError:
                pass
            except Exception as exc:  # noqa: BLE001 - every other escape is the failure
                escapes.append(f"{path} = {probe!r}: {type(exc).__name__}: {exc}")
        assert not escapes, f"{len(escapes)} of {count} escaped, first: {escapes[:5]}"

    def test_new_category_with_entry(self):
        merged = merge_overrides(
            builtin_registry(),
            trees={"mytr": {"parents": ["mytr"], "cousins": ["NArw"]}},
            entries={"mytr": {"behavior": "ord3"}},
        )
        assert merged.entry("mytr").suffix == "ord3"


class TestValidate:
    def test_cycle_diagnostic(self):
        base = builtin_registry()
        crafted = Registry(
            trees=dict(base.trees), entries=dict(base.entries), aliases=dict(base.aliases)
        )
        from parsemunge.registry import FamilyTree, _entry_from_spec
        crafted.trees["loop"] = FamilyTree(parents=("loop",), children=("loop",))
        crafted.entries["loop"] = _entry_from_spec("loop", {"behavior": "ord3"})
        diagnostics = validate_registry(crafted)
        assert any("max depth 16" in d and "loop" in d for d in diagnostics)

    @pytest.mark.parametrize("length", range(14, 19))
    def test_merge_accepts_exactly_the_chains_fit_runs(self, length):
        """c1 -> c2 -> ... -> c<length> through children: assigned as a root,
        c1's root generation has depth 1 and c<k>'s children generation k + 1,
        so the deepest generation has depth ``length``."""
        trees = {f"c{i}": {"children": [f"c{i + 1}"]} for i in range(1, length)}
        trees["c1"]["parents"] = ["c1"]
        trees[f"c{length}"] = {}
        entries = dict.fromkeys(trees, {"behavior": "UPCS"})
        try:
            merge_overrides(builtin_registry(), trees, entries)
            accepted = True
        except ConfigError:
            accepted = False
        assert accepted == (length <= MAX_DEPTH)
        # fit on the same registry, unvalidated, runs exactly when it is accepted.
        from parsemunge.registry import _entry_from_spec, _tree_from_spec
        base = builtin_registry()
        unchecked = Registry(
            trees={**base.trees, **{k: _tree_from_spec(k, v) for k, v in trees.items()}},
            entries={**base.entries, **{k: _entry_from_spec(k, v) for k, v in entries.items()}},
        )
        try:
            encoded, _ = pm.fit(TidyTable(["a"], [["x", "y"]]), {"a": "c1"}, unchecked)
            assert encoded.headers == ["a" + "_UPCS" * length]
            ran = True
        except ConfigError:
            ran = False
        assert ran == accepted

    def test_layered_registry_validates_in_linear_time(self):
        """14 layers of 3 categories, each listing all of the next layer's as
        children: 3**13 paths from each root. The depth check answers each
        (category, slots, depth) once, so this takes milliseconds, where
        walking every path took seconds."""
        trees = {}
        for i in range(1, 15):
            layer = [f"l{i + 1}w{k}" for k in range(3)] if i < 14 else []
            for j in range(3):
                trees[f"l{i}w{j}"] = {"children": layer} if layer else {}
        for j in range(3):
            trees[f"l1w{j}"]["parents"] = [f"l1w{j}"]
        entries = dict.fromkeys(trees, {"behavior": "UPCS"})
        start = time.perf_counter()
        merged = merge_overrides(builtin_registry(), trees, entries)
        assert validate_registry(merged) == []
        assert time.perf_counter() - start < 1.0

    def test_dangling_diagnostic(self):
        base = builtin_registry()
        crafted = Registry(
            trees=dict(base.trees), entries=dict(base.entries), aliases=dict(base.aliases)
        )
        from parsemunge.registry import FamilyTree, _entry_from_spec
        crafted.trees["solo"] = FamilyTree(parents=("missing",))
        crafted.entries["solo"] = _entry_from_spec("solo", {"behavior": "ord3"})
        diagnostics = validate_registry(crafted)
        assert any("missing" in d and "solo.parents" in d for d in diagnostics)

    def test_unreachable_downstream_wiring(self):
        base = builtin_registry()
        crafted = Registry(
            trees=dict(base.trees), entries=dict(base.entries), aliases=dict(base.aliases)
        )
        from parsemunge.registry import FamilyTree, _entry_from_spec
        crafted.trees["lost"] = FamilyTree(auntsuncles=("ord3",), children=("ord3",))
        crafted.entries["lost"] = _entry_from_spec("lost", {"behavior": "ord3"})
        diagnostics = validate_registry(crafted)
        assert any("lost" in d and "offspring-bearing" in d for d in diagnostics)
