"""Transformation-category registry: family trees, process entries, the
built-in tree set, validation, and user overrides.

Each category owns one family tree. Upstream slots (parents, siblings,
auntsuncles, cousins) are consulted only when the category is assigned as a
root; downstream slots (children, niecesnephews, coworkers, friends) are
consulted when the category is reached as an offspring-bearing entry, where
they act as the next generation's upstream slots. Slots in replacement
position drop the column the generation was applied to from the returned set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

from . import encoders, extract_search, stringparse
from .encoders import Behavior
from .errors import ConfigError
from .schema import checker

UPSTREAM_SLOTS = ("parents", "siblings", "auntsuncles", "cousins")
DOWNSTREAM_SLOTS = ("children", "niecesnephews", "coworkers", "friends")
ALL_SLOTS = UPSTREAM_SLOTS + DOWNSTREAM_SLOTS
MAX_DEPTH = 16  # family-tree recursion limit

# slot -> (bears offspring, retains the column the generation was applied to)
PRIMITIVE_SEMANTICS = {
    "parents": (True, False),
    "siblings": (True, True),
    "auntsuncles": (False, False),
    "cousins": (False, True),
    "children": (True, False),
    "niecesnephews": (True, True),
    "coworkers": (False, False),
    "friends": (False, True),
}

BEHAVIORS: dict[str, Behavior] = {
    b.name: b
    for b in (
        encoders.UpcsBehavior(),
        encoders.NarwBehavior(),
        encoders.ExclBehavior(),
        encoders.Ord3Behavior(),
        encoders.OnhtBehavior(),
        encoders.BnryBehavior(),
        encoders.B1010Behavior(),
        encoders.NmbrBehavior(),
        encoders.MnmxBehavior(),
        stringparse.SpltBehavior(),
        stringparse.Sp15Behavior(),
        stringparse.Spl2Behavior(),
        stringparse.Spl5Behavior(),
        stringparse.Spl9Behavior(),
        stringparse.Sp10Behavior(),
        stringparse.Sp19Behavior(),
        stringparse.SbstBehavior(),
        extract_search.NmcmBehavior(),
        extract_search.SrchBehavior(),
    )
}


@dataclass(frozen=True)
class FamilyTree:
    parents: tuple[str, ...] = ()
    siblings: tuple[str, ...] = ()
    auntsuncles: tuple[str, ...] = ()
    cousins: tuple[str, ...] = ()
    children: tuple[str, ...] = ()
    niecesnephews: tuple[str, ...] = ()
    coworkers: tuple[str, ...] = ()
    friends: tuple[str, ...] = ()

    def slot(self, name: str) -> tuple[str, ...]:
        return getattr(self, name)

    def has_downstream(self) -> bool:
        return any(self.slot(s) for s in DOWNSTREAM_SLOTS)

    def references(self):
        for s in ALL_SLOTS:
            for key in self.slot(s):
                yield s, key


@dataclass(frozen=True)
class ProcessEntry:
    """Binding of a category key to its transform behavior and data properties."""

    key: str
    behavior: Behavior
    suffix: str

    @property
    def target_rule(self) -> str:
        return self.behavior.target_rule


@dataclass
class Registry:
    trees: dict[str, FamilyTree] = field(default_factory=dict)
    entries: dict[str, ProcessEntry] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)

    def resolve(self, key: str) -> str:
        return self.aliases.get(key, key)

    def has(self, key: str) -> bool:
        return self.resolve(key) in self.trees

    def tree(self, key: str) -> FamilyTree:
        resolved = self.resolve(key)
        if resolved not in self.trees:
            raise ConfigError(f"unknown transformation category {key!r}")
        return self.trees[resolved]

    def entry(self, key: str) -> ProcessEntry:
        resolved = self.resolve(key)
        if resolved not in self.entries:
            raise ConfigError(f"unknown transformation category {key!r}")
        return self.entries[resolved]

    def snapshot(self) -> dict:
        return {
            "trees": {
                k: {s: list(t.slot(s)) for s in ALL_SLOTS if t.slot(s)}
                for k, t in sorted(self.trees.items())
            },
            "entries": {
                k: {"behavior": e.behavior.name, "suffix": e.suffix}
                for k, e in sorted(self.entries.items())
            },
            "aliases": dict(sorted(self.aliases.items())),
        }


# The shapes of a user family tree and process entry (see merge_overrides).
TREE_SPEC = {f"{slot}?": [str] for slot in ALL_SLOTS}
ENTRY_SPEC = {"behavior?": str, "suffix?": str}
_check_trees = checker({str: TREE_SPEC}, "transformdict", ConfigError)
_check_entries = checker({str: ENTRY_SPEC}, "processdict", ConfigError)


def _tree_from_spec(key: str, spec: dict) -> FamilyTree:
    """The family tree of a checked TREE_SPEC document."""
    return FamilyTree(**{slot: tuple(keys) for slot, keys in spec.items()})


def _entry_from_spec(key: str, spec: dict) -> ProcessEntry:
    """The process entry of a checked ENTRY_SPEC document."""
    name = spec.get("behavior", key)
    if name not in BEHAVIORS:
        raise ConfigError(f"process entry {key!r} references unknown behavior {name!r}")
    behavior = BEHAVIORS[name]
    return ProcessEntry(key=key, behavior=behavior, suffix=spec.get("suffix", behavior.name))


def _cat(key, behavior=None, suffix=None, parents=None, cousins=("NArw",), **slots):
    b = BEHAVIORS[behavior or key]
    entry = ProcessEntry(key=key, behavior=b, suffix=suffix or b.name)
    tree = FamilyTree(
        parents=(key,) if parents is None else tuple(parents),
        cousins=tuple(cousins),
        **{s: tuple(v) for s, v in slots.items()},
    )
    return key, tree, entry


def builtin_registry() -> Registry:
    """The built-in category set, including the or19/or20 aggregation trees."""
    table = [
        _cat("excl", cousins=()),
        _cat("NArw", cousins=()),
        _cat("UPCS", children=("1010", "nmc8", "spl9")),
        _cat("ord3"),
        _cat("onht"),
        _cat("bnry"),
        _cat("1010"),
        _cat("nmbr"),
        _cat("mnmx"),
        _cat("splt"),
        _cat("sp15"),
        _cat("sp19"),
        _cat("sbst"),
        _cat("srch"),
        _cat("spl2", children=("ord3",)),
        _cat("spl5", children=("ord3",)),
        _cat("spl9", children=("ord3", "sp10")),
        _cat("sp10", children=("ord3",)),
        _cat("nmcm", children=("nmbr",)),
        # nmc7 is nmcm's test-efficient variant, which would store each train
        # entry's extraction; extraction of a whole view is one batch, so it
        # replays as nmcm.
        _cat("nmc7", behavior="nmcm", suffix="nmc7", children=("nmbr",)),
        _cat("nmc8", behavior="nmcm", suffix="nmc7", children=("nmbr",)),
        # Root aggregations. or19 chains through the shared UPCS/spl9/sp10 keys;
        # or20 needs its own upper tiers to add the extra spl9 level.
        _cat("or19", behavior="excl", suffix="or19", parents=("UPCS",)),
        _cat("or20", behavior="excl", suffix="or20", parents=("up20",)),
        _cat("up20", behavior="UPCS", children=("1010", "nmc8", "sl20")),
        _cat("sl20", behavior="spl9", children=("ord3", "spl9")),
    ]
    reg = Registry(
        trees={k: t for k, t, _ in table},
        entries={k: e for k, _, e in table},
        aliases={"text": "onht"},
    )
    return reg


def merge_overrides(base: Registry, trees: dict | None = None,
                    entries: dict | None = None) -> Registry:
    """User trees and process entries shadow built-ins key by key."""
    trees = {} if trees is None else trees
    entries = {} if entries is None else entries
    _check_trees(trees)
    _check_entries(entries)
    merged = Registry(
        trees=dict(base.trees),
        entries=dict(base.entries),
        aliases=dict(base.aliases),
    )
    for key, spec in entries.items():
        merged.entries[key] = _entry_from_spec(key, spec)
    for key, spec in trees.items():
        merged.trees[key] = _tree_from_spec(key, spec)
    diagnostics = validate_registry(merged)
    if diagnostics:
        raise ConfigError("registry validation failed: " + "; ".join(diagnostics))
    return merged


def validate_registry(reg: Registry) -> list[str]:
    """Diagnostics for dangling keys, unbounded offspring recursion, and
    downstream wiring that no offspring-bearing slot can ever reach."""
    diagnostics = []
    for key, tree in sorted(reg.trees.items()):
        for slot, ref in tree.references():
            if not reg.has(ref):
                diagnostics.append(f"dangling category reference {ref!r} in {key}.{slot}")
    for key in sorted(reg.trees):
        if key not in reg.entries:
            diagnostics.append(f"category {key!r} has a family tree but no process entry")
    offspring_used = set()
    for tree in reg.trees.values():
        for slot in ALL_SLOTS:
            if PRIMITIVE_SEMANTICS[slot][0]:
                offspring_used.update(reg.resolve(k) for k in tree.slot(slot))
    for key, tree in sorted(reg.trees.items()):
        if tree.has_downstream() and key not in offspring_used:
            diagnostics.append(
                f"category {key!r} has downstream wiring but never appears in an "
                "offspring-bearing slot"
            )

    @functools.cache
    def exceeded(key: str, slots, depth: int) -> bool:
        """Whether the generation that fit runs for the resolved ``key`` over
        ``slots`` at ``depth``, or one it starts, is deeper than MAX_DEPTH. As
        in fit, a root's generation has depth 1 and each offspring generation
        one more. Each (key, slots, depth) is answered once, so the check is
        linear in the registry's size times MAX_DEPTH."""
        if depth > MAX_DEPTH:
            return True
        tree = reg.trees.get(key)
        return tree is not None and any(
            exceeded(sub, DOWNSTREAM_SLOTS, depth + 1)
            for slot in slots if PRIMITIVE_SEMANTICS[slot][0]
            for sub in map(reg.resolve, tree.slot(slot))
            if sub in reg.trees and reg.trees[sub].has_downstream())

    for key in sorted(reg.trees):
        if exceeded(reg.resolve(key), UPSTREAM_SLOTS, 1):
            diagnostics.append(
                f"offspring recursion from {key!r} exceeds max depth {MAX_DEPTH}"
            )
    return diagnostics
