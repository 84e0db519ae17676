"""Fit/apply orchestration: recursive family-tree traversal, suffix-appender
header logging, fit-artifact serialization, inversion, and drift reporting.

``fit`` and ``apply`` read a source's rows once, in one ``factorize``; ``fit``
then works from its distinct values and their counts alone (root selection,
source statistics, every step's fit and the infill statistics).
A source's plan is evaluated one way, step by step (``_evaluate``): each step
is handed all the distinct values of its input header in one call, and each
output column is kept over the source's distinct values, from which rows are
gathered through their codes.
``fit`` evaluates each step right after fitting it and takes the encoded train
table and the infill statistics from those columns; ``apply`` replays the
stored steps. So applying an artifact to its own train table makes the
evaluations fit made and reproduces the fit output bit-exactly.
Infill fills those columns too, before the one gather; adjacent infill, the
one order-dependent kind, remaps the row codes instead, which a shuffle permutes.
A column whose distinct values are all floats is gathered into a float64
array, which the encoded table holds as it is. ``invert`` decodes each
distinct pattern of a step's encoded rows once, and a numeric step's whole
float column at once.
"""

from __future__ import annotations

import json
import logging
import math
import operator
import random
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import infill as infill_mod
from .encoders import (
    CLASS_NUMERIC,
    Behavior,
    auto_root_select,
    deviation_std,
    text_counts,
)
from .errors import ConfigError, DataError
from .registry import (
    BEHAVIORS,
    DOWNSTREAM_SLOTS,
    PRIMITIVE_SEMANTICS,
    UPSTREAM_SLOTS,
    Registry,
    builtin_registry,
    validate_registry,
)
from .schema import Tagged, checker
from .tidytable import (
    COLTYPE_ALL_MISSING,
    COLTYPE_CATEGORIC,
    COLTYPE_NUMERIC,
    Cell,
    TidyTable,
    checked_coltype,
    distinct_counts,
    factorize,
    largest_magnitude,
    numbers,
    sum_scale_exponent,
    value_order_fsum,
)

logger = logging.getLogger(__name__)

FORMAT_VERSION = 4
ARTIFACT_SUFFIX = ".pmz.json"


@dataclass
class Options:
    threshold: int = 255
    seed: int = 0
    labels_column: str | None = None
    shuffle_train: bool = False
    assignparam: dict = field(default_factory=dict)
    assigninfill: dict = field(default_factory=dict)


# The declared type of each Options field, which fit checks under its name.
OPTIONS_SPEC = {
    "threshold": int,
    "seed": int,
    "labels_column": str | None,
    "shuffle_train": bool,
    "assignparam": {str: {str: object}},  # each layer is checked on a behaviour's param_schema
    "assigninfill": {f"{name}?": [str] for name in infill_mod.CONFIG_KIND_NAMES},
}
_OPTION_CHECKS = {name: checker(spec, name, ConfigError) for name, spec in OPTIONS_SPEC.items()}
_check_assignments = checker({str: str}, "assignments", ConfigError)


@dataclass
class StepRecord:
    """One transform application: category, header bookkeeping, frozen fit."""

    category: str
    behavior: str
    input_header: str
    output_headers: list[str]
    fit: dict
    retained: bool = True


@dataclass
class SourcePlan:
    """Fitted step DAG of one source column, as an ordered step list whose
    input headers always refer to the source or an earlier step's output."""

    header: str
    root: str
    target_rule: str
    steps: list[StepRecord]
    source_stats: dict

    def retained_headers(self) -> list[str]:
        return [h for rec in self.steps if rec.retained for h in rec.output_headers]

    def column_behaviors(self) -> dict[str, Behavior]:
        """Retained output header -> the behaviour writing it."""
        return {h: BEHAVIORS[rec.behavior]
                for rec in self.steps if rec.retained for h in rec.output_headers}


@dataclass
class FitArtifact:
    """Serializable closure of an entire fit: each source's plan, in fit order,
    and the infill of the retained columns that get one. Replaying it on the
    original train table reproduces the fit output exactly."""

    format_version: int
    labels_column: str | None
    per_source: dict[str, SourcePlan]
    infill_spec: dict[str, dict]

    @property
    def output_order(self) -> list[str]:
        return [h for plan in self.per_source.values() for h in plan.retained_headers()]


@dataclass
class DriftReport:
    per_source: dict[str, dict]

    def to_jsonable(self) -> dict:
        return {"per_source": self.per_source}


def _resolve_params(opts: Options, behavior, category: str, source_header: str) -> dict:
    """One step's transform parameters: the global keys its behaviour declares,
    then the category's defaults, then the source column's; each layer is
    checked on the behaviour's ``param_schema``."""
    ap = opts.assignparam
    declared = {key.removesuffix("?") for key in behavior.param_schema}
    defaults = ap.get("default_assignparam", {})
    layers = {
        "['global_assignparam']": {k: v for k, v in ap.get("global_assignparam", {}).items()
                                   if k in declared},
        f"['default_assignparam'][{category!r}]": defaults.get(category, {}),
        f"[{category!r}][{source_header!r}]": ap.get(category, {}).get(source_header, {}),
    }
    params = {}
    for where, layer in layers.items():
        checker(behavior.param_schema, "assignparam" + where, ConfigError)(layer)
        params.update(layer)
    return params


def _source_stats(header: str, values: list[Cell], counts: np.ndarray | None = None) -> dict:
    """Train-basis statistics of source column ``header`` (``checked_coltype``
    checks its cells): over its cells, or over its distinct values, each counting
    its entry of ``counts``. Repeating each number by its count keeps the cells'
    sums bit for bit, as an fsum over finite scaled terms is exact in any order."""
    coltype = checked_coltype(header, values)
    if coltype == COLTYPE_NUMERIC:
        values, present = numbers(values)
        values = values[present] if counts is None else np.repeat(values[present], counts[present])
        total = len(values)  # at least 1 in a numeric column
        exp = sum_scale_exponent(largest_magnitude(values), total)
        if exp:
            values = np.ldexp(values, -exp)
        mean = value_order_fsum(values, values) / total
        with np.errstate(invalid="ignore"):  # an infinite mean gives NaN, silently
            std = deviation_std(values - mean, total)
        return {"coltype": coltype, "total": total,
                "mean": math.ldexp(mean, exp), "std": math.ldexp(std, exp)}
    freq = text_counts(distinct_counts(values) if counts is None
                       else dict(zip(values, counts.tolist())))
    top = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    return {"coltype": coltype, "total": sum(freq.values()),
            "top": [list(kv) for kv in top], "uniques": sorted(freq)}


def _gather(column: list[Cell], codes: np.ndarray) -> list[Cell]:
    """``column[c]`` for each code ``c``."""
    return np.fromiter(column, dtype=object, count=len(column)).take(codes).tolist()


def _float_array(data: list[Cell] | np.ndarray) -> list[Cell] | np.ndarray:
    """A stored column as a float64 array when every cell is a float, else
    the list as it is."""
    if isinstance(data, list) and data and set(map(type, data)) == {float}:
        return np.array(data, np.float64)
    return data


def _row_column(column: list[Cell], codes: np.ndarray) -> list[Cell] | np.ndarray:
    """The rows ``column[c]`` of each code ``c``, as a float64 array when
    every value of ``column`` is a float, else as a list."""
    data = _float_array(column)
    return data.take(codes) if isinstance(data, np.ndarray) else _gather(column, codes)


def _evaluate(rec: StepRecord, values: dict[str, list], inputs: dict) -> None:
    """Evaluate one step over all the distinct values of its input header in
    one call (factorized once, cached in ``inputs``) and add each output column
    to ``values``, gathered back to the source's distinct values; a column of
    a header whose values are already distinct (codes None in ``inputs``, as
    the caller seeds the source's) is kept as the step returned it."""
    if rec.input_header not in inputs:
        distinct, codes = factorize(values[rec.input_header])
        if np.array_equal(codes, np.arange(len(distinct))):
            codes = None
        inputs[rec.input_header] = distinct, codes
    distinct, codes = inputs[rec.input_header]
    behavior = BEHAVIORS[rec.behavior]
    columns = behavior.apply_distinct(behavior.compile(rec.fit), distinct)
    for h, column in zip(rec.output_headers, columns, strict=True):
        values[h] = column if codes is None else _gather(column, codes)


def _walk(plan: SourcePlan, distinct: list[Cell]) -> dict[str, list]:
    """Evaluate a fitted plan in step order: header -> column over ``distinct``."""
    values, inputs = {plan.header: distinct}, {plan.header: (distinct, None)}
    for rec in plan.steps:
        _evaluate(rec, values, inputs)
    return values


def _fit_source(header: str, counts: dict[Cell, int], root_key: str, reg: Registry,
                opts: Options, dedup) -> tuple[SourcePlan, dict]:
    """Fit one source's step tree on the counts of its distinct values;
    returns the plan and the columns over those values."""
    distinct = list(counts)  # the stats first: they check the type of every value
    source_stats = _source_stats(header, distinct, np.array(list(counts.values()), np.int64))
    root_rule = reg.entry(root_key).target_rule
    steps: list[StepRecord] = []
    values, inputs = {header: distinct}, {header: (distinct, None)}

    def fit_step(cat_key: str, in_header: str, in_counts: dict) -> StepRecord:
        entry = reg.entry(cat_key)
        params = _resolve_params(opts, entry.behavior, cat_key, header)
        state = entry.behavior.fit(in_counts, params, root_rule)
        out_headers = []
        for token in entry.behavior.output_tokens(state):
            base = f"{in_header}_{entry.suffix}" + (f"_{token}" if token else "")
            out_headers.append(dedup(base))
        rec = StepRecord(
            category=reg.resolve(cat_key),
            behavior=entry.behavior.name,
            input_header=in_header,
            output_headers=out_headers,
            fit=state,
        )
        steps.append(rec)
        # Evaluated right away: the children fit on these outputs.
        _evaluate(rec, values, inputs)
        return rec

    def run_generation(owner_key: str, in_header: str, in_counts: dict, slots) -> bool:
        # validate_registry has bounded the recursion depth from every root.
        tree = reg.tree(owner_key)
        input_retained = not any(
            tree.slot(s) and not PRIMITIVE_SEMANTICS[s][1] for s in slots
        )
        for slot in slots:
            offspring = PRIMITIVE_SEMANTICS[slot][0]
            for cat in tree.slot(slot):
                rec = fit_step(cat, in_header, in_counts)
                if offspring and reg.tree(cat).has_downstream():
                    for out_header in rec.output_headers:
                        rec.retained = run_generation(
                            cat, out_header, distinct_counts(values[out_header], counts.values()),
                            DOWNSTREAM_SLOTS,
                        )
        return input_retained

    if run_generation(root_key, header, counts, UPSTREAM_SLOTS):
        # Root generation had no replacement entries: keep the source itself.
        fit_step("excl", header, counts)
    plan = SourcePlan(
        header=header,
        root=reg.resolve(root_key),
        target_rule=root_rule,
        steps=steps,
        source_stats=source_stats,
    )
    return plan, values


def _expand_source(plan: SourcePlan, col: list[Cell], values: dict[str, list],
                   codes: dict[str, np.ndarray]) -> dict[str, list[Cell] | np.ndarray]:
    """Expand a source's rows: ``codes[h]`` holds each row's position among the
    distinct source values, through which the retained column ``h`` is gathered."""
    # ``col`` is unused here, but must stay: perfbench's _observe_expand reads it.
    return {h: _row_column(values[h], codes[h]) for h in plan.retained_headers()}


def _targets(plan: SourcePlan, values: dict[str, list]) -> list[bool]:
    """Whether each distinct source value is an infill target: read from the
    plan's NArw step on the source under its target rule, else marked."""
    for rec in plan.steps:
        if (rec.behavior == "NArw" and rec.input_header == plan.header
                and rec.fit["rule"] == plan.target_rule):
            return [flag == 1.0 for flag in values[rec.output_headers[0]]]
    return infill_mod.mark_targets(values[plan.header], plan.target_rule)


def _infill_columns(plan: SourcePlan, values: dict[str, list], codes: np.ndarray,
                    infill_spec: dict, target: list[bool] | None = None) -> dict[str, np.ndarray]:
    """Fill each retained column that has an infill entry over the source's
    distinct values (``target``, unless given, from ``_targets``) and return
    the row codes of each retained column: remapped for adjacent infill, else
    ``codes``."""
    row_codes = dict.fromkeys(plan.retained_headers(), codes)
    spec = {h: infill_spec[h] for h in row_codes if h in infill_spec}
    if spec and target is None:
        target = _targets(plan, values)
    for h, entry in spec.items():
        values[h] = infill_mod.apply_infill(values[h], target, entry["kind"], entry.get("value"))
    if adjacent := [h for h, entry in spec.items() if entry["kind"] == infill_mod.KIND_ADJACENT]:
        rows = np.asarray(target, dtype=bool)[codes]
        if not rows.all():  # a target row takes the previous non-target row's code, or the first's
            rows = np.maximum.accumulate(np.where(rows, rows.argmin(), np.arange(len(rows))))
            row_codes.update(dict.fromkeys(adjacent, codes[rows]))
    return row_codes


def _fit_infill_spec(plan: SourcePlan, counts: np.ndarray, values: dict[str, list],
                     target: list[bool], kind: str) -> dict[str, dict]:
    """Per retained column where the requested kind is compatible: the kind,
    with train stats taken over the non-target distinct values (``target``) of
    the fit-time columns, each counting its entry of ``counts``. Other columns
    get no entry, which means no infill; so do NArw's, which record missingness."""
    spec: dict[str, dict] = {}
    kept = np.flatnonzero(np.logical_not(target))
    weights, kept = counts[kept], kept.tolist()
    for h, behavior in plan.column_behaviors().items():
        if behavior.name == "NArw" or (kind in infill_mod.NUMERIC_ONLY_KINDS
                                       and behavior.coltype_class != CLASS_NUMERIC):
            continue
        stat = infill_mod.train_stat(kind, list(map(values[h].__getitem__, kept)), weights)
        entry = {"kind": kind}
        if stat is not None:
            entry["value"] = stat
        spec[h] = entry
    return spec


def fit(train: TidyTable, assignments: dict[str, str] | None = None,
        reg: Registry | None = None, opts: Options | None = None
        ) -> tuple[TidyTable, FitArtifact]:
    """Fit every source column's transform tree and encode the train table."""
    reg = reg if reg is not None else builtin_registry()
    opts = opts if opts is not None else Options()
    if not train.headers or train.row_count == 0:
        raise DataError("empty train table")
    diagnostics = validate_registry(reg)
    if diagnostics:
        raise ConfigError("registry validation failed: " + "; ".join(diagnostics))
    assignments = {} if assignments is None else assignments
    _check_assignments(assignments)
    for name, check in _OPTION_CHECKS.items():
        check(getattr(opts, name))
    for key in assignments.values():
        if not reg.has(key):
            raise ConfigError(f"unknown transformation category {key!r}")
    for h in assignments:
        if h not in train.headers:
            raise DataError(f"assigned header {h!r} not in table")
    if opts.labels_column is not None and opts.labels_column not in train.headers:
        raise DataError(f"labels column {opts.labels_column!r} not in table")
    requested_infill = {h: infill_mod.CONFIG_KIND_NAMES[name]
                        for name, headers in opts.assigninfill.items() for h in headers}
    for h in requested_infill:
        if h not in train.headers:
            raise ConfigError(f"assigninfill names unknown column {h!r}")

    sources = [h for h in train.headers if h != opts.labels_column]
    used_headers: set[str] = set()

    def dedup(base: str) -> str:
        name, i = base, 0
        while name in used_headers:
            i += 1
            name = f"{base}_{i}"
        used_headers.add(name)
        return name

    order = np.arange(train.row_count)
    if opts.shuffle_train:
        random.Random(opts.seed).shuffle(order)
    plans: dict[str, SourcePlan] = {}
    infill_spec: dict[str, dict] = {}
    columns: dict[str, list[Cell] | np.ndarray] = {}
    for h in sources:
        # The one read of the rows; one source at a time, so peak memory holds one source's.
        col = train.column(h)
        distinct, codes = factorize(col)
        counts = np.bincount(codes)
        root = assignments.get(h) or auto_root_select(distinct, opts.threshold)
        plan, values = _fit_source(h, dict(zip(distinct, counts.tolist())), root, reg, opts, dedup)
        plans[h] = plan
        kind, target = requested_infill.get(h, infill_mod.KIND_DEFAULT), None
        if kind != infill_mod.KIND_DEFAULT:
            target = _targets(plan, values)
            infill_spec.update(_fit_infill_spec(plan, counts, values, target, kind))
        codes = _infill_columns(plan, values, codes, infill_spec, target)
        if opts.shuffle_train:  # after the infill, which reads the rows in order
            codes = {k: c[order] for k, c in codes.items()}
        columns.update(_expand_source(plan, col, values, codes))

    artifact = FitArtifact(FORMAT_VERSION, opts.labels_column, plans, infill_spec)
    output_order = artifact.output_order
    return TidyTable(headers=output_order, columns=[columns[h] for h in output_order]), artifact


def apply(artifact: FitArtifact, test: TidyTable) -> TidyTable:
    """Encode a table on the artifact's train basis; no statistic is refit."""
    missing = [h for h in artifact.per_source if h not in test.headers]
    if missing:
        raise DataError(f"table is missing required source columns: {missing}")
    known = set(artifact.per_source) | {artifact.labels_column}
    extra = [h for h in test.headers if h not in known]
    if extra:
        logger.warning("ignoring columns not present at fit time: %s", extra)
    columns: dict[str, list[Cell] | np.ndarray] = {}
    for header, plan in artifact.per_source.items():
        col = test.column(header)
        distinct, codes = factorize(col)
        checked_coltype(header, distinct)
        values = _walk(plan, distinct)
        codes = _infill_columns(plan, values, codes, artifact.infill_spec)
        columns.update(_expand_source(plan, col, values, codes))
    output_order = artifact.output_order
    return TidyTable(headers=output_order, columns=[columns[h] for h in output_order])


def serialize(artifact: FitArtifact) -> bytes:
    """Canonical JSON bytes: sorted keys, shortest round-trip floats. A plan or
    step is stored as its dataclass fields, so those are its keys."""
    doc = {
        "format_version": artifact.format_version,
        "labels_column": artifact.labels_column,
        "per_source": [{**vars(plan), "steps": [vars(rec) for rec in plan.steps]}
                       for plan in artifact.per_source.values()],
        "infill_spec": artifact.infill_spec,
    }
    try:
        text = json.dumps(doc, sort_keys=True, ensure_ascii=False, allow_nan=False,
                          separators=(",", ":"))
    except ValueError:
        found = _non_finite(doc, "artifact")
        if found is None:
            raise
        raise DataError(f"cannot serialize {found[0]}: {found[1]!r} has no JSON form") from None
    return text.encode("utf-8")


def _non_finite(doc, where: str) -> tuple[str, float] | None:
    """The place and value of the first NaN or infinity in ``doc``, if any."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else (where, doc)
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, item in items:
        if found := _non_finite(item, f"{where}[{key!r}]"):
            return found
    return None


_CATEGORIC_STATS = {"coltype": str, "total": int, "top": [[str, int]], "uniques": [str]}
_STEP = {"category": str, "behavior": str, "input_header": str, "output_headers": [str],
         "retained": bool}
# An infill entry holds its kind, and the train statistic of a kind that has one.
_INFILL = Tagged("kind", {
    infill_mod.KIND_MEAN: {"kind": str, "value?": float},
    infill_mod.KIND_MEDIAN: {"kind": str, "value?": float},
    infill_mod.KIND_MODE: {"kind": str, "value?": float | str},
    **dict.fromkeys((infill_mod.KIND_ZERO, infill_mod.KIND_ONE, infill_mod.KIND_NEGZERO,
                     infill_mod.KIND_ADJACENT), {"kind": str}),
})
# The serialized FitArtifact: the keys of a plan and of a step are their fields.
_check_artifact = checker({
    "format_version": int,
    "labels_column": str | None,
    "per_source": [{
        "header": str,
        "root": str,
        "target_rule": str,
        "steps": [Tagged("behavior", {name: {**_STEP, "fit": behavior.fit_schema}
                                      for name, behavior in BEHAVIORS.items()})],
        "source_stats": Tagged("coltype", {
            COLTYPE_NUMERIC: {"coltype": str, "total": int, "mean": float, "std": float},
            COLTYPE_CATEGORIC: _CATEGORIC_STATS,
            COLTYPE_ALL_MISSING: _CATEGORIC_STATS,
        }),
    }],
    "infill_spec": {str: _INFILL},
}, "artifact")


def _plan_from_doc(doc: dict, outputs: set[str]) -> SourcePlan:
    """Read one checked source plan. Each step's fit must hold no fault its behaviour
    names; the step must read the source or an earlier output and name one output per
    token of its fit that neither this plan nor ``outputs`` names yet (added to it)."""
    steps = [StepRecord(**s) for s in doc["steps"]]
    known = {doc["header"]}
    for rec in steps:
        behavior = BEHAVIORS[rec.behavior]
        fault = behavior.fit_fault(rec.fit)
        if fault is None and len(behavior.output_tokens(rec.fit)) != len(rec.output_headers):
            fault = f"names {len(rec.output_headers)} output columns, which its fit does not make"
        if fault is None and rec.input_header not in known:
            fault = f"reads {rec.input_header!r}, which no earlier step produces"
        for h in rec.output_headers:
            if fault is None and (h in known or h in outputs):
                fault = f"names the output {h!r}, which the source or an earlier output names"
            known.add(h)
            outputs.add(h)
        if fault is not None:
            raise DataError(f"artifact step {rec.category!r} of source {doc['header']!r} {fault}")
    return SourcePlan(**{**doc, "steps": steps})


def deserialize(data: bytes | str) -> FitArtifact:
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:  # also undecodable bytes, too deep nesting
        raise DataError(f"malformed artifact document: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError("malformed artifact document: not an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(
            f"unsupported artifact format_version {version!r}, expected {FORMAT_VERSION}"
        )
    _check_artifact(doc)
    per_source: dict[str, SourcePlan] = {}
    outputs: set[str] = set()
    for plan in (_plan_from_doc(plan_doc, outputs) for plan_doc in doc["per_source"]):
        if plan.header in per_source:
            raise DataError(f"artifact lists source {plan.header!r} twice")
        per_source[plan.header] = plan
    artifact = FitArtifact(version, doc["labels_column"], per_source, doc["infill_spec"])
    behaviors = {h: b for plan in per_source.values() for h, b in plan.column_behaviors().items()}
    for h, spec in artifact.infill_spec.items():
        if h not in behaviors:
            raise DataError(f"artifact infill_spec names {h!r}, which is no retained column")
        if behaviors[h].name == "NArw":  # fit gives none: NArw records missingness
            raise DataError(f"artifact infill_spec fills the NArw column {h!r}, which is"
                            " never infilled; refit the artifact")
        if (spec["kind"] in infill_mod.NUMERIC_ONLY_KINDS
                and behaviors[h].coltype_class != CLASS_NUMERIC):
            raise DataError(f"artifact infill_spec gives {h!r} {spec['kind']} infill,"
                            " which needs a numeric column")
    return artifact


_INVERT_PREFERENCE = {"1010": 0, "onht": 1, "bnry": 2, "ord3": 3, "mnmx": 4, "nmbr": 5}


def _column_codes(data: list[Cell] | np.ndarray) -> tuple[np.ndarray, int]:
    """Each cell's code among the column's distinct cells, and their number.
    Floats are told apart by bit pattern, so -0.0 stays apart from 0.0, and
    the cells of a list by type and repr."""
    data = _float_array(data)
    if isinstance(data, np.ndarray):
        distinct, codes = np.unique(data.view(np.uint64), return_inverse=True)
    else:
        distinct, codes = factorize(list(zip(map(type, data), map(repr, data))))
    return codes, len(distinct)


def _row_patterns(columns: list, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct patterns of cells across ``columns`` among ``rows``
    in first-seen order: each row's pattern, and each pattern's first row.
    The column codes combine mixed-radix into one int64 key, renumbered
    densely before the next column could overflow it."""
    key, size = np.zeros(len(rows), np.int64), 1
    for codes, n in map(_column_codes, columns):
        if size * n > 2**62:
            distinct, key = np.unique(key, return_inverse=True)
            size = len(distinct)
        key, size = key * n + codes[rows], size * n
    _, first, pattern = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[pattern], rows[first[order]]


def _flagged(flags: list[Cell] | np.ndarray | None, n: int) -> np.ndarray:
    """Whether each row's NArw flag is 1.0; none is without a flag column."""
    if flags is None:
        return np.zeros(n, bool)
    flags = _float_array(flags)
    if isinstance(flags, np.ndarray):
        return flags == 1.0
    return np.fromiter(map(operator.eq, flags, repeat(1.0)), bool, n)


def _decode_rows(header: str, rec: StepRecord, columns: list,
                 missing: np.ndarray) -> list[Cell] | np.ndarray:
    """The source cells of a step's encoded rows, None where ``missing``."""
    behavior = BEHAVIORS[rec.behavior]
    if len(columns) == 1 and isinstance(values := _float_array(columns[0]), np.ndarray):
        decoded = behavior.decode_column(rec.fit, values)
        if decoded is not None and missing.any():
            return np.where(missing, None, decoded.astype(object)).tolist()
        if decoded is not None:
            return decoded
    decode = behavior.decoder(rec.fit)
    pattern, first = _row_patterns(columns, np.flatnonzero(~missing))
    cells = [c[first].tolist() if isinstance(c, np.ndarray)
             else list(map(c.__getitem__, first.tolist())) for c in columns]
    distinct = []
    for row in (zip(*cells) if columns else [()] * len(first)):
        try:
            distinct.append(decode(row))
        except (KeyError, TypeError):
            raise DataError(f"cannot invert source {header!r}: step {rec.category!r} "
                            f"columns {rec.output_headers} hold the pattern {list(row)!r},"
                            " which the fitted step never outputs") from None
    codes = np.full(len(missing), len(distinct))
    codes[~missing] = pattern
    return _gather(distinct + [None], codes)


def invert(artifact: FitArtifact, encoded: TidyTable,
           sources: list[str] | None = None) -> tuple[TidyTable, list[str]]:
    """Recover source columns from encoded data where an invertible path exists.

    Returns the recovered table plus the list of non-invertible sources.
    Sources reached through an uppercase step recover the uppercased form,
    and a row whose NArw flag on the source is 1.0 recovers as missing.
    ``nmbr`` and ``mnmx`` decode a float column in one pass of the operations
    their decoders make per cell; any other step decodes each distinct
    pattern of its columns once. A row the step never outputs raises
    DataError, naming the first such row's cells.
    """
    wanted = list(sources) if sources is not None else list(artifact.per_source)
    for h in wanted:
        if h not in artifact.per_source:
            raise DataError(f"unknown source column {h!r}")
    present = set(encoded.headers)
    headers, columns, failed = [], [], []
    for header in wanted:
        # One pass in step order: a step reads the source cleanly when its
        # input is the source or the output of a clean inversion-pass step.
        clean, candidates, narw = {header}, [], None
        for i, rec in enumerate(artifact.per_source[header].steps):
            if rec.input_header not in clean:
                continue
            if BEHAVIORS[rec.behavior].inversion_pass:
                clean.update(rec.output_headers)
            elif not rec.retained or not present.issuperset(rec.output_headers):
                continue
            elif rec.behavior in _INVERT_PREFERENCE:
                candidates.append((_INVERT_PREFERENCE[rec.behavior], i, rec))
            elif rec.behavior == "NArw" and rec.input_header == header and narw is None:
                narw = encoded.column_data(rec.output_headers[0])
        if not candidates:
            failed.append(header)
            continue
        rec = min(candidates)[2]
        headers.append(header)
        columns.append(_decode_rows(header, rec, list(map(encoded.column_data, rec.output_headers)),
                                    _flagged(narw, encoded.row_count)))
    if sources is not None and failed:
        raise DataError(f"no invertible path for sources: {failed}")
    return TidyTable(headers=headers, columns=columns), failed


def drift_report(artifact: FitArtifact, new: TidyTable) -> DriftReport:
    """Train-basis stats vs new-data stats, per source column."""
    per_source = {}
    for header, plan in artifact.per_source.items():
        base = plan.source_stats
        col = new.column(header)
        if base["coltype"] == COLTYPE_NUMERIC:
            fresh = _source_stats(header, col)
            if fresh["coltype"] != COLTYPE_NUMERIC:
                # No moments to compare: the new data holds text or no values.
                per_source[header] = {"kind": "type_change", "train_coltype": base["coltype"],
                                      "new_coltype": fresh["coltype"], "new_total": fresh["total"]}
                continue
            train, fresh = ({k: s[k] for k in ("mean", "std", "total")} for s in (base, fresh))
            per_source[header] = {"kind": "numeric", "train": train, "new": fresh,
                                  "deltas": {k: abs(fresh[k] - train[k]) for k in ("mean", "std")}}
            continue
        new_freq = text_counts(distinct_counts(col))
        total = sum(new_freq.values())
        top = {}
        for entry, count in base["top"]:
            train_prop = count / max(base["total"], 1)
            new_prop = new_freq.get(entry, 0) / max(total, 1)
            top[entry] = {"train": train_prop, "new": new_prop, "delta": abs(new_prop - train_prop)}
        known = set(base["uniques"])
        unseen = sum(n for text, n in new_freq.items() if text not in known)
        per_source[header] = {"kind": "categoric", "top": top,
                              "unseen_rate": (unseen / total) if total else 0.0,
                              "train_total": base["total"], "new_total": total}
    return DriftReport(per_source=per_source)
