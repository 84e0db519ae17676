"""Fit/apply orchestration: recursive family-tree traversal, suffix-appender
header logging, fit-artifact serialization, inversion, and drift reporting.

``fit`` and ``apply`` read a source's rows once, in one ``factorize``; ``fit``
then works from its distinct values and their counts alone (root selection,
source statistics, every step's fit and the infill statistics).
A source's plan is evaluated one way, step by step (``_evaluate``). Each
header a step reads is factorized once into one ``Distinct`` view, which the
step fits on and is evaluated on; at fit its counts are the source counts
summed by its codes. Each output column is kept over the source's distinct
values, from which rows are gathered through their codes.
``fit`` evaluates each step right after fitting it and takes the encoded train
table and the infill statistics from those columns; ``apply`` replays the
stored steps. So applying an artifact to its own train table makes the
evaluations fit made and reproduces the fit output bit-exactly.
Infill fills those columns too, before the one gather; adjacent infill, the
one order-dependent kind, remaps the row codes instead, which a shuffle permutes.
Rows are gathered in the column's storage form (``tidytable.gather``), and
the encoded table holds it as it is. ``invert`` reads a step's encoded
columns as float64 (``tidytable.floats``) and decodes all their rows at once,
by arithmetic on the columns (a code map's code, a numeric step's closed form).
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import infill as infill_mod
from .encoders import (
    CLASS_BOOLEAN,
    CLASS_NUMERIC,
    Behavior,
    deviation_std,
    ranked_entries,
    root_of,
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
    Distinct,
    TidyTable,
    cells,
    checked_coltype,
    distinct_counts,
    factorize,
    floats,
    gather,
    largest_magnitude,
    numbers,
    read_cells,
    sum_scale_exponent,
    value_order_fsum,
)

logger = logging.getLogger(__name__)

FORMAT_VERSION = 5
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


def _source_stats(header: str, view: Distinct) -> dict:
    """Train-basis statistics of source column ``header`` (``checked_coltype``
    checks its cells) over the view of its distinct values and their counts."""
    coltype = checked_coltype(header, view.types)
    if coltype == COLTYPE_NUMERIC:
        values, present = view.numbers
        return _numeric_stats(np.repeat(values[present], view.counts[present]))
    freq = view.text_counts
    return {"coltype": coltype, "total": sum(freq.values()),
            "top": [[e, freq[e]] for e in ranked_entries(freq)[:10]], "uniques": sorted(freq)}


def _row_stats(header: str, col: list[Cell]) -> dict:
    """``_source_stats`` over the cells of column ``header``: a numeric column's
    moments are taken over its rows, without counting its distinct values."""
    if checked_coltype(header, set(map(type, col))) != COLTYPE_NUMERIC:
        return _source_stats(header, distinct_counts(col))
    values, present = numbers(col)
    return _numeric_stats(values[present])


def _numeric_stats(values: np.ndarray) -> dict:
    """The moments of a numeric column's present numbers, at least one. Repeating
    each distinct number by its count keeps the cells' sums bit for bit, as an
    fsum over finite scaled terms is exact in any order."""
    total = len(values)
    exp = sum_scale_exponent(largest_magnitude(values), total)
    if exp:
        values = np.ldexp(values, -exp)
    mean = value_order_fsum(values, values) / total
    with np.errstate(invalid="ignore"):  # an infinite mean gives NaN, silently
        std = deviation_std(values - mean, total)
    return {"coltype": COLTYPE_NUMERIC, "total": total,
            "mean": math.ldexp(mean, exp), "std": math.ldexp(std, exp)}


def _input(header: str, values: dict[str, list | np.ndarray], inputs: dict,
           counts: np.ndarray | None = None) -> tuple[Distinct, np.ndarray | None]:
    """The view of ``header``'s distinct values, from one factorize kept in
    ``inputs``, and the codes of the source's distinct values among them (None
    where they are the same); given the source's ``counts``, summed by code."""
    if header not in inputs:
        distinct, codes = factorize(cells(values[header]))
        if counts is not None:
            counts = np.bincount(codes, counts, len(distinct)).astype(np.int64)
        identity = np.array_equal(codes, np.arange(len(distinct)))
        inputs[header] = Distinct(distinct, counts), None if identity else codes
    return inputs[header]


def _evaluate(rec: StepRecord, values: dict[str, list], inputs: dict) -> None:
    """Evaluate one step on the view of its input header in one call; add each
    output column to ``values``, gathered back to the source's distinct values."""
    view, codes = _input(rec.input_header, values, inputs)
    behavior = BEHAVIORS[rec.behavior]
    columns = behavior.apply_distinct(behavior.compile(rec.fit), view)
    for h, column in zip(rec.output_headers, columns, strict=True):
        values[h] = column if codes is None else gather(column, codes)


def _walk(plan: SourcePlan, view: Distinct) -> dict[str, list]:
    """Evaluate a fitted plan in step order: header -> column over the source's
    distinct values (``view``)."""
    values, inputs = {plan.header: view.values}, {plan.header: (view, None)}
    for rec in plan.steps:
        _evaluate(rec, values, inputs)
    return values


def _fit_source(header: str, view: Distinct, root_key: str, reg: Registry,
                opts: Options, dedup) -> tuple[SourcePlan, dict]:
    """Fit one source's step tree, each step on the view it is evaluated on;
    returns the plan and the columns over the source's distinct values."""
    source_stats = _source_stats(header, view)  # first: it checks the type of every value
    root_rule = reg.entry(root_key).target_rule
    steps: list[StepRecord] = []
    values, inputs = {header: view.values}, {header: (view, None)}

    def fit_step(cat_key: str, in_header: str) -> StepRecord:
        entry = reg.entry(cat_key)
        params = _resolve_params(opts, entry.behavior, cat_key, header)
        in_view = _input(in_header, values, inputs, view.counts)[0]
        state = entry.behavior.fit(in_view, params, root_rule)
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

    def run_generation(owner_key: str, in_header: str, slots) -> bool:
        # validate_registry has bounded the recursion depth from every root.
        tree = reg.tree(owner_key)
        input_retained = not any(
            tree.slot(s) and not PRIMITIVE_SEMANTICS[s][1] for s in slots
        )
        for slot in slots:
            offspring = PRIMITIVE_SEMANTICS[slot][0]
            for cat in tree.slot(slot):
                rec = fit_step(cat, in_header)
                if offspring and reg.tree(cat).has_downstream():
                    for out_header in rec.output_headers:
                        rec.retained = run_generation(cat, out_header, DOWNSTREAM_SLOTS)
        return input_retained

    if run_generation(root_key, header, UPSTREAM_SLOTS):
        # Root generation had no replacement entries: keep the source itself.
        fit_step("excl", header)
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
    return {h: gather(values[h], codes[h]) for h in plan.retained_headers()}


def _targets(plan: SourcePlan, values: dict[str, list], view: Distinct) -> np.ndarray:
    """Whether each distinct source value (``view``) is an infill target: read
    from the plan's NArw step on the source under its target rule, else marked."""
    for rec in plan.steps:
        if (rec.behavior == "NArw" and rec.input_header == plan.header
                and rec.fit["rule"] == plan.target_rule):
            return values[rec.output_headers[0]] == 1.0
    return infill_mod.mark_targets(view, plan.target_rule)


def _infill_columns(plan: SourcePlan, values: dict[str, list], view: Distinct, codes: np.ndarray,
                    infill_spec: dict, target: list[bool] | None = None) -> dict[str, np.ndarray]:
    """Fill each retained column that has an infill entry over the source's
    distinct values (``view``; ``target``, unless given, from ``_targets``) and return
    the row codes of each retained column: remapped for adjacent infill, else
    ``codes``."""
    row_codes = dict.fromkeys(plan.retained_headers(), codes)
    spec = {h: infill_spec[h] for h in row_codes if h in infill_spec}
    if spec and target is None:
        target = _targets(plan, values, view)
    for h, entry in spec.items():
        values[h] = infill_mod.apply_infill(values[h], target, entry["kind"], entry.get("value"))
    if adjacent := [h for h, entry in spec.items() if entry["kind"] == "adjacent"]:
        rows = target[codes]
        if not rows.all():  # a target row takes the previous non-target row's code, or the first's
            rows = np.maximum.accumulate(np.where(rows, rows.argmin(), np.arange(len(rows))))
            row_codes.update(dict.fromkeys(adjacent, codes[rows]))
    return row_codes


def _fit_infill_spec(plan: SourcePlan, counts: np.ndarray, values: dict[str, list],
                     target: list[bool], kind: str) -> dict[str, dict]:
    """Per retained column that may take the requested kind (``infill.eligible``):
    the kind, with train stats taken over the non-target distinct values
    (``target``) of the fit-time columns, each counting its entry of ``counts``.
    Other columns get no entry, which means no infill."""
    spec: dict[str, dict] = {}
    kept = np.flatnonzero(~target)
    for h, behavior in plan.column_behaviors().items():
        if not infill_mod.eligible(kind, behavior):
            continue
        stat = infill_mod.train_stat(kind, gather(values[h], kept), counts[kept])
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
        distinct, codes = read_cells(h, col, factorize)
        view = Distinct(distinct, np.bincount(codes))
        root = assignments.get(h) or root_of(view, opts.threshold)
        plan, values = _fit_source(h, view, root, reg, opts, dedup)
        plans[h] = plan
        kind, target = requested_infill.get(h), None
        if kind is not None:
            target = _targets(plan, values, view)
            infill_spec.update(_fit_infill_spec(plan, view.counts, values, target, kind))
        codes = _infill_columns(plan, values, view, codes, infill_spec, target)
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
        distinct, codes = read_cells(header, col, factorize)
        view = Distinct(distinct)
        checked_coltype(header, view.types)
        values = _walk(plan, view)
        codes = _infill_columns(plan, values, view, codes, artifact.infill_spec)
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
        found = _first_leaf(doc, "artifact", _non_finite)
        if found is None:
            raise
        raise DataError(f"cannot serialize {found[0]}: {found[1]!r} has no JSON form") from None
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:  # a text of the train table held a lone surrogate
        parts = [(f"source {plan['header']!r}", plan, f"artifact['per_source'][{i}]")
                 for i, plan in enumerate(doc["per_source"])]
        for what, part, where in [*parts, ("artifact", doc, "artifact")]:
            if found := _first_leaf(part, where, _lone_surrogate):
                raise DataError(f"cannot serialize {what}: {found[0]} holds the text {found[1]!r},"
                                " whose lone surrogate has no UTF-8 form") from None
        raise


def _non_finite(value) -> bool:
    return isinstance(value, float) and not math.isfinite(value)


def _lone_surrogate(value) -> bool:
    return isinstance(value, str) and any("\ud800" <= c <= "\udfff" for c in value)


def _first_leaf(doc, where: str, bad) -> tuple[str, object] | None:
    """The place and value of the first key or leaf value of ``doc`` that is
    ``bad``, if any; a key's place is its dict's."""
    if not isinstance(doc, dict | list):
        return (where, doc) if bad(doc) else None
    for key, item in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if bad(key):
            return where, key
        if found := _first_leaf(item, f"{where}[{key!r}]", bad):
            return found
    return None


_CATEGORIC_STATS = {"coltype": str, "total": int, "top": [[str, int]], "uniques": [str]}
_STEP = {"category": str, "behavior": str, "input_header": str, "output_headers": [str],
         "retained": bool}
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
    "infill_spec": {str: infill_mod.ENTRY_SCHEMA},
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
        if not infill_mod.eligible(spec["kind"], behaviors[h]):
            raise DataError(f"artifact infill_spec gives the {behaviors[h].name} column {h!r}"
                            f" {spec['kind']} infill, which fit never gives it; refit the artifact")
        if isinstance(spec.get("value"), str) and (
                behaviors[h].coltype_class in (CLASS_NUMERIC, CLASS_BOOLEAN)):
            raise DataError(f"artifact infill_spec fills the {behaviors[h].name} column {h!r},"
                            f" which holds floats, with the text {spec['value']!r}; refit the artifact")
    return artifact


_INVERT_PREFERENCE = {"1010": 0, "onht": 1, "bnry": 2, "ord3": 3, "mnmx": 4, "nmbr": 5}


def _decode_rows(header: str, rec: StepRecord, columns: list,
                 missing: np.ndarray) -> list[Cell] | np.ndarray:
    """The source cells of a step's encoded rows, None where ``missing``."""
    number = np.ones(len(missing), bool)

    def read():  # each column converted as the decode reads it
        for data in columns:
            values, is_number = floats(data)
            if is_number is not None:
                number[~is_number] = False
            yield values

    decoded, valid = BEHAVIORS[rec.behavior].decode(rec.fit, read(), len(missing))
    bad = np.flatnonzero(~((valid & number) | missing))
    if len(bad):
        row = [cells(c)[bad[0]] for c in columns]
        raise DataError(f"cannot invert source {header!r}: step {rec.category!r} "
                        f"columns {rec.output_headers} hold the pattern {row!r},"
                        " which the fitted step never outputs")
    if decoded.dtype == object or missing.any():
        return np.where(missing, None, decoded).tolist()
    return decoded


def invert(artifact: FitArtifact, encoded: TidyTable,
           sources: list[str] | None = None) -> tuple[TidyTable, list[str]]:
    """Recover source columns from encoded data where an invertible path exists.

    Returns the recovered table plus the list of non-invertible sources.
    Sources reached through an uppercase step recover the uppercased form,
    and a row whose NArw flag on the source is 1.0 recovers as missing,
    whatever it holds. Each step decodes its columns at once, read as
    float64 (``Behavior.decode``); a cell that is no float, int or bool
    decodes nowhere and flags nothing. Any other row the step never outputs raises DataError,
    naming the first such row's cells.
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
        flagged = np.zeros(encoded.row_count, bool) if narw is None else floats(narw)[0] == 1.0
        headers.append(header)
        columns.append(_decode_rows(header, rec, list(map(encoded.column_data, rec.output_headers)),
                                    flagged))
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
            fresh = _row_stats(header, col)
            if fresh["coltype"] != COLTYPE_NUMERIC:
                # No moments to compare: the new data holds text or no values.
                per_source[header] = {"kind": "type_change", "train_coltype": base["coltype"],
                                      "new_coltype": fresh["coltype"], "new_total": fresh["total"]}
                continue
            train, fresh = ({k: s[k] for k in ("mean", "std", "total")} for s in (base, fresh))
            per_source[header] = {"kind": "numeric", "train": train, "new": fresh,
                                  "deltas": {k: abs(fresh[k] - train[k]) for k in ("mean", "std")}}
            continue
        view = read_cells(header, col, distinct_counts)
        checked_coltype(header, view.types)  # as apply checks them: on the distinct values
        new_freq = view.text_counts
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
