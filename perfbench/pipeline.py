"""One pass of a workload through parsemunge's public API, and its gate.

A pass runs the end-to-end operations in a fixed order:
``load_csv`` -> ``fit`` -> ``serialize`` -> ``deserialize`` -> ``apply`` ->
``write_csv`` -> ``invert`` -> ``drift_report`` -> ``permutation_importance``.
Each operation repeats until the batch reaches ``MIN_BATCH_S``, and the sample
is the time per call: the wall time, and the wall time normalised to the
reference interpreter speed by ``speed.Probe``. Traced passes run every
operation once and are not normalised.

The gate checks the first pass in depth and every later pass for identical
outputs. Each operation call and each check counts as attempted; an operation
that raises or a check that fails counts as failed.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import parsemunge as pm
from parsemunge import extract_search, importance, infill, registry, stringparse, treeengine
from parsemunge.importance import TASK_CLASSIFICATION
from parsemunge.tidytable import TidyTable

from .speed import Probe
from .tracer import COUNT, SPAN, Stat, Tracer
from .workloads import Workload

MIN_BATCH_S = 0.1

# op -> span name the traced pass records it under
OPS = {
    "load_csv": "tidytable.load_csv",
    "fit": "treeengine.fit",
    "serialize": "treeengine.serialize",
    "deserialize": "treeengine.deserialize",
    "apply": "treeengine.apply",
    "write_csv": "tidytable.write_csv",
    "invert": "treeengine.invert",
    "drift": "treeengine.drift_report",
    "importance": "importance.permutation_importance",
}
REPLAY_ROOT = "check.replay"


def as_table(columns: dict[str, list]) -> TidyTable:
    return TidyTable(headers=list(columns), columns=list(columns.values()))


def table_digest(table: TidyTable) -> str:
    """sha256 of the table as canonical JSON; floats keep every bit via repr."""
    doc = json.dumps([table.headers, table.columns], allow_nan=False, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_input_csv(columns: dict[str, list], path: Path) -> None:
    """Write generated cells with the stdlib, so input writing is not under test."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(columns))
        for row in zip(*columns.values()):
            writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v
                             for v in row])


def fit_apply_digest(w: Workload) -> str:
    """Digest of ``apply`` on the test table, the value pinned per seed."""
    _, artifact = pm.fit(as_table(w.train), w.assignments, opts=pm.Options(**w.options))
    return table_digest(pm.apply(artifact, as_table(w.test)))


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.results: dict[str, bool] = {}

    def check(self, name: str, ok: bool) -> None:
        ok = bool(ok)
        self.attempted += 1
        self.failed += not ok
        self.results[name] = self.results.get(name, True) and ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Outputs:
    train: TidyTable
    encoded: TidyTable
    artifact: object
    blob: bytes
    restored: object
    encoded_test: TidyTable
    csv_digest: str
    recovered: TidyTable
    not_invertible: list
    drift: dict
    report: dict

    def comparable(self) -> tuple:
        return (self.train, self.encoded, self.blob, self.encoded_test, self.csv_digest,
                self.recovered, self.not_invertible, self.drift, self.report)


class Runner:
    """Runs passes of one workload; ``tracer`` instruments traced passes."""

    def __init__(self, w: Workload, workdir: Path, gate: Gate, pinned_digest: str | None = None):
        self.w = w
        self.gate = gate
        self.pinned_digest = pinned_digest
        self.apply_digest: str | None = None
        self.train = as_table(w.train)
        self.test = as_table(w.test)
        n = w.importance_rows
        self.importance_table = TidyTable(self.train.headers, [c[:n] for c in self.train.columns])
        self.labels = w.labels[:n]
        self.opts = pm.Options(**w.options)
        self.train_csv = workdir / f"{w.name}-train.csv"
        self.out_csv = workdir / f"{w.name}-encoded.csv"
        write_input_csv(w.train, self.train_csv)
        self.first: Outputs | None = None

    # -- one pass ---------------------------------------------------------------

    def _timed(self, fn):
        """(result, wall s per call, normalised s per call) of a batch of calls."""
        gc.collect()
        calls = 0
        with Probe() as probe:
            start = time.perf_counter()
            while True:
                self.gate.attempted += 1
                result = fn()
                calls += 1
                elapsed = time.perf_counter() - start
                if elapsed >= MIN_BATCH_S:
                    break
        return result, elapsed / calls, probe.normalise(elapsed) / calls

    def run_pass(self, tracer: Tracer | None = None) -> tuple[dict, dict]:
        """One pass; returns (normalised, wall) seconds per call for every op."""
        samples: dict[str, float] = {}
        walls: dict[str, float] = {}
        adapter = pm.builtin_tree(TASK_CLASSIFICATION, seed=0)
        if tracer is not None:
            adapter = pm.PredictorAdapter(
                train=tracer.wrap("importance.train", adapter.train),
                predict=tracer.wrap("importance.predict", adapter.predict),
                task=adapter.task,
            )

        def op(name, fn):
            if tracer is None:
                result, walls[name], samples[name] = self._timed(fn)
                return result
            gc.collect()
            self.gate.attempted += 1
            with tracer.span(OPS[name]):
                start = time.perf_counter()
                result = fn()
                samples[name] = walls[name] = time.perf_counter() - start
            return result

        train = op("load_csv", lambda: pm.load_csv(self.train_csv))
        encoded, artifact = op("fit", lambda: pm.fit(train, self.w.assignments, opts=self.opts))
        blob = op("serialize", lambda: pm.serialize(artifact))
        restored = op("deserialize", lambda: pm.deserialize(blob))
        encoded_test = op("apply", lambda: pm.apply(restored, self.test))
        op("write_csv", lambda: pm.write_csv(encoded_test, self.out_csv))
        recovered, not_invertible = op("invert", lambda: pm.invert(artifact, encoded))
        drift = op("drift", lambda: pm.drift_report(artifact, self.test))
        report = op("importance", lambda: pm.permutation_importance(
            artifact, self.importance_table, self.labels, adapter))
        out = Outputs(train, encoded, artifact, blob, restored, encoded_test,
                      file_digest(self.out_csv), recovered, not_invertible,
                      drift.to_jsonable(), report.to_jsonable())
        if tracer is not None:
            with tracer.span(REPLAY_ROOT):
                pm.apply(artifact, train)
        if self.first is None:
            self.first = out
            self._check_first(out)
        else:
            self.gate.check("repeat.identical_outputs", out.comparable() == self.first.comparable())
        return samples, walls

    # -- the gate ---------------------------------------------------------------

    def _check_first(self, out: Outputs) -> None:
        gate = self.gate
        gate.check("load_csv.matches_input", out.train == self.train)
        gate.check("replay.bit_identical",
                   table_digest(pm.apply(out.artifact, out.train)) == table_digest(out.encoded))
        gate.check("serialize.round_trip", pm.serialize(out.restored) == out.blob)
        gate.check("write_csv.round_trip", pm.load_csv(self.out_csv) == out.encoded_test)
        gate.check("invert.round_trip", self._inversions_match(out))
        gate.check("drift.unseen_rate", self._unseen_rates_match(out))
        sources = [h for h in self.train.headers if h != self.opts.labels_column]
        gate.check("importance.report",
                   sorted(out.report["metric1"]) == sorted(sources)
                   and 0.0 <= out.report["base_score"] <= 1.0)
        self.apply_digest = table_digest(out.encoded_test)
        if self.pinned_digest is not None:
            gate.check("apply.pinned_digest", self.apply_digest == self.pinned_digest)

    def _categoric_sources(self, out: Outputs) -> list[str]:
        return [h for h, plan in out.artifact.per_source.items()
                if plan.source_stats.get("coltype") == "categoric"]

    def _inversions_match(self, out: Outputs) -> bool:
        """Full-information categoric sources invert to the (uppercased) source."""
        checked = 0
        for h in self._categoric_sources(out):
            if h in out.not_invertible:
                continue
            upper = any(rec.behavior == "UPCS" for rec in out.artifact.per_source[h].steps)
            expected = [None if v is None else (v.upper() if upper else v)
                        for v in self.w.train[h]]
            if out.recovered.column(h) != expected:
                return False
            checked += 1
        return checked > 0

    def _unseen_rates_match(self, out: Outputs) -> bool:
        """drift_report's unseen rate equals a count made here from the tables."""
        for h in self._categoric_sources(out):
            known = set(self.w.train[h])
            present = [v for v in self.w.test[h] if v is not None]
            rate = sum(v not in known for v in present) / len(present) if present else 0.0
            if out.drift["per_source"][h]["unseen_rate"] != rate:
                return False
        return True


# -- tracing targets and per-layer metrics --------------------------------------

LAYER_BEHAVIORS = ("UPCS", "1010", "nmc7", "nmbr", "mnmx", "spl9", "sp10", "spl2", "spl5",
                   "nmcm", "srch", "ord3", "onht", "bnry", "NArw", "excl")


def _observe_scan(stat: Stat, args, result) -> None:
    stat.add("entries", len(args[0]))
    stat.add("overlaps_out", len(result.overlaps))
    stat.add("assigned", len(result.assignment))


def _observe_match(stat: Stat, args, result) -> None:
    stat.add("hits", result is not None)


def _observe_expand(stat: Stat, args, result) -> None:
    col = args[1]
    stat.add("rows", len(col))
    stat.add("distinct", len(set(col)))


def trace_targets():
    """(owner, attribute, span name, kind, observer) for every wrapped call site."""
    targets = [
        (treeengine, "_fit_source", "treeengine.fit_source", SPAN, None),
        (treeengine, "_expand_source", "treeengine.expand_source", SPAN, _observe_expand),
        (treeengine, "_fit_infill_spec", "treeengine.fit_infill_spec", SPAN, None),
        (treeengine, "_infill_columns", "treeengine.infill_columns", SPAN, None),
        (treeengine, "_source_stats", "treeengine.source_stats", SPAN, None),
        (treeengine, "distinct_counts", "tidytable.distinct_counts", SPAN, None),
        (treeengine, "builtin_registry", "registry.builtin_registry", SPAN, None),
        (treeengine, "validate_registry", "registry.validate_registry", SPAN, None),
        (registry.Registry, "snapshot", "registry.snapshot", SPAN, None),
        (infill, "apply_infill", "infill.apply_infill", SPAN, None),
        (infill, "train_stat", "infill.train_stat", SPAN, None),
        (infill, "mark_targets", "infill.mark_targets", SPAN, None),
        (stringparse, "scan_overlaps", "stringparse.scan_overlaps", SPAN, _observe_scan),
        (stringparse, "_match_train_overlap", "stringparse.unseen_match", COUNT, _observe_match),
        (extract_search, "nmcm_extract", "extract_search.nmcm_extract", COUNT, None),
        (importance, "_feature_matrix", "importance.feature_matrix", SPAN, None),
        (importance, "apply", "treeengine.apply", SPAN, None),
    ]
    for name, behavior in registry.BEHAVIORS.items():
        targets.append((behavior, "fit", f"behavior.{name}.fit", SPAN, None))
        targets.append((behavior, "apply_cell", f"behavior.{name}.apply_cell", COUNT, None))
    return targets


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, blob_bytes: int, train_uniques: int,
                  csv_bytes: dict[str, int]) -> dict[str, float]:
    """Per-layer values of one traced pass, summed over the pass's operations."""
    ops = tracer.totals(roots=set(OPS.values()))
    in_fit = tracer.totals(roots={OPS["fit"]})
    replay = tracer.totals(roots={REPLAY_ROOT})
    get = lambda name: ops.get(name, Stat())  # noqa: E731
    m: dict[str, float] = {}
    scan = get("stringparse.scan_overlaps")
    m["stringparse.scan_overlaps.s"] = scan.total
    m["stringparse.scan_overlaps.calls"] = scan.calls
    m["stringparse.scan_overlaps.entries"] = scan.extra.get("entries", 0)
    m["stringparse.scan_overlaps.overlaps_out"] = scan.extra.get("overlaps_out", 0)
    m["stringparse.scan_overlaps.assigned_ratio"] = _ratio(scan.extra.get("assigned", 0),
                                                           scan.extra.get("entries", 0))
    match = get("stringparse.unseen_match")
    m["stringparse.unseen_match.s"] = match.total
    m["stringparse.unseen_match.calls"] = match.calls
    m["stringparse.unseen_match.hit_ratio"] = _ratio(match.extra.get("hits", 0), match.calls)
    extract = get("extract_search.nmcm_extract")
    m["extract_search.nmcm_extract.s"] = extract.total
    m["extract_search.nmcm_extract.calls"] = extract.calls
    for name in LAYER_BEHAVIORS:
        cell = get(f"behavior.{name}.apply_cell")
        m[f"behavior.{name}.fit_s"] = get(f"behavior.{name}.fit").total
        m[f"behavior.{name}.apply_cell_calls"] = cell.calls
        m[f"behavior.{name}.apply_cell_s"] = cell.total
    for name in ("fit_source", "expand_source", "fit_infill_spec", "infill_columns",
                 "source_stats", "serialize", "deserialize", "invert", "drift_report"):
        m[f"treeengine.{name}.s"] = get(f"treeengine.{name}").total
    expand = get("treeengine.expand_source")
    m["treeengine.expand_source.self_s"] = expand.self_time
    m["treeengine.rows_per_distinct"] = _ratio(expand.extra.get("rows", 0),
                                              expand.extra.get("distinct", 0))
    cell_calls = lambda stats: sum(  # noqa: E731
        s.calls for n, s in stats.items() if n.endswith(".apply_cell"))
    m["treeengine.fit.evals_per_distinct"] = _ratio(cell_calls(in_fit), cell_calls(replay))
    m["artifact.bytes_per_unique"] = _ratio(blob_bytes, train_uniques)
    for name in ("load_csv", "write_csv"):
        s = get(f"tidytable.{name}").total
        m[f"tidytable.{name}.s"] = s
        m[f"tidytable.{name}.mb_per_s"] = _ratio(csv_bytes[name] / 2**20, s)
    counts = get("tidytable.distinct_counts")
    m["tidytable.distinct_counts.s"] = counts.total
    m["tidytable.distinct_counts.calls"] = counts.calls
    for name in ("apply_infill", "train_stat", "mark_targets"):
        m[f"infill.{name}.s"] = get(f"infill.{name}").total
    for name in ("builtin_registry", "validate_registry", "snapshot"):
        m[f"registry.{name}.s"] = get(f"registry.{name}").total
    for name in ("feature_matrix", "train", "predict"):
        m[f"importance.{name}.s"] = get(f"importance.{name}").total
    m["importance.predict.calls"] = get("importance.predict").calls
    return m


def top_self_times(tracer: Tracer, root: str, n: int = 5) -> list[tuple[str, float]]:
    stats = tracer.totals(roots={root})
    ranked = sorted(((name, s.self_time) for name, s in stats.items()), key=lambda kv: -kv[1])
    return ranked[:n]
