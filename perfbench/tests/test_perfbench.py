"""Tests of the benchmark's own pieces: generators, the digest gate, the tracer.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import pipeline, run, speed, workloads
from perfbench.tracer import COUNT, SPAN, Tracer

ROOT = Path(__file__).resolve().parents[2]

SMALL = {
    "parse_highcard": {"rows": 600, "train_pool": 200, "test_extra": 20},
    "wide_roundtrip": {"rows": 600},
    "unseen_drift": {"rows": 600, "train_uniques": 60, "test_uniques": 600},
    "importance_prefix": {"rows": 300},
}


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    make = workloads.GENERATORS[name]
    a, b, c = make(7, **SMALL[name]), make(7, **SMALL[name]), make(8, **SMALL[name])
    assert (a.train, a.test, a.labels) == (b.train, b.test, b.labels)
    assert (a.train, a.test) != (c.train, c.test)
    assert len(a.labels) == min(a.importance_rows, len(next(iter(a.train.values()))))


@pytest.mark.parametrize("seed", [0, 12345])
def test_full_size_workloads_pass_their_self_checks(seed):
    for name, make in workloads.GENERATORS.items():
        w = make(seed)
        assert w.checks and all(w.checks.values()), (name, w.checks, w.properties)


@pytest.fixture(scope="module")
def small_runner(tmp_path_factory):
    w = workloads.importance_prefix(3, rows=300)
    runner = pipeline.Runner(w, tmp_path_factory.mktemp("work"), pipeline.Gate())
    runner.run_pass()
    return runner


def test_first_pass_passes_the_gate(small_runner):
    gate = small_runner.gate
    assert gate.failed == 0 and gate.attempted > 0
    assert set(gate.results) >= {"replay.bit_identical", "serialize.round_trip",
                                 "invert.round_trip", "write_csv.round_trip"}


def test_digest_gate_catches_one_changed_cell(small_runner, tmp_path):
    table = small_runner.first.encoded_test
    pinned = pipeline.table_digest(table)
    assert small_runner.apply_digest == pinned
    for changed in (-0.0 if table.columns[0][0] == 0.0 else 0.0,
                    math.nextafter(table.columns[0][0], math.inf)):
        columns = [list(col) for col in table.columns]
        columns[0][0] = changed
        other = pipeline.table_digest(type(table)(list(table.headers), columns))
        assert other != pinned
        for digest, failed in ((pinned, 0), (other, 1)):
            gate = pipeline.Gate()
            pipeline.Runner(small_runner.w, tmp_path, gate, digest).run_pass()
            assert gate.failed == failed
            assert gate.results["apply.pinned_digest"] is (failed == 0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    mod = types.SimpleNamespace()
    mod.cell = lambda: clock.advance(0.5)

    def inner():
        clock.advance(1.0)
        mod.cell()
        mod.cell()

    def outer():
        clock.advance(2.0)
        mod.inner()
        clock.advance(3.0)
        mod.inner()

    mod.inner, mod.outer = inner, outer
    targets = [(mod, "outer", "outer", SPAN, None), (mod, "inner", "inner", SPAN, None),
               (mod, "cell", "cell", COUNT, None)]
    with tracer.installed(targets):
        with tracer.span("op"):
            clock.advance(0.25)
            mod.outer()
    assert mod.outer is outer and mod.inner is inner

    totals = tracer.totals()
    assert (totals["op"].total, totals["op"].self_time) == (9.25, 0.25)
    assert (totals["outer"].total, totals["outer"].self_time) == (9.0, 5.0)
    assert (totals["inner"].calls, totals["inner"].total, totals["inner"].self_time) == (2, 4.0, 2.0)
    assert (totals["cell"].calls, totals["cell"].self_time) == (4, 2.0)
    assert sorted(tracer.stats) == [("op", name) for name in ("cell", "inner", "op", "outer")]
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    assert "cell" not in by_name
    (op,), (outer_span,) = by_name["op"], by_name["outer"]
    assert op.parent_id is None and outer_span.parent_id == op.span_id
    assert [s.parent_id for s in by_name["inner"]] == [outer_span.span_id] * 2


def test_patching_an_instance_method_is_undone():
    class Thing:
        def work(self):
            return 1

    thing, tracer = Thing(), Tracer()
    with tracer.installed([(thing, "work", "work", COUNT, None)]):
        assert thing.work() == 1 and "work" in vars(thing)
    assert "work" not in vars(thing)
    assert tracer.totals()["work"].calls == 1


def test_traced_pass_emits_every_listed_layer_metric(small_runner):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    with tracer.installed(pipeline.trace_targets()):
        small_runner.run_pass(tracer)
    from parsemunge import registry
    assert all("apply_cell" not in vars(b) for b in registry.BEHAVIORS.values())
    metrics = pipeline.layer_metrics(tracer, 1000, 10, {"load_csv": 1, "write_csv": 1})
    assert [m["name"] for m in spec["per_layer"]] == [*metrics, "trace.overhead_ratio"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert metrics["treeengine.fit.evals_per_distinct"] > 1
    assert metrics["stringparse.unseen_match.calls"] == 0


def test_normalise_removes_tick_time_and_rescales_by_the_median_tick():
    probe = speed.Probe()
    probe.ticks = [2 * speed.REFERENCE_TICK_S, 4 * speed.REFERENCE_TICK_S, 100.0]
    probe.overhead_s = 0.5
    assert probe.normalise(8.5) == pytest.approx(2.0)
    with speed.Probe() as probe:
        sum(range(10))
    assert len(probe.ticks) == 1 and probe.overhead_s == 0.0


def test_refuses_more_than_one_program_thread(monkeypatch):
    monkeypatch.setenv("PARSEMUNGE_THREADS", "2")
    with pytest.raises(run.RefusedError):
        run.parsemunge_threads()
    monkeypatch.setenv("PARSEMUNGE_THREADS", "1")
    assert run.parsemunge_threads() == "1"


def test_fails_without_printing_a_result_when_sources_are_absent(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "parse_highcard", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
