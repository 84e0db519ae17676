"""Benchmark of parsemunge's end-to-end operations on seeded workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload parse_highcard --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates plain and traced passes and prints the per-layer
metrics, including the tracing overhead. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A fuller record (environment, workload properties, every sample,
the gate's checks) goes to ``.perfbench_work/``, and traced runs also write
their spans there. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One thread everywhere: the numbers must measure the program, not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

MIN_PLAIN_PASSES = 3
SETUP_RUNS = 7
SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from perfbench.speed import Probe
with Probe() as probe:
    start = time.perf_counter()
    import parsemunge
    registry = parsemunge.builtin_registry()
    problems = parsemunge.validate_registry(registry)
    elapsed = time.perf_counter() - start
if problems:
    sys.exit("registry invalid: " + "; ".join(problems))
print(repr(elapsed), repr(probe.normalise(elapsed)))
"""

END_TO_END = {
    "setup_s": "s", "fit_s": "s", "apply_s": "s", "serialize_s": "s", "deserialize_s": "s",
    "invert_s": "s", "drift_s": "s", "load_csv_s": "s", "write_csv_s": "s",
    "importance_s": "s", "artifact_mb": "MiB", "peak_rss_mb": "MiB",
}


class RefusedError(Exception):
    """The run cannot produce a valid measurement here."""


def parsemunge_threads() -> str | None:
    """The PARSEMUNGE_THREADS value, refusing any the program would run on >1 thread."""
    raw = os.environ.get("PARSEMUNGE_THREADS")
    if raw is None:
        return None
    try:
        workers = int(raw)
    except ValueError:
        return raw  # the program falls back to one worker
    if workers > 1:
        raise RefusedError(f"PARSEMUNGE_THREADS={raw}: the benchmark runs on one thread only")
    return raw


def import_program():
    """Import parsemunge from this checkout's src/ and nowhere else."""
    if not (SRC / "parsemunge" / "__init__.py").is_file():
        raise RefusedError(f"no parsemunge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import numpy
    import parsemunge

    if Path(parsemunge.__file__).resolve().parent != SRC / "parsemunge":
        raise RefusedError(f"parsemunge imported from {parsemunge.__file__}, not {SRC}")
    return parsemunge, numpy


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, threads: str | None, numpy_version: str) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "PARSEMUNGE_THREADS": threads,
    }


def measure_setup() -> list[tuple[float, float]]:
    """(wall, normalised) seconds of import + builtin_registry +
    validate_registry, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(ROOT)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        wall, normalised = (float(x) for x in done.stdout.split())
        times.append((wall, normalised))
    return times


def run(args) -> int:
    threads = parsemunge_threads()
    _, numpy = import_program()
    from perfbench import pipeline, workloads
    from perfbench.tracer import Tracer

    if args.workload not in workloads.GENERATORS:
        raise RefusedError(f"unknown workload {args.workload!r}")
    WORKDIR.mkdir(exist_ok=True)
    env = environment(args.seed, threads, numpy.__version__)
    w = workloads.GENERATORS[args.workload](args.seed)
    gate = pipeline.Gate()
    for name, ok in w.checks.items():
        gate.check(f"workload.{name}", ok)
    pinned = load_pinned().get(w.name, {}).get(str(args.seed))
    runner = pipeline.Runner(w, WORKDIR, gate, pinned)
    tracer = Tracer()
    plain, layers, setup_times = [], [], []
    walls: dict[str, list] = {"plain": [], "traced": []}
    error = None
    try:
        if not args.trace:
            setup_times = measure_setup()
        start = time.perf_counter()
        while True:
            enough_time = time.perf_counter() - start >= args.seconds
            if args.trace:
                traced = walls["traced"]
                if enough_time and len(plain) >= 2 and traced:
                    break
                if plain and len(traced) < len(plain):
                    tracer.iteration += 1
                    tracer.reset_stats()
                    with tracer.installed(pipeline.trace_targets()):
                        traced.append(runner.run_pass(tracer)[1])
                    layers.append(pipeline.layer_metrics(
                        tracer, len(runner.first.blob), w.properties["categoric_uniques"],
                        {"load_csv": runner.train_csv.stat().st_size,
                         "write_csv": runner.out_csv.stat().st_size}))
                    continue
            elif enough_time and len(plain) >= MIN_PLAIN_PASSES:
                break
            samples, wall = runner.run_pass()
            plain.append(samples)
            walls["plain"].append(wall)
    except Exception:  # an operation raised: count it, report, and fail the run
        gate.attempted += 1
        gate.failed += 1
        error = traceback.format_exc()
        print(error, file=sys.stderr)

    if error is None and args.trace:
        plain_total = statistics.median(sum(p.values()) for p in walls["plain"])
        traced_total = statistics.median(sum(p.values()) for p in walls["traced"])
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_ratio"] = traced_total / plain_total
        env["fit_top_self_s"] = pipeline.top_self_times(tracer, pipeline.OPS["fit"])
        units = {name: layer_unit(name) for name in metrics}
    elif error is None:
        metrics = {f"{op}_s": statistics.median(p[op] for p in plain) for op in pipeline.OPS}
        metrics["setup_s"] = statistics.median(norm for _, norm in setup_times)
        metrics["artifact_mb"] = len(runner.first.blob) / 2**20
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    else:
        metrics, units = {}, {}

    env["apply_digest"] = runner.apply_digest
    env["apply_digest_pinned"] = pinned is not None
    record = {
        "workload": w.name,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "environment": env,
        "properties": w.properties,
        "checks": gate.results,
        "error_rate": gate.error_rate,
        "passes": {"normalised": plain, "wall": walls},
        "setup_samples": setup_times,
        "metrics": metrics,
        "error": error,
    }
    stem = f"{w.name}-seed{args.seed}-trace{int(bool(args.trace))}"
    (WORKDIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans = [dataclasses.asdict(s) for s in tracer.spans]
        (WORKDIR / f"spans-{stem}.json").write_text(json.dumps(spans))

    print(f"perfbench {w.name} seed={args.seed} trace={int(bool(args.trace))} "
          f"plain_passes={len(plain)} traced_passes={len(walls['traced'])}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value!r} {units[name]}")
    print("  error_rate", gate.error_rate, "failed checks:",
          [name for name, ok in gate.results.items() if not ok] or "none")
    print("properties", json.dumps(w.properties), "environment", json.dumps(env))
    correct = error is None and gate.failed == 0
    result = {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MiB/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("calls", ".entries", ".overlaps_out")):
        return "count"
    if name == "artifact.bytes_per_unique":
        return "B"
    return "ratio"


def load_pinned() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except RefusedError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
