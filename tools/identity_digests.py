"""Print a sha256 of every output of each benchmark workload, to show that a
change keeps every output byte-identical.

    python3 tools/identity_digests.py [--seeds 0,7,13,63] [--workload NAME ...]

Each (workload, seed) runs in its own process at full benchmark size and
prints one line per output: ``workload seed output sha256``. The outputs are
the artifact bytes, the encoded train table, ``apply`` of the deserialized
artifact on the test table, the written CSV of both tables, ``invert`` of the
encoded train table in memory and read back from its CSV, ``drift_report`` on
the test and the train table, and the ``ImportanceReport`` JSON. Run it on two
checkouts and diff the output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import parsemunge as pm  # noqa: E402
from parsemunge.importance import TASK_CLASSIFICATION  # noqa: E402
from perfbench import workloads  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(doc) -> str:
    """sha256 of canonical JSON; a float keeps every bit through repr, -0.0 included."""
    return _sha(json.dumps(doc, sort_keys=True, allow_nan=False, separators=(",", ":")).encode())


def _table_sha(table: pm.TidyTable) -> str:
    return _json_sha([table.headers, table.columns])


def digests(name: str, seed: int) -> dict[str, str]:
    """The digest of each output of one workload at one seed."""
    w = workloads.GENERATORS[name](seed)
    train = pm.TidyTable(list(w.train), list(w.train.values()))
    test = pm.TidyTable(list(w.test), list(w.test.values()))
    encoded, artifact = pm.fit(train, w.assignments, opts=pm.Options(**w.options))
    blob = pm.serialize(artifact)
    applied = pm.apply(pm.deserialize(blob), test)
    out = {"artifact": _sha(blob), "encoded": _table_sha(encoded), "apply": _table_sha(applied)}
    with tempfile.TemporaryDirectory() as tmp:
        for label, table in (("encoded", encoded), ("apply", applied)):
            path = Path(tmp) / f"{label}.csv"
            pm.write_csv(table, path)
            out[f"{label}_csv"] = _sha(path.read_bytes())
        read_back = pm.load_csv(Path(tmp) / "encoded.csv")
    for label, table in (("invert", encoded), ("invert_csv", read_back)):
        recovered, failed = pm.invert(artifact, table)
        out[label] = _json_sha([recovered.headers, recovered.columns, failed])
    out["drift_test"] = _json_sha(pm.drift_report(artifact, test).to_jsonable())
    out["drift_train"] = _json_sha(pm.drift_report(artifact, train).to_jsonable())
    n = w.importance_rows
    subset = pm.TidyTable(train.headers, [c[:n] for c in train.columns])
    report = pm.permutation_importance(artifact, subset, w.labels[:n],
                                       pm.builtin_tree(TASK_CLASSIFICATION, seed=0))
    out["importance"] = _json_sha(report.to_jsonable())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0,7,13,63", help="comma-separated seeds")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--one", nargs=2, metavar=("WORKLOAD", "SEED"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        name, seed = args.one
        for output, digest in digests(name, int(seed)).items():
            print(name, seed, output, digest)
        return 0
    for name in args.workload or list(workloads.GENERATORS):
        for seed in args.seeds.split(","):
            done = subprocess.run([sys.executable, __file__, "--one", name, seed],
                                  capture_output=True, text=True)
            if done.returncode:
                sys.stderr.write(done.stderr)
                return done.returncode
            print(done.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
