"""Print a sha256 of every output of each benchmark workload, to show that a
change keeps every output byte-identical.

    python3 tools/identity_digests.py [--seeds 0,7,13,63] [--workload NAME ...] [--against DIR]

Each (workload, seed) runs in its own process at full benchmark size and
prints one line per output: ``workload seed output sha256``. The outputs are
the artifact bytes, the encoded train table, ``apply`` of the deserialized
artifact on the test table, the storage form of each column of both tables
(a float64 array or a list), the written CSV of both tables, ``invert`` of
both tables in memory and read back from their CSVs (the applied test table
reaches the unseen code-0 and NArw-missing decodes), the written CSV of
``invert`` of both tables (the list columns of texts that the CLI's ``invert``
writes), ``drift_report`` on the test and the train table, and the
``ImportanceReport`` JSON of the workload's labels and of a regression on
seeded float targets (``0.37 * sum of the features + N(0, 1)``), whose sums
round, so that any change in the order of the trees' sums shows. Two more
fits, of every non-numeric source under ``sbst`` and under a case-sensitive
``srch`` with fixed terms (``SEARCH``), give the artifact and ``apply``
output of roots that the workloads do not run;
a third, of ``sbst`` on a fixed table (``TIES``), gives those of entries that
contain two candidates of one length, which no workload holds. The overlap
scan roots that no workload runs (``SCAN_ROOTS``) are fitted over the
non-numeric sources of the first ``SCAN_ROWS`` train rows, for their artifact
and ``apply`` output on the test table. Then the workload is refitted once per
stored infill kind (``INFILL_KINDS``) over every source, for the artifact and
``apply`` output of fills that the workloads do not run.

With ``--against DIR``, each (workload, seed) also runs on the program and
workloads of the checkout at DIR; only the lines that differ are printed,
``-`` for DIR and ``+`` for this checkout, and the exit status is 1 if any do.
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
# The srch terms of the extra fit: single characters and short words in both
# cases, so that case-sensitive hits differ from case-insensitive ones.
SEARCH = ["a", "E", "0", "1", "-", ".", " ", "re", "Mac", "ab"]
# The texts of the fixed sbst fit: "abcde vwxyz" and "vwxyz-abcde" each contain
# the candidates "abcde" and "vwxyz", of one length, so the tie-break decides.
TIES = ["abcde", "vwxyz", "abcde vwxyz", "vwxyz-abcde", "pqrst", "pqrst!"]
# The overlap scan roots that no workload runs, and the train rows they are
# fitted on: the scan of sp15 and sp19 is quadratic in the uniques.
SCAN_ROOTS = ["splt", "sp15", "sp19"]
SCAN_ROWS = 300
# Every infill kind that an artifact stores, by its config name.
INFILL_KINDS = ["zeroinfill", "oneinfill", "negzeroinfill", "adjinfill", "meaninfill",
                "medianinfill", "modeinfill"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(doc) -> str:
    """sha256 of canonical JSON; a float keeps every bit through repr, -0.0 included."""
    return _sha(json.dumps(doc, sort_keys=True, allow_nan=False, separators=(",", ":")).encode())


def _table_sha(table) -> str:
    return _json_sha([table.headers, table.columns])


def _form_sha(table) -> str:
    """sha256 of each column's storage form: a column that becomes a list
    keeps its cells but moves the CSV writer and ``invert``."""
    return _json_sha(["list" if isinstance(table.column_data(h), list) else "array"
                      for h in table.headers])


def digests(name: str, seed: int) -> dict[str, str]:
    """The digest of each output of one workload at one seed, from the program
    and workloads first on ``sys.path``."""
    import numpy as np
    import parsemunge as pm
    from parsemunge.importance import TASK_CLASSIFICATION, TASK_REGRESSION, _feature_matrix
    from parsemunge.tidytable import COLTYPE_NUMERIC
    from perfbench import workloads

    w = workloads.GENERATORS[name](seed)
    train = pm.TidyTable(list(w.train), list(w.train.values()))
    test = pm.TidyTable(list(w.test), list(w.test.values()))
    encoded, artifact = pm.fit(train, w.assignments, opts=pm.Options(**w.options))
    blob = pm.serialize(artifact)
    applied = pm.apply(pm.deserialize(blob), test)
    out = {"artifact": _sha(blob), "encoded": _table_sha(encoded), "apply": _table_sha(applied),
           "encoded_form": _form_sha(encoded), "apply_form": _form_sha(applied)}
    with tempfile.TemporaryDirectory() as tmp:
        def written(label, table):
            path = Path(tmp) / f"{label}.csv"
            pm.write_csv(table, path)
            return path

        for label, table in (("encoded", encoded), ("apply", applied)):
            out[f"{label}_csv"] = _sha(written(label, table).read_bytes())
        read_back = {label: pm.load_csv(Path(tmp) / f"{label}.csv") for label in ("encoded", "apply")}
        for label, table in (("invert", encoded), ("invert_csv", read_back["encoded"]),
                             ("invert_apply", applied), ("invert_apply_csv", read_back["apply"])):
            recovered, failed = pm.invert(artifact, table)
            out[label] = _json_sha([recovered.headers, recovered.columns, failed])
            if label in ("invert", "invert_apply"):
                out[f"{label}_written"] = _sha(written(label, recovered).read_bytes())
    out["drift_test"] = _json_sha(pm.drift_report(artifact, test).to_jsonable())
    out["drift_train"] = _json_sha(pm.drift_report(artifact, train).to_jsonable())
    n = w.importance_rows
    subset = pm.TidyTable(train.headers, [c[:n] for c in train.columns])
    report = pm.permutation_importance(artifact, subset, w.labels[:n],
                                       pm.builtin_tree(TASK_CLASSIFICATION, seed=0))
    out["importance"] = _json_sha(report.to_jsonable())
    X, _, _ = _feature_matrix(artifact, pm.apply(artifact, subset))
    targets = 0.37 * X.sum(axis=1) + np.random.default_rng(seed).normal(0.0, 1.0, len(X))
    report = pm.permutation_importance(artifact, subset, targets.tolist(),
                                       pm.builtin_tree(TASK_REGRESSION, seed=0))
    out["importance_regression"] = _json_sha(report.to_jsonable())
    text = [h for h in train.headers if pm.infer_coltype(train.column(h)) != COLTYPE_NUMERIC]
    for root, params in (("sbst", {}), ("srch", {"search": SEARCH, "case_sensitive": True})):
        opts = pm.Options(assignparam={root: dict.fromkeys(text, params)})
        _, fitted = pm.fit(train, dict.fromkeys(text, root), opts=opts)
        out[f"{root}_artifact"] = _sha(pm.serialize(fitted))
        out[f"{root}_apply"] = _table_sha(pm.apply(fitted, test))
    prefix = pm.TidyTable(train.headers, [c[:SCAN_ROWS] for c in train.columns])
    for root in SCAN_ROOTS:
        _, fitted = pm.fit(prefix, dict.fromkeys(text, root))
        out[f"{root}_artifact"] = _sha(pm.serialize(fitted))
        out[f"{root}_apply"] = _table_sha(pm.apply(fitted, test))
    ties = pm.TidyTable(["t"], [TIES])
    _, fitted = pm.fit(ties, {"t": "sbst"})
    out["sbst_ties_artifact"] = _sha(pm.serialize(fitted))
    out["sbst_ties_apply"] = _table_sha(pm.apply(fitted, ties))
    for kind in INFILL_KINDS:
        opts = pm.Options(**{**w.options, "assigninfill": {kind: list(w.train)}})
        _, fitted = pm.fit(train, w.assignments, opts=opts)
        out[f"infill_{kind}_artifact"] = _sha(pm.serialize(fitted))
        out[f"infill_{kind}_apply"] = _table_sha(pm.apply(fitted, test))
    return out


def _run(root: Path, name: str, seed: str) -> list[str] | None:
    """The digest lines of one (workload, seed) on the checkout at ``root``, in
    a process of its own; None, with its error written, if it fails."""
    done = subprocess.run([sys.executable, __file__, "--one", name, seed, str(root)],
                          capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        return None
    return done.stdout.splitlines()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--one"]:  # one (workload, seed) on one checkout, as _run starts it
        name, seed, root = argv[1:]
        sys.path[:0] = [str(Path(root) / "src"), root]
        for output, digest in digests(name, int(seed)).items():
            print(name, seed, output, digest)
        return 0
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import GENERATORS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0,7,13,63", help="comma-separated seeds")
    parser.add_argument("--workload", action="append", choices=sorted(GENERATORS))
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="another checkout: print only the lines that differ from it")
    args = parser.parse_args(argv)
    differ = False
    for name in args.workload or list(GENERATORS):
        for seed in args.seeds.split(","):
            lines = _run(ROOT, name, seed)
            if lines is None:
                return 2
            if args.against is None:
                print(*lines, sep="\n", flush=True)
                continue
            other = _run(args.against.resolve(), name, seed)
            if other is None:
                return 2
            for old, new in zip(other, lines):
                if old != new:
                    print(f"- {old}\n+ {new}", flush=True)
            if len(other) != len(lines):
                print(f"{name} {seed}: {len(other)} outputs in {args.against}, {len(lines)} here")
            differ = differ or other != lines
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
