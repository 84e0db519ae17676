"""Command-line surface: fit, apply, invert, importance, inspect.

Exit codes: 0 success, 2 configuration error, 3 data error. Diagnostics go to
stderr; stdout carries only summary status lines.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .errors import ConfigError, DataError
from .importance import TASK_CLASSIFICATION, TASK_REGRESSION, builtin_tree, permutation_importance
from .registry import BEHAVIORS, ENTRY_SPEC, TREE_SPEC, Registry, builtin_registry, merge_overrides
from .schema import checker
from .tidytable import COLTYPE_NUMERIC, TidyTable, infer_coltype, load_csv, write_csv
from .treeengine import (
    ARTIFACT_SUFFIX,
    FitArtifact,
    OPTIONS_SPEC,
    Options,
    apply,
    deserialize,
    drift_report,
    fit,
    invert,
    serialize,
)

logger = logging.getLogger("parsemunge")

# Every key is optional. The values inside `assignparam` are transform
# parameters, which fit checks on the param_schema of the behaviour reading them;
# the top-level `srch` block holds the `srch` parameters of each column.
_check_config = checker({
    "assigncat?": {str: [str]},
    "assignparam?": OPTIONS_SPEC["assignparam"],
    "assigninfill?": OPTIONS_SPEC["assigninfill"],
    "transformdict?": {str: TREE_SPEC},
    "processdict?": {str: ENTRY_SPEC},
    "labels_column?": OPTIONS_SPEC["labels_column"],
    "seed?": OPTIONS_SPEC["seed"],
    "threshold?": OPTIONS_SPEC["threshold"],
    "valpercent?": float | int | None,
    "srch?": {str: BEHAVIORS["srch"].param_schema},
    "shuffletrain?": OPTIONS_SPEC["shuffle_train"],
}, "config", ConfigError)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    _check_config(doc)
    # Convenience: a top-level srch block is per-column srch parameters.
    srch_block = doc.pop("srch", None)
    if srch_block:
        doc.setdefault("assignparam", {}).setdefault("srch", {}).update(srch_block)
    return doc


def _build_registry(config: dict) -> Registry:
    return merge_overrides(builtin_registry(), config.get("transformdict"),
                           config.get("processdict"))


def _assignments(config: dict, reg: Registry) -> dict[str, str]:
    out: dict[str, str] = {}
    for category, headers in config.get("assigncat", {}).items():
        if not reg.has(category):
            raise ConfigError(f"unknown transformation category {category!r}")
        for h in headers:
            if h in out:
                raise ConfigError(f"column {h!r} assigned to multiple categories")
            out[h] = category
    return out


def _options(config: dict, args) -> Options:
    return Options(
        threshold=args.threshold if args.threshold is not None else config.get("threshold", 255),
        seed=args.seed if args.seed is not None else config.get("seed", 0),
        labels_column=(args.labels if getattr(args, "labels", None)
                       else config.get("labels_column")),
        shuffle_train=config.get("shuffletrain", False),
        assignparam=config.get("assignparam", {}),
        assigninfill=config.get("assigninfill", {}),
    )


def _read_artifact(path: str) -> FitArtifact:
    try:
        return deserialize(Path(path).read_bytes())
    except FileNotFoundError:
        raise DataError(f"artifact file not found: {path}")


def _fit_report(artifact: FitArtifact) -> str:
    lines = []
    for header, plan in artifact.per_source.items():
        stats = plan.source_stats
        if stats.get("coltype") == COLTYPE_NUMERIC:
            shape = f"values={stats.get('total')}"
        else:
            shape = f"uniques={len(stats.get('uniques', []))}"
        lines.append(f"{header}: root={plan.root} coltype={stats.get('coltype')} {shape}")
        for rec in plan.steps:
            mark = "kept" if rec.retained else "dropped"
            outs = ", ".join(rec.output_headers) or "(no columns)"
            lines.append(f"  {rec.category}: {rec.input_header} -> {outs} [{mark}]")
    lines.append("")
    lines.append("output order:")
    for h in artifact.output_order:
        lines.append(f"  {h}")
    return "\n".join(lines) + "\n"


def cmd_fit(args) -> int:
    config = _load_config(args.config)
    reg = _build_registry(config)
    assignments = _assignments(config, reg)
    opts = _options(config, args)
    train = load_csv(args.train)
    encoded, artifact = fit(train, assignments, reg, opts)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(encoded, out_dir / "train_encoded.csv")
    (out_dir / f"artifact{ARTIFACT_SUFFIX}").write_bytes(serialize(artifact))
    (out_dir / "fit_report.txt").write_text(_fit_report(artifact), encoding="utf-8")
    if opts.labels_column:
        labels = train.column(opts.labels_column)
        write_csv(TidyTable(headers=[opts.labels_column], columns=[labels]),
                  out_dir / "train_labels.csv")
    if args.test:
        test = load_csv(args.test)
        write_csv(apply(artifact, test), out_dir / "test_encoded.csv")
    print(f"fit: {len(artifact.per_source)} source columns -> "
          f"{len(artifact.output_order)} encoded columns ({out_dir})")
    return 0


def cmd_apply(args) -> int:
    artifact = _read_artifact(args.artifact)
    test = load_csv(args.test)
    encoded = apply(artifact, test)
    write_csv(encoded, args.out)
    print(f"apply: {test.row_count} rows -> {len(encoded.headers)} columns ({args.out})")
    if args.drift:
        report = drift_report(artifact, test)
        for header, entry in report.per_source.items():
            if entry["kind"] == "numeric":
                print(f"drift {header}: mean delta {entry['deltas']['mean']:.6g}, "
                      f"std delta {entry['deltas']['std']:.6g}")
            elif entry["kind"] == "type_change":
                print(f"drift {header}: type {entry['train_coltype']} -> {entry['new_coltype']}")
            else:
                print(f"drift {header}: unseen rate {entry['unseen_rate']:.6g}")
    return 0


def cmd_invert(args) -> int:
    artifact = _read_artifact(args.artifact)
    encoded = load_csv(args.encoded)
    recovered, failed = invert(artifact, encoded)
    write_csv(recovered, args.out)
    for header in failed:
        print(f"non-invertible source: {header}", file=sys.stderr)
    print(f"invert: recovered {len(recovered.headers)} source columns ({args.out})")
    return 0


def cmd_importance(args) -> int:
    config = _load_config(args.config)
    reg = _build_registry(config)
    assignments = _assignments(config, reg)
    opts = _options(config, args)
    if not opts.labels_column:
        raise ConfigError("importance requires labels_column (config) or --labels")
    valpercent = config.get("valpercent")
    val_fraction = 0.2 if valpercent is None else valpercent
    if not 0 < val_fraction < 1:
        raise ConfigError(f"config['valpercent'] must lie strictly between 0 and 1, "
                          f"not {valpercent!r}")
    train = load_csv(args.train)
    labels = train.column(opts.labels_column)
    encoded, artifact = fit(train, assignments, reg, opts)
    task = TASK_REGRESSION if infer_coltype(labels) == COLTYPE_NUMERIC \
        else TASK_CLASSIFICATION
    adapter = builtin_tree(task, seed=opts.seed)
    report = permutation_importance(
        artifact, train, labels, adapter, val_fraction=val_fraction, seed=opts.seed,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "importance.json").write_bytes(report.to_json())
    (out_dir / "importance.txt").write_text(report.sorted_table(), encoding="utf-8")
    print(f"importance: base {task} score {report.base_score:.6f} ({out_dir})")
    return 0


def cmd_inspect(args) -> int:
    artifact = _read_artifact(args.artifact)
    print(f"format_version: {artifact.format_version}")
    print(f"source columns: {len(artifact.per_source)}")
    print(f"output columns: {len(artifact.output_order)}")
    print(_fit_report(artifact), end="")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parsemunge",
        description="Train-basis-consistent tabular preprocessing with "
                    "categoric string parsing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit transforms on a train CSV")
    p_fit.add_argument("train")
    p_fit.add_argument("--test", help="optional test CSV encoded on the same basis")
    p_fit.add_argument("--config", help="JSON run configuration")
    p_fit.add_argument("--out-dir", default="parsemunge_out")
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--labels", help="labels column excluded from transforms")
    p_fit.add_argument("--threshold", type=int, help="cardinality heuristic threshold")
    p_fit.set_defaults(func=cmd_fit)

    p_apply = sub.add_parser("apply", help="apply a fit artifact to new data")
    p_apply.add_argument("artifact")
    p_apply.add_argument("test")
    p_apply.add_argument("--out", default="test_encoded.csv")
    p_apply.add_argument("--drift", action="store_true", help="print drift summary")
    p_apply.set_defaults(func=cmd_apply)

    p_inv = sub.add_parser("invert", help="recover source columns from encoded data")
    p_inv.add_argument("artifact")
    p_inv.add_argument("encoded")
    p_inv.add_argument("--out", default="recovered.csv")
    p_inv.set_defaults(func=cmd_invert)

    p_imp = sub.add_parser("importance", help="permutation feature importance")
    p_imp.add_argument("train")
    p_imp.add_argument("--config", help="JSON run configuration with labels_column")
    p_imp.add_argument("--labels", help="labels column header")
    p_imp.add_argument("--out-dir", default="parsemunge_out")
    p_imp.add_argument("--seed", type=int)
    p_imp.add_argument("--threshold", type=int)
    p_imp.set_defaults(func=cmd_importance)

    p_ins = sub.add_parser("inspect", help="summarize a fit artifact")
    p_ins.add_argument("artifact")
    p_ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s: %(message)s")
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
