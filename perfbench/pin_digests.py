"""Pin the digest of each workload's encoded ``apply`` output per seed.

    python3 perfbench/pin_digests.py [--seeds 0-63] [--workload NAME ...]

Writes perfbench/digests.json, which the benchmark's gate compares against.
Run it only when a change is meant to alter the encoded output, and say so
where the change is described.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from perfbench import pipeline, workloads  # noqa: E402
from perfbench.run import DIGESTS, load_pinned  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.GENERATORS))
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    pinned = load_pinned()
    for name in args.workload or list(workloads.GENERATORS):
        table = pinned.setdefault(name, {})
        for seed in range(lo, hi + 1):
            table[str(seed)] = pipeline.fit_apply_digest(workloads.GENERATORS[name](seed))
            print(name, seed, table[str(seed)], flush=True)
        pinned[name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(dict(sorted(pinned.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
