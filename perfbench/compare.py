"""Compare benchmark records of two commits, side by side.

    python3 perfbench/compare.py BEFORE.json [BEFORE.json ...] -- AFTER.json [AFTER.json ...]

Each argument is a record that run.py wrote under ``.perfbench/results/``.
All records must come from one environment (Python, numpy and scipy
versions, nproc, BLAS threads, machine) and share workload, run length and
trace setting; otherwise the comparison is refused with exit status 2, so
results from different set-ups are never compared silently.  For every
metric it prints each side's median over the records and the change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SAME = ("environment", "workload", "seconds", "trace")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    sides = [[json.loads(Path(p).read_text()) for p in paths]
             for paths in (argv[:split], argv[split + 1:])]
    records = sides[0] + sides[1]
    if not sides[0] or not sides[1]:
        print("compare: each side needs at least one record", file=sys.stderr)
        return 2
    for key in SAME:
        values = {json.dumps(r[key], sort_keys=True) for r in records}
        if len(values) > 1:
            print(f"compare: records differ in {key}: {sorted(values)}", file=sys.stderr)
            return 2
    print(f"{'metric':<40} {'before':>14} {'after':>14} {'change':>8}  unit")
    for name, stats in records[0]["metrics"].items():
        before, after = (statistics.median(r["metrics"][name]["median"] for r in side)
                         for side in sides)
        change = f"{(after - before) / before:+.1%}" if before else "n/a"
        print(f"{name:<40} {before:>14.6g} {after:>14.6g} {change:>8}  {stats['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
