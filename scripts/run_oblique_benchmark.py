#!/usr/bin/env python3
"""Run the risk-vs-complexity benchmark on the bundled synthetic datasets.

The oblique half-space dataset is the headline comparison: the axis-parallel
baseline needs staircases of single-feature conditions to approximate a
diagonal boundary, while the oblique learner can express it with one
two-feature condition.  The rotated box and staircase datasets probe the
same effect with harder and easier geometry respectively.

Usage:
    python3 scripts/run_oblique_benchmark.py --out results/synthetic [--jobs 4]
    python3 scripts/run_oblique_benchmark.py --quick   # small smoke run
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from obliquerules.datasets import make_oblique, make_rotated_box, make_staircase
from obliquerules.evaluation import INF, ProtocolConfig, run_benchmark


def fmt(v) -> str:
    if v == INF:
        return "inf"
    return f"{v:.3f}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results/synthetic")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--d", type=int, default=6)
    parser.add_argument("--noise", type=float, default=0.05)
    parser.add_argument(
        "--quick", action="store_true", help="tiny configuration for a fast smoke run"
    )
    args = parser.parse_args(argv)

    if args.quick:
        datasets = [make_oblique(n=120, d=3, noise=args.noise, seed=args.seed)]
        config = ProtocolConfig(
            max_rules=3, bootstrap_cap=80, tgb_reg_grid=(0.01, 1.0),
            master_seed=args.seed, jobs=args.jobs,
        )
    else:
        datasets = [
            make_oblique(n=args.n, d=args.d, noise=args.noise, seed=args.seed),
            make_rotated_box(n=args.n, d=args.d, noise=args.noise, seed=args.seed + 1),
            make_staircase(n=args.n, d=args.d, noise=args.noise, seed=args.seed + 2),
        ]
        config = ProtocolConfig(master_seed=args.seed, jobs=args.jobs)

    t0 = time.time()
    report = run_benchmark(datasets, config)
    elapsed = time.time() - t0
    report.write(args.out)

    print(f"finished in {elapsed:.1f}s; report written to {args.out}\n")
    print("median minimum complexity to reach the baseline's mean test risk")
    print("(0/1 metric; in brackets the (4th, 7th) order-statistic interval, "
          "65.6% coverage):\n")
    header = f"{'dataset':<14} {'method':<10} {'median':>8} {'interval':>16}"
    print(header)
    print("-" * len(header))
    for row in report.complexity_rows:
        if row["metric"] not in ("zero_one", "squared"):
            continue
        interval = f"[{fmt(row['ci47_low'])}, {fmt(row['ci47_high'])}]"
        print(
            f"{row['dataset']:<14} {row['method']:<10} "
            f"{fmt(row['median']):>8} {interval:>16}"
        )
    for note in report.notes:
        print(f"note: {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
