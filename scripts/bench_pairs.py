#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and judge a claimed gain.

Usage, from anywhere:

    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload protocol \\
        --seed 0 --seconds 20 --pairs 10 --out BENCH_name.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, one after the other, each checkout with its own
``perfbench``.  The parent goes first in even pairs and the change in odd
ones, so that a slow spell of a shared machine falls on both sides alike.

For each end-to-end metric of ``BENCHMARK.json`` the script prints each
side's median and quartiles, the pairs each side won, the change of the
median against the metric's bound, and the verdict of the claim rule: the
change is better in at least 9 of every 10 pairs, and its median is better
than the parent's by more than the parent's interquartile range.  A metric
whose parent runs spread wider than its bound (interquartile range over
median) is marked unresolved, unless every change run beats every parent
run.

``--out`` gets every run's result line (the JSON last line of ``run.py``) with
its side, pair and order, the environment that ``run.py`` recorded for it,
the load average before it, and the summary, and names each tree by a hash
of its ``src`` and, if it is a checkout of its own, its ``git describe``.
Timings compare only on the machine that wrote them.

Exit status: 0 when every run held its gates, 1 when a run failed a gate or
failed outright, 2 on unusable arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

CLAIM_WIN_SHARE = 0.9  # the change must win at least 9 of every 10 pairs
SIDES = ("parent", "change")


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated inclusively."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent, change, better: str, bound: float) -> dict:
    """Paired comparison of one metric; ``parent[k]`` and ``change[k]`` come from pair k.

    ``better`` is "lower" or "higher".  ``claim`` is the claim rule's verdict
    and ``beyond_bound`` tells whether the change's median is worse than the
    parent's by more than the relative ``bound``.  ``unresolved`` tells that
    the parent's own interquartile range, relative to its median, is wider
    than ``bound`` and not every change run beats every parent run: the runs
    then cannot show that the metric stayed within its bound.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs of values")
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0: b is better than a
    (p1, p_med, p3), (c1, c_med, c3) = quartiles(parent), quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (p_med - c_med)  # positive when the change's median is better
    separated = all(sign * (p - c) > 0 for p in parent for c in change)
    return {
        "better": better,
        "parent": {"q1": p1, "median": p_med, "q3": p3},
        "change": {"q1": c1, "median": c_med, "q3": c3},
        "change_wins": wins,
        "parent_wins": losses,
        "relative_change": (c_med - p_med) / p_med if p_med else 0.0,
        "beyond_bound": -gain > bound * abs(p_med),
        "claim": wins >= CLAIM_WIN_SHARE * len(parent) and gain > p3 - p1,
        "unresolved": p3 - p1 > bound * abs(p_med) and not separated,
    }


def run_once(root: Path, args) -> dict:
    """One ``run.py`` invocation in ``root``: its exit status, result line and environment."""
    load = os.getloadavg()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    record = root / ".perfbench" / "results" / f"{args.workload}-seed{args.seed}-trace0.json"
    try:
        environment = json.loads(record.read_text())["environment"]
    except (OSError, ValueError, KeyError):
        environment = None
    run = {"exit": done.returncode, "load_avg_before": list(load), "result": result,
           "environment": environment}
    if done.returncode != 0 or not (result or {}).get("correct", False):
        run["stderr_tail"] = done.stderr.strip().splitlines()[-20:]
    return run


def end_to_end_metrics(root: Path) -> list[dict]:
    return json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]


def revision(root: Path) -> dict:
    """What names the tree ``root``: ``src_sha256``, a sha256 over the sorted
    relative paths and the bytes of its ``src/**/*.py``, and ``git``, its ``git
    describe`` if ``root`` is the top level of its own checkout, else null (a
    copy inside another checkout would get that checkout's)."""
    digest = hashlib.sha256()
    for name in sorted(p.relative_to(root).as_posix() for p in root.glob("src/**/*.py")):
        data = (root / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode() + data)

    def git(*command) -> str:
        done = subprocess.run(["git", *command], cwd=root, capture_output=True, text=True)
        return done.stdout.strip()

    top = git("rev-parse", "--show-toplevel")
    own = bool(top) and Path(top).resolve() == root.resolve()
    return {"src_sha256": digest.hexdigest(),
            "git": (git("describe", "--always", "--dirty") or None) if own else None}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    for root in (args.parent, args.change):
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{root} holds no perfbench/run.py")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            run = {"pair": pair, "side": side, "order": position,
                   **run_once(roots[side], args)}
            runs.append(run)
            status = "ok" if "stderr_tail" not in run else "FAILED"
            print(f"pair {pair} {side:<6} {status} {json.dumps(run['result'])}", flush=True)

    failed = [run for run in runs if "stderr_tail" in run]
    summary = {}
    if not failed:
        for metric in end_to_end_metrics(roots["change"]):
            name = metric["name"]
            values = {side: [run["result"]["metrics"][name]["value"]
                             for run in runs if run["side"] == side] for side in SIDES}
            summary[name] = compare(values["parent"], values["change"], metric["better"],
                                    metric["bound"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs, "claim_win_share": CLAIM_WIN_SHARE,
        "revisions": {side: revision(roots[side]) for side in SIDES},
        "runs": runs, "summary": summary,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        print(f"{name:<17} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"{s['relative_change']:+.1%}  wins {s['change_wins']}:{s['parent_wins']}  "
              f"claim {'holds' if s['claim'] else 'fails'}"
              f"{'  WORSE BEYOND BOUND' if s['beyond_bound'] else ''}"
              f"{'  UNRESOLVED: parent spread wider than the bound' if s['unresolved'] else ''}")
    for run in failed:
        print(f"FAILED: pair {run['pair']} {run['side']} exit {run['exit']}", file=sys.stderr)
    print(f"record: {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
