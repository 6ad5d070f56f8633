"""Benchmark of obliquerules: one workload, timed, gated, optionally traced.

Run from the root of a checkout (the directory that holds ``src/``):

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists): protocol, oblique-wide,
axis-large.  The seed makes every input; the program only sees the arrays.

``--trace 0`` measures with tracing off.  It sets up the workload several
times (set-up = import + data generation + warm-up) and then repeats passes
of the workload until ``--seconds`` have elapsed (at least one pass), and
reports the end-to-end metrics:

    setup_s           median import time of obliquerules in a fresh
                      interpreter plus the median of the repeated set-ups
    job_s             median seconds per pass of the workload's job (on
                      protocol: run_benchmark plus report.write)
    score_rows_per_s  median raw-row throughput of batch decision_function
    peak_rss_mb       peak resident set size of the process

Seconds per fit of each learner (fit_lltboost_s, fit_tgb_s: median, tail
percentile and count) are printed and recorded but not bounded: on a shared
machine their run-to-run spread exceeded the largest bound a metric may have.

``--trace 1`` makes the same untraced passes, then regenerates the inputs
and makes one more pass with every layer wrapped (tracer.py), and reports the
per-layer metrics of that pass plus the tracing overhead (traced pass time
minus the median untraced pass time).

Every operation is gated (see workloads.py); outputs that must be
deterministic are hashed and must be byte-identical on every pass of one
invocation.  The last stdout line is the JSON result; the full record, with
percentiles, sample counts, hashes, gate failures and the environment, is
written under ``.perfbench/results/``.  Exit status: 0 when every gate held,
1 when one failed, 2 when the checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import obliquerules; print(time.perf_counter() - t)")
BLAS_THREADS = "1"  # single-threaded BLAS: steady timings, never above nproc
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "score_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}


def tail(samples) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    values = sorted(samples)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    for p in PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 6) >= 10:
            rank = min(n - 1, int(round(p / 100.0 * (n - 1))))
            out[f"p{p:g}"] = values[rank]
            break
    return out


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def refuse(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_seconds(src: Path) -> float:
    """Time the import of obliquerules from ``src`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def load_program(root: Path):
    """Import obliquerules from ``root/src``; refuse any other copy."""
    src = root / "src"
    if not (src / "obliquerules" / "__init__.py").is_file():
        refuse(f"no src/obliquerules under {root}; run from the root of a checkout")
    for variable in BLAS_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import obliquerules

    if Path(obliquerules.__file__).resolve().parent != (src / "obliquerules").resolve():
        refuse(f"imported obliquerules from {obliquerules.__file__}, not from {src}")


def end_to_end(setup_s: float, passes) -> dict:
    import workloads

    score = [s for p in passes for s in p.score_s]
    return {
        "setup_s": {"median": setup_s, "n": SETUP_REPEATS},
        "job_s": tail(p.job_s for p in passes),
        # throughput's tail is its slow end: the percentile of per-call time
        "score_rows_per_s": {k: v if k == "n" else workloads.SCORE_ROWS / v
                             for k, v in tail(score).items()},
        "peak_rss_mb": {"median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "n": 1},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    load_program(root)
    import workloads
    from tracer import Tracer, layer_metrics, trace_layers

    if args.workload not in workloads.WORKLOADS:
        refuse(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    scratch = root / ".perfbench"
    (scratch / "results").mkdir(parents=True, exist_ok=True)
    gates = workloads.Gates()

    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            imports = [import_seconds(root / "src") for _ in range(SETUP_REPEATS)]
            setups = []
            for _ in range(SETUP_REPEATS):
                start = perf_counter()
                inputs = workload.setup(args.seed)
                setups.append(perf_counter() - start)
            setup_s = statistics.median(imports) + statistics.median(setups)

            passes = []
            measure_start = perf_counter()
            while not passes or perf_counter() - measure_start < args.seconds:
                passes.append(workload.run(inputs, Path(tmp) / f"pass{len(passes)}", gates))
            if args.trace:
                with trace_layers(Tracer()) as tracer:
                    inputs = workload.make_inputs(args.seed)
                    traced = workload.run(inputs, Path(tmp) / "traced", gates)
    except Exception:
        # an operation that raises is a failed operation, reported like a failed gate
        traceback.print_exc()
        gates.check(False, "an operation raised; traceback on stderr")
        print(json.dumps({"correct": False, "attempted": gates.attempted,
                          "failed": len(gates.failures), "metrics": {}}))
        return 1

    for later in passes[1:] + ([traced] if args.trace else []):
        for name, digest in later.digests.items():
            gates.check(digest == passes[0].digests[name],
                        f"{name}: bytes differ between passes of one invocation")

    if args.trace:
        untraced_s = statistics.median(p.job_s for p in passes)
        traced_s = traced.job_s
        values = layer_metrics(tracer)
        values["trace.untraced_pass_s"] = (untraced_s, "s")
        values["trace.traced_pass_s"] = (traced_s, "s")
        values["trace.overhead_s"] = (traced_s - untraced_s, "s")
        summary = {name: {"median": v, "n": 1} for name, (v, _) in values.items()}
        units = {name: unit for name, (_, unit) in values.items()}
    else:
        summary = end_to_end(setup_s, passes)
        units = END_TO_END_UNITS

    correct = not gates.failures
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "passes": len(passes),
        "correct": correct,
        "attempted": gates.attempted,
        "failed": len(gates.failures),
        "fail_share": len(gates.failures) / gates.attempted,
        "gate_failures": gates.failures,
        "metrics": {name: {**stats, "unit": units[name]} for name, stats in summary.items()},
        # deterministic for a seed: they repeat exactly from run to run
        "train_risk": statistics.median(passes[0].train_risks),
        "complexity_ratio": passes[0].complexity_ratio,
        "import_samples_s": imports,
        "setup_samples_s": setups,
        **{f"fit_{learner}_s": tail(s for p in passes for s in p.fit_s[learner])
           for learner in passes[0].fit_s},
        "digests": passes[0].digests,
    }
    if args.trace:
        record["spans"] = {name: {"calls": tracer.calls[name], "total_s": tracer.total_s[name],
                                  "self_s": tracer.self_s[name]} for name in sorted(tracer.calls)}
    out = scratch / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for name, stats in record["metrics"].items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in stats.items() if k.startswith("p"))
        print(f"{name:<40} {stats['median']:>14.6g} {stats['unit']:<8} n={stats['n']} {extra}")
    for name in [k for k in record if k.startswith("fit_")]:
        stats = record[name]
        extra = " ".join(f"{k}={v:.6g}" for k, v in stats.items() if k.startswith("p"))
        print(f"{name:<40} {stats['median']:>14.6g} {'s':<8} n={stats['n']} {extra} (not bounded)")
    for name in ("train_risk", "complexity_ratio", "fail_share"):
        print(f"{name:<40} {record[name]!r:>14} (deterministic, not a bounded metric)")
    for failure in gates.failures:
        print(f"GATE FAILED: {failure}")
    print(f"record: {out}")
    print(json.dumps({
        "correct": correct,
        "attempted": gates.attempted,
        "failed": len(gates.failures),
        "metrics": {name: {"value": stats["median"], "unit": units[name]}
                    for name, stats in summary.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
