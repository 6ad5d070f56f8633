"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

import run  # noqa: E402

run.load_program(ROOT)

import numpy as np  # noqa: E402
from obliquerules import core, datasets, evaluation, lltboost, serialize, sparse_logreg, tgb  # noqa: E402

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _wrapped_names():
    """Every (owner, attribute) the layer tracer replaces, read off a live tracer."""
    with tracer.trace_layers(tracer.Tracer()) as live:
        return [(owner, attr) for owner, attr, _ in live._saved]


def test_tracer_restores_every_wrapped_name():
    names = _wrapped_names()
    before = {(id(owner), attr): vars(owner)[attr] for owner, attr in names}
    with tracer.trace_layers(tracer.Tracer()):
        assert all(vars(owner)[attr] is not before[(id(owner), attr)] for owner, attr in names)
    assert all(vars(owner)[attr] is before[(id(owner), attr)] for owner, attr in names)
    # the names callers resolve, not only the defining modules
    for owner, attr in [(lltboost, "corrective_refit"), (tgb, "corrective_refit"),
                        (sparse_logreg, "loss_value"), (sparse_logreg, "fit_weighted_l1"),
                        (tgb, "best_axis_proposition"), (sparse_logreg.LambdaPath, "solve"),
                        (sparse_logreg.LambdaPath, "for_sparsity"),
                        (core.RuleEnsemble, "decision_function"),
                        (core.SparseProposition, "activations")]:
        assert (owner, attr) in names


def _stages(trace):
    return [(s.train_risk, s.complexity) for s in trace.stages]


def test_traced_and_untraced_runs_give_identical_stages_and_reports(tmp_path):
    data = datasets.make_oblique(n=300, d=5, noise=0.05, seed=4)
    llt_cfg, tgb_cfg = lltboost.LLTConfig(max_rules=4, seed=2), tgb.TGBConfig(max_rules=4)
    protocol = evaluation.ProtocolConfig(repetitions=3, max_rules=2, max_propositions=2,
                                         bootstrap_cap=60, tgb_reg_grid=(0.1, 10.0))
    small = datasets.make_oblique(n=80, d=3, noise=0.1, seed=0)

    def everything(out):
        fits = (lltboost.fit(data.X, data.y, llt_cfg), tgb.fit(data.X, data.y, tgb_cfg))
        evaluation.run_benchmark([small], protocol).write(out)
        report = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                  if p.name != "timing_table.csv"}
        return fits, report

    (llt_plain, tgb_plain), report_plain = everything(tmp_path / "plain")
    with tracer.trace_layers(tracer.Tracer()) as live:
        (llt_traced, tgb_traced), report_traced = everything(tmp_path / "traced")

    assert _stages(llt_traced) == _stages(llt_plain)
    assert _stages(tgb_traced) == _stages(tgb_plain)
    assert llt_traced.final == llt_plain.final and tgb_traced.final == tgb_plain.final
    assert report_traced == report_plain and len(report_plain) == 4
    assert live.calls["lltboost.fit"] > 1 and live.calls["tgb.fit"] > 1
    assert live.calls["evaluation.repetition"] == protocol.repetitions


def test_counter_anchor_on_baseline_fixture():
    data = datasets.make_oblique(n=500, d=6, noise=0.05, seed=0)
    with tracer.trace_layers(tracer.Tracer()) as live:
        lltboost.fit(data.X, data.y, lltboost.LLTConfig(max_rules=10, seed=0))
    metrics = tracer.layer_metrics(live)
    assert metrics["sparse_logreg.l1_solves"][0] == 1468
    assert metrics["sparse_logreg.l1_iters"][0] == 7163
    assert metrics["sparse_logreg.path_solve_calls"][0] == 1468


def _small(name, **changes):
    return dataclasses.replace(workloads.WORKLOADS[name], draws=1, **changes)


def test_axis_large_pass_runs_no_l1_solve(tmp_path):
    workload = _small("axis-large", n=2000)
    with tracer.trace_layers(tracer.Tracer()) as live:
        gates = workloads.Gates()
        workload.run(workload.make_inputs(3), tmp_path, gates)
    metrics = tracer.layer_metrics(live)
    assert not gates.failures and gates.attempted > 0
    assert metrics["sparse_logreg.l1_solves"][0] == 0
    assert metrics["tgb.axis_scans"][0] > 0 and metrics["sparse_logreg.refit_calls"][0] > 0
    assert metrics["serialize.model_bytes"][0] > 0


def test_passes_are_deterministic_and_gated(tmp_path):
    workload = _small("oblique-wide", n=400, d=8)
    inputs = workload.make_inputs(5)
    first, second = (workload.run(inputs, tmp_path / name, workloads.Gates())
                     for name in ("a", "b"))
    assert first.digests == second.digests
    assert first.train_risks == second.train_risks
    assert workload.make_inputs(5).data[0].X.tobytes() == inputs.data[0].X.tobytes()


def test_a_broken_round_trip_fails_its_gate(tmp_path, monkeypatch):
    workload = _small("axis-large", n=1000)
    inputs = workload.make_inputs(1)
    real_load = serialize.load_model

    def drifting_load(path):
        model = real_load(path)
        ens = model.ensemble
        shifted = dataclasses.replace(ens, intercept=np.nextafter(ens.intercept, np.inf))
        return dataclasses.replace(model, ensemble=shifted)

    monkeypatch.setattr(serialize, "load_model", drifting_load)
    gates = workloads.Gates()
    workload.run(inputs, tmp_path, gates)
    assert gates.failures and all("round trip" in f for f in gates.failures)


@pytest.mark.parametrize("n, key", [(9, None), (20, "p50"), (40, "p75"), (100, "p90"),
                                    (1000, "p99"), (10000, "p99.9")])
def test_tail_reports_the_highest_percentile_with_ten_samples_beyond(n, key):
    stats = run.tail(range(n))
    assert stats["n"] == n and stats["median"] == (n - 1) / 2
    assert [k for k in stats if k.startswith("p")] == ([key] if key else [])


def test_benchmark_json_names_what_the_command_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    with tracer.Tracer() as empty:
        layers = {name: unit for name, (_, unit) in tracer.layer_metrics(empty).items()}
    layers.update({f"trace.{k}": "s" for k in ("untraced_pass_s", "traced_pass_s", "overhead_s")})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers


def test_command_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        spec["command"] + ["--workload", "protocol", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_refuses_records_from_different_environments(tmp_path, capsys):
    record = {"environment": run.environment(), "workload": "axis-large", "seconds": 20,
              "trace": 0, "metrics": {"job_s": {"median": 2.0, "unit": "s"}}}
    paths = []
    for i, (nproc, job_s) in enumerate([(2, 2.0), (2, 1.5), (64, 1.5)]):
        other = json.loads(json.dumps(record))
        other["environment"]["nproc"] = nproc
        other["metrics"]["job_s"]["median"] = job_s
        paths.append(tmp_path / f"r{i}.json")
        paths[-1].write_text(json.dumps(other))
    assert compare.main([str(paths[0]), "--", str(paths[1])]) == 0
    assert "-25.0%" in capsys.readouterr().out
    assert compare.main([str(paths[0]), "--", str(paths[2])]) == 2
    assert "environment" in capsys.readouterr().err
