import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obliquerules
from obliquerules import evaluation, lltboost, tgb
from obliquerules.datasets import Dataset, make_oblique
from obliquerules.core import Standardizer, Task
from obliquerules.evaluation import (
    INF,
    _aggregate_cells,
    CurvePoint,
    ProtocolConfig,
    bootstrap_split,
    min_complexity_to_risk_target,
    risk_at_complexity_target,
    run_benchmark,
)


def curve(pairs):
    return tuple(CurvePoint(complexity=c, test_risk=r, train_risk=0.0, r=i + 1)
                 for i, (c, r) in enumerate(pairs))


finite_or_inf = st.one_of(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.just(INF),
)


# ---------------------------------------------------------------------------
# target operators
# ---------------------------------------------------------------------------


def test_min_complexity_hand_examples():
    c = curve([(3, 0.5), (5, 0.3), (9, 0.1)])
    assert min_complexity_to_risk_target(c, 0.25) == 9.0
    assert min_complexity_to_risk_target(c, 0.05) == INF
    assert min_complexity_to_risk_target(c, 0.5) == 3.0


def test_risk_at_complexity_hand_examples():
    c = curve([(3, 0.5), (5, 0.3), (9, 0.1)])
    assert risk_at_complexity_target(c, 6) == 0.3
    assert risk_at_complexity_target(c, 2) == INF
    assert risk_at_complexity_target(c, 9) == 0.1


def test_operators_on_empty_curve():
    empty = ()
    assert min_complexity_to_risk_target(empty, 1.0) == INF
    assert risk_at_complexity_target(empty, 100.0) == INF


@given(
    pairs=st.lists(
        st.tuples(st.integers(1, 40), st.floats(0, 10, allow_nan=False)),
        min_size=0,
        max_size=12,
    ),
    t1=st.floats(0, 10, allow_nan=False),
    t2=st.floats(0, 10, allow_nan=False),
)
def test_min_complexity_monotone_in_target(pairs, t1, t2):
    c = curve(pairs)
    lo, hi = min(t1, t2), max(t1, t2)
    assert min_complexity_to_risk_target(c, hi) <= min_complexity_to_risk_target(c, lo)


@given(
    pairs=st.lists(
        st.tuples(st.integers(1, 40), st.floats(0, 10, allow_nan=False)),
        min_size=1,
        max_size=12,
    ),
    t1=st.floats(0, 50, allow_nan=False),
    t2=st.floats(0, 50, allow_nan=False),
)
def test_risk_at_complexity_selected_point_monotone(pairs, t1, t2):
    # the complexity of the selected point is nondecreasing in the target
    c = curve(pairs)
    lo, hi = min(t1, t2), max(t1, t2)

    def chosen_complexity(target):
        best = -1
        for p in c:
            if p.complexity <= target:
                best = max(best, p.complexity)
        return best

    assert chosen_complexity(hi) >= chosen_complexity(lo)


# ---------------------------------------------------------------------------
# median and rank intervals
# ---------------------------------------------------------------------------


def test_median_with_ci_hand_examples():
    cells = _aggregate_cells(list(range(1, 11)), 10)
    assert cells == {
        "median": 5.5,
        "ci47_low": 4.0,
        "ci47_high": 7.0,
        "ci38_low": 3.0,
        "ci38_high": 8.0,
        "n_inf": 0,
        "n_reps": 10,
    }
    assert list(cells) == ["median", "ci47_low", "ci47_high", "ci38_low", "ci38_high",
                           "n_inf", "n_reps"]  # the CSV column order


def test_median_infinite_when_sixth_order_stat_infinite():
    vals = [1.0] * 5 + [INF] * 5
    cells = _aggregate_cells(vals, 10)
    assert cells["median"] == INF and cells["n_inf"] == 5
    assert cells["ci38_low"] == 1.0 and cells["ci47_high"] == INF
    assert _aggregate_cells([INF] * 10, 10)["ci38_low"] == INF
    vals = [1.0] * 6 + [INF] * 4  # sixth value finite -> finite midpoint
    assert math.isfinite(_aggregate_cells(vals, 10)["median"])


def test_median_with_ci_requires_exactly_ten():
    # the rank pairs are specific to 10 repetitions: blank interval cells otherwise
    for k in (1, 5, 9, 11):
        cells = _aggregate_cells([float(v) for v in range(k)], k)
        assert cells["median"] == (k - 1) / 2.0 and cells["n_reps"] == k
        for tag in ("ci47_low", "ci47_high", "ci38_low", "ci38_high"):
            assert cells[tag] == ""


def test_median_order_does_not_matter():
    vals = [7, 1, 9, 3, 10, 2, 8, 5, 4, 6]
    assert _aggregate_cells(vals, 10) == _aggregate_cells(sorted(vals), 10)


@given(vals=st.lists(finite_or_inf, min_size=10, max_size=10))
@settings(max_examples=200)
def test_ci_brackets_median_for_both_kinds(vals):
    cells = _aggregate_cells(vals, 10)
    assert cells["ci38_low"] <= cells["ci47_low"] <= cells["median"]
    assert cells["median"] <= cells["ci47_high"] <= cells["ci38_high"]


# ---------------------------------------------------------------------------
# bootstrap splits
# ---------------------------------------------------------------------------


def test_bootstrap_split_sizes_and_disjointness():
    s = bootstrap_split(200, seed=5)
    assert s.train.size == 200
    assert np.all((0 <= s.train) & (s.train < 200))
    assert np.array_equal(s.test, np.unique(s.test))
    assert not set(s.test) & set(s.train)
    assert set(s.train) | set(s.test) == set(range(200))


def test_bootstrap_split_caps_train_size():
    s = bootstrap_split(1200, seed=5, cap=500)
    assert s.train.size == 500
    assert s.test.size == 1200 - np.unique(s.train).size


def test_bootstrap_split_deterministic_and_seed_sensitive():
    a = bootstrap_split(60, seed=9)
    b = bootstrap_split(60, seed=9)
    c = bootstrap_split(60, seed=10)
    assert np.array_equal(a.train, b.train) and np.array_equal(a.test, b.test)
    assert not np.array_equal(a.train, c.train)


def test_bootstrap_split_redraws_until_out_of_bag_nonempty():
    seen_redraw = False
    for seed in range(200):
        s = bootstrap_split(2, seed=seed)
        assert s.test.size > 0
        seen_redraw = seen_redraw or s.redraws > 0
    assert seen_redraw


# ---------------------------------------------------------------------------
# protocol runs
# ---------------------------------------------------------------------------


def small_config(**kw):
    base = dict(
        repetitions=10,
        max_rules=2,
        max_propositions=2,
        bootstrap_cap=50,
        tgb_reg_grid=(0.01, 1.0),
        master_seed=3,
    )
    base.update(kw)
    return ProtocolConfig(**base)


def test_report_counts_one_aggregate_row_per_metric_and_curves_per_rep():
    data = [make_oblique(n=60, d=3, noise=0.1, seed=0)]
    rep = run_benchmark(data, small_config())
    # classification reports two metrics; one table row per (metric, method)
    assert [(r["metric"], r["method"]) for r in rep.complexity_rows] == [
        (metric, method) for metric in ("logistic", "zero_one") for method in ("lltboost", "tgb")]
    for metric in ("logistic", "zero_one"):
        rows = [
            r
            for r in rep.curve_rows
            if r["metric"] == metric and r["hyper"] == repr(0.01)
        ]
        assert {r["rep"] for r in rows} == set(range(10))
    oracle = rep.targets["oblique"]["zero_one"]
    by_reg = oracle["tgb_mean_risk_by_reg"]
    assert oracle["tgb_oracle_reg"] == min(by_reg, key=lambda h: (by_reg[h], float(h)))
    assert oracle["risk_target"] == by_reg[oracle["tgb_oracle_reg"]]


@pytest.mark.parametrize("repetitions, master_seed, infinite", [(1, 3, False), (2, 0, True),
                                                                (10, 3, False)])
def test_targets_are_the_oracle_mean_test_risk_and_median_minimum_complexity(
        repetitions, master_seed, infinite):
    # the risk target pools every point of every repetition of the oracle grid
    # value; the complexity target is the midpoint of the central ones of its
    # per-repetition minimum complexities reaching it, inf if the upper one is
    rng = np.random.default_rng(6)
    X = rng.normal(size=(80, 3))
    y = X[:, 0] - X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=80)
    data = [make_oblique(n=60, d=3, noise=0.1, seed=0),
            Dataset(name="regression", feature_names=("a", "b", "c"), X=X, y=y,
                    task=Task.REGRESSION)]
    rep = run_benchmark(data, small_config(repetitions=repetitions, master_seed=master_seed))
    complexity_targets = []
    for dataset, targets in rep.targets.items():
        for metric, t in targets.items():
            oracle = (dataset, metric, "tgb", t["tgb_oracle_reg"])
            rows = [r for r in rep.curve_rows
                    if (r["dataset"], r["metric"], r["method"], r["hyper"]) == oracle]
            assert t["risk_target"] == float(np.mean([r["test_risk"] for r in rows]))
            mins = sorted(min((r["complexity"] for r in rows
                               if r["rep"] == k and r["test_risk"] <= t["risk_target"]),
                              default=INF) for k in range(repetitions))
            middle = (mins[(repetitions - 1) // 2] + mins[repetitions // 2]) / 2
            assert t["complexity_target"] == middle
            complexity_targets.append(middle)
    assert len(complexity_targets) == 3
    assert (INF in complexity_targets) == infinite


def test_a_repetition_scores_every_stage_in_one_kernel_call(monkeypatch):
    score_ensembles, calls = evaluation.score_ensembles, []

    def counted(ensembles, X):
        calls.append((len(ensembles), len(X)))
        return score_ensembles(ensembles, X)

    monkeypatch.setattr(evaluation, "score_ensembles", counted)
    draw, splits = evaluation.bootstrap_split, []

    def drawn(*args):
        splits.append(draw(*args))
        return splits[-1]

    monkeypatch.setattr(evaluation, "bootstrap_split", drawn)
    run_benchmark([make_oblique(n=60, d=3, noise=0.1, seed=0)],
                  small_config(repetitions=1))
    (split,) = splits
    # the stages of lltboost and of both grid values, on the train then the test rows
    assert len(calls) == 1 and calls[0][0] > 2
    assert calls[0][1] == split.train.size + split.test.size


def test_failed_fits_record_inf_rows_and_note(monkeypatch):
    def boom(X, y, cfg):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(lltboost, "fit", boom)
    data = [make_oblique(n=60, d=3, noise=0.1, seed=0)]
    rep = run_benchmark(data, small_config())
    llt_rows = [r for r in rep.complexity_rows if r["method"] == "lltboost"]
    assert len(llt_rows) == 2
    for row in llt_rows:
        assert row["median"] == INF
        assert row["n_inf"] == 10
    assert any("synthetic failure" in n for n in rep.notes)
    # the baseline sweep still produced its rows
    assert [r for r in rep.complexity_rows if r["method"] == "tgb"]


def test_a_failing_grid_fit_is_recorded_as_inf_for_every_grid_value(monkeypatch):
    calls = []

    def boom(X, y, cfg, reg_strengths):
        calls.append(reg_strengths)
        raise RuntimeError("synthetic grid failure")

    monkeypatch.setattr(tgb, "fit_grid", boom)
    data = [make_oblique(n=60, d=3, noise=0.1, seed=0)]
    rep = run_benchmark(data, small_config())
    # per repetition: the grid call, then one call per grid value on its own
    assert calls == [(0.01, 1.0), (0.01,), (1.0,)] * 10
    for hyper in ("0.01", "1.0"):
        failed = [n for n in rep.notes if f"tgb[{hyper}] failed: RuntimeError: synthetic grid "
                  "failure (recorded as inf)" in n]
        assert len(failed) == 10
    assert not [r for r in rep.curve_rows if r["method"] == "tgb"]
    tgb_timing = [r for r in rep.timing_rows if r["method"] == "tgb"]
    assert [(r["hyper"], r["n_fits"], r["mean_fit_seconds"]) for r in tgb_timing] == [
        ("0.01", 0, 0.0), ("1.0", 0, 0.0)]
    # without baseline curves there are no targets, so no table rows at all
    assert not rep.complexity_rows and not rep.risk_rows
    assert any("no baseline curves" in n for n in rep.notes)


def test_failure_notes_follow_the_timing_row_order(monkeypatch):
    # the grid's hyper strings sort "10.0" before "2.0"; the notes keep the grid order
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(tgb, "fit_grid", boom)
    monkeypatch.setattr(lltboost, "fit", boom)
    data = [make_oblique(n=60, d=3, noise=0.1, seed=0)]
    rep = run_benchmark(data, small_config(repetitions=2, tgb_reg_grid=(2.0, 10.0)))
    order = [(r["method"], r["hyper"]) for r in rep.timing_rows]
    assert order == [("lltboost", "default"), ("tgb", "2.0"), ("tgb", "10.0")]
    assert not rep.curve_rows  # a repetition whose fits all failed has no stage to score
    for r in range(2):
        failed = [n for n in rep.notes if n.startswith(f"oblique rep {r} ")]
        assert failed == [f"oblique rep {r} {method}[{hyper}] failed: RuntimeError: "
                          "synthetic failure (recorded as inf)" for method, hyper in order]


def test_mean_fit_seconds_averages_the_successful_fits_only(monkeypatch):
    fit_grid = tgb.fit_grid
    grid_calls = []

    def fails_in_one_repetition(X, y, cfg, reg_strengths):
        if len(reg_strengths) > 1:
            grid_calls.append(reg_strengths)
        if len(grid_calls) == 4:  # the fourth grid call and the one-value fits after it
            raise RuntimeError("synthetic failure in one repetition")
        return tuple(replace(t, wall_time_seconds=2.0) for t in fit_grid(X, y, cfg, reg_strengths))

    monkeypatch.setattr(tgb, "fit_grid", fails_in_one_repetition)
    data = [make_oblique(n=60, d=3, noise=0.1, seed=0)]
    rep = run_benchmark(data, small_config())
    rows = [(r["hyper"], r["n_fits"], r["mean_fit_seconds"]) for r in rep.timing_rows
            if r["method"] == "tgb"]
    assert rows == [("0.01", 9, 2.0), ("1.0", 9, 2.0)]


def test_a_grid_value_that_fails_alone_fails_only_itself(monkeypatch):
    data = [make_oblique(n=60, d=3, noise=0.1, seed=0)]
    plain = run_benchmark(data, small_config())
    fit_grid = tgb.fit_grid

    def fails_at_one(X, y, cfg, reg_strengths):
        if 1.0 in reg_strengths:
            raise RuntimeError("synthetic failure at 1.0")
        return fit_grid(X, y, cfg, reg_strengths)

    monkeypatch.setattr(tgb, "fit_grid", fails_at_one)
    rep = run_benchmark(data, small_config())
    failed = [n for n in rep.notes if "failed" in n]
    assert len(failed) == 10 and all("tgb[1.0] failed" in n for n in failed)
    kept = [r for r in plain.curve_rows if r["hyper"] != "1.0"]
    assert rep.curve_rows == kept and kept
    assert [(r["hyper"], r["n_fits"]) for r in rep.timing_rows] == [
        ("default", 10), ("0.01", 10), ("1.0", 0)]


def test_grid_fits_share_one_timing_per_repetition(monkeypatch):
    fit_grid = tgb.fit_grid
    traces = []

    def recorded(*args):
        traces.append(fit_grid(*args))
        return traces[-1]

    monkeypatch.setattr(tgb, "fit_grid", recorded)
    data = [make_oblique(n=60, d=3, noise=0.1, seed=0)]
    rep = run_benchmark(data, small_config(repetitions=1, tgb_reg_grid=(1.0, 0.01, 100.0)))
    (grid,) = traces
    assert len({t.wall_time_seconds for t in grid}) == 1
    assert [(r["hyper"], r["mean_fit_seconds"]) for r in rep.timing_rows
            if r["method"] == "tgb"] == [
        (h, grid[0].wall_time_seconds) for h in ("1.0", "0.01", "100.0")]


@pytest.mark.parametrize("task", [Task.CLASSIFICATION, Task.REGRESSION])
def test_a_protocol_fit_is_the_public_fit_on_the_raw_bootstrap_rows(monkeypatch, task):
    # features far from standardized, so a protocol that standardized them
    # itself would hand its learners other rows than the bootstrap drew
    data = make_oblique(n=120, d=3, noise=0.1, seed=2)
    y = data.y if task is Task.CLASSIFICATION else data.X @ [1.0, -2.0, 0.5]
    data = replace(data, X=5.0 * data.X + 3.0, y=y, task=task)
    draw, fit_variant = evaluation.bootstrap_split, evaluation._fit_variant
    splits, fits = [], []

    def drawn(*args):
        splits.append(draw(*args))
        return splits[-1]

    def fitted(method, hyper, X, y, kind, config, fit_seed, tgb_traces):
        trace = fit_variant(method, hyper, X, y, kind, config, fit_seed, tgb_traces)
        fits.append((splits[-1], method, hyper, y, kind, config, fit_seed, trace))
        return trace

    monkeypatch.setattr(evaluation, "bootstrap_split", drawn)
    monkeypatch.setattr(evaluation, "_fit_variant", fitted)
    run_benchmark([data], small_config(repetitions=2, max_rules=3, bootstrap_cap=80))
    assert [(method, hyper) for _, method, hyper, *_ in fits] == 2 * [
        ("lltboost", "default"), ("tgb", "0.01"), ("tgb", "1.0")]
    for split, method, hyper, y, kind, config, fit_seed, trace in fits:
        raw = data.X[split.train]
        assert trace.final.standardizer == Standardizer.fit(raw)
        cfg = evaluation._variant_config(method, kind, config, fit_seed)
        if method == "tgb":
            cfg = replace(cfg, reg_strength=float(hyper))
        public = evaluation.LEARNERS[method].module.fit(raw, y, cfg)
        assert [(s.train_risk, s.complexity, s.ensemble) for s in trace.stages] == [
            (s.train_risk, s.complexity, s.ensemble) for s in public.stages]


@pytest.mark.parametrize("grid", [(0.1, 0.1), (1.0, 0.01, 1), (0.0, -0.0)])
def test_config_rejects_a_repeated_grid_value(grid):
    with pytest.raises(ValueError, match="tgb_reg_grid must not repeat a value"):
        ProtocolConfig(tgb_reg_grid=grid)


def test_regression_risks_invariant_to_target_scale():
    # targets are standardized with train statistics, so scaling y by a
    # power of two (exact in binary floating point) must leave every
    # reported risk bit-identical
    rng = np.random.default_rng(4)
    X = rng.normal(size=(80, 3))
    y = X[:, 0] - 2.0 * X[:, 1] + 0.1 * rng.normal(size=80)
    mk = lambda yy: Dataset(
        name="d", feature_names=("a", "b", "c"), X=X, y=yy, task=Task.REGRESSION
    )
    rep_a = run_benchmark([mk(y)], small_config())
    rep_b = run_benchmark([mk(1024.0 * y)], small_config())
    risks_a = [r["test_risk"] for r in rep_a.curve_rows]
    risks_b = [r["test_risk"] for r in rep_b.curve_rows]
    assert len(risks_a) == len(risks_b) > 0
    assert risks_a == risks_b


def test_serial_and_parallel_reports_identical(tmp_path):
    data = [make_oblique(n=60, d=3, noise=0.1, seed=0)]
    out = {}
    for jobs in (1, 2):
        rep = run_benchmark(data, small_config(jobs=jobs))
        d = tmp_path / f"jobs{jobs}"
        rep.write(d)
        out[jobs] = {
            p.name: p.read_bytes()
            for p in sorted(d.iterdir())
            if p.name != "timing_table.csv"
        }
    assert set(out[1]) == {
        "report.json",
        "complexity_table.csv",
        "risk_table.csv",
        "curves.csv",
    }
    for name in out[1]:
        assert out[1][name] == out[2][name], f"{name} differs"


def test_report_json_holds_no_curve_rows_and_curves_csv_holds_them_all(tmp_path):
    data = [make_oblique(n=60, d=3, noise=0.1, seed=0)]
    rep = run_benchmark(data, small_config(repetitions=3))
    rep.write(tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert set(doc) == {"config", "datasets", "targets", "complexity_table", "risk_table",
                        "notes"}
    with open(tmp_path / "curves.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows == [{k: evaluation._cell(v) for k, v in r.items()} for r in rep.curve_rows]
    # every stage of every repetition of lltboost and both grid values, under both metrics
    assert {(r["metric"], r["hyper"], r["rep"]) for r in rows} == {
        (m, h, str(k)) for m in ("logistic", "zero_one") for h in ("default", "0.01", "1.0")
        for k in range(3)}


def test_protocol_opens_at_most_one_worker_per_work_unit(monkeypatch):
    # a pool that starts its processes by fork starts every worker at its first
    # submit, so workers beyond the (dataset, repetition) units would sit idle
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    data = [make_oblique(n=60, d=3, noise=0.1, seed=0)]
    serial = run_benchmark(data, small_config(repetitions=3)).to_json_dict()
    assert pools == []
    for jobs, workers in ((2, [2]), (3, [3]), (64, [3])):
        pools.clear()
        report = run_benchmark(data, small_config(repetitions=3, jobs=jobs))
        assert pools == workers
        assert report.to_json_dict() == serial
    pools.clear()
    run_benchmark(data, small_config(repetitions=1, jobs=64))
    assert pools == []  # one unit runs in this process


def test_importing_the_package_loads_no_multiprocessing():
    # only a protocol run with more than one worker needs a process pool
    code = "import sys, obliquerules; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(obliquerules.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_same_seed_same_report_different_seed_differs(tmp_path):
    data = [make_oblique(n=60, d=3, noise=0.1, seed=0)]
    reports = [run_benchmark(data, small_config()) for _ in range(2)]
    assert reports[0].to_json_dict() == reports[1].to_json_dict()
    other = run_benchmark(data, small_config(master_seed=99))
    assert other.to_json_dict() != reports[0].to_json_dict()


def test_report_json_serializes_inf_as_string(tmp_path, monkeypatch):
    monkeypatch.setattr(
        lltboost, "fit", lambda X, y, cfg: (_ for _ in ()).throw(RuntimeError("x"))
    )
    data = [make_oblique(n=60, d=3, noise=0.1, seed=0)]
    rep = run_benchmark(data, small_config())
    rep.write(tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    llt = [r for r in doc["complexity_table"] if r["method"] == "lltboost"]
    assert llt and all(r["median"] == "inf" for r in llt)


def test_duplicate_dataset_names_rejected():
    d = make_oblique(n=30, d=3, seed=0)
    with pytest.raises(ValueError, match="unique"):
        run_benchmark([d, d], small_config())


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(repetitions=0)
    with pytest.raises(ValueError):
        ProtocolConfig(jobs=0)


@pytest.mark.parametrize("field", [
    {"repetitions": 1.5},
    {"repetitions": True},
    {"max_propositions": 0},
    {"max_nonzeros": 0},
    {"bootstrap_cap": -1},
    {"master_seed": -1},
    {"master_seed": 2.0},
    {"jobs": "2"},
    {"max_nonzeros": 1.5},
    {"jobs": -1},
    {"max_rules": float("nan")},
    {"bootstrap_cap": 1},  # a bootstrap needs at least two rows
    {"tgb_reg_grid": (0.1, -1.0)},
    {"tgb_reg_grid": (INF,)},
    {"max_rules": True},
    {"tgb_reg_grid": (0.0, -0.0)},  # 0.0 == -0.0: one value twice
    {"tgb_reg_grid": (float("nan"),)},
    {"max_propositions": 1.5},
    {"tgb_reg_grid": ()},  # the baseline's grid gives the targets
    {"bootstrap_cap": True},
    {"max_rules": 0},
    {"tgb_reg_grid": "10"},
    {"tgb_reg_grid": 5},
])
def test_config_rejects_non_integer_counts_and_out_of_range_fields(field):
    with pytest.raises(ValueError):
        ProtocolConfig(**field)


def test_config_has_no_methods_field():
    # every run compares lltboost with the whole tgb grid
    with pytest.raises(TypeError, match="methods"):
        ProtocolConfig(methods=("lltboost", "tgb"))
    assert "methods" not in ProtocolConfig.__dataclass_fields__


def test_config_has_no_validation_fraction_field():
    # the share is lltboost.VALIDATION_FRACTION, not a protocol setting
    with pytest.raises(TypeError, match="validation_fraction"):
        ProtocolConfig(validation_fraction=0.3)


@pytest.mark.parametrize("grid", ["10", 5])
def test_config_names_the_fault_in_a_grid_that_is_not_a_list(grid):
    with pytest.raises(ValueError, match=rf"^tgb_reg_grid must be a list of numbers, got {grid!r}$"):
        ProtocolConfig(tgb_reg_grid=grid)


def test_config_refuses_an_empty_grid():
    with pytest.raises(ValueError, match=r"^tgb_reg_grid must hold at least one value$"):
        ProtocolConfig(tgb_reg_grid=())


def test_config_defaults_match_protocol_constants():
    cfg = ProtocolConfig()
    assert cfg.repetitions == 10
    assert cfg.max_rules == 10
    assert cfg.max_propositions == 5
    assert cfg.max_nonzeros == 5
    assert cfg.bootstrap_cap == 500
    assert cfg.tgb_reg_grid == (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0)
