"""Risk-vs-complexity benchmarking protocol.

Runs bootstrap/out-of-bag repetitions of each learner over each dataset,
scores each repetition's distinct stages in one batch-kernel call, collects
per-stage risk-complexity curves, takes the risk target (the oracle
axis-parallel baseline's mean test risk) and complexity target (the median
of its per-repetition minimum complexities) from the tables' own numbers,
and aggregates medians with order-statistic confidence intervals.  All
randomness flows from per-(dataset, repetition) seeds derived from one
master seed, so serial and parallel runs produce identical reports;
wall-clock timings are kept in a separate table for the same reason.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import numpy as np

from . import lltboost, tgb
from .core import Task, check_integer_fields, score_ensembles
from .datasets import Dataset
from .losses import FIT_LOSS, LossKind, loss
from .serialize import write_json

INF = float("inf")


# ---------------------------------------------------------------------------
# aggregation primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    complexity: int
    test_risk: float
    train_risk: float
    r: int


def _median(values) -> float:
    """Midpoint-of-central-order-statistics median; inf-aware, any length."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("median of empty sequence")
    k = len(vals)
    return (vals[(k - 1) // 2] + vals[k // 2]) / 2.0


def min_complexity_to_risk_target(points, risk_target: float) -> float:
    """Smallest complexity of the ``CurvePoint``s reaching test risk <= target; inf if never."""
    best = INF
    for p in points:
        if p.test_risk <= risk_target and p.complexity < best:
            best = float(p.complexity)
    return best


def risk_at_complexity_target(points, complexity_target: float) -> float:
    """Test risk of the ``CurvePoint`` with greatest complexity <= target; inf if none."""
    chosen = None
    for p in points:
        if p.complexity <= complexity_target and (
            chosen is None or p.complexity >= chosen.complexity
        ):
            chosen = p
    return INF if chosen is None else float(chosen.test_risk)


# ---------------------------------------------------------------------------
# bootstrap splits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapSplit:
    train: np.ndarray  # multiset of size min(n, cap), in drawn order
    test: np.ndarray  # sorted out-of-bag indices
    redraws: int  # > 0 only if an empty out-of-bag sample forced a re-draw


def bootstrap_split(n: int, seed, cap: int = 500) -> BootstrapSplit:
    if n < 2:
        raise ValueError("need at least two rows to split")
    size = min(n, cap)
    redraws = 0
    while True:
        rng = np.random.default_rng(seed + redraws if redraws else seed)
        train = rng.integers(0, n, size=size)
        test = np.setdiff1d(np.arange(n), train)
        if test.size > 0:
            return BootstrapSplit(train=train, test=test, redraws=redraws)
        redraws += 1


# ---------------------------------------------------------------------------
# learners and protocol configuration
# ---------------------------------------------------------------------------


class Learner(NamedTuple):
    config: type
    module: ModuleType  # its ``fit`` is looked up on every call


LEARNERS = {
    "lltboost": Learner(lltboost.LLTConfig, lltboost),
    "tgb": Learner(tgb.TGBConfig, tgb),
}


def learner_config(method: str, **settings):
    """Config of ``method`` from ``settings``; ones it has no field for are ignored."""
    cls = LEARNERS[method].config
    return cls(**{k: v for k, v in settings.items() if k in cls.__dataclass_fields__})


# the ProtocolConfig fields every fitted learner receives; LLTConfig checks them
LEARNER_FIELDS = ("max_rules", "max_propositions", "max_nonzeros", "validation_fraction")
TGB_REG_GRID = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class ProtocolConfig:
    repetitions: int = 10
    max_rules: int = 10
    max_propositions: int = 5
    max_nonzeros: int = 5
    bootstrap_cap: int = 500
    tgb_reg_grid: tuple[float, ...] = TGB_REG_GRID
    validation_fraction: float = 0.25
    methods: tuple[str, ...] = ("lltboost", "tgb")
    master_seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        check_integer_fields(
            self, {"repetitions": 1, "bootstrap_cap": 2, "master_seed": 0, "jobs": 1})
        lltboost.LLTConfig(**{name: getattr(self, name) for name in LEARNER_FIELDS})
        for name, items in (("methods", "learner names"), ("tgb_reg_grid", "numbers")):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list of {items}, got {getattr(self, name)!r}")
        unknown = set(self.methods) - set(LEARNERS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if not self.methods:
            raise ValueError("methods must name at least one learner")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods must not repeat a learner, got {self.methods!r}")
        grid = tuple(tgb.TGBConfig(reg_strength=v).reg_strength for v in self.tgb_reg_grid)
        if len(set(grid)) != len(grid):  # 0.0 == -0.0, so the two are one value
            raise ValueError(f"tgb_reg_grid must not repeat a value, got {self.tgb_reg_grid!r}")
        if not grid and "tgb" in self.methods:  # the baseline's grid: the targets come from it
            raise ValueError("tgb_reg_grid must hold at least one value when tgb is a method")
        object.__setattr__(self, "tgb_reg_grid", grid)
        object.__setattr__(self, "methods", tuple(self.methods))


def _method_variants(config: ProtocolConfig) -> list[tuple[str, str]]:
    out = []
    if "lltboost" in config.methods:
        out.append(("lltboost", "default"))
    if "tgb" in config.methods:
        out.extend(("tgb", repr(float(reg))) for reg in config.tgb_reg_grid)
    return out


def _metrics_for(task: Task) -> list[tuple[str, LossKind]]:
    if task is Task.CLASSIFICATION:
        return [("logistic", LossKind.LOGISTIC), ("zero_one", LossKind.ZERO_ONE)]
    return [("squared", LossKind.SQUARED)]


# ---------------------------------------------------------------------------
# one (dataset, repetition) work unit
# ---------------------------------------------------------------------------


def _variant_config(method, kind, config, fit_seed):
    settings = {name: getattr(config, name) for name in LEARNER_FIELDS}
    return learner_config(method, loss=kind, seed=fit_seed, **settings)


def _fit_tgb_grid(X, y, kind, config, fit_seed) -> dict:
    """The trace of every ``tgb`` grid value, or the error its fit raised, by hyper.

    The grid is one ``tgb.fit`` call (``tgb.fit_grid`` underneath), whose
    traces are bit for bit those of one ``tgb.fit`` per grid value, and each
    value's seconds are the call's time divided by the number of values.  If
    that call raises, each value is fitted on its own, so that an error costs
    only the values whose own fit raises it.
    """
    cfg = _variant_config("tgb", kind, config, fit_seed)
    grid = config.tgb_reg_grid
    try:
        traces = tgb.fit(X, y, cfg, reg_strengths=grid)
    except Exception:
        traces = []
        for reg in grid:
            try:
                traces.append(tgb.fit(X, y, replace(cfg, reg_strength=reg)))
            except Exception as exc:  # raised again by _fit_variant
                traces.append(exc)
    return {repr(float(reg)): trace for reg, trace in zip(grid, traces)}


def _fit_variant(method, hyper, X, y, kind, config, fit_seed, tgb_traces):
    """The trace of one (method, hyper) variant; raises what its fit raised.

    ``tgb`` variants take theirs from ``tgb_traces``, the repetition's grid fit.
    """
    if method == "tgb":
        trace = tgb_traces[hyper]
        if isinstance(trace, Exception):
            raise trace
        return trace
    return LEARNERS[method].module.fit(X, y, _variant_config(method, kind, config, fit_seed))


def _run_repetition(dataset: Dataset, config: ProtocolConfig, d_idx: int, rep: int):
    """Fit every method variant on one bootstrap split, then score them all.

    Returns the split's redraw count and one ``(curves by metric name,
    seconds, error)`` per variant in ``_method_variants`` order; a failed fit
    has empty curves, no seconds and its error's text.  One ``score_ensembles``
    call scores every distinct stage on the train rows, then the test rows.
    """
    ss = np.random.SeedSequence([config.master_seed, d_idx, rep])
    split_seed, fit_seed = (int(v) for v in ss.generate_state(2))
    split = bootstrap_split(dataset.n_rows, split_seed, config.bootstrap_cap)

    X_train, X_test = dataset.X[split.train], dataset.X[split.test]
    y_train, y_test = dataset.y[split.train], dataset.y[split.test]
    if dataset.task is Task.REGRESSION:
        # targets standardized with train statistics; risks are reported on
        # this scale
        y_mean = float(y_train.mean())
        y_std = float(y_train.std()) or 1.0
        y_train = (y_train - y_mean) / y_std
        y_test = (y_test - y_mean) / y_std

    fit_kind = FIT_LOSS[dataset.task]
    metrics = _metrics_for(dataset.task)

    traces = []
    tgb_traces = {}
    for method, hyper in _method_variants(config):
        if method == "tgb" and not tgb_traces:
            tgb_traces = _fit_tgb_grid(X_train, y_train, fit_kind, config, fit_seed)
        try:
            traces.append(_fit_variant(method, hyper, X_train, y_train, fit_kind, config,
                                       fit_seed, tgb_traces))
        except Exception as exc:  # recorded, never aborts the sweep
            traces.append(f"{type(exc).__name__}: {exc}")

    stages = {id(s): s for t in traces if not isinstance(t, str) for s in t.stages[1:]}
    scores = score_ensembles([s.ensemble for s in stages.values()],
                             np.concatenate([X_train, X_test]))
    n_train = X_train.shape[0]
    risks = {  # stage id -> (test, train) risk per metric
        key: [(float(np.mean(loss(metric_kind, y_test, s[n_train:]))),
               float(np.mean(loss(metric_kind, y_train, s[:n_train]))))
              for _, metric_kind in metrics]
        for key, s in zip(stages, scores)
    }
    fits = []
    for trace in traces:
        if isinstance(trace, str):
            fits.append(({name: () for name, _ in metrics}, 0.0, trace))
            continue
        curves = {name: tuple(CurvePoint(stage.complexity, *risks[id(stage)][m], r)
                              for r, stage in enumerate(trace.stages[1:], 1))
                  for m, (name, _) in enumerate(metrics)}
        fits.append((curves, trace.wall_time_seconds, None))
    return split.redraws, fits


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cell(v) -> str:
    if isinstance(v, float):
        if v == INF:
            return "inf"
        if v == -INF:
            return "-inf"
        return repr(v)
    return str(v)


def _jsonable(v):
    if isinstance(v, float) and not np.isfinite(v):
        return _cell(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


@dataclass
class BenchmarkReport:
    config: ProtocolConfig
    dataset_summaries: list[dict]
    targets: dict = field(default_factory=dict)  # dataset -> metric -> target provenance
    complexity_rows: list[dict] = field(default_factory=list)
    risk_rows: list[dict] = field(default_factory=list)
    curve_rows: list[dict] = field(default_factory=list)  # flat, one per curve point; CSV only
    timing_rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        # wall-clock timings deliberately excluded: everything here is a
        # deterministic function of (datasets, config)
        cfg = asdict(self.config)
        # execution infrastructure, not protocol: a parallel run must emit
        # the same bytes as a serial one
        del cfg["jobs"]
        return _jsonable(
            {
                "config": cfg,
                "datasets": self.dataset_summaries,
                "targets": self.targets,
                "complexity_table": self.complexity_rows,
                "risk_table": self.risk_rows,
                "notes": self.notes,
            }
        )

    def write(self, out_dir) -> None:
        """Emit report.json plus flat CSV tables into ``out_dir``.

        Everything except timing_table.csv is byte-identical across runs
        with the same master seed, regardless of parallelism.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "report.json", self.to_json_dict())
        self._write_csv(out / "complexity_table.csv", self.complexity_rows)
        self._write_csv(out / "risk_table.csv", self.risk_rows)
        self._write_csv(out / "curves.csv", self.curve_rows)
        self._write_csv(out / "timing_table.csv", self.timing_rows)

    @staticmethod
    def _write_csv(path, rows):
        with open(path, "w", newline="", encoding="utf-8") as handle:
            if not rows:
                handle.write("\n")
                return
            writer = csv.writer(handle)
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(row[k]) for k in header])


def _aggregate_cells(values, repetitions):
    """Median, rank intervals, infinity count and size of one table cell.

    The median is the midpoint of the central order statistics (infinite if
    either is).  The intervals are the (4th, 7th) and (3rd, 8th) order
    statistics; those ranks are specific to samples of size 10, so with any
    other repetition count the interval cells are left blank.
    """
    vals = sorted(float(v) for v in values)
    cells = {"median": _median(vals)}
    if repetitions == 10:
        cells.update(ci47_low=vals[3], ci47_high=vals[6], ci38_low=vals[2], ci38_high=vals[7])
    else:
        cells.update(ci47_low="", ci47_high="", ci38_low="", ci38_high="")
    cells["n_inf"] = vals.count(INF)
    cells["n_reps"] = len(values)
    return cells


def run_benchmark(datasets, config: ProtocolConfig) -> BenchmarkReport:
    """Run the full protocol over the given datasets.

    The (dataset, repetition) units run in a pool of ``config.jobs`` processes,
    never more than the units, or in this process when that is one; the report
    is a reduction over the units in the order they were made, so it is
    identical to a serial run.
    """
    datasets = list(datasets)
    names = [d.name for d in datasets]
    if len(set(names)) != len(names):
        raise ValueError("dataset names must be unique")

    tasks = [
        (dataset, config, d_idx, rep)
        for d_idx, dataset in enumerate(datasets)
        for rep in range(config.repetitions)
    ]
    workers = min(config.jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only here

        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_run_repetition, *zip(*tasks)))
    else:
        raw = [_run_repetition(*args) for args in tasks]

    variants = _method_variants(config)
    report = BenchmarkReport(config, [
        {"name": d.name, "n_rows": d.n_rows, "n_features": d.n_features, "task": d.task.value}
        for d in datasets
    ])
    notes = report.notes
    for d_idx, dataset in enumerate(datasets):
        reps = raw[d_idx * config.repetitions:(d_idx + 1) * config.repetitions]
        for rep, (redraws, fits) in enumerate(reps):
            if redraws:
                notes.append(f"{dataset.name} rep {rep}: empty out-of-bag sample, "
                             f"re-drew split {redraws} time(s)")
            for (method, hyper), (_, _, error) in zip(variants, fits):
                if error:
                    notes.append(f"{dataset.name} rep {rep} {method}[{hyper}] "
                                 f"failed: {error} (recorded as inf)")
        metric_names = [name for name, _ in _metrics_for(dataset.task)]

        # flat curve dump and timing aggregation over every variant; each
        # (metric, variant)'s per-repetition curves are collected on the way
        curves_by_metric = {name: {} for name in metric_names}
        for (method, hyper), runs in zip(variants, zip(*(fits for _, fits in reps))):
            key = {"dataset": dataset.name, "method": method, "hyper": hyper}
            # failed fits have no time; they count in neither the mean nor n_fits
            seconds = [t for _, t, error in runs if not error]
            report.timing_rows.append({
                **key, "mean_fit_seconds": float(np.mean(seconds)) if seconds else 0.0,
                "n_fits": len(seconds)})
            for name in metric_names:
                curves_by_metric[name][(method, hyper)] = [curves[name] for curves, _, _ in runs]
            for rep, (curves, _, _) in enumerate(runs):
                for name in metric_names:
                    report.curve_rows.extend(
                        {**key, "metric": name, "rep": rep, "r": p.r, "complexity": p.complexity,
                         "train_risk": p.train_risk, "test_risk": p.test_risk}
                        for p in curves[name])

        targets = report.targets[dataset.name] = {}
        for metric_name in metric_names:
            curves_of = curves_by_metric[metric_name]
            # oracle baseline hyperparameter: the grid value whose mean test
            # risk over all points of all repetitions is lowest
            mean_by_reg = {}
            for (method, hyper), curves in curves_of.items():
                if method == "tgb":
                    risks = [p.test_risk for c in curves for p in c]
                    mean_by_reg[hyper] = float(np.mean(risks)) if risks else INF
            if not mean_by_reg or min(mean_by_reg.values()) == INF:
                notes.append(
                    f"{dataset.name}/{metric_name}: no baseline curves; "
                    "targets unavailable, tables skipped"
                )
                continue
            oracle = min(mean_by_reg, key=lambda h: (mean_by_reg[h], float(h)))
            risk_target = mean_by_reg[oracle]
            table_variants = [v for v in variants if v[0] != "tgb"] + [("tgb", oracle)]
            mins_of = {v: [min_complexity_to_risk_target(c, risk_target) for c in curves_of[v]]
                       for v in table_variants}
            complexity_target = _median(mins_of[("tgb", oracle)])
            targets[metric_name] = {
                "risk_target": risk_target,
                "complexity_target": complexity_target,
                "tgb_oracle_reg": oracle,
                "tgb_mean_risk_by_reg": mean_by_reg,
            }

            for (method, hyper), mins in mins_of.items():
                curves = curves_of[(method, hyper)]
                key = {"dataset": dataset.name, "metric": metric_name,
                       "method": method, "hyper": hyper}
                report.complexity_rows.append({**key, "risk_target": risk_target,
                                               **_aggregate_cells(mins, config.repetitions)})
                if complexity_target != INF:
                    risks = [risk_at_complexity_target(c, complexity_target) for c in curves]
                    report.risk_rows.append({**key, "complexity_target": complexity_target,
                                             **_aggregate_cells(risks, config.repetitions)})
            if complexity_target == INF:
                notes.append(
                    f"{dataset.name}/{metric_name}: baseline median complexity is inf; "
                    "risk-at-complexity table skipped"
                )
    return report
