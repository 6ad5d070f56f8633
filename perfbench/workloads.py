"""Benchmark workloads: inputs made from a seed, set-up, and one gated pass.

Why these three (each stresses different layers, and each optimisation of
the L1 solver has one workload that exercises it and one that bypasses it):

protocol      The paper's own job: the bootstrap risk-versus-complexity
              protocol (10 repetitions, jobs=1) on make_oblique(n=1000, d=6),
              then the report write.
              Narrow L1 problems (d=6) on bootstrap multisets with duplicate
              rows, about 90% of the time in lltboost; the only workload in
              which ``evaluation`` does work.
oblique-wide  Default lltboost fits on make_oblique(n=2000, d=40).  Wide
              L1 problems in which most features stay inactive, so screening
              and active-set changes show here and not on ``protocol``.
axis-large    tgb fits on make_staircase(n=20000, d=20) at three reg_strength
              values.  No L1 solve at all, so the prediction for any L1
              change is "no change"; axis scans and corrective refits
              dominate.

Every pass also scores a block of raw rows with models it fitted (the last
fit per dataset; on ``protocol`` each of the ten lltboost fits), right after
fitting them so that scoring samples spread over the pass, and round-trips
each of those models through save_model/load_model.  On ``protocol`` the
scoring runs inside run_benchmark's fit calls and is left out of job_s.  The
scored models have dense oblique propositions on the two oblique workloads
and axis propositions (one nonzero each) on ``axis-large``, so ``core`` is
exercised in two shapes.

Fit time and model size depend on the drawn dataset by about 10% from one
seed to the next, so the direct-fit workloads draw several datasets from one
seed and fit each of them in every pass; the protocol's ten bootstrap
repetitions already spread its work over one dataset.

Each pass checks its outputs and counts every operation (fit, scoring call,
round trip, protocol report) as attempted, and as failed when its gate fails.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from obliquerules import datasets, evaluation, lltboost, serialize, tgb
from tracer import Tracer

SCORE_ROWS = 100_000  # raw rows per batch decision_function call
SCORE_ROUNDS = 5  # scoring calls per model and pass
RISK_TOL = 1e-9  # float slack on "train risk never increases", as in the unit tests
A1_MIN_RATIO = 2.0  # acceptance A1: tgb needs at least twice lltboost's complexity
AXIS_REG_STRENGTHS = (0.01, 1.0, 100.0)
PROTOCOL_FILES = ("report.json", "complexity_table.csv", "risk_table.csv", "curves.csv")


@dataclass
class Inputs:
    data: list[datasets.Dataset]
    block: np.ndarray  # raw rows to score
    fit_seed: int


@dataclass
class Gates:
    """Operation count and the operations whose correctness gate failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, failure: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(failure)


@dataclass
class PassResult:
    job_s: float
    fit_s: dict[str, list[float]]  # learner -> seconds per fit
    score_s: list[float]  # seconds per SCORE_ROWS-row scoring call
    train_risks: list[float]  # final-stage train risk of each fit of the learner
    digests: dict[str, str]  # output name -> sha256; equal on every pass
    complexity_ratio: float | None = None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stages_digest(traces) -> str:
    """Fingerprint of every stage's train risk and complexity, in fit order."""
    stages = [(s.train_risk.hex(), s.complexity) for t in traces for s in t.stages]
    return _sha256(repr(stages).encode())


def _check_fit(gates: Gates, label: str, trace, max_nonzeros: int) -> None:
    risks = [s.train_risk for s in trace.stages]
    rising = [m + 1 for m, (a, b) in enumerate(zip(risks, risks[1:])) if b > a + RISK_TOL]
    widest = max((p.nnz for r in trace.final.rules for p in r.propositions), default=0)
    gates.check(
        not rising and widest <= max_nonzeros,
        f"{label}: train risk rises at stages {rising}; widest proposition "
        f"has {widest} nonzeros (limit {max_nonzeros})",
    )


@dataclass
class Scoring:
    """Batch scoring of the block by each model, right after the model is fitted,
    so that scoring samples spread over the whole pass like the fits do."""

    block: np.ndarray
    models: list = field(default_factory=list)
    scores: list = field(default_factory=list)  # first scores of each model
    seconds: list[float] = field(default_factory=list)  # one per call

    def score(self, gates: Gates, ensemble) -> None:
        self.models.append(ensemble)
        for _ in range(SCORE_ROUNDS):
            start = perf_counter()
            scores = ensemble.decision_function(self.block)
            self.seconds.append(perf_counter() - start)
            if len(self.scores) < len(self.models):
                self.scores.append(scores)
            gates.check(
                np.all(np.isfinite(scores)) and np.array_equal(scores, self.scores[-1]),
                f"scoring: model {len(self.models) - 1} gave different or non-finite "
                "scores on a repeated call",
            )

    def round_trip(self, gates: Gates, feature_names, workdir: Path) -> str:
        """Save, load and re-score every model; sha256 over the saved files."""
        digest = hashlib.sha256()
        for i, (ensemble, scores) in enumerate(zip(self.models, self.scores)):
            path = workdir / f"model{i}.json"
            model = serialize.ModelFile(ensemble=ensemble, feature_names=feature_names)
            serialize.save_model(model, path)
            back = serialize.load_model(path).ensemble
            gates.check(
                np.array_equal(back.decision_function(self.block), scores),
                f"round trip: loaded model {i} does not score the batch bit-exactly",
            )
            digest.update(path.read_bytes())
        return digest.hexdigest()


def _protocol_pass(inputs: Inputs, workdir: Path, gates: Gates) -> PassResult:
    config = evaluation.ProtocolConfig(jobs=1, master_seed=inputs.fit_seed)
    fits, scoring, scoring_s = [], Scoring(inputs.block), []

    def fitted(trace, _state, method, *args):
        # record each fit's trace as the protocol sees it, for the gates, and
        # score with each lltboost model; job_s excludes that scoring time
        fits.append((method, trace))
        if method == "lltboost":
            start = perf_counter()
            scoring.score(gates, trace.final)
            scoring_s.append(perf_counter() - start)

    with Tracer() as recorder:
        recorder.wrap(evaluation, "_fit_variant", "protocol.fit", after=fitted)
        start = perf_counter()
        report = evaluation.run_benchmark(inputs.data, config)
        report.write(workdir / "report")
        job_s = perf_counter() - start - sum(scoring_s)

    n_fits = len(inputs.data) * config.repetitions * (1 + len(config.tgb_reg_grid))
    for _ in range(n_fits - len(fits)):
        gates.check(False, "protocol: a fit raised inside run_benchmark")
    llt = [t for method, t in fits if method == "lltboost"]
    for method, trace in fits:
        limit = config.max_nonzeros if method == "lltboost" else 1
        _check_fit(gates, f"protocol {method}", trace, limit)

    medians = {
        r["method"]: r["median"] for r in report.complexity_rows if r["metric"] == "zero_one"
    }
    ratio = medians["tgb"] / medians["lltboost"] if medians["lltboost"] > 0 else 0.0
    gates.check(
        ratio >= A1_MIN_RATIO,
        f"protocol: complexity ratio tgb/lltboost {ratio} below {A1_MIN_RATIO} (A1)",
    )
    digests = {
        name: _sha256((workdir / "report" / name).read_bytes()) for name in PROTOCOL_FILES
    }
    digests["stages"] = _stages_digest(t for _, t in fits)
    digests["models"] = scoring.round_trip(gates, inputs.data[0].feature_names, workdir)
    return PassResult(
        job_s=job_s,
        fit_s={
            "lltboost": [t.wall_time_seconds for t in llt],
            "tgb": [t.wall_time_seconds for m, t in fits if m == "tgb"],
        },
        score_s=scoring.seconds,
        train_risks=[t.stages[-1].train_risk for t in llt],
        digests=digests,
        complexity_ratio=ratio,
    )


def _fit_score_pass(learner: str, configs, inputs: Inputs, workdir: Path,
                    gates: Gates) -> PassResult:
    """Direct fits of one learner on every dataset, each dataset's last model
    scored right after its fits, then round trips of the scored models."""
    module = lltboost if learner == "lltboost" else tgb
    scoring = Scoring(inputs.block)
    start = perf_counter()
    traces, fit_s = [], []
    for data in inputs.data:
        for cfg in configs:
            t0 = perf_counter()
            traces.append(module.fit(data.X, data.y, cfg))
            fit_s.append(perf_counter() - t0)
        scoring.score(gates, traces[-1].final)
    models_digest = scoring.round_trip(gates, inputs.data[0].feature_names, workdir)
    job_s = perf_counter() - start
    for i, trace in enumerate(traces):
        cfg = configs[i % len(configs)]
        _check_fit(gates, f"{learner} fit {i}", trace, getattr(cfg, "max_nonzeros", 1))
    return PassResult(
        job_s=job_s,
        fit_s={learner: fit_s},
        score_s=scoring.seconds,
        train_risks=[t.stages[-1].train_risk for t in traces],
        digests={"models": models_digest, "stages": _stages_digest(traces)},
    )


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # name of the datasets generator, resolved at call time
    n: int
    d: int
    draws: int  # datasets drawn from one seed
    learner: str  # the learner fitted directly (on protocol: the one it scores)

    def make_inputs(self, seed: int) -> Inputs:
        states = [int(v) for v in np.random.SeedSequence(seed).generate_state(self.draws + 2)]
        make = getattr(datasets, self.generator)
        data = [make(n=self.n, d=self.d, noise=0.05, seed=s) for s in states[:self.draws]]
        block = make(n=SCORE_ROWS, d=self.d, noise=0.05, seed=states[-2]).X
        return Inputs(data=data, block=block, fit_seed=states[-1])

    def setup(self, seed: int) -> Inputs:
        """Inputs plus a warm-up that pays first-call costs of every layer."""
        inputs = self.make_inputs(seed)
        X, y = inputs.data[0].X[:200], inputs.data[0].y[:200]
        lltboost.fit(X, y, lltboost.LLTConfig(max_rules=1))
        tgb.fit(X, y, tgb.TGBConfig(max_rules=1)).final.decision_function(inputs.block[:100])
        return inputs

    def run(self, inputs: Inputs, workdir: Path, gates: Gates) -> PassResult:
        workdir.mkdir(parents=True, exist_ok=True)
        if self.name == "protocol":
            return _protocol_pass(inputs, workdir, gates)
        if self.learner == "lltboost":
            configs = [lltboost.LLTConfig()]
        else:
            configs = [tgb.TGBConfig(reg_strength=r) for r in AXIS_REG_STRENGTHS]
        return _fit_score_pass(self.learner, configs, inputs, workdir, gates)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("protocol", "make_oblique", n=1000, d=6, draws=1, learner="lltboost"),
        Workload("oblique-wide", "make_oblique", n=2000, d=40, draws=8, learner="lltboost"),
        Workload("axis-large", "make_staircase", n=20000, d=20, draws=5, learner="tgb"),
    )
}
