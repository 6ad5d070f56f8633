"""End-to-end acceptance gate.

Each test exercises one acceptance criterion at its stated tolerance and
emits a single [PASS]/[FAIL] line on the real standard output stream so the
verdicts are visible in captured runs.
"""

import sys
import time

import numpy as np
import pytest

from obliquerules import lltboost, tgb
from obliquerules.core import SparseProposition
from obliquerules.datasets import make_oblique
from obliquerules.evaluation import (
    INF,
    CurvePoint,
    ProtocolConfig,
    _aggregate_cells,
    min_complexity_to_risk_target,
    risk_at_complexity_target,
    run_benchmark,
)
from obliquerules.lltboost import _weighted_sign_risk
from obliquerules.losses import LossKind, gradient, loss, softplus
from obliquerules.serialize import ModelFile, load_model, save_model
from obliquerules.sparse_logreg import (
    LambdaPath,
    WeightedBinaryProblem,
    corrective_refit,
    fit_weighted_l1,
    kkt_residual,
)
from obliquerules.tgb import TGBConfig, best_axis_proposition


def objective_value(problem, lam, w, b):
    """F(w, b) = sum_i omega_i * (softplus(s_i) - z_i * s_i) + lam * ||w||_1, s = Xw + b."""
    w = np.asarray(w, dtype=float)
    s = problem.features @ w + b
    smooth = float(problem.sample_weights @ (softplus(s) - problem.labels * s))
    return smooth + lam * float(np.abs(w).sum())


@pytest.fixture
def verdict(request):
    """One [PASS]/[FAIL] line per criterion on the live terminal stream."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(tag: str, ok: bool, detail: str = ""):
        suffix = f" ({detail})" if detail else ""
        line = f"[{'PASS' if ok else 'FAIL'}] {tag}{suffix}"
        if reporter is not None:
            getattr(reporter, "ensure_newline", lambda: None)()
            reporter.write_line(line)
        else:
            print(line, file=sys.__stdout__, flush=True)
        assert ok, line

    return emit


def random_problem(rng, n=None, d=None):
    n = n or int(rng.integers(25, 60))
    d = d or int(rng.integers(2, 7))
    X = rng.normal(size=(n, d))
    logits = X @ rng.normal(size=d) + 0.3 * rng.normal(size=n)
    z = (logits > 0).astype(float)
    if z.min() == z.max():
        z[0] = 1.0 - z[0]
    omega = rng.uniform(0.5, 1.5, size=n)
    return WeightedBinaryProblem(X, z, omega)


# ---------------------------------------------------------------------------
# 1. oblique advantage on the diagonal half-space task
# ---------------------------------------------------------------------------


def test_a1_oblique_conditions_halve_the_complexity_of_axis_baseline(verdict):
    started = time.time()
    data = make_oblique(n=1000, d=6, noise=0.05, seed=0)
    report = run_benchmark([data], ProtocolConfig(jobs=1))
    rows = {
        r["method"]: r
        for r in report.complexity_rows
        if r["metric"] == "zero_one"
    }
    llt = rows["lltboost"]["median"]
    base = rows["tgb"]["median"]
    elapsed = time.time() - started
    ok = llt != INF and llt <= 0.5 * base and elapsed <= 300.0
    verdict(
        "A1 oblique advantage: median min-complexity finite and <= 0.5x "
        "axis-parallel baseline",
        ok,
        f"oblique={llt}, axis={base}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 2. gradient-sum / weighted 0-1 risk decomposition
# ---------------------------------------------------------------------------


def test_a2_gradient_objective_decomposes_into_weighted_sign_risk(verdict):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(1, 7))
        X = rng.normal(size=(n, d))
        g = rng.normal(size=n)
        g[rng.random(n) < 0.1] = 0.0  # exact zeros join the nonnegative side
        k = int(rng.integers(1, d + 1))
        idx = np.sort(rng.choice(d, size=k, replace=False))
        w = rng.normal(size=k)
        w[w == 0.0] = 1.0
        prop = SparseProposition(indices=idx, weights=w, threshold=float(rng.normal()))
        sgn = float(rng.choice([-1.0, 1.0]))

        q = prop.activations(X)
        lhs = sgn * float(g @ q) + _weighted_sign_risk(q, g, sgn)
        rhs = float(np.sum(np.maximum(sgn * g, 0.0)))
        worst = max(worst, abs(lhs - rhs))
    verdict(
        "A2 objective decomposition identity on 200 random instances (tol 1e-9)",
        worst <= 1e-9,
        f"max residual {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 3. weighted L1 solver: KKT residuals, grid oracle, null threshold
# ---------------------------------------------------------------------------


def _refined_grid_minimum(problem, lam, rounds=4, k=25):
    """Solver-independent objective minimum by iterative grid refinement."""
    center = np.zeros(3)
    width = 3.0
    best_val = np.inf
    for _ in range(rounds):
        axes = [np.linspace(c - width, c + width, k) for c in center]
        W1, W2, B = np.meshgrid(*axes, indexing="ij")
        cand = np.stack([W1.ravel(), W2.ravel(), B.ravel()], axis=1)
        scores = problem.features @ cand[:, :2].T + cand[:, 2]
        z, om = problem.labels, problem.sample_weights
        smooth = om @ (softplus(scores) - z[:, None] * scores)
        vals = smooth + lam * np.abs(cand[:, :2]).sum(axis=1)
        j = int(np.argmin(vals))
        best_val = float(vals[j])
        center = cand[j]
        width = 4.0 * width / (k - 1)
    return best_val


def test_a3_solver_kkt_oracle_and_null_threshold(verdict):
    rng = np.random.default_rng(23)
    worst_kkt = 0.0
    for _ in range(100):
        problem = random_problem(rng)
        lam = float(rng.uniform(0.05, 0.8)) * problem.lam_max
        sol = fit_weighted_l1(problem, lam)
        worst_kkt = max(worst_kkt, kkt_residual(problem, lam, sol.weights, sol.intercept))

    worst_gap = 0.0
    for _ in range(20):
        problem = random_problem(rng, d=2)
        lam = float(rng.uniform(0.2, 0.6)) * problem.lam_max
        sol = fit_weighted_l1(problem, lam)
        oracle = _refined_grid_minimum(problem, lam)
        value = objective_value(problem, lam, sol.weights, sol.intercept)
        worst_gap = max(worst_gap, abs(value - oracle))

    null_ok = True
    for _ in range(20):
        problem = random_problem(rng)
        lmax = problem.lam_max
        for lam in (lmax, 1.5 * lmax):
            sol = fit_weighted_l1(problem, lam)
            null_ok = null_ok and not np.any(sol.weights)

    ok = worst_kkt <= 1e-4 and worst_gap <= 1e-3 and null_ok
    verdict(
        "A3 solver: KKT <= 1e-4 on 100 problems, grid oracle within 1e-3 on "
        "20, exact null at/above the critical penalty",
        ok,
        f"max KKT {worst_kkt:.2e}, max oracle gap {worst_gap:.2e}, "
        f"null {'exact' if null_ok else 'violated'}",
    )


# ---------------------------------------------------------------------------
# 4. exact-sparsity search against a dense penalty grid
# ---------------------------------------------------------------------------


def test_a4_sparsity_search_matches_dense_grid_transitions(verdict):
    rng = np.random.default_rng(37)
    budget_ok = True
    agree_ok = True
    detail = []
    for trial in range(20):
        problem = random_problem(rng, n=int(rng.integers(30, 60)), d=int(rng.integers(3, 8)))
        lmax = problem.lam_max
        grid = np.geomspace(lmax, 1e-4 * lmax, 400)
        step = grid[0] / grid[1]
        nnz_at = []
        warm = None
        for lam in grid:
            sol = fit_weighted_l1(problem, float(lam), init=warm)
            warm = (sol.weights, sol.intercept)
            nnz_at.append(sol.nnz)
        nnz_at = np.asarray(nnz_at)

        for s in range(1, min(problem.d, 5) + 1):
            sol = LambdaPath(problem).for_sparsity(s)
            if sol.nnz > s:
                budget_ok = False
                detail.append(f"trial {trial}: nnz {sol.nnz} > s {s}")
            grid_sees_s = bool(np.any(nnz_at == s))
            if grid_sees_s and sol.nnz != s:
                agree_ok = False
                detail.append(f"trial {trial}: grid reaches s={s}, search returned {sol.nnz}")
            if sol.nnz == s and sol.lam >= grid[-1]:
                near = np.abs(np.log(grid) - np.log(sol.lam)) <= np.log(step) * 1.0001
                if not np.any(nnz_at[near] == s):
                    agree_ok = False
                    detail.append(f"trial {trial}: s={s} found at lam outside grid agreement")
    ok = budget_ok and agree_ok
    verdict(
        "A4 sparsity search: nnz <= s always; transitions within one step of "
        "a 400-point penalty grid on 20 instances",
        ok,
        "; ".join(detail) if detail else "all transitions agree",
    )


# ---------------------------------------------------------------------------
# 5. axis-parallel threshold search equals brute force
# ---------------------------------------------------------------------------


def _brute_force_axis(X, g, reg):
    """Enumerate every (feature, midpoint, direction) in documented tie order."""
    best = None
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        for lo, hi in zip(values, values[1:]):
            t = 0.5 * (lo + hi)
            for direction in (">=", "<="):
                cover = X[:, j] >= t if direction == ">=" else X[:, j] <= t
                total = abs(float(g[cover].sum()))
                score = total / np.sqrt(reg + float(cover.sum()))
                if best is None or score > best[3]:
                    best = (j, direction, float(t), score, frozenset(np.flatnonzero(cover)))
    return best


def test_a5_axis_threshold_search_equals_exhaustive_enumeration(verdict):
    rng = np.random.default_rng(41)
    all_ok = True
    detail = ""
    for trial in range(50):
        n = int(rng.integers(4, 21))
        d = int(rng.integers(1, 4))
        X = np.round(rng.normal(size=(n, d)), 2)  # induce duplicate values
        # integer gradients make every partial sum exact, so scores must agree bitwise
        g = rng.integers(-5, 6, size=n).astype(float)
        reg = (0.0, 1.0, 100.0)[trial % 3]
        orders = np.argsort(X.T, axis=1, kind="stable")
        cand = best_axis_proposition(np.arange(n), X, g, orders, (reg,))[0]
        brute = _brute_force_axis(X, g, reg)
        if brute is None:
            ok = cand is None
        else:
            j, direction, t, score, cover = brute
            got_cover = frozenset(np.flatnonzero(cand.to_proposition().activations(X)))
            ok = (
                cand.feature == j
                and cand.direction == direction
                and cand.threshold == t
                and cand.score == score
                and got_cover == cover
            )
        if not ok:
            all_ok = False
            detail = f"trial {trial}: fast {cand} vs brute {brute[:4] if brute else None}"
            break
    verdict(
        "A5 axis threshold search equals brute-force enumeration on 50 "
        "instances (exact score and cover set)",
        all_ok,
        detail or "exact match on all 50",
    )


# ---------------------------------------------------------------------------
# 6. fully-corrective refits keep training risk monotone
# ---------------------------------------------------------------------------


def test_a6_train_risk_monotone_and_squared_refit_matches_ridge(verdict):
    rng = np.random.default_rng(53)
    monotone_ok = True
    detail = []
    for trial in range(50):
        n = int(rng.integers(20, 45))
        d = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        classification = trial % 2 == 0
        if classification:
            y = (X @ rng.normal(size=d) + 0.5 * rng.normal(size=n) > 0).astype(float)
            if y.min() == y.max():
                y[0] = 1.0 - y[0]
            kinds = (LossKind.LOGISTIC,)
        else:
            y = X @ rng.normal(size=d) + 0.3 * rng.normal(size=n)
            kinds = (LossKind.SQUARED,)
        for kind in kinds:
            traces = [
                lltboost.fit(
                    X, y,
                    lltboost.LLTConfig(
                        max_rules=3, max_propositions=2, max_nonzeros=2,
                        loss=kind, seed=trial,
                    ),
                ),
                tgb.fit(
                    X, y,
                    TGBConfig(max_rules=5, loss=kind, reg_strength=0.1),
                ),
            ]
            for trace in traces:
                risks = [stage.train_risk for stage in trace.stages]
                for earlier, later in zip(risks, risks[1:]):
                    if later > earlier + 1e-12:
                        monotone_ok = False
                        detail.append(f"trial {trial}: {earlier} -> {later}")

    ridge_gap = 0.0
    for _ in range(50):
        n, m = int(rng.integers(10, 40)), int(rng.integers(1, 5))
        design = np.column_stack([np.ones(n), rng.normal(size=(n, m))])
        y = rng.normal(size=n)
        warm = rng.normal(size=m + 1)
        beta = corrective_refit(design, y, LossKind.SQUARED, warm)
        penalty = 2e-8 * np.eye(m + 1)
        penalty[0, 0] = 0.0
        closed = np.linalg.solve(design.T @ design + penalty, design.T @ y)
        ridge_gap = max(ridge_gap, float(np.max(np.abs(beta - closed))))

    ok = monotone_ok and ridge_gap <= 1e-8
    verdict(
        "A6 fully-corrective training risk nonincreasing on 50 datasets for "
        "both learners; squared refit matches closed-form ridge to 1e-8",
        ok,
        "; ".join(detail[:2]) if detail else f"max ridge gap {ridge_gap:.2e}",
    )


# ---------------------------------------------------------------------------
# 7. protocol arithmetic hand examples
# ---------------------------------------------------------------------------


def test_a7_protocol_arithmetic_hand_examples(verdict):
    def curve(pairs):
        return tuple(CurvePoint(complexity=c, test_risk=r, train_risk=0.0, r=i + 1)
                     for i, (c, r) in enumerate(pairs))

    c = curve([(3, 0.5), (5, 0.3), (9, 0.1)])
    checks = [
        min_complexity_to_risk_target(c, 0.25) == 9.0,
        min_complexity_to_risk_target(c, 0.05) == INF,
        min_complexity_to_risk_target(c, 0.5) == 3.0,
        risk_at_complexity_target(c, 6) == 0.3,
        risk_at_complexity_target(c, 2) == INF,
        risk_at_complexity_target(c, 9) == 0.1,
    ]
    cells = _aggregate_cells(list(range(1, 11)), 10)
    checks += [
        cells["median"] == 5.5,
        (cells["ci47_low"], cells["ci47_high"]) == (4.0, 7.0),
        (cells["ci38_low"], cells["ci38_high"]) == (3.0, 8.0),
        _aggregate_cells([1.0] * 5 + [INF] * 5, 10)["median"] == INF,
        _aggregate_cells([INF] * 10, 10)["ci38_low"] == INF,
    ]
    verdict(
        "A7 protocol arithmetic reproduces all hand examples exactly, "
        "including infinite cases and both rank pairs",
        all(checks),
        f"{sum(checks)}/{len(checks)} checks",
    )


# ---------------------------------------------------------------------------
# 8. determinism across parallelism; serialization round trip
# ---------------------------------------------------------------------------


def test_a8_parallel_report_bytes_and_model_round_trip(verdict, tmp_path):
    data = [make_oblique(n=80, d=3, noise=0.1, seed=0)]
    cfg = dict(
        repetitions=10, max_rules=2, max_propositions=2, bootstrap_cap=50,
        tgb_reg_grid=(0.1, 10.0), master_seed=5,
    )
    blobs = {}
    for jobs in (1, 2):
        report = run_benchmark(data, ProtocolConfig(jobs=jobs, **cfg))
        out = tmp_path / f"jobs{jobs}"
        report.write(out)
        blobs[jobs] = {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if p.name != "timing_table.csv"  # wall clock is not protocol output
        }
    bytes_ok = blobs[1] == blobs[2] and len(blobs[1]) == 4

    train = make_oblique(n=120, d=4, noise=0.1, seed=3)
    probe = np.random.default_rng(9).normal(size=(1000, 4)) * 2.0
    round_trip_ok = True
    for trace in (
        lltboost.fit(train.X, train.y, lltboost.LLTConfig(max_rules=3, seed=1)),
        tgb.fit(train.X, train.y, TGBConfig(max_rules=3)),
    ):
        ens = trace.stages[-1].ensemble
        path = tmp_path / "model.json"
        save_model(ModelFile(ensemble=ens, feature_names=train.feature_names), path)
        back = load_model(path).ensemble
        round_trip_ok = round_trip_ok and np.array_equal(
            ens.decision_function(probe), back.decision_function(probe)
        )

    ok = bytes_ok and round_trip_ok
    verdict(
        "A8 byte-identical report across serial and parallel runs; model "
        "round-trip preserves 1000 scores bit-exactly",
        ok,
        f"report bytes {'equal' if bytes_ok else 'differ'}, "
        f"scores {'bit-exact' if round_trip_ok else 'drift'}",
    )


# ---------------------------------------------------------------------------
# 9. analytic gradients match central finite differences
# ---------------------------------------------------------------------------


def test_a9_gradients_match_central_finite_differences(verdict):
    rng = np.random.default_rng(71)
    h = 1e-6
    worst = 0.0
    for kind in (LossKind.LOGISTIC, LossKind.SQUARED):
        if kind is LossKind.LOGISTIC:
            y = rng.integers(0, 2, size=1000).astype(float)
        else:
            y = rng.normal(size=1000) * 2.0
        s = rng.uniform(-8.0, 8.0, size=1000)
        analytic = gradient(kind, y, s)
        fd = (loss(kind, y, s + h) - loss(kind, y, s - h)) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(analytic - fd))))
    verdict(
        "A9 analytic gradients match central finite differences to 1e-6 at "
        "1000 random points per loss",
        worst <= 1e-6,
        f"max deviation {worst:.2e}",
    )
