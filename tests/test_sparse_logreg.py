import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliquerules import sparse_logreg
from obliquerules.losses import LossKind, logistic, loss, softplus
from obliquerules.sparse_logreg import (
    KKT_TOL,
    LambdaPath,
    LinearSolution,
    WeightedBinaryProblem,
    corrective_refit,
    fit_weighted_l1,
    kkt_residual,
)


def objective_value(problem, lam, w, b):
    """F(w, b) = sum_i omega_i * (softplus(s_i) - z_i * s_i) + lam * ||w||_1, s = Xw + b."""
    w = np.asarray(w, dtype=float)
    s = problem.features @ w + b
    smooth = float(problem.sample_weights @ (softplus(s) - problem.labels * s))
    return smooth + lam * float(np.abs(w).sum())


seed = 42


def random_problem(s, n=60, d=5, informative=2, weighted=True):
    rng = np.random.default_rng(s)
    X = rng.normal(size=(n, d))
    w_true = np.zeros(d)
    w_true[:informative] = rng.uniform(1.0, 2.5, size=informative) * rng.choice([-1, 1], informative)
    z = (X @ w_true + 0.5 * rng.normal(size=n) > 0).astype(float)
    if z.min() == z.max():  # keep both classes present
        z[0] = 1.0 - z[0]
    om = rng.uniform(0.2, 2.0, size=n) if weighted else np.ones(n)
    return WeightedBinaryProblem(X, z, om)


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------


def test_sample_weights_normalized_to_mean_one():
    prob = WeightedBinaryProblem(np.zeros((4, 2)), np.array([0, 1, 0, 1.0]), np.array([1, 2, 3, 4.0]))
    assert prob.sample_weights.mean() == pytest.approx(1.0)
    assert prob.sample_weights.tolist() == pytest.approx([0.4, 0.8, 1.2, 1.6])


def test_problem_rejects_bad_inputs():
    with pytest.raises(ValueError):
        WeightedBinaryProblem(np.zeros((3, 2)), np.array([0, 1, 2.0]), np.ones(3))
    with pytest.raises(ValueError):
        WeightedBinaryProblem(np.zeros((3, 2)), np.array([0, 1, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        WeightedBinaryProblem(np.zeros((3, 2)), np.array([0, 1.0]), np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_features(bad):
    X = np.zeros((3, 2))
    X[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        WeightedBinaryProblem(X, np.array([0, 1, 1.0]), np.ones(3))


def test_gradient_reuse_is_exact_and_never_stale(monkeypatch):
    prob = random_problem(seed)
    fresh = sparse_logreg._smooth_grad
    calls = []
    monkeypatch.setattr(sparse_logreg, "_smooth_grad", lambda *a: calls.append(a) or fresh(*a))

    def bits(grad):
        return [np.asarray(part).tobytes() for part in grad]

    def expected(w, b):
        return bits(fresh(prob.features, prob.labels, prob.sample_weights, w, b))

    w, b = np.array([0.5, 0.0, -1.0, 0.0, 0.25]), 0.1
    first = prob._grad(w, b)
    assert bits(prob._grad(w.copy(), b)) == bits(first) == expected(w, b)
    assert len(calls) == 1
    for array in first[:3]:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    w[0] = 0.75  # the walk updates its weights in place
    assert bits(prob._grad(w, b)) == expected(w, b)
    assert len(calls) == 2
    w[1] = -0.0  # equal to 0.0, but not the same bits
    prob._grad(w, b)
    prob._grad(w.copy(), b)
    assert len(calls) == 3
    prob._grad(w, 0.0)
    prob._grad(w, -0.0)
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# lam_max
# ---------------------------------------------------------------------------


def test_lambda_max_hand_value():
    prob = WeightedBinaryProblem(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]), np.ones(2))
    assert prob.lam_max == pytest.approx(1.0)


def test_lambda_max_zero_for_single_class():
    prob = WeightedBinaryProblem(np.random.default_rng(0).normal(size=(5, 3)), np.ones(5), np.ones(5))
    assert prob.lam_max == 0.0


def test_weights_vanish_exactly_at_lambda_max():
    for s in range(20):
        prob = random_problem(s)
        lm = prob.lam_max
        for lam in (lm, 1.5 * lm):
            sol = fit_weighted_l1(prob, lam)
            assert np.all(sol.weights == 0.0), f"seed {s}"
            # intercept equals the weighted log-odds of the labels
            p_hat = float(prob.sample_weights @ prob.labels) / prob.labels.size
            assert sol.intercept == pytest.approx(np.log(p_hat / (1 - p_hat)), abs=1e-6)


def test_just_below_lambda_max_usually_activates_a_feature():
    hits = sum(
        fit_weighted_l1(random_problem(s), 0.9 * random_problem(s).lam_max).nnz >= 1
        for s in range(40)
    )
    assert hits >= 28  # sanity margin, not a strict bound


# ---------------------------------------------------------------------------
# solver behavior
# ---------------------------------------------------------------------------


def test_objective_nonincreasing_across_iterations(monkeypatch):
    # a solve capped at MAX_ITER = k returns the endpoint of its first k steps
    for s in range(5):
        prob = random_problem(s)
        lam = 0.05 * prob.lam_max
        history = []
        for k in range(50):
            monkeypatch.setattr(sparse_logreg, "MAX_ITER", k)
            sol = fit_weighted_l1(prob, lam)
            assert sol.n_iter == k
            history.append(objective_value(prob, lam, sol.weights, sol.intercept))
            if sol.converged:
                break
        assert sol.converged and len(history) > 2, f"seed {s}"
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_kkt_residual_small_on_random_problems():
    for s in range(25):
        prob = random_problem(s)
        lam = 0.1 * prob.lam_max
        sol = fit_weighted_l1(prob, lam)
        assert kkt_residual(prob, lam, sol.weights, sol.intercept) <= 1e-4, f"seed {s}"


def test_symmetric_balanced_data_gives_zero_intercept():
    rng = np.random.default_rng(seed)
    half = rng.normal(size=(30, 3))
    X = np.vstack([half, -half])
    z = np.concatenate([np.ones(30), np.zeros(30)])
    prob = WeightedBinaryProblem(X, z, np.ones(60))
    sol = fit_weighted_l1(prob, 0.0)
    assert abs(sol.intercept) <= 1e-8


def test_degenerate_labels_return_clamped_null_model():
    X = np.random.default_rng(1).normal(size=(10, 3))
    prob = WeightedBinaryProblem(X, np.ones(10), np.ones(10))
    sol = fit_weighted_l1(prob, 0.5)
    assert sol.nnz == 0
    assert sol.intercept == pytest.approx(np.log(19.0))  # p clamped to 19/20


def test_warm_start_at_a_solution_takes_no_step():
    for s in range(8):
        prob = random_problem(s)
        for frac in (0.5, 0.1, 0.01):
            sol = fit_weighted_l1(prob, frac * prob.lam_max)
            again = fit_weighted_l1(prob, sol.lam, init=(sol.weights, sol.intercept))
            assert again.converged and again.n_iter == 0, f"seed {s}, lam fraction {frac}"
            assert np.array_equal(again.weights, sol.weights)
            assert again.intercept == sol.intercept


def test_solve_from_a_perturbed_start_recovers_the_signs():
    for s in range(8):
        prob = random_problem(s)
        lam = 0.1 * prob.lam_max
        sol = fit_weighted_l1(prob, lam)
        again = fit_weighted_l1(prob, lam, init=(1.5 * sol.weights, sol.intercept + 0.3))
        assert again.converged and again.n_iter > 0
        assert np.array_equal(np.sign(again.weights), np.sign(sol.weights))
        assert kkt_residual(prob, lam, again.weights, again.intercept) <= KKT_TOL


def degenerate_problem(design, n=200):
    """A weighted problem whose columns are duplicated, collinear or constant,
    so the Newton system is singular except for its ridge."""
    rng = np.random.default_rng(5)
    x1, x2, x3 = rng.normal(size=(3, n))
    X = {
        "duplicated": np.column_stack([x1, x1, x2, x2, x3]),
        "collinear": np.column_stack([x1, 2.0 * x1, x1 + x2, x2, x3]),
        "constant": np.column_stack([x1, np.ones(n), x2, np.zeros(n), x3]),
    }[design]
    z = (x1 + 0.5 * x2 + 0.7 * rng.normal(size=n) > 0).astype(float)
    return WeightedBinaryProblem(X, z, rng.exponential(size=n))


@pytest.mark.parametrize("design", ["duplicated", "collinear", "constant"])
def test_degenerate_columns_keep_kkt_and_sparsity(design):
    prob = degenerate_problem(design)
    for frac in (0.9, 0.5, 0.1, 0.01, 1e-3):
        sol = fit_weighted_l1(prob, frac * prob.lam_max)
        assert sol.converged
        assert kkt_residual(prob, sol.lam, sol.weights, sol.intercept) <= KKT_TOL
    path = LambdaPath(prob)
    for s in range(1, prob.d + 1):
        sol = path.for_sparsity(s)
        assert sol.nnz <= s
        assert kkt_residual(prob, sol.lam, sol.weights, sol.intercept) <= KKT_TOL


def test_duplicated_columns_on_a_large_scale_keep_the_newton_system_solvable():
    # a column of scale 1e3 puts H's diagonal near 1e8, where an absolute
    # 1e-10 ridge is lost in rounding and duplicated columns make H singular
    rng = np.random.default_rng(0)
    x = 1e3 * rng.normal(size=1000)
    z = (x + 300 * rng.normal(size=1000) > 0).astype(float)
    prob = WeightedBinaryProblem(np.column_stack([x, x, rng.normal(size=1000)]), z, np.ones(1000))
    for frac in (0.5, 1e-3, 1e-5):
        sol = fit_weighted_l1(prob, frac * prob.lam_max)
        assert sol.converged
        assert kkt_residual(prob, sol.lam, sol.weights, sol.intercept) <= KKT_TOL


def test_smooth_change_matches_the_objective_difference():
    prob = random_problem(4, n=200)
    X, z, omega = prob.features, prob.labels, prob.sample_weights
    rng = np.random.default_rng(9)
    w, b = rng.normal(size=prob.d), 0.3
    s = X @ w + b
    mu = 1.0 / (1.0 + np.exp(-s))
    for scale in (1e-12, 1e-6, 0.1, 3.0):  # both branches: max |delta| <= 1 and > 1
        dw = scale * rng.normal(size=prob.d)
        change = sparse_logreg._smooth_change(z, omega, s, mu, X @ dw)
        exact = objective_value(prob, 0.0, w + dw, b) - objective_value(prob, 0.0, w, b)
        # the objective difference carries the rounding of F (~1e-13 here)
        assert abs(change - exact) <= 1e-12 + 1e-10 * abs(exact), scale
    # a move far below the rounding of F: compare with its second-order expansion
    dw = 1e-9 * rng.normal(size=prob.d)
    delta = X @ dw
    taylor = omega @ ((mu - z) * delta + mu * (1 - mu) * delta**2 / 2)
    change = sparse_logreg._smooth_change(z, omega, s, mu, delta)
    assert abs(change - taylor) <= 1e-6 * abs(taylor)


# frozen oracle: dense grid over (w1, w2, b) in [-3, 3]^3 with step 0.01 on the
# fixed instance below; computed once by an exhaustive scan, argmin at the
# interior point (1.10, 0.25, -0.34)
FROZEN_GRID_MIN = 28.687132344147603


def test_solution_objective_matches_dense_grid_search():
    rng = np.random.default_rng(7)
    n = 50
    X = rng.normal(size=(n, 2))
    z = (X[:, 0] + 0.5 * X[:, 1] + 1.5 * rng.normal(size=n) > 0).astype(float)
    om = rng.uniform(0.5, 1.5, size=n)
    prob = WeightedBinaryProblem(X, z, om)
    sol = fit_weighted_l1(prob, 0.1)
    value = objective_value(prob, sol.lam, sol.weights, sol.intercept)
    assert abs(value - FROZEN_GRID_MIN) <= 1e-3
    # the solver can only do better than the best grid vertex
    assert value <= FROZEN_GRID_MIN + 1e-12


def test_null_model_clamps_only_a_single_class_rate():
    # positives weighted 1e-9 give a weighted positive rate near 1e-9, far
    # below 1/(2n), which is kept: only a rate of exactly 0 or 1 is clamped
    rng = np.random.default_rng(3)
    X = rng.normal(100.0, 3.0, size=(200, 2))
    z = (X[:, 0] > 100.0).astype(float)
    weights = np.where(z == 1, 1e-9, 1.0)
    prob = WeightedBinaryProblem(X, z, weights)
    p = float(weights @ z) / weights.sum()
    assert 0 < p < 1 / (2 * 200)
    expected = np.log(p / (1 - p))
    assert prob.lam_max > 0
    start = LambdaPath(prob)._cache[prob.lam_max]
    assert start.nnz == 0 and start.intercept == pytest.approx(expected, rel=1e-12)
    assert fit_weighted_l1(prob, np.inf).intercept == start.intercept
    single = WeightedBinaryProblem(X[:100], np.zeros(100), np.ones(100))
    assert single.lam_max == 0.0
    assert fit_weighted_l1(single, 1.0).intercept == np.log((1 / 200) / (1 - 1 / 200))
    assert LambdaPath(single)._cache[0.0].intercept == np.log((1 / 200) / (1 - 1 / 200))


def test_a_balanced_problem_with_zero_lam_max_still_iterates_from_a_warm_start():
    # X.T @ r vanishes at the null model, so lam_max is 0, but both classes
    # are present: a warm start away from the null model is not a solution
    prob = WeightedBinaryProblem(np.array([[1.0], [1.0], [-1.0], [-1.0]]),
                                 np.array([1.0, 0.0, 1.0, 0.0]), np.ones(4))
    assert prob.lam_max == 0.0
    sol = fit_weighted_l1(prob, 0.0, init=(np.array([1.0]), 0.3))
    assert sol.n_iter > 0 and abs(sol.weights[0]) < 1e-6 and abs(sol.intercept) < 1e-6


def test_nan_penalty_is_rejected_and_an_infinite_one_gives_the_null_model():
    prob = random_problem(seed, n=200, d=4)
    with pytest.raises(ValueError, match="penalty"):
        fit_weighted_l1(prob, float("nan"))
    null = fit_weighted_l1(prob, float("inf"))
    assert null.converged and null.nnz == 0
    sol = fit_weighted_l1(prob, float("inf"), init=(np.ones(4), 0.5))
    assert sol.converged and sol.nnz == 0 and sol.intercept == null.intercept


@pytest.mark.parametrize("weights,intercept", [
    ((0.0, 0.0, 0.0, 0.0), np.inf), ((0.0, 0.0, 0.0, 0.0), np.nan),
    ((0.0, np.nan, 0.0, 0.0), 0.0), ((np.inf, 0.0, 0.0, 0.0), 0.0),
], ids=["inf-intercept", "nan-intercept", "nan-weight", "inf-weight"])
def test_non_finite_warm_start_is_rejected(weights, intercept):
    prob = random_problem(seed, n=200, d=4)
    with pytest.raises(ValueError, match="warm start"):
        fit_weighted_l1(prob, 0.1 * prob.lam_max, init=(np.array(weights), intercept))


def test_a_solve_whose_tolerance_rounding_puts_out_of_reach_stops_when_it_stalls():
    # 3 of 59 rows hold 5e-13 of the weight mass, so tol is about 8e-17 while
    # the gradient's rows round at about 1e-16: every such solve ran all
    # MAX_ITER steps before it stopped after STALL_STEPS without a halving
    rng = np.random.default_rng(0)
    X = rng.normal(size=(59, 6))
    z = np.ones(59)
    z[:3] = 0.0
    om = rng.uniform(0.5, 1.5, size=59)
    om[:3] *= 5e-13 * om[3:].sum() / om[:3].sum()
    prob = WeightedBinaryProblem(X, z, om)
    assert prob.tol < 1e-16
    for frac in (0.5, 0.1, 0.01):
        sol = fit_weighted_l1(prob, frac * prob.lam_max)
        assert not sol.converged
        assert sparse_logreg.STALL_STEPS <= sol.n_iter <= 4 * sparse_logreg.STALL_STEPS, frac


# ---------------------------------------------------------------------------
# sparsity search
# ---------------------------------------------------------------------------


def test_fit_for_sparsity_never_exceeds_requested_nonzeros():
    for s in range(15):
        prob = random_problem(s, d=6, informative=3)
        for k in (1, 2, 3, 4, 6):
            sol = LambdaPath(prob).for_sparsity(k)
            assert sol.nnz <= k


def test_fit_for_sparsity_rejects_out_of_range_levels():
    prob = random_problem(0)
    with pytest.raises(ValueError):
        LambdaPath(prob).for_sparsity(0)
    with pytest.raises(ValueError):
        LambdaPath(prob).for_sparsity(prob.d + 1)


def test_single_informative_feature_is_selected_at_s1():
    hits = 0
    for s in range(100):
        rng = np.random.default_rng(1000 + s)
        X = rng.normal(size=(80, 4))
        z = (2.5 * X[:, 2] + 0.4 * rng.normal(size=80) > 0).astype(float)
        if z.min() == z.max():
            continue
        prob = WeightedBinaryProblem(X, z, np.ones(80))
        sol = LambdaPath(prob).for_sparsity(1)
        hits += sol.nnz == 1 and np.flatnonzero(sol.weights)[0] == 2
    assert hits >= 95


def test_sparsity_path_nondecreasing_and_matches_grid_scan():
    prob = random_problem(3, n=60, d=5, informative=3)
    lm = prob.lam_max
    grid = np.geomspace(1e-6 * lm, lm, 400)
    log_step = np.log(grid[1] / grid[0])
    # scan the grid with warm starts to find each sparsity transition
    nnz_at = np.empty(400, dtype=int)
    warm = None
    for i, lam in enumerate(grid):
        sol = fit_weighted_l1(prob, lam, init=warm)
        warm = (sol.weights, sol.intercept)
        nnz_at[i] = sol.nnz
    prev_nnz = 0
    for s in (1, 2, 3):
        sol = LambdaPath(prob).for_sparsity(s)
        assert sol.nnz >= prev_nnz
        prev_nnz = sol.nnz
        where = np.flatnonzero(nnz_at == s)
        assert where.size > 0, f"grid scan never saw nnz == {s}"
        lam_grid = grid[where.min()]
        assert abs(np.log(sol.lam / lam_grid)) <= 1.05 * log_step


def test_lambda_path_memoizes_consistently():
    prob = random_problem(11)
    path = LambdaPath(prob)
    path.for_sparsity(1)
    path.for_sparsity(3)
    a = path.for_sparsity(2)  # answered from a cache warmed by other levels
    b = LambdaPath(prob).for_sparsity(2)
    assert a.nnz == b.nnz == 2
    assert np.array_equal(np.flatnonzero(a.weights), np.flatnonzero(b.weights))
    # no answer depends on the order levels are asked in
    rng = np.random.default_rng(0)
    problems = [prob, random_problem(0, d=5, informative=2)]  # the latter: the stretch below
    problems += [random_problem(seed_, d=6, informative=3) for seed_ in range(8)]
    for prob in problems:
        fresh = {s: LambdaPath(prob).for_sparsity(s) for s in range(1, prob.d + 1)}
        for _ in range(3):
            path = LambdaPath(prob)
            for s in rng.permutation(np.arange(1, prob.d + 1)).tolist():
                sol = path.for_sparsity(s)
                assert sol.lam == fresh[s].lam and np.array_equal(sol.weights, fresh[s].weights)


def test_the_walk_stops_above_a_stretch_that_holds_more_than_the_level():
    # just below lam = 0.132 feature 3 enters the support {0, 1, 2, 4}, and at
    # 0.090 feature 2 leaves it: the path holds 5 nonzeros in between, though
    # the knots on either side hold 4.  Level 4 is answered above that stretch.
    prob = random_problem(0, d=5, informative=2)
    path = LambdaPath(prob)
    sol = path.for_sparsity(4)
    assert sol.nnz == 4 and sol.lam == pytest.approx(0.132149, rel=1e-5)
    assert fit_weighted_l1(prob, 0.9 * sol.lam).nnz == 5
    assert path._last is sol  # no knot is walked past the stretch


def test_the_walk_ends_at_the_answer_of_the_highest_level_asked():
    # the walk stops at the first point with more than k nonzeros below it; on
    # these paths that point holds k itself, so it answers k and no knot lies past it
    for seed_ in range(20):
        prob = random_problem(seed_, d=6, informative=3)
        path = LambdaPath(prob)
        for k in range(1, prob.d):
            assert path.for_sparsity(k) is path._last, (seed_, k)


def test_the_walk_never_solves_below_the_tolerance():
    # separable: the path runs down to the floor, which at 1e-6 * lam_max
    # (6.9e-6) would lie below tol (1e-5), where the KKT test cannot resolve
    # the support; the floor is the larger of the two
    X = np.random.default_rng(0).normal(size=(16, 3))
    prob = WeightedBinaryProblem(X, (X[:, 0] + X[:, 1] > 0).astype(float), np.ones(16))
    assert prob.lam_max == pytest.approx(6.8645, rel=1e-4) and prob.tol == KKT_TOL
    path = LambdaPath(prob)
    assert [path.for_sparsity(s).nnz for s in (1, 2, 3)] == [1, 2, 3]
    assert min(path._cache) >= prob.tol


def test_a_point_below_the_tolerance_counts_only_zeros_near_lam_in_its_support_below():
    # at lam < tol the band |g_j| >= lam - tol would hold for every zero
    # feature; it is min(tol, lam / 10), so zeros whose gradient is a hundredth
    # of lam do not count as leaving 0 just below the point
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 3))
    z = (X[:, 0] + rng.normal(size=80) > 0).astype(float)
    lam = 5e-6
    one = fit_weighted_l1(WeightedBinaryProblem(X[:, :1], z, np.ones(80)), lam)
    r = logistic(X[:, 0] * one.weights[0] + one.intercept) - z
    for j, target in ((1, lam / 100), (2, -lam / 100)):  # columns that w does not read
        X[:, j] += (target - X[:, j] @ r) / (r @ r) * r
    prob = WeightedBinaryProblem(X, z, np.ones(80))
    assert one.nnz == 1 and lam < prob.tol
    at = LinearSolution(weights=np.array([one.weights[0], 0.0, 0.0]), intercept=one.intercept,
                        nnz=1, lam=lam, converged=True, n_iter=0)
    g, A, *_ = LambdaPath(prob)._tangent(at)
    np.testing.assert_allclose(np.abs(g[1:]), lam / 100, rtol=1e-6)
    assert A.tolist() == [0]


def test_sparsity_level_is_returned_at_its_knot():
    # the returned point is where the next feature enters: its largest
    # inactive gradient meets lam
    checked = 0
    for seed_ in range(20):
        prob = random_problem(seed_, d=5, informative=3)
        path = LambdaPath(prob)
        for s in range(1, prob.d):
            sol = path.for_sparsity(s)
            if sol.nnz != s:
                continue
            *_, gw, gb = sparse_logreg._smooth_grad(
                prob.features, prob.labels, prob.sample_weights, sol.weights, sol.intercept)
            assert abs(np.abs(gw[sol.weights == 0]).max() - sol.lam) <= KKT_TOL, (seed_, s)
            checked += 1
    assert checked >= 60


def test_a_single_class_path_gives_the_clamped_null_model():
    X = np.random.default_rng(1).normal(size=(10, 3))
    for z in (np.ones(10), np.zeros(10)):
        prob = WeightedBinaryProblem(X, z, np.ones(10))
        sol = LambdaPath(prob).for_sparsity(2)
        assert sol.nnz == 0 and sol.intercept == fit_weighted_l1(prob, 0.5).intercept


def test_mirrored_labels_give_the_mirrored_path():
    # labels 1 - z on the same weights: softplus(-s) + s = softplus(s) makes
    # the objective at (w, b) equal the mirror's at (-w, -b)
    for seed_ in range(20):
        prob = random_problem(seed_, d=4, informative=2)
        mirror = WeightedBinaryProblem(prob.features, 1.0 - prob.labels, prob.sample_weights)
        path, mirror_path = LambdaPath(prob), LambdaPath(mirror)
        for s in range(1, prob.d + 1):
            a, b = path.for_sparsity(s), mirror_path.for_sparsity(s)
            assert a.nnz == b.nnz and a.lam == pytest.approx(b.lam, rel=1e-12), (seed_, s)
            np.testing.assert_allclose(b.weights, -a.weights, rtol=0.0, atol=1e-8)
            assert b.intercept == pytest.approx(-a.intercept, rel=0.0, abs=1e-8)


def test_tolerance_follows_the_gradient_scale_of_the_problem():
    # the positive rows carry so little weight that lam_max is far below
    # KKT_TOL; an absolute tolerance would accept the null model at every lam
    rng = np.random.default_rng(8)
    X = rng.normal(size=(300, 3))
    z = (X[:, 0] + 0.3 * rng.normal(size=300) > 1.5).astype(float)
    prob = WeightedBinaryProblem(X, z, np.where(z == 1, 1e-9, 1.0))
    assert 0 < prob.lam_max < 0.01 * KKT_TOL
    sol = LambdaPath(prob).for_sparsity(1)
    assert sol.nnz == 1 and sol.converged
    assert kkt_residual(prob, sol.lam, sol.weights, sol.intercept) <= KKT_TOL * prob.lam_max


# ---------------------------------------------------------------------------
# corrective refits
# ---------------------------------------------------------------------------


def test_refit_squared_recovers_group_means():
    y = np.array([1.0, 1.0, 0.0, 0.0])
    q = np.array([1.0, 1.0, 0.0, 0.0])
    design = np.column_stack([np.ones(4), q])
    beta = corrective_refit(design, y, LossKind.SQUARED, np.zeros(2))
    assert beta == pytest.approx([0.0, 1.0], abs=1e-6)


def test_refit_squared_matches_closed_form_ridge():
    rng = np.random.default_rng(seed)
    for _ in range(10):
        n, m = 40, 4
        design = np.column_stack([np.ones(n), rng.integers(0, 2, size=(n, m)).astype(float)])
        y = rng.normal(size=n)
        beta = corrective_refit(design, y, LossKind.SQUARED, np.zeros(m + 1))
        reg = np.diag([0.0] + [2e-8] * m)
        expected = np.linalg.solve(design.T @ design + reg, design.T @ y)
        assert np.max(np.abs(beta - expected)) <= 1e-8


def test_refit_never_increases_training_loss():
    rng = np.random.default_rng(seed)
    for trial in range(50):
        n, m = 30, 3
        cols = rng.integers(0, 2, size=(n, m)).astype(float)
        if trial % 3 == 0:
            cols[:, -1] = cols[:, 0]  # exactly collinear rule columns
        design = np.column_stack([np.ones(n), cols])
        y = rng.integers(0, 2, size=n).astype(float)
        warm = rng.normal(scale=0.5, size=m + 1)
        beta = corrective_refit(design, y, LossKind.LOGISTIC, warm)
        assert np.all(np.isfinite(beta))
        warm_loss = np.sum(loss(LossKind.LOGISTIC, y, design @ warm))
        new_loss = np.sum(loss(LossKind.LOGISTIC, y, design @ beta))
        assert new_loss <= warm_loss + 1e-12


def penalized_refit_objective(design, y, beta):
    """The logistic refit objective, summed over all rows."""
    raw = float(np.sum(loss(LossKind.LOGISTIC, y, design @ beta)))
    return raw + sparse_logreg.REFIT_RIDGE * float(beta[1:] @ beta[1:])


def reference_refit_objective(design, y, beta, max_steps=200):
    """Newton steps on the full-row objective until a 60-halving line search
    finds no decrease: the refit's minimum to the rounding of its sums."""
    pen = np.full(design.shape[1], 2.0 * sparse_logreg.REFIT_RIDGE)
    pen[0] = 0.0
    obj = penalized_refit_objective(design, y, beta)
    for _ in range(max_steps):
        mu = sparse_logreg.logistic(design @ beta)
        grad = design.T @ (mu - y) + pen * beta
        H = design.T @ ((mu * (1.0 - mu))[:, None] * design) + np.diag(pen + 1e-12)
        step = np.linalg.solve(H, grad)
        for t in 0.5 ** np.arange(60):
            obj_cand = penalized_refit_objective(design, y, beta - t * step)
            if obj_cand < obj:
                beta, obj = beta - t * step, obj_cand
                break
        else:
            break
    return obj


def assert_refit_reaches_reference(design, y, warm):
    beta = corrective_refit(design, y, LossKind.LOGISTIC, warm)
    raw = np.sum(loss(LossKind.LOGISTIC, y, design @ beta))
    warm_raw = np.sum(loss(LossKind.LOGISTIC, y, design @ warm))
    assert raw <= warm_raw + 1e-12
    if np.array_equal(beta, warm):
        return  # the refit kept the warm start, as its never-worse guarantee may
    expected = reference_refit_objective(design, y, warm)
    obj = penalized_refit_objective(design, y, beta)
    assert abs(obj - expected) <= 1e-12 * max(1.0, expected)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), m=st.integers(1, 6),
       scale=st.floats(0.0, 4.0))
def test_refit_reaches_a_full_row_newton_solve_and_never_worsens_the_warm_start(
        seed, n, m, scale):
    rng = np.random.default_rng(seed)
    cols = (rng.random((n, m)) < rng.uniform(0.1, 0.9)).astype(float)
    for j in range(1, m):
        copy = cols[:, rng.integers(j)].copy()
        flip = rng.random(n) < rng.choice([0.0, 0.05])  # a duplicate or a near-collinear copy
        copy[flip] = 1.0 - copy[flip]
        if rng.random() < 0.5:
            cols[:, j] = copy
    design = np.column_stack([np.ones(n), cols])
    y = (rng.random(n) < rng.uniform(0.0, 1.0)).astype(float)
    assert_refit_reaches_reference(design, y, rng.normal(scale=scale, size=m + 1))


def test_refit_keeps_rows_apart_that_differ_only_in_the_first_or_last_of_60_rule_columns():
    # more rule columns than one float key of 52 binary digits holds exactly
    rng = np.random.default_rng(7)
    n = 80
    shared = np.tile((rng.random(60) < 0.5).astype(float), (n, 1))
    shared[:, 0], shared[:, -1] = np.arange(n) % 2, np.arange(n) // 2 % 2
    design = np.column_stack([np.ones(n), shared])
    # each (first, last) pair of the four has its own positive rate
    y = (rng.random(n) < np.array([0.1, 0.4, 0.6, 0.9])[np.arange(n) % 4]).astype(float)
    assert_refit_reaches_reference(design, y, np.zeros(61))


def test_logistic_refit_rejects_non_binary_rule_columns_and_labels():
    design = np.column_stack([np.ones(4), [0.0, 1.0, 0.5, 1.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="rule columns"):
        corrective_refit(design, y, LossKind.LOGISTIC, np.zeros(2))
    design[2, 1] = 0.0
    with pytest.raises(ValueError, match="labels"):
        corrective_refit(design, np.array([0.0, 2.0, 0.0, 1.0]), LossKind.LOGISTIC, np.zeros(2))


def test_refit_stops_on_the_newton_decrement(monkeypatch):
    rng = np.random.default_rng(4)
    design = np.column_stack([np.ones(60), (rng.random((60, 3)) < 0.5).astype(float)])
    y = (rng.random(60) < 0.4).astype(float)
    warm = np.zeros(4)
    expected = reference_refit_objective(design, y, warm)

    calls = 0
    softplus = sparse_logreg.softplus

    def counted(*args):  # the refit objective calls softplus once per evaluation
        nonlocal calls
        calls += 1
        return softplus(*args)

    monkeypatch.setattr(sparse_logreg, "softplus", counted)
    beta = corrective_refit(design, y, LossKind.LOGISTIC, warm)
    assert abs(penalized_refit_objective(design, y, beta) - expected) <= 1e-12 * expected
    # one evaluation at the warm start and one per Newton step, each taken whole;
    # no line search halves its way down to a step that cannot move beta
    assert calls == 4


def frozen_logistic_refit(U, y_g, warm, counts):
    """The logistic refit loop as it ran through ``losses.loss``, rebuilding
    its ridge matrix and halving factors at every Newton step."""
    pen = np.full(U.shape[1], 2.0 * sparse_logreg.REFIT_RIDGE)
    pen[0] = 0.0
    c = counts.astype(float)

    def objective(beta):
        s = U @ beta
        raw = float(c @ loss(LossKind.LOGISTIC, y_g, s))
        return raw + sparse_logreg.REFIT_RIDGE * float(beta[1:] @ beta[1:]), raw, s

    beta = warm.copy()
    obj, raw_warm, s = objective(beta)
    raw = raw_warm
    for _ in range(sparse_logreg.REFIT_MAX_ITER):
        mu = sparse_logreg.logistic(s)
        grad = U.T @ (c * (mu - y_g)) + pen * beta
        H = U.T @ ((c * mu * (1.0 - mu))[:, None] * U) + np.diag(pen + 1e-12)
        step = np.linalg.solve(H, grad)
        if grad @ step <= sparse_logreg.REFIT_DECREMENT_RTOL * max(1.0, obj):
            break
        for t in 0.5 ** np.arange(60):
            cand = beta - t * step
            if np.array_equal(cand, beta):
                break
            cand_obj, cand_raw, cand_s = objective(cand)
            if cand_obj < obj:
                beta, obj, raw, s = cand, cand_obj, cand_raw, cand_s
                break
        if beta is not cand:
            break
    return beta if raw <= raw_warm + 1e-12 else warm.copy()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 120), m=st.sampled_from([1, 3, 8, 60]),
       pure=st.booleans(), bootstrap=st.booleans(), scale=st.sampled_from([0.0, 1.0, 4.0]))
def test_logistic_refit_equals_the_frozen_loop_bit_for_bit(seed, n, m, pure, bootstrap, scale):
    # pure: the first rule column holds only positive rows, a separable cover;
    # bootstrap: rows drawn with replacement, so groups have counts above 1;
    # m = 60: more rule columns than a double's 52-digit mantissa holds
    rng = np.random.default_rng(seed)
    cols = (rng.random((n, m)) < rng.uniform(0.1, 0.9)).astype(float)
    y = (rng.random(n) < rng.uniform(0.0, 1.0)).astype(float)
    if pure:
        cols[:, 0] = y * (rng.random(n) < 0.7)
    design = np.column_stack([np.ones(n), cols])
    if bootstrap:
        rows = rng.integers(0, n, size=n)
        design, y = design[rows], y[rows]
    warm = rng.normal(scale=scale, size=m + 1)
    # one row per (label, cover pattern) group with its count, as boost passes them
    distinct, counts = lexicographic_groups(np.column_stack([y, design[:, 1:]]))
    y_g, U = distinct[:, 0], np.column_stack([np.ones(len(distinct)), distinct[:, 1:]])
    beta = corrective_refit(U, y_g, LossKind.LOGISTIC, warm, counts=counts)
    assert beta.tobytes() == frozen_logistic_refit(U, y_g, warm, counts).tobytes()


def lexicographic_groups(digits):
    """The distinct rows of a 0/1 matrix and their counts, sorted by brute
    force with the newest column the most significant."""
    counts = {}
    for row in digits.astype(int).tolist():
        counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    distinct = sorted(counts, key=lambda row: row[::-1])
    return np.array(distinct, dtype=float), np.array([counts[r] for r in distinct])


def test_row_groups_follow_the_lexicographic_order_at_every_width():
    # coarse covers through digit 51 leave few groups; the random covers after
    # it split groups that differ only in older digits, where splitting each
    # group in place (2 * old + cover, the oldest digit most significant)
    # would misorder them
    rng = np.random.default_rng(3)
    n, width = 400, 70
    coarse = rng.integers(0, 4, size=n)
    digits = np.empty((n, width))
    digits[:, 0] = rng.random(n) < 0.5
    for k in range(1, 52):
        digits[:, k] = np.isin(coarse, rng.choice(4, size=2, replace=False))
    digits[:, 52:] = rng.random((n, width - 52)) < 0.5
    misordered = 0
    ids = np.zeros(n, dtype=np.intp)
    for m in range(1, width + 1):
        ids, counts, rows = sparse_logreg.split_groups(ids, digits[:, m - 1] == 1)
        expected, expected_counts = lexicographic_groups(digits[:, :m])
        assert np.array_equal(digits[rows, :m], expected)
        assert np.array_equal(counts, expected_counts)
        in_place = sorted(range(len(expected)), key=lambda g: tuple(expected[g, :m]))
        misordered += in_place != list(range(len(expected)))
    assert misordered > 0


def test_refit_requires_an_exact_intercept_column():
    design = np.column_stack([np.ones(4), np.array([0.0, 1.0, 1.0, 0.0])])
    design[1, 0] = 1.000009  # within np.allclose of 1
    for kind in (LossKind.SQUARED, LossKind.LOGISTIC):
        with pytest.raises(ValueError, match="intercept"):
            corrective_refit(design, np.array([0.0, 1.0, 0.0, 1.0]), kind, np.zeros(2))


@pytest.mark.parametrize("counts", [[1.0, 2.0, np.inf], [1.0, np.nan, 1.0], [1.0, 0.0, 2.0],
                                    [1.0, -1.0, 2.0], [1.0, 1.5, 2.0], [1.0, 2.0]])
def test_refit_rejects_counts_that_are_not_one_positive_integer_per_row(counts):
    design = np.column_stack([np.ones(3), np.array([0.0, 1.0, 1.0])])
    with pytest.raises(ValueError, match="counts"):
        corrective_refit(design, np.array([0.0, 0.0, 1.0]), LossKind.LOGISTIC, np.zeros(2),
                         counts=np.array(counts))


def test_squared_refit_rejects_counts():
    design = np.column_stack([np.ones(3), np.array([0.0, 1.0, 1.0])])
    with pytest.raises(ValueError, match="logistic"):
        corrective_refit(design, np.array([0.5, 0.0, 1.0]), LossKind.SQUARED, np.zeros(2),
                         counts=np.ones(3))


def test_refit_requires_intercept_column_and_matching_warm_start():
    design = np.column_stack([np.zeros(4), np.ones(4)])
    with pytest.raises(ValueError):
        corrective_refit(design, np.zeros(4), LossKind.SQUARED, np.zeros(2))
    good = np.column_stack([np.ones(4), np.zeros(4)])
    with pytest.raises(ValueError):
        corrective_refit(good, np.zeros(4), LossKind.SQUARED, np.zeros(3))
    with pytest.raises(ValueError):
        corrective_refit(good, np.zeros(4), LossKind.ZERO_ONE, np.zeros(2))


@pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.SQUARED])
def test_refit_rejects_a_non_finite_warm_start(kind):
    design = np.column_stack([np.ones(4), np.array([0.0, 1.0, 1.0, 0.0])])
    with pytest.raises(ValueError, match="finite"):
        corrective_refit(design, np.array([0.0, 1.0, 0.0, 1.0]), kind, np.array([0.0, np.nan]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_squared_refit_rejects_non_finite_targets_and_design(bad):
    design = np.column_stack([np.ones(4), np.array([0.0, 1.0, 1.0, 0.0])])
    y = np.array([0.5, 1.0, -2.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        corrective_refit(design, np.where(np.arange(4) == 2, bad, y), LossKind.SQUARED, np.zeros(2))
    design[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        corrective_refit(design, y, LossKind.SQUARED, np.zeros(2))


def test_solution_exposes_proposition_threshold():
    sol = LinearSolution(
        weights=np.array([1.0]), intercept=-2.5, nnz=1, lam=0.1, converged=True, n_iter=1,
    )
    assert sol.threshold == 2.5
