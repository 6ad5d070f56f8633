"""Weighted L1-regularized logistic regression and corrective weight refits.

The solver minimizes

    F(w, b) = sum_i omega_i * (softplus(x_i.w + b) - z_i * (x_i.w + b)) + lam * ||w||_1

(the intercept b unpenalized) by orthant-wise Newton steps (Andrew & Gao,
"Scalable training of L1-regularized log-linear models", ICML 2007): each step
fixes the sign of every weight allowed to move, so that F is smooth on that
orthant, and solves the reweighted least-squares system of its Newton step.
Sparsity levels are read off the regularization path, walked knot to knot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossKind, log_odds, logistic, loss as loss_value, softplus

MAX_ITER = 1000
STALL_STEPS = 50  # steps a solve may take without halving its KKT residual
KKT_TOL = 1e-5
HALVINGS = 50
LAMBDA_FLOOR_RATIO = 1e-6
REFIT_RIDGE = 1e-8
REFIT_MAX_ITER = 100
REFIT_DECREMENT_RTOL = 1e-14


@dataclass(eq=False)
class WeightedBinaryProblem:
    """A weighted binary labeling task; sample weights are normalized to mean 1.

    The weighted positive rate p gives ``two_classes`` (0 < p < 1), the null
    model w = 0 with intercept ``null_intercept``, ``log_odds(p, n)``, and
    ``lam_max``, the smallest penalty at which it is optimal (0 for a single
    class).  ``tol`` is the KKT tolerance of every solve, ``KKT_TOL`` times
    min(1, lam_max): lam_max is the gradient scale.  Features must be finite.
    """

    features: np.ndarray
    labels: np.ndarray
    sample_weights: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        z = np.asarray(self.labels, dtype=float)
        w = np.asarray(self.sample_weights, dtype=float)
        if X.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        if z.shape != (X.shape[0],) or w.shape != (X.shape[0],):
            raise ValueError("labels and sample_weights must match the row count")
        if not np.all((z == 0) | (z == 1)):
            raise ValueError("labels must be in {0, 1}")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("sample weights must be finite and nonnegative")
        total = w.sum()
        if not total > 0:
            raise ValueError("sample weights must have positive total")
        self.features = X
        self.labels = z
        self.sample_weights = w = w * (X.shape[0] / total)
        p = float(w @ z) / X.shape[0]
        self.two_classes = 0.0 < p < 1.0
        self.null_intercept = log_odds(p, X.shape[0])
        self.lam_max = float(np.max(np.abs(X.T @ (w * (z - p))))) if self.two_classes else 0.0
        self.tol = KKT_TOL * min(1.0, self.lam_max)
        self._grad_key, self._grad_at = None, None

    def _grad(self, w, b):
        """``_smooth_grad`` at (w, b) on this problem, its arrays read-only.

        The last point asked is kept, keyed on the exact bits of (w, b): the
        path walk, the solve that confirms each knot and the next step of the
        walk all ask for the same point in turn.  The key holds a copy of w,
        as callers update w in place.
        """
        key = (w.tobytes(), float(b).hex())
        if key != self._grad_key:
            self._grad_at = _smooth_grad(self.features, self.labels, self.sample_weights, w, b)
            for array in self._grad_at[:3]:
                array.flags.writeable = False
            self._grad_key = key
        return self._grad_at

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class LinearSolution:
    """Solver output: dense weights, intercept, support size and convergence."""

    weights: np.ndarray
    intercept: float
    nnz: int
    lam: float
    converged: bool
    n_iter: int

    @property
    def threshold(self) -> float:
        """Threshold of the induced proposition step{x.w >= -b}."""
        return -self.intercept


def _smooth_grad(X, z, omega, w, b):
    """Scores s, probabilities logistic(s) and the smooth part's gradient in w and b."""
    s = X @ w + b
    mu = logistic(s)
    r = omega * (mu - z)
    return s, mu, X.T @ r, float(r.sum())


def _hessian(X, D, W):
    """Design [X_W | 1] and the smooth part's Hessian in (w_W, b) for curvatures D."""
    A = np.column_stack([X[:, W], np.ones(X.shape[0])])
    H = A.T @ (D[:, None] * A)
    # a ridge for duplicated or constant columns, kept above H's rounding
    H.flat[::H.shape[0] + 1] += max(1e-10, 1e-14 * H.diagonal().max())
    return A, H


def _kkt(w, gw, gb, lam) -> float:
    """Largest first-order violation at w, given the smooth gradient (gw, gb)."""
    viol = np.where(w != 0, np.abs(gw + np.copysign(lam, w)), np.abs(gw) - lam)
    return max(abs(gb), float(viol.max(initial=0.0)))


def _smooth_change(z, omega, s, mu, delta) -> float:
    """Change of the smooth part when the scores move from s to s + delta.

    Summed row by row, as near the solution a step's decrease falls below the
    rounding of F.  For |delta| <= 1, log1p(mu * expm1(delta)) with mu =
    logistic(s) gives softplus(s + delta) - softplus(s) to its own rounding.
    """
    if np.max(np.abs(delta)) <= 1.0:
        rows = np.log1p(mu * np.expm1(delta))
    else:
        rows = softplus(s + delta) - softplus(s)
    return float(omega @ (rows - z * delta))


def kkt_residual(problem: WeightedBinaryProblem, lam: float, w, b: float) -> float:
    """Max violation of the first-order conditions at (w, b).

    For w_j = 0 the subgradient condition is |d_j| <= lam; for w_j != 0 it is
    d_j + lam * sign(w_j) = 0; the intercept gradient must vanish.
    """
    w = np.asarray(w, dtype=float)
    *_, gw, gb = problem._grad(w, b)
    return _kkt(w, gw, gb, lam)


def _null_solution(problem: WeightedBinaryProblem, lam: float) -> LinearSolution:
    """w = 0 and the problem's ``null_intercept``."""
    return LinearSolution(weights=np.zeros(problem.d), intercept=problem.null_intercept,
                          nnz=0, lam=lam, converged=True, n_iter=0)


def fit_weighted_l1(
    problem: WeightedBinaryProblem,
    lam: float,
    init: tuple[np.ndarray, float] | None = None,
) -> LinearSolution:
    """Solve the penalized problem at one lam by orthant-wise Newton steps.

    Starts from ``init`` (weights, intercept), else from the null model.  While
    the KKT residual exceeds the problem's ``tol``, the working set W is the
    support plus every zero weight whose gradient exceeds lam.  A support
    weight keeps its sign and an entering weight takes the sign against its
    gradient; on that orthant the penalty is linear, and the step solves the
    (|W| + 1)-square Newton system of the smooth piece.  The step is halved
    until F decreases, and a weight whose sign would flip is set to zero.

    ``n_iter`` counts the steps: a start that meets the tolerance returns as it
    is with ``n_iter == 0``.  The solve stops unconverged after ``MAX_ITER``
    steps, after ``STALL_STEPS`` steps in which the KKT residual has not
    fallen to half its value at the last such halving (a tolerance that
    rounding puts out of reach), or when ``HALVINGS`` halvings find no
    decrease that ``_smooth_change`` resolves.  A NaN ``lam`` or a non-finite
    warm start is a ``ValueError``; ``lam = inf`` is valid, with w = 0 its
    solution.
    """
    if not lam >= 0:
        raise ValueError(f"penalty must be nonnegative, got {lam!r}")
    if init is not None:
        w, b = np.array(init[0], dtype=float), float(init[1])  # a copy: w is updated in place
        if w.shape != (problem.d,):
            raise ValueError("warm start has wrong width")
        if not (np.all(np.isfinite(w)) and np.isfinite(b)):
            raise ValueError("warm start must be finite")
    if not problem.two_classes or lam == np.inf:
        # single effective class: no finite minimizer; return the clamped
        # null-model log-odds, which every caller treats as "cover one side".
        # At lam = inf the null model is the solution, from any start.
        return _null_solution(problem, lam)

    z, omega = problem.labels, problem.sample_weights
    if init is None:
        w, b = np.zeros(problem.d), problem.null_intercept

    halved, halved_at = np.inf, 0  # the residual at its last halving, and that step
    for k in range(MAX_ITER + 1):
        s, mu, gw, gb = problem._grad(w, b)
        residual = _kkt(w, gw, gb, lam)
        converged = residual <= problem.tol
        if residual <= halved / 2:
            halved, halved_at = residual, k
        if converged or k == MAX_ITER or k - halved_at == STALL_STEPS:
            break
        W = np.flatnonzero((w != 0) | (np.abs(gw) > lam))
        sign = np.where(w[W] != 0, np.sign(w[W]), -np.sign(gw[W]))
        A, H = _hessian(problem.features, omega * mu * (1.0 - mu), W)
        step = np.linalg.solve(H, np.append(gw[W] + lam * sign, gb))
        t = 1.0
        for _ in range(HALVINGS):
            w_W = w[W] - t * step[:-1]
            w_W[sign * w_W < 0] = 0.0
            change = lam * float(np.sum(np.abs(w_W) - np.abs(w[W]))) + _smooth_change(
                z, omega, s, mu, A @ np.append(w_W - w[W], -t * step[-1]))
            if change < 0:
                break
            t *= 0.5
        else:
            break  # no resolvable decrease is left
        w[W] = w_W
        b -= t * step[-1]

    return LinearSolution(weights=w, intercept=float(b), nnz=int(np.count_nonzero(w)),
                          lam=float(lam), converged=converged, n_iter=k)


class LambdaPath:
    """The regularization path of one problem, walked down from lam_max one
    knot at a time (Park & Hastie, JRSS-B 69(4), 2007); ``_cache`` maps each lam
    walked to its solution.  Between knots the support A and its signs are
    fixed, and d(w_A, b)/dlam = -H_A^-1 (sign_A, 0), H_A the smooth part's
    Hessian.  On that tangent the walk predicts the next event (an inactive
    |d_j f| meets lam, or an active weight reaches 0), solves the event's knot
    by Newton steps in (w_A, b, lam) and corrects it with ``solve``.

    A query for s walks on only to the first point with more than s nonzeros
    or more than s in its support A just below; ``_held`` maps each lam walked
    to the largest A of the points above it, and the last point's tangent is
    kept for the next query that walks on."""

    def __init__(self, problem: WeightedBinaryProblem):
        self.problem = problem
        # below tol the KKT test cannot tell which features are active
        self.lam_floor = max(LAMBDA_FLOOR_RATIO * problem.lam_max, problem.tol)
        self._last = _null_solution(problem, problem.lam_max)  # optimal for lam >= lam_max
        self._cache: dict[float, LinearSolution] = {problem.lam_max: self._last}
        self._held = {problem.lam_max: 0}
        self._tangent_at = (None, None)  # the last point asked and its _tangent
        self._start: tuple[np.ndarray, float] | None = None  # the walk's prediction
        # feature and sign of the free events, d with sign -1 and then d with +1
        self._free_feature = np.tile(np.arange(problem.d), 2)
        self._free_sign = np.repeat([-1.0, 1.0], problem.d)

    def solve(self, lam: float) -> LinearSolution:
        """``fit_weighted_l1`` at ``lam``, below every lam in ``_cache``, warm-started
        from the walk's prediction."""
        self._cache[lam] = sol = fit_weighted_l1(self.problem, lam, init=self._start)
        return sol

    def for_sparsity(self, s: int) -> LinearSolution:
        """Knot solution at the smallest lam with exactly ``s`` nonzeros, on the
        path walked until it first holds more; else the densest solution with
        fewer.  Never more than ``s`` nonzeros.  The walk stops at the first
        point at or just below which the path holds more; that point is an
        answer if it has at most ``s`` nonzeros itself."""
        if not 1 <= s <= self.problem.d:
            raise ValueError(f"sparsity level must be in [1, {self.problem.d}], got {s}")
        while self._last.nnz <= s and self._last.lam > self.lam_floor:
            _, A, *_ = self._tangent(self._last)
            held = max(self._held[self._last.lam], A.size)
            if held > s:
                break
            self._last = self._next_knot(self._last)
            self._held[self._last.lam] = held
        return min((sol for sol in self._cache.values()
                    if sol.nnz <= s and self._held[sol.lam] <= s),
                   key=lambda sol: (-sol.nnz, sol.lam))

    def _tangent(self, at: LinearSolution):
        """The gradient g at ``at``, the support A just below ``at.lam`` with its
        signs, the tangent v = d(w_A, b)/dlam and dg = d(grad_w f)/dlam along it;
        kept for the last point asked."""
        if self._tangent_at[0] is not at:
            problem = self.problem
            X, w = problem.features, at.weights
            _, mu, g, _ = problem._grad(w, at.intercept)
            D = problem.sample_weights * mu * (1.0 - mu)
            # the nonzeros, and the zeros at |g_j| = lam leaving 0: within tol of
            # lam, but never more than lam / 10 below it, as lam may come down to tol
            band = min(problem.tol, at.lam / 10)
            A = np.flatnonzero((w != 0) | (np.abs(g) >= at.lam - band))
            while True:
                sign = np.where(w[A] != 0, np.sign(w[A]), -np.sign(g[A]))
                P, H = _hessian(X, D, A)
                v = np.linalg.solve(H, -np.concatenate((sign, (0.0,))))
                if np.all(moving := (w[A] != 0) | (sign * v[:-1] < 0)):
                    break
                A = A[moving]
            self._tangent_at = at, (g, A, sign, v, X.T @ (D * (P @ v)))
        return self._tangent_at[1]

    def _next_knot(self, at: LinearSolution) -> LinearSolution:
        """Solution at the next knot below ``at.lam``, or at a path point on the way."""
        problem = self.problem
        X, omega, d, tol = problem.features, problem.sample_weights, problem.d, problem.tol
        lam, w, b = at.lam, at.weights, at.intercept
        g, A, sign, v, dg = self._tangent(at)

        # the step down in lam to each event: an active weight reaches 0, or a free
        # g_j - dlam * dg_j/dlam meets -sign_j * (lam - dlam) for sign_j = -1, 1
        free = np.ones(d, dtype=bool)
        free[A] = False
        free = np.concatenate([free, free])
        feature = np.concatenate([A, self._free_feature])
        sg = self._free_sign
        event_sign = np.concatenate([sign, sg])
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.concatenate([np.where(w[A] != 0, w[A] / v[:-1], 0.0), np.where(
                free, np.maximum(lam + sg * np.concatenate([g, g]), 0.0)
                / (1.0 + sg * np.concatenate([dg, dg])), 0.0)])
        steps[~(steps > tol)] = np.inf  # closer events are below the knots' resolution
        i = int(np.argmin(steps))
        self._start = (w, b)
        if steps[i] >= lam - self.lam_floor:  # halve lam: a far jump can leave Newton crawling
            return self.solve(max(self.lam_floor, lam / 2))

        # the knot of event i: feature j is 0 with g_j + sign_j * lam = 0, and the
        # rest S of A keeps g + sign * lam = 0.  Newton steps in (w_S, b, lam) from
        # the tangent's point solve it; an event found to come first is the next target.
        dlam = steps[i]
        w_k = np.zeros(d)
        w_k[A] = np.where(sign * (w[A] - dlam * v[:-1]) > 0, w[A] - dlam * v[:-1], 0.0)
        b_k, lam_k = b - dlam * v[-1], lam - dlam
        for _ in range(d + 1):
            j = feature[i]
            rest = A != j
            S = A[rest]
            R, sign_R = np.concatenate((S, (j,))), np.concatenate((sign[rest], (event_sign[i],)))
            w_k[j], res = 0.0, np.inf
            for _ in range(MAX_ITER):
                _, mu, g_k, gb = problem._grad(w_k, b_k)
                F = np.concatenate((g_k[R] + lam_k * sign_R, (gb,)))
                F_abs = np.abs(F)
                F_max = F_abs.max()
                if F_max <= tol or not F_max <= res / 2:
                    break  # solved, or Newton stopped converging
                res = F_max
                # the Jacobian in (w_S, b, lam): H in (w_R, b) with j's column
                # replaced by b's, and sign_R's column for lam
                _, J = _hessian(X, omega * mu * (1.0 - mu), R)
                J[:, S.size] = J[:, -1]
                J[:-1, -1], J[-1, -1] = sign_R, 0.0
                step = np.linalg.lstsq(J, F, rcond=None)[0]
                w_k[S], b_k, lam_k = w_k[S] - step[:-2], b_k - step[-2], lam_k - step[-1]
            violation = np.concatenate([np.where(rest, -sign * w_k[A], -np.inf), np.where(
                free, -sg * np.concatenate([g_k, g_k]) - lam_k - tol, -np.inf)])
            i = int(np.argmax(violation))
            # a knot, or a near miss's closest point, on A's own path: all of F
            # but j's own equation is solved
            F_abs[-2] = 0.0
            if violation[i] < 0 and F_abs.max() <= tol and self.lam_floor < lam_k < lam:
                self._start = (w_k, b_k)
                return self.solve(lam_k)
        return self.solve(lam - dlam / 2)  # no knot near the prediction: walk on halfway


# --------------------------------------------------------------------------
# Fully corrective weight refits over a fixed rule design matrix
# --------------------------------------------------------------------------


def split_groups(ids, digit):
    """Split the row groups ``ids``, numbered from 0, by a 0/1 ``digit`` per
    row: the new ``(ids, counts, rows)``, ``rows`` holding one row per group.

    The new groups are ranked by ``ids + digit * G``, for any ``G`` above
    every id, so the newest digit is the most significant.  ``G`` is
    ``ids.max() + 1``, the group count, so the histogram and its prefix
    count span ``2 G`` keys, not twice the rows.
    """
    key = ids + digit * (ids.max() + 1)
    hist = np.bincount(key)
    occupied = hist > 0
    before = np.cumsum(occupied) - occupied  # occupied positions before each one
    ids, counts = before[key], hist[occupied]
    rows = np.empty(counts.size, dtype=np.intp)
    rows[ids] = np.arange(ids.size)  # the rows of a group are equal, so any one stands for it
    return ids, counts, rows


def corrective_refit(
    design: np.ndarray,
    y: np.ndarray,
    kind: LossKind,
    warm_start: np.ndarray,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Jointly refit all ensemble weights over a [1 | rule covers] design.

    Minimizes ``sum_i loss(y_i, design_i . beta) + REFIT_RIDGE * ||beta_1..m||^2``
    (intercept unpenalized).  Guaranteed not to increase the unpenalized
    training loss relative to the warm start.

    Squared loss is solved in closed form.  Logistic loss needs labels and
    rule columns in {0, 1}; row i stands for ``counts[i]`` equal rows (one
    each by default), so a caller that groups the rows with the same design
    row and label, as ``boost`` does with ``split_groups``, refits the
    grouped binomial form.  Damped Newton steps run until the Newton
    decrement ``grad . step`` falls to the objective's rounding,
    ``REFIT_DECREMENT_RTOL * max(1, objective)`` (Boyd & Vandenberghe, Convex
    Optimization, 2004, section 9.5.1).  A first column not exactly 1,
    counts that are not positive integers, a non-finite warm start or
    target, or a non-finite squared-loss design is a ``ValueError``.
    """
    kind = LossKind(kind)
    design = np.ascontiguousarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    beta0 = np.asarray(warm_start, dtype=float)
    n, m1 = design.shape
    if y.shape != (n,):
        raise ValueError("target length must match the design row count")
    if beta0.shape != (m1,):
        raise ValueError("warm start length must match the design column count")
    if not np.all(design[:, 0] == 1.0):
        raise ValueError("the first design column must be the all-ones intercept")
    if not (np.all(np.isfinite(beta0)) and np.all(np.isfinite(y))):
        raise ValueError("warm start and targets must be finite")
    c = np.ones(n) if counts is None else np.asarray(counts, dtype=float)
    if c.shape != (n,) or not np.all(np.isfinite(c) & (c > 0) & (c == np.floor(c))):
        raise ValueError("counts must hold one positive integer per design row")

    pen = np.full(m1, 2.0 * REFIT_RIDGE)
    pen[0] = 0.0

    if kind is LossKind.SQUARED:
        if counts is not None:
            raise ValueError("counts apply to logistic refits only")
        if not np.all(np.isfinite(design)):
            raise ValueError("the design must be finite")
        beta = np.linalg.solve(design.T @ design + np.diag(pen), design.T @ y)
        raw, raw_warm = (float(np.sum(loss_value(kind, y, design @ b))) for b in (beta, beta0))
    elif kind is LossKind.LOGISTIC:
        digits = np.column_stack([y, design[:, 1:]])
        if not np.all((digits == 0) | (digits == 1)):
            raise ValueError("logistic refits need labels and rule columns in {0, 1}")
        ridge = np.diag(pen + 1e-12)
        halvings = 0.5 ** np.arange(60)

        def objective(beta):  # the logistic loss of ``loss_value``, on checked labels
            s = design @ beta
            raw = float(c @ (softplus(s) - y * s))
            return raw + REFIT_RIDGE * float(beta[1:] @ beta[1:]), raw, s

        beta = beta0.copy()
        obj, raw_warm, s = objective(beta)
        raw = raw_warm
        for _ in range(REFIT_MAX_ITER):
            mu = logistic(s)
            grad = design.T @ (c * (mu - y)) + pen * beta
            H = design.T @ ((c * mu * (1.0 - mu))[:, None] * design) + ridge
            step = np.linalg.solve(H, grad)
            if grad @ step <= REFIT_DECREMENT_RTOL * max(1.0, obj):
                break  # no line search could resolve a decrease this small
            for t in halvings:
                cand = beta - t * step
                if np.array_equal(cand, beta):
                    break  # rounding is monotone, so no smaller t moves beta either
                cand_obj, cand_raw, cand_s = objective(cand)
                if cand_obj < obj:
                    beta, obj, raw, s = cand, cand_obj, cand_raw, cand_s
                    break
            if beta is not cand:  # the line search found no decrease
                break
    else:
        raise ValueError("corrective refits require a differentiable loss")

    # never hand back a warmer start than we were given
    return beta if raw <= raw_warm + 1e-12 else beta0.copy()
