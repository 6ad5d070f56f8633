"""Weighted L1-regularized logistic regression and corrective weight refits.

The solver minimizes

    F(w, b) = sum_i omega_i * (softplus(x_i.w + b) - z_i * (x_i.w + b)) + lam * ||w||_1

by monotone accelerated proximal gradient steps (soft-thresholding on w, the
intercept b unpenalized) with backtracking line search.  When progress
flattens, a damped Newton polish on the current support sharpens the iterate;
it stops as soon as the Newton decrement g.H^-1.g falls to float noise
relative to F, so an already-converged iterate costs no line search.
Sparsity levels are selected by bisecting lam for the smallest value whose
solution has a requested number of nonzeros.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .losses import LossKind, loss as loss_value, softplus

MAX_ITER = 1000
OBJECTIVE_RTOL = 1e-8
KKT_TOL = 1e-5
ZERO_SNAP = 1e-12
LAMBDA_FLOOR_RATIO = 1e-6
BISECTION_STEPS = 40
BISECTION_RTOL = 1e-3
BRACKET_DESCENT = 4.0
POLISH_STEPS = 15
POLISH_DECREMENT_RTOL = 1e-14
REFIT_RIDGE = 1e-8
REFIT_MAX_ITER = 100


@dataclass(eq=False)
class WeightedBinaryProblem:
    """A weighted binary labeling task; sample weights are normalized to mean 1."""

    features: np.ndarray
    labels: np.ndarray
    sample_weights: np.ndarray
    _lipschitz: float | None = field(default=None, repr=False)

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        z = np.asarray(self.labels, dtype=float)
        w = np.asarray(self.sample_weights, dtype=float)
        if X.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
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
        self.sample_weights = w * (X.shape[0] / total)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def weighted_label_mean(self) -> float:
        return float(self.sample_weights @ self.labels) / self.n

    def lipschitz(self) -> float:
        """Upper bound on the smooth-part curvature: 0.25 * ||sqrt(w) [X 1]||_2^2."""
        if self._lipschitz is None:
            A = np.sqrt(self.sample_weights)[:, None] * np.column_stack(
                [self.features, np.ones(self.n)]
            )
            s = np.linalg.norm(A, 2)
            self._lipschitz = max(0.25 * s * s, 1e-12)
        return self._lipschitz


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


def _clamped_logit(p: float, n: int) -> float:
    lo = 1.0 / (2 * n)
    p = min(max(p, lo), 1.0 - lo)
    return float(np.log(p / (1.0 - p)))


def _smooth_value(X, z, omega, w, b) -> float:
    s = X @ w + b
    return float(omega @ (softplus(s) - z * s))


def _smooth_grad(X, z, omega, w, b):
    s = X @ w + b
    r = omega * (expit(s) - z)
    return X.T @ r, float(r.sum())


def _soft_threshold(v, tau):
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def _newton_polish(X, z, omega, lam, w, b, F):
    """Second-order descent restricted to the current support.

    On the active orthant the objective is smooth (the penalty contributes a
    fixed linear term), so damped Newton steps converge fast once the support
    has settled.  Steps are only taken when they strictly decrease the full
    objective, so monotonicity is preserved.

    The polish stops when the Newton decrement g.H^-1.g is at most
    ``POLISH_DECREMENT_RTOL * max(1, |F|)``: the predicted decrease, half the
    decrement, is then within a few dozen ulps of F, so the halving line
    search could only fail after 30 objective evaluations or accept a
    noise-level step.
    """
    w = w.copy()
    b = float(b)
    ones = np.ones(X.shape[0])
    for _ in range(POLISH_STEPS):
        support = np.flatnonzero(w)
        if support.size > 100:
            break
        s = X @ w + b
        mu = expit(s)
        r = omega * (mu - z)
        Xs = X[:, support]
        g = np.concatenate([Xs.T @ r + lam * np.sign(w[support]), [r.sum()]])
        if float(np.max(np.abs(g))) < 1e-13:
            break
        wdiag = omega * mu * (1.0 - mu)
        A = np.column_stack([Xs, ones])
        H = A.T @ (wdiag[:, None] * A)
        H[np.diag_indices_from(H)] += 1e-10
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:  # pragma: no cover
            break
        if float(g @ step) <= POLISH_DECREMENT_RTOL * max(1.0, abs(F)):
            break
        t = 1.0
        improved = False
        for _ in range(30):
            w_new = w.copy()
            w_new[support] = w[support] - t * step[:-1]
            b_new = b - t * step[-1]
            F_new = _smooth_value(X, z, omega, w_new, b_new) + lam * float(
                np.abs(w_new).sum()
            )
            if F_new < F:
                w, b, F = w_new, b_new, F_new
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return w, b, F


def objective_value(problem: WeightedBinaryProblem, lam: float, w, b: float) -> float:
    w = np.asarray(w, dtype=float)
    return _smooth_value(
        problem.features, problem.labels, problem.sample_weights, w, b
    ) + lam * float(np.abs(w).sum())


def kkt_residual(problem: WeightedBinaryProblem, lam: float, w, b: float) -> float:
    """Max violation of the first-order conditions at (w, b).

    For w_j = 0 the subgradient condition is |d_j| <= lam; for w_j != 0 it is
    d_j + lam * sign(w_j) = 0; the intercept gradient must vanish.
    """
    w = np.asarray(w, dtype=float)
    gw, gb = _smooth_grad(problem.features, problem.labels, problem.sample_weights, w, b)
    res = abs(gb)
    zero = w == 0
    if np.any(zero):
        res = max(res, float(np.max(np.maximum(np.abs(gw[zero]) - lam, 0.0))))
    if np.any(~zero):
        res = max(res, float(np.max(np.abs(gw[~zero] + lam * np.sign(w[~zero])))))
    return res


def lambda_max(problem: WeightedBinaryProblem) -> float:
    """Smallest penalty at which w = 0 is optimal (0 for degenerate labels)."""
    p_hat = problem.weighted_label_mean()
    if p_hat <= 0.0 or p_hat >= 1.0:
        return 0.0
    r = problem.sample_weights * (problem.labels - p_hat)
    return float(np.max(np.abs(problem.features.T @ r)))


def _null_solution(problem: WeightedBinaryProblem, lam: float) -> LinearSolution:
    w = np.zeros(problem.d)
    p_hat = problem.weighted_label_mean()
    if 0.0 < p_hat < 1.0:
        b = float(np.log(p_hat / (1.0 - p_hat)))
    else:
        b = _clamped_logit(p_hat, problem.n)
    return LinearSolution(
        weights=w,
        intercept=b,
        nnz=0,
        lam=lam,
        converged=True,
        n_iter=0,
    )


def fit_weighted_l1(
    problem: WeightedBinaryProblem,
    lam: float,
    init: tuple[np.ndarray, float] | None = None,
    on_iteration=None,
) -> LinearSolution:
    """Solve the penalized problem at one lam; optionally warm-started.

    The objective is nonincreasing across iterations: accelerated steps are
    only kept when they do not increase it, otherwise momentum restarts with a
    plain proximal step.  Convergence requires both a relative objective
    change below ``OBJECTIVE_RTOL`` and a KKT residual below ``KKT_TOL``.
    """
    if lam < 0:
        raise ValueError("penalty must be nonnegative")
    X, z, omega = problem.features, problem.labels, problem.sample_weights
    n, d = problem.n, problem.d

    p_hat = problem.weighted_label_mean()
    if p_hat <= 0.0 or p_hat >= 1.0:
        # single effective class: no finite minimizer; return the clamped
        # null-model log-odds, which every caller treats as "cover one side"
        return _null_solution(problem, lam)

    if init is not None:
        w = np.array(init[0], dtype=float, copy=True)
        b = float(init[1])
        if w.shape != (d,):
            raise ValueError("warm start has wrong width")
    else:
        w = np.zeros(d)
        b = float(np.log(p_hat / (1.0 - p_hat)))

    L = problem.lipschitz()
    eta = 4.0 / L
    f_x = _smooth_value(X, z, omega, w, b)
    F_x = f_x + lam * float(np.abs(w).sum())
    w_prev, b_prev = w, b
    w_y, b_y = w, b
    t_momentum = 1.0
    converged = False
    stall = 0
    k = 0

    def prox_from(wv, bv, gw, gb, fv, eta):
        # backtracking: shrink eta until the quadratic majorization holds
        while True:
            w_new = _soft_threshold(wv - eta * gw, eta * lam)
            b_new = bv - eta * gb
            dw = w_new - wv
            db = b_new - bv
            quad = fv + gw @ dw + gb * db + (dw @ dw + db * db) / (2.0 * eta)
            f_new = _smooth_value(X, z, omega, w_new, b_new)
            if f_new <= quad + 1e-12 * max(1.0, abs(quad)) or eta <= 1.0 / (4.0 * L):
                return w_new, b_new, f_new, eta
            eta *= 0.5

    for k in range(1, MAX_ITER + 1):
        gw, gb = _smooth_grad(X, z, omega, w_y, b_y)
        f_y = _smooth_value(X, z, omega, w_y, b_y)
        w_c, b_c, f_c, eta = prox_from(w_y, b_y, gw, gb, f_y, eta)
        F_c = f_c + lam * float(np.abs(w_c).sum())

        if F_c <= F_x:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
            coef = (t_momentum - 1.0) / t_new
            w_prev, b_prev, w, b = w, b, w_c, b_c
            w_y = w + coef * (w - w_prev)
            b_y = b + coef * (b - b_prev)
            t_momentum = t_new
            F_new = F_c
        else:
            # momentum overshoot: restart and take a guaranteed-descent step
            gw, gb = _smooth_grad(X, z, omega, w, b)
            f_v = _smooth_value(X, z, omega, w, b)
            w_c, b_c, f_c, eta = prox_from(w, b, gw, gb, f_v, eta)
            w_prev, b_prev = w, b
            w, b = w_c, b_c
            w_y, b_y = w, b
            t_momentum = 1.0
            F_new = f_c + lam * float(np.abs(w_c).sum())

        rel = (F_x - F_new) / max(1.0, abs(F_x))
        F_x = min(F_x, F_new)
        if on_iteration is not None:
            on_iteration(F_x)
        eta = min(eta * 1.25, 16.0 / L)

        if rel < OBJECTIVE_RTOL or k % 30 == 0:
            # polish the active support with damped Newton steps, then test
            # first-order optimality; restart momentum either way
            w, b, F_x = _newton_polish(X, z, omega, lam, w, b, F_x)
            w_y, b_y = w, b
            t_momentum = 1.0
            if kkt_residual(problem, lam, w, b) <= KKT_TOL:
                converged = True
                break
            if rel < OBJECTIVE_RTOL:
                # count consecutive near-flat rounds; float-level positive
                # progress must not reset the counter or a plateau grinds on
                # polishing every iteration until MAX_ITER
                stall += 1
                if stall >= 50:
                    break
            else:
                stall = 0
        else:
            stall = 0

    w = np.where(np.abs(w) < ZERO_SNAP, 0.0, w)
    if not converged:
        converged = kkt_residual(problem, lam, w, b) <= KKT_TOL
        if not converged:
            warnings.warn(
                f"L1 solver stopped after {k} iterations without meeting the "
                f"KKT tolerance at lam={lam:.3g}",
                RuntimeWarning,
                stacklevel=2,
            )
    return LinearSolution(
        weights=w,
        intercept=float(b),
        nnz=int(np.count_nonzero(w)),
        lam=float(lam),
        converged=converged,
        n_iter=k,
    )


class LambdaPath:
    """Memoized solutions of one problem along its regularization path.

    Warm-starts every solve from the nearest already-solved penalty, which
    makes repeated sparsity queries against the same problem cheap.
    """

    def __init__(self, problem: WeightedBinaryProblem):
        self.problem = problem
        self.lam_max = lambda_max(problem)
        self.lam_floor = LAMBDA_FLOOR_RATIO * self.lam_max
        self._cache: dict[float, LinearSolution] = {}

    def solve(self, lam: float) -> LinearSolution:
        sol = self._cache.get(lam)
        if sol is None:
            warm = None
            if self._cache:
                log_lam = np.log(max(lam, 1e-300))
                near = min(self._cache, key=lambda L: abs(np.log(L) - log_lam))
                warm = (self._cache[near].weights, self._cache[near].intercept)
            with warnings.catch_warnings():
                # path queries only need the support pattern; plateauing
                # without full first-order accuracy at floor-level penalties
                # is expected and not worth a warning per solve
                warnings.simplefilter("ignore", RuntimeWarning)
                sol = fit_weighted_l1(self.problem, lam, init=warm)
            self._cache[lam] = sol
        return sol

    def _best_for(self, s: int) -> LinearSolution | None:
        """Smallest-penalty solution with exactly s nonzeros, else the densest
        cached solution with at most s (preferring smaller penalties)."""
        best_exact: LinearSolution | None = None
        best_fallback: LinearSolution | None = None
        for sol in self._cache.values():
            if sol.nnz == s and (best_exact is None or sol.lam < best_exact.lam):
                best_exact = sol
            if sol.nnz <= s and (
                best_fallback is None
                or sol.nnz > best_fallback.nnz
                or (sol.nnz == best_fallback.nnz and sol.lam < best_fallback.lam)
            ):
                best_fallback = sol
        return best_exact or best_fallback

    def for_sparsity(self, s: int) -> LinearSolution:
        """Solution at the smallest penalty with exactly ``s`` nonzeros, found by
        bisecting lam in log space with at most ``BISECTION_STEPS`` new solves;
        else the densest solution with fewer.  Never more than ``s`` nonzeros."""
        if not 1 <= s <= self.problem.d:
            raise ValueError(f"sparsity level must be in [1, {self.problem.d}], got {s}")
        if self.lam_max <= 0.0:
            return _null_solution(self.problem, 0.0)
        if self.lam_max not in self._cache:
            # at lam >= lambda_max the null model is exactly optimal
            self._cache[self.lam_max] = _null_solution(self.problem, self.lam_max)
        solves = 0

        # bracket the transition: adjacent evaluated penalties with
        # nnz(lo) > s >= nnz(hi)
        lo = None
        hi = None
        for lam in sorted(self._cache, reverse=True):
            if self._cache[lam].nnz <= s:
                hi = lam
            else:
                lo = lam
                break
        if lo is None:
            cur = hi if hi is not None else self.lam_max
            while cur > self.lam_floor and solves < BISECTION_STEPS:
                cur = max(cur / BRACKET_DESCENT, self.lam_floor)
                sol = self.solve(cur)
                solves += 1
                if sol.nnz > s:
                    lo = cur
                    break
                hi = cur
                if cur <= self.lam_floor:
                    break
        if lo is not None:
            while hi / lo > 1.0 + BISECTION_RTOL and solves < BISECTION_STEPS:
                mid = float(np.sqrt(lo * hi))
                sol = self.solve(mid)
                solves += 1
                if sol.nnz <= s:
                    hi = mid
                else:
                    lo = mid
        result = self._best_for(s)
        if result is None:  # pragma: no cover - lambda_max entry always qualifies
            result = _null_solution(self.problem, self.lam_max)
        return result


# --------------------------------------------------------------------------
# Fully corrective weight refits over a fixed rule design matrix
# --------------------------------------------------------------------------


def _refit_objective(design, y, kind, beta):
    raw = float(np.sum(loss_value(kind, y, design @ beta)))
    return raw + REFIT_RIDGE * float(beta[1:] @ beta[1:]), raw


def corrective_refit(
    design: np.ndarray,
    y: np.ndarray,
    kind: LossKind,
    warm_start: np.ndarray,
) -> np.ndarray:
    """Jointly refit all ensemble weights over a [1 | rule covers] design.

    Minimizes ``sum_i loss(y_i, design_i . beta) + REFIT_RIDGE * ||beta_1..m||^2``
    (intercept unpenalized).  Guaranteed not to increase the unpenalized
    training loss relative to the warm start.
    """
    kind = LossKind(kind)
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    beta0 = np.asarray(warm_start, dtype=float)
    n, m1 = design.shape
    if y.shape != (n,):
        raise ValueError("target length must match the design row count")
    if beta0.shape != (m1,):
        raise ValueError("warm start length must match the design column count")
    if not np.allclose(design[:, 0], 1.0):
        raise ValueError("the first design column must be the all-ones intercept")

    pen = np.full(m1, 2.0 * REFIT_RIDGE)
    pen[0] = 0.0

    if kind is LossKind.SQUARED:
        A = design.T @ design + np.diag(pen)
        beta = np.linalg.solve(A, design.T @ y)
    elif kind is LossKind.LOGISTIC:
        beta = beta0.copy()
        obj, _ = _refit_objective(design, y, kind, beta)
        for _ in range(REFIT_MAX_ITER):
            s = design @ beta
            mu = expit(s)
            grad = design.T @ (mu - y) + pen * beta
            if float(np.max(np.abs(grad))) <= 1e-10:
                break
            wdiag = mu * (1.0 - mu)
            H = design.T @ (wdiag[:, None] * design) + np.diag(pen + 1e-12)
            try:
                step = np.linalg.solve(H, grad)
            except np.linalg.LinAlgError:  # pragma: no cover - H is PD by construction
                step = grad / max(float(np.max(np.abs(H))), 1.0)
            t = 1.0
            improved = False
            for _ in range(60):
                cand = beta - t * step
                obj_cand, _ = _refit_objective(design, y, kind, cand)
                if obj_cand < obj:
                    beta, obj = cand, obj_cand
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break
    else:
        raise ValueError("corrective refits require a differentiable loss")

    # never hand back a warmer start than we were given
    _, raw_new = _refit_objective(design, y, kind, beta)
    _, raw_warm = _refit_objective(design, y, kind, beta0)
    if not raw_new <= raw_warm + 1e-12:
        return beta0.copy()
    return beta
