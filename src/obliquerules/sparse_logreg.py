"""Weighted L1-regularized logistic regression and corrective weight refits.

The solver minimizes

    F(w, b) = sum_i omega_i * (softplus(x_i.w + b) - z_i * (x_i.w + b)) + lam * ||w||_1

(the intercept b unpenalized) by orthant-wise Newton steps (Andrew & Gao,
"Scalable training of L1-regularized log-linear models", ICML 2007): each step
fixes the sign of every weight allowed to move, so that F is smooth on that
orthant, and solves the reweighted least-squares system of its Newton step.
Sparsity levels are selected by bisecting lam for the smallest value whose
solution has a requested number of nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .losses import LossKind, loss as loss_value, softplus

MAX_ITER = 1000
KKT_TOL = 1e-5
HALVINGS = 50
LAMBDA_FLOOR_RATIO = 1e-6
BISECTION_STEPS = 40
BISECTION_RTOL = 1e-3
BRACKET_DESCENT = 4.0
REFIT_RIDGE = 1e-8
REFIT_MAX_ITER = 100


@dataclass(eq=False)
class WeightedBinaryProblem:
    """A weighted binary labeling task; sample weights are normalized to mean 1."""

    features: np.ndarray
    labels: np.ndarray
    sample_weights: np.ndarray

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


def _smooth_grad(X, z, omega, w, b):
    """Scores s, probabilities expit(s) and the smooth part's gradient in w and b."""
    s = X @ w + b
    mu = expit(s)
    r = omega * (mu - z)
    return s, mu, X.T @ r, float(r.sum())


def _kkt(w, gw, gb, lam) -> float:
    """Largest first-order violation at w, given the smooth gradient (gw, gb)."""
    viol = np.where(w != 0, np.abs(gw + lam * np.sign(w)), np.abs(gw) - lam)
    return max(abs(gb), float(viol.max(initial=0.0)))


def _smooth_change(z, omega, s, mu, delta) -> float:
    """Change of the smooth part when the scores move from s to s + delta.

    Summed row by row, as near the solution a step's decrease falls below the
    rounding of F.  For |delta| <= 1, log1p(mu * expm1(delta)) with mu =
    expit(s) gives softplus(s + delta) - softplus(s) to its own rounding.
    """
    if np.max(np.abs(delta)) <= 1.0:
        rows = np.log1p(mu * np.expm1(delta))
    else:
        rows = softplus(s + delta) - softplus(s)
    return float(omega @ (rows - z * delta))


def objective_value(problem: WeightedBinaryProblem, lam: float, w, b: float) -> float:
    w = np.asarray(w, dtype=float)
    s = problem.features @ w + b
    smooth = float(problem.sample_weights @ (softplus(s) - problem.labels * s))
    return smooth + lam * float(np.abs(w).sum())


def kkt_residual(problem: WeightedBinaryProblem, lam: float, w, b: float) -> float:
    """Max violation of the first-order conditions at (w, b).

    For w_j = 0 the subgradient condition is |d_j| <= lam; for w_j != 0 it is
    d_j + lam * sign(w_j) = 0; the intercept gradient must vanish.
    """
    w = np.asarray(w, dtype=float)
    *_, gw, gb = _smooth_grad(problem.features, problem.labels, problem.sample_weights, w, b)
    return _kkt(w, gw, gb, lam)


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
    """Solve the penalized problem at one lam by orthant-wise Newton steps.

    Starts from ``init`` (weights, intercept), else from the null model.  While
    the KKT residual exceeds ``KKT_TOL``, the working set W is the support plus
    every zero weight whose gradient exceeds lam.  A support weight keeps its
    sign and an entering weight takes the sign against its gradient; on that
    orthant the penalty is linear, and the step solves the (|W| + 1)-square
    Newton system of the smooth piece.  The step is halved until F decreases,
    and a weight whose sign would flip is set to zero.

    ``on_iteration`` receives F after each step; it never increases.  ``n_iter``
    counts the steps: a start that meets ``KKT_TOL`` returns as it is with
    ``n_iter == 0``.  The solve stops unconverged after ``MAX_ITER`` steps, or
    when ``HALVINGS`` halvings find no decrease that ``_smooth_change`` resolves.
    """
    if lam < 0:
        raise ValueError("penalty must be nonnegative")
    p_hat = problem.weighted_label_mean()
    if p_hat <= 0.0 or p_hat >= 1.0:
        # single effective class: no finite minimizer; return the clamped
        # null-model log-odds, which every caller treats as "cover one side"
        return _null_solution(problem, lam)

    X, z, omega = problem.features, problem.labels, problem.sample_weights
    w, b = np.zeros(problem.d), float(np.log(p_hat / (1.0 - p_hat)))
    if init is not None:
        w, b = np.array(init[0], dtype=float), float(init[1])  # a copy: w is updated in place
        if w.shape != (problem.d,):
            raise ValueError("warm start has wrong width")

    F = objective_value(problem, lam, w, b)
    for k in range(MAX_ITER + 1):
        s, mu, gw, gb = _smooth_grad(X, z, omega, w, b)
        converged = _kkt(w, gw, gb, lam) <= KKT_TOL
        if converged or k == MAX_ITER:
            break
        W = np.flatnonzero((w != 0) | (np.abs(gw) > lam))
        sign = np.where(w[W] != 0, np.sign(w[W]), -np.sign(gw[W]))
        A = np.column_stack([X[:, W], np.ones(problem.n)])
        H = A.T @ ((omega * mu * (1.0 - mu))[:, None] * A)
        # a ridge for duplicated or constant columns, kept above H's rounding
        H[np.diag_indices_from(H)] += max(1e-10, 1e-14 * H.diagonal().max())
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
        F += change
        if on_iteration is not None:
            on_iteration(F)

    return LinearSolution(weights=w, intercept=float(b), nnz=int(np.count_nonzero(w)),
                          lam=float(lam), converged=converged, n_iter=k)


class LambdaPath:
    """Memoized solutions of one problem along its regularization path.

    Warm-starts every Newton solve from the nearest already-solved penalty, so
    repeated sparsity queries against the same problem take few Newton steps.
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
