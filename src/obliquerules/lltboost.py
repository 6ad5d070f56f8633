"""Fully corrective rule boosting with sparse oblique propositions.

Each boosting round grows one conjunction of linear-threshold propositions by
maximizing the gradient-sum objective |<g, q>| and then refits all ensemble
weights jointly.  Proposition weight vectors come from an L1-regularized
weighted logistic regression that predicts the gradient signs, with sparsity
chosen on a held-out validation slice of the training data.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .core import (FitStage, FitTrace, SparseProposition, Standardizer, check_integer_fields,
                   conjunction_cover)
from .losses import LossKind, gradient, init_intercept, loss, training_arrays
from .sparse_logreg import LambdaPath, WeightedBinaryProblem, corrective_refit

OBJECTIVE_TOLERANCE = 1e-9  # gradient-sum gains at or below this count as none


@dataclass(frozen=True)
class LLTConfig:
    """Learner settings; the defaults match the benchmarking protocol."""

    max_rules: int = 10
    max_propositions: int = 5
    max_nonzeros: int = 5
    loss: LossKind = LossKind.LOGISTIC
    validation_fraction: float = 0.25
    sparsity_accept_delta: float = 0.01
    seed: int = 0

    def __post_init__(self):
        check_integer_fields(
            self, {"max_rules": 1, "max_propositions": 1, "max_nonzeros": 1, "seed": 0}
        )
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie strictly between 0 and 1")
        if not self.sparsity_accept_delta >= 0.0:
            raise ValueError("sparsity_accept_delta must be nonnegative")
        object.__setattr__(self, "loss", LossKind(self.loss))


def _weighted_sign_risk(prop: SparseProposition, X, rows, g, sgn) -> float:
    """|g|-weighted 0/1 risk of the proposition predicting gradient signs."""
    if rows.size == 0:
        return 0.0
    gv = g[rows]
    labels = sgn * gv >= 0
    pred = prop.activations(X[rows]) >= 0.5
    return float(np.abs(gv)[pred != labels].sum())


def fit_proposition(active, X, g, cfg: LLTConfig, validation) -> SparseProposition | None:
    """Best next proposition for the conjunction currently covering ``active``.

    For each direction of the gradient-sign labeling, candidate weight vectors
    of increasing sparsity are fit; a denser candidate is only admitted while
    it improves the validation sign risk by more than the configured relative
    margin.  The winner maximizes |<g, q>| over the active rows; ties prefer
    fewer nonzeros, then the positive direction, then lower sparsity level.

    One L1 path serves both directions: relabeled 1 - z on the same weights |g|,
    the problem's solutions are (-w, -b), so ``from_dense(-w, threshold=-t)``.
    """
    active = np.asarray(active, dtype=int)
    validation = np.asarray(validation, dtype=int)
    ga = g[active]
    if not np.any(ga != 0):
        return None
    Xa = X[active]
    s_cap = min(cfg.max_nonzeros, X.shape[1])

    if np.all(ga >= 0) or np.all(ga <= 0):
        # all active gradients share one sign: a condition on the first feature
        # that covers every active row attains the maximal objective
        candidates = [SparseProposition(indices=(0,), weights=(1.0,),
                                        threshold=float(Xa[:, 0].min()))]
    else:
        candidates = []
        path = LambdaPath(WeightedBinaryProblem(Xa, (ga >= 0).astype(float), np.abs(ga)))
        for sgn in (1.0, -1.0):
            prev_risk = None
            for s in range(1, s_cap + 1):
                sol = path.for_sparsity(s)
                if sol.nnz == 0:
                    # no path point with <= s nonzeros (features can enter in
                    # groups); a denser level may still be reachable
                    continue
                prop = SparseProposition.from_dense(sgn * sol.weights, sgn * sol.threshold)
                risk = _weighted_sign_risk(prop, X, validation, g, sgn)
                if prev_risk is None:
                    candidates.append(prop)
                else:
                    if prev_risk <= 0.0:
                        break
                    if (prev_risk - risk) / prev_risk > cfg.sparsity_accept_delta:
                        candidates.append(prop)
                    else:
                        break
                prev_risk = risk

    best = None
    best_obj = -1.0
    best_cover = 0
    for prop in candidates:  # iteration order realizes the tie-breaking
        q = prop.activations(Xa)
        obj = float(abs(ga @ q))  # the gradient-sum objective |<g, q>|
        better = obj > best_obj or (obj == best_obj and best is not None and prop.nnz < best.nnz)
        if better:
            best, best_obj, best_cover = prop, obj, int(q.sum())
    if best is None or best_obj <= OBJECTIVE_TOLERANCE or best_cover == 0:
        return None
    return best


def fit_conjunction(X, g, cfg: LLTConfig, active, validation) -> list[SparseProposition] | None:
    """Greedily grow a conjunction while the gradient-sum objective improves."""
    active = np.asarray(active, dtype=int)
    validation = np.asarray(validation, dtype=int)
    body: list[SparseProposition] = []
    current_objective = 0.0
    for _ in range(cfg.max_propositions):
        prop = fit_proposition(active, X, g, cfg, validation)
        if prop is None:
            break
        keep = prop.activations(X[active]) >= 0.5
        new_active = active[keep]
        new_objective = float(abs(g[new_active] @ np.ones(new_active.size)))
        if new_objective <= current_objective + OBJECTIVE_TOLERANCE:
            break
        body.append(prop)
        active = new_active
        if validation.size:
            validation = validation[prop.activations(X[validation]) >= 0.5]
        current_objective = new_objective
    return body or None


def _validation_split(n: int, y, stratify: bool, fraction: float, seed: int):
    """Seeded carve-out of validation rows; stratified for classification."""
    rng = np.random.default_rng(seed)
    if stratify:
        val_parts, fit_parts = [], []
        for c in (0.0, 1.0):
            cls = np.flatnonzero(y == c)
            cls = cls[rng.permutation(cls.size)]
            k = int(round(fraction * cls.size))
            val_parts.append(cls[:k])
            fit_parts.append(cls[k:])
        val = np.concatenate(val_parts)
        fit = np.concatenate(fit_parts)
    else:
        perm = rng.permutation(n)
        k = int(round(fraction * n))
        val, fit = perm[:k], perm[k:]
    val, fit = list(val), list(fit)
    while len(val) < 1 and len(fit) > 2:
        val.append(fit.pop())
    while len(fit) < 2 and val:
        fit.append(val.pop())
    return np.sort(np.asarray(fit, dtype=int)), np.sort(np.asarray(val, dtype=int))


def fit(X, y, cfg: LLTConfig) -> FitTrace:
    """Fit an ensemble of up to ``cfg.max_rules`` rules, tracing every stage.

    Features are standardized internally (the transform is stored on each
    ensemble).  A seeded validation slice of the rows feeds only the sparsity
    acceptance decisions; gradients for fitting and the joint weight refits
    use the remaining rows.  Stage ``m`` of the returned trace holds the
    ensemble after ``m`` rounds; training risk is measured on the fit rows
    and never increases from stage to stage.
    """
    t_start = perf_counter()
    kind = cfg.loss
    X, y, task = training_arrays(X, y, kind)
    n = X.shape[0]
    standardizer = Standardizer.fit(X)
    Z = standardizer.transform(X)
    fit_idx, val_idx = _validation_split(
        n, y, kind is LossKind.LOGISTIC, cfg.validation_fraction, cfg.seed
    )
    y_fit = y[fit_idx]

    beta = np.array([init_intercept(kind, y_fit)])
    scores = np.full(n, beta[0])
    covers: list[np.ndarray] = []  # rule covers over all rows
    bodies: list[list[SparseProposition]] = []

    def stage() -> FitStage:
        risk = float(np.mean(loss(kind, y_fit, scores[fit_idx])))
        return FitStage.of(bodies, beta, task, standardizer, risk)

    stages = [stage()]
    for _ in range(cfg.max_rules):
        g = gradient(kind, y, scores)
        body = fit_conjunction(Z, g, cfg, fit_idx, val_idx)
        if body is None:
            break
        covers.append(conjunction_cover(body, Z))
        bodies.append(body)
        design = np.column_stack([np.ones(fit_idx.size)] + [c[fit_idx] for c in covers])
        warm = np.append(beta, 0.0)
        beta = corrective_refit(design, y_fit, kind, warm)
        scores = beta[0] + np.column_stack(covers) @ beta[1:]
        stages.append(stage())

    return FitTrace(stages=tuple(stages), wall_time_seconds=perf_counter() - t_start)
