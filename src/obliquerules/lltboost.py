"""Fully corrective rule boosting with sparse oblique propositions.

Each round of ``tgb.boost``, the boosting loop of both learners, grows one
conjunction of linear-threshold propositions by maximizing the gradient-sum
objective |<g, q>| and then refits all ensemble weights jointly.  Proposition
weight vectors come from an L1-regularized weighted logistic regression that
predicts the gradient signs, with sparsity chosen on a held-out validation
slice of the training data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FitTrace, SparseProposition, check_integer_fields, conjunction_cover
# gradient, loss and corrective_refit are unused, but perfbench/tracer.py wraps them here
from .losses import LossKind, gradient, loss  # noqa: F401
from .sparse_logreg import LambdaPath, WeightedBinaryProblem, corrective_refit  # noqa: F401
from .tgb import boost

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

    ``tgb.boost`` with one member, grown by ``fit_conjunction``.  A seeded
    validation slice of the rows feeds only the sparsity acceptance
    decisions; the intercept, the weight refits and the training risk use
    the other rows.  Stage ``m`` of the returned trace holds the ensemble
    after ``m`` rounds; its training risk never increases.
    """
    def prepare(Z, y):
        fit_idx, val_idx = _validation_split(y.size, y, cfg.loss is LossKind.LOGISTIC,
                                             cfg.validation_fraction, cfg.seed)

        def grow(g, members):
            body = fit_conjunction(Z, g, cfg, fit_idx, val_idx)
            return [([0], body, None if body is None else conjunction_cover(body, Z))]
        return fit_idx, grow

    return boost(X, y, cfg, prepare)[0]
