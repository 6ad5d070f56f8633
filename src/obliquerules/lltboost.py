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
SPARSITY_ACCEPT_DELTA = 0.01  # the share of validation sign risk a denser level must cut
VALIDATION_FRACTION = 0.25  # the share of training rows held out for the sparsity choice


@dataclass(frozen=True)
class LLTConfig:
    """Learner settings; the defaults match the benchmarking protocol."""

    max_rules: int = 10
    max_propositions: int = 5
    max_nonzeros: int = 5
    loss: LossKind = LossKind.LOGISTIC
    seed: int = 0

    def __post_init__(self):
        check_integer_fields(
            self, {"max_rules": 1, "max_propositions": 1, "max_nonzeros": 1, "seed": 0}
        )
        object.__setattr__(self, "loss", LossKind(self.loss))


def _weighted_sign_risk(cover, g, sgn) -> float:
    """|g|-weighted 0/1 risk of the boolean ``cover`` predicting gradient signs."""
    return float(np.abs(g)[cover != (sgn * g >= 0)].sum())


def fit_proposition(active, X, g, cfg: LLTConfig,
                    validation) -> tuple[SparseProposition, np.ndarray] | None:
    """Best next proposition for the conjunction currently covering ``active``
    and its boolean cover over all rows of ``X``; None if none gains.

    For each direction of the gradient-sign labeling, candidate weight vectors
    of increasing sparsity are fit; a denser candidate is only admitted while
    it cuts the validation sign risk by a share above ``SPARSITY_ACCEPT_DELTA``
    of the last.  The winner maximizes |<g, q>| over the active rows; ties prefer
    fewer nonzeros, then the positive direction, then lower sparsity level.

    One L1 path serves both directions: relabeled 1 - z on the same weights |g|,
    the problem's solutions are (-w, -b), so ``from_dense(-w, threshold=-t)``.

    No L1 problem is built when one gradient sign of the active rows holds at
    most ``OBJECTIVE_TOLERANCE`` of their |g| mass m: there is nothing to
    separate.  No cover gains more than the other sign's M, and a condition on
    the first feature covering every active row gains M - m (0 if g vanishes).
    """
    ga = g[active]
    if not ga.size:
        return None
    Xa = X[active]

    if min(ga[ga > 0].sum(), -ga[ga < 0].sum()) <= OBJECTIVE_TOLERANCE:  # nothing to separate
        prop = SparseProposition(indices=(0,), weights=(1.0,), threshold=float(Xa[:, 0].min()))
        candidates = [(prop, prop.activations(X))]
    else:
        candidates = []
        gv = g[validation]
        path = LambdaPath(WeightedBinaryProblem(Xa, (ga >= 0).astype(float), np.abs(ga)))
        for sgn in (1.0, -1.0):
            prev_risk = None
            for s in range(1, min(cfg.max_nonzeros, X.shape[1]) + 1):
                sol = path.for_sparsity(s)
                if sol.nnz == 0:
                    # no path point with <= s nonzeros (features can enter in
                    # groups); a denser level may still be reachable
                    continue
                prop = SparseProposition.from_dense(sgn * sol.weights, sgn * sol.threshold)
                cover = prop.activations(X)
                risk = _weighted_sign_risk(cover[validation], gv, sgn)
                if prev_risk is not None and not (
                        prev_risk > 0.0
                        and (prev_risk - risk) / prev_risk > SPARSITY_ACCEPT_DELTA):
                    break
                candidates.append((prop, cover))
                prev_risk = risk

    # iteration order realizes the tie-breaking; no objective ties the initial -1,
    # and an empty cover's objective 0 is no gain
    best, best_obj = None, -1.0
    for prop, cover in candidates:
        obj = float(abs(ga @ cover[active]))  # the gradient-sum objective |<g, q>|
        if obj > best_obj or (obj == best_obj and prop.nnz < best[0].nnz):
            best, best_obj = (prop, cover), obj
    return None if best_obj <= OBJECTIVE_TOLERANCE else best


def fit_conjunction(X, g, cfg: LLTConfig, active, validation) -> list[SparseProposition] | None:
    """Greedily grow a conjunction while the gradient-sum objective improves;
    each winner's cover narrows the active and the validation rows."""
    active = np.asarray(active, dtype=int)
    validation = np.asarray(validation, dtype=int)
    body: list[SparseProposition] = []
    current_objective = 0.0
    for _ in range(cfg.max_propositions):
        found = fit_proposition(active, X, g, cfg, validation)
        if found is None:
            break
        prop, cover = found
        new_active = active[cover[active]]
        new_objective = float(abs(g[new_active] @ np.ones(new_active.size)))
        if new_objective <= current_objective + OBJECTIVE_TOLERANCE:
            break
        body.append(prop)
        active, validation = new_active, validation[cover[validation]]
        current_objective = new_objective
    return body or None


def _validation_split(n: int, y, stratify: bool, fraction: float, seed: int):
    """Seeded carve-out of validation rows; stratified for classification."""
    rng = np.random.default_rng(seed)
    val, fit = [], []
    for group in [np.flatnonzero(y == c) for c in (0.0, 1.0)] if stratify else [np.arange(n)]:
        group = group[rng.permutation(group.size)]
        k = int(round(fraction * group.size))
        val.extend(group[:k])
        fit.extend(group[k:])
    while len(val) < 1 and len(fit) > 2:
        val.append(fit.pop())
    while len(fit) < 2 and val:
        fit.append(val.pop())
    return np.sort(np.asarray(fit, dtype=int)), np.sort(np.asarray(val, dtype=int))


def fit(X, y, cfg: LLTConfig) -> FitTrace:
    """Fit an ensemble of up to ``cfg.max_rules`` rules, tracing every stage.

    ``tgb.boost`` with one member, grown by ``fit_conjunction``.  A seeded
    validation slice, ``VALIDATION_FRACTION`` of the rows, feeds only the
    sparsity acceptance decisions; the intercept, the weight refits and the
    training risk use the other rows.  Stage ``m`` of the returned trace
    holds the ensemble after ``m`` rounds; its training risk never increases.
    """
    def prepare(Z, y):
        fit_idx, val_idx = _validation_split(y.size, y, cfg.loss is LossKind.LOGISTIC,
                                             VALIDATION_FRACTION, cfg.seed)

        def grow(g, members):
            body = fit_conjunction(Z, g, cfg, fit_idx, val_idx)
            inside = None if body is None else np.flatnonzero(conjunction_cover(body, Z))
            return [([0], body, inside)]
        return fit_idx, grow

    return boost(X, y, cfg, prepare)[0]
