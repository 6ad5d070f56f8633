"""Axis-parallel threshold boosting baseline.

Rules are conjunctions of single-feature threshold conditions found by
exhaustive scan; the rest of the pipeline (fully corrective weight refits,
staged traces) matches the oblique learner so the two are directly
comparable at equal rule counts.

The scan never sorts.  ``fit`` sorts every column of the standardized
features once, stably, into ``orders`` (shape ``(d, n)``; row ``j`` lists
the row indices in ascending order of feature ``j``, ties in ascending row
order), and each conjunction filters that array down to the rows still
inside it - the presorted columns of SLIQ (Mehta, Agrawal & Rissanen, EDBT
1996) and of exact greedy split finding in XGBoost (Chen & Guestrin, KDD
2016, section 4.1).  The sort lives in ``fit``, not in the conjunction,
because the first scan of every conjunction covers all rows.  Filtering
keeps the stable order of the remaining rows, so every scan sums the same
gradients in the same order as a fresh stable sort would, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .core import FitStage, FitTrace, SparseProposition, Standardizer, check_integer_fields
from .losses import LossKind, gradient, init_intercept, loss, training_arrays
from .sparse_logreg import corrective_refit


@dataclass(frozen=True)
class TGBConfig:
    """Settings for the axis-parallel booster.

    ``reg_strength`` enters the proposition score as
    ``|<g, q>| / sqrt(reg_strength + <q, q>)``.
    """

    max_rules: int = 10
    max_propositions: int = 5
    loss: LossKind = LossKind.LOGISTIC
    reg_strength: float = 0.0

    def __post_init__(self):
        check_integer_fields(self, {"max_rules": 1, "max_propositions": 1})
        reg = self.reg_strength
        if isinstance(reg, bool) or not 0.0 <= reg < np.inf:  # TypeError for a non-number
            raise ValueError(f"reg_strength must be a finite number >= 0, got {reg!r}")
        object.__setattr__(self, "reg_strength", float(reg))
        object.__setattr__(self, "loss", LossKind(self.loss))


class AxisCandidate(NamedTuple):
    feature: int
    direction: str  # ">=" or "<="
    threshold: float
    score: float

    def to_proposition(self) -> SparseProposition:
        if self.direction == ">=":
            return SparseProposition((self.feature,), (1.0,), self.threshold)
        return SparseProposition((self.feature,), (-1.0,), -self.threshold)


def best_axis_proposition(active, X, g, orders, reg_strength: float = 0.0) -> AxisCandidate | None:
    """Exhaustive scan over single-feature threshold conditions.

    Candidate thresholds are the midpoints between consecutive distinct
    feature values over the active rows, in both directions.  Ties are
    broken toward the lowest feature index, then the smallest threshold,
    then ``>=`` before ``<=``.  Returns ``None`` when no feature has two
    distinct values.

    ``active`` holds the active row indices in ascending order, and
    ``orders[j]`` holds the same rows in ascending order of ``X[:, j]``,
    ties in ascending row order: the stable sort of all rows filtered to the
    active ones.  That is the order a stable sort of ``X[active, j]`` gives,
    so the running gradient sums, and hence the scores, are the same bits.
    """
    active = np.asarray(active, dtype=int)
    total = float(g[active].sum())
    n_act = active.size
    best: AxisCandidate | None = None
    for j in range(X.shape[1]):
        rows = orders[j]
        sv = X[rows, j]
        cum = np.cumsum(g[rows])
        edges = np.flatnonzero(sv[:-1] < sv[1:])
        if edges.size == 0:
            continue
        le_sum = cum[edges]
        ge_sum = total - le_sum
        le_count = edges + 1.0
        score_le = np.abs(le_sum) / np.sqrt(reg_strength + le_count)
        score_ge = np.abs(ge_sum) / np.sqrt(reg_strength + (n_act - le_count))
        # interleave so that, within this feature, candidates are ordered by
        # ascending threshold with >= ahead of <= at the same threshold
        flat = np.empty(2 * edges.size)
        flat[0::2] = score_ge
        flat[1::2] = score_le
        k = int(np.argmax(flat))
        score = float(flat[k])
        if best is None or score > best.score:
            e = edges[k // 2]
            mid = float(0.5 * (sv[e] + sv[e + 1]))
            direction = ">=" if k % 2 == 0 else "<="
            best = AxisCandidate(j, direction, mid, score)
    return best


def _grow_conjunction(Z, g, orders,
                      cfg: TGBConfig) -> tuple[list[SparseProposition], np.ndarray] | None:
    """The conjunction's propositions and its 0/1 cover over all rows, or None.

    ``active`` holds the rows inside every accepted proposition, so it is the
    cover's support.
    """
    active = np.arange(Z.shape[0])
    body: list[SparseProposition] = []
    current = 0.0
    for _ in range(cfg.max_propositions):
        cand = best_axis_proposition(active, Z, g, orders, cfg.reg_strength)
        if cand is None or cand.score <= current:
            break
        prop = cand.to_proposition()
        inside = prop.activations(Z) >= 0.5
        if not inside[active].any():
            break
        body.append(prop)
        active = active[inside[active]]
        orders = orders[inside[orders]].reshape(Z.shape[1], -1)
        current = cand.score
    if not body:
        return None
    cover = np.zeros(Z.shape[0])
    cover[active] = 1.0
    return body, cover


def fit(X, y, cfg: TGBConfig) -> FitTrace:
    """Boost up to ``cfg.max_rules`` axis-parallel rules, tracing every stage.

    Mirrors the oblique learner's loop - standardize, grow one conjunction
    per round on the current gradients, then refit all weights jointly with
    a warm start - but uses the exhaustive single-feature scan and no
    validation carve-out, so training risk is measured on all rows.
    """
    t_start = perf_counter()
    kind = cfg.loss
    X, y, task = training_arrays(X, y, kind)
    n = X.shape[0]
    standardizer = Standardizer.fit(X)
    Z = standardizer.transform(X)
    # the smallest integer type that holds a row index keeps the orders small
    orders = np.argsort(Z.T, axis=1, kind="stable").astype(np.min_scalar_type(n))
    beta = np.array([init_intercept(kind, y)])
    scores = np.full(n, beta[0])
    covers: list[np.ndarray] = []
    bodies: list[list[SparseProposition]] = []

    def stage() -> FitStage:
        risk = float(np.mean(loss(kind, y, scores)))
        return FitStage.of(bodies, beta, task, standardizer, risk)

    stages = [stage()]
    for _ in range(cfg.max_rules):
        g = gradient(kind, y, scores)
        grown = _grow_conjunction(Z, g, orders, cfg)
        if grown is None:
            break
        body, cover = grown
        covers.append(cover)
        bodies.append(body)
        design = np.column_stack([np.ones(n)] + covers)
        warm = np.append(beta, 0.0)
        beta = corrective_refit(design, y, kind, warm)
        scores = design @ beta
        stages.append(stage())

    return FitTrace(stages=tuple(stages), wall_time_seconds=perf_counter() - t_start)
