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

``_stable_orders`` builds that sort column by column with the fast unstable
sort, then repairs only columns with equal values: it numbers the groups of
equal sorted values and sorts once more by the distinct key ``group * n +
row``, which orders by value first and row second - the stable order.

One scan of a column is one pass of prefix sums.  Split position ``k`` of
the ``n_act`` sorted active rows puts the first ``k + 1`` below the
threshold, so its ``<=`` sum is the running sum and its ``>=`` sum the rest
of the total; the divisors ``sqrt(reg_strength + count)`` come from one
table per scan.  A position between equal values is no threshold and is
masked to score -1.  One argmax per direction, with ``>=`` taking an equal
score unless ``<=`` reaches it at a smaller threshold, picks the candidate
that the documented tie-break order names.

A bootstrap of a few hundred rows makes each column's numpy calls cost more
than their arithmetic, so the scan takes columns in blocks of about
``SCAN_BLOCK_CELLS`` sorted cells and runs each step once per block on a
``(columns, rows)`` array, like the column blocks of XGBoost (section 4.1).
From ``SCAN_BLOCK_CELLS`` active rows up, a block is one column.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .core import FitStage, FitTrace, SparseProposition, Standardizer, check_integer_fields
from .losses import LossKind, gradient, init_intercept, loss, training_arrays
from .sparse_logreg import corrective_refit

SCAN_BLOCK_CELLS = 4096  # sorted cells per block of columns the scan processes at once


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

    The scan works on the ``n_act - 1`` split positions of each column:
    position ``k`` puts the first ``k + 1`` sorted rows below the threshold.
    Its ``<=`` sum is ``cumsum(g[rows])[k]`` and its ``>=`` sum is the rest
    of ``total``.  The divisors come from one table, ``root[c] =
    sqrt(reg_strength + c)`` for every count ``c``, read forwards for ``<=``
    and backwards for ``>=``; the counts are exact in floating point, so the
    table holds the same bits as a square root per position.  A position
    between equal values is no threshold; it scores -1, below every real
    score, which is >= 0, and a column with no other position is skipped.
    Each direction takes its own first argmax, and ``>=`` wins an equal score
    unless ``<=`` reaches it at a smaller threshold, which is the tie-break
    order above.

    The columns go in blocks of ``max(1, SCAN_BLOCK_CELLS // n_act)``, each
    handled by one set of numpy calls on ``(c, n_act)`` arrays, row ``i`` for
    column ``j0 + i``: one gather of gradients, one flat gather of values,
    one ``cumsum(axis=1)`` and one argmax per direction.  The ``cumsum`` adds
    along each row in order, as the 1-d one does, so the bits are the same.
    Only the choice between the two directions and across columns runs in
    Python, column by column in ascending order.

    ``X`` is ``(n, d)`` in either layout; ``fit`` passes it column-major, so
    that the values of a block of columns are a view of contiguous memory,
    which a C-order ``X`` first copies.
    """
    active = np.asarray(active, dtype=int)
    n_act = active.size
    if n_act < 2:
        return None
    total = float(g[active].sum())
    root = np.sqrt(reg_strength + np.arange(n_act + 1.0))
    root_le, root_ge = root[1:n_act], root[n_act - 1:0:-1]
    n, d = X.shape
    width = max(1, SCAN_BLOCK_CELLS // n_act)
    best: AxisCandidate | None = None
    for j0 in range(0, d, width):
        rows = orders[j0:j0 + width].astype(np.intp)
        c = rows.shape[0]
        score_le = np.cumsum(g.take(rows), axis=1)[:, :-1]
        rows += n * np.arange(c)[:, None]
        sv = X.T[j0:j0 + c].ravel().take(rows)  # row i is column j0 + i, sorted
        tie = sv[:, :-1] >= sv[:, 1:]
        score_ge = total - score_le
        np.abs(score_le, out=score_le)
        np.abs(score_ge, out=score_ge)
        score_le /= root_le
        score_ge /= root_ge
        if tie.any():
            np.copyto(score_le, -1.0, where=tie)
            np.copyto(score_ge, -1.0, where=tie)
        kls = score_le.argmax(axis=1).tolist()
        kgs = score_ge.argmax(axis=1).tolist()
        for i, skip in enumerate(tie.all(axis=1).tolist()):
            if skip:
                continue
            kl, kg = kls[i], kgs[i]
            sl, sg = float(score_le[i, kl]), float(score_ge[i, kg])
            if sg > sl or (sg == sl and kg <= kl):
                k, direction, score = kg, ">=", sg
            else:
                k, direction, score = kl, "<=", sl
            if best is None or score > best.score:
                threshold = float(0.5 * (sv[i, k] + sv[i, k + 1]))
                best = AxisCandidate(j0 + i, direction, threshold, score)
    return best


def _grow_conjunction(Z, g, orders,
                      cfg: TGBConfig) -> tuple[list[SparseProposition], np.ndarray] | None:
    """The conjunction's propositions and its 0/1 cover over all rows, or None.

    ``active`` holds the rows inside every accepted proposition, so it is the
    cover's support.  ``orders`` is filtered to them at the top of the next
    level, so a conjunction that stops at ``max_propositions`` never filters
    for a scan that does not come.
    """
    active = np.arange(Z.shape[0])
    body: list[SparseProposition] = []
    current = 0.0
    for level in range(cfg.max_propositions):
        if level:  # every earlier level accepted; ``inside`` is the last one's
            orders = np.compress(inside[orders].ravel(), orders).reshape(Z.shape[1], -1)
        cand = best_axis_proposition(active, Z, g, orders, cfg.reg_strength)
        if cand is None or cand.score <= current:
            break
        prop = cand.to_proposition()
        inside = prop.activations(Z) >= 0.5
        if not inside[active].any():
            break
        body.append(prop)
        active = active[inside[active]]
        current = cand.score
    if not body:
        return None
    cover = np.zeros(Z.shape[0])
    cover[active] = 1.0
    return body, cover


def _stable_orders(Z) -> np.ndarray:
    """``np.argsort(Z.T, axis=1, kind="stable")`` in the smallest unsigned
    type that holds ``n``, built one column at a time.

    Each column is sorted by the fast unstable sort.  Only if it has equal
    values is the order repaired: the sorted values are numbered by group
    of equal values, ascending, and the positions sorted again by the key
    ``group * n + row``.  The keys are distinct and order first by value,
    then by row, which is the stable order.  ``-0.0`` and ``0.0`` compare
    equal in both sorts, so they share a group.
    """
    n, d = Z.shape
    orders = np.empty((d, n), dtype=np.min_scalar_type(n))
    for j in range(d):
        z = Z[:, j]
        order = np.argsort(z)
        sv = z[order]
        tie = sv[:-1] == sv[1:]
        if tie.any():
            group = np.zeros(n, dtype=np.int64)
            np.cumsum(~tie, out=group[1:])
            order = np.sort(group * n + order) % n
        orders[j] = order
    return orders


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
    # column-major, so that every gather of the scan and the presort reads one column
    Z = np.asfortranarray(standardizer.transform(X))
    orders = _stable_orders(Z)
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
