"""Axis-parallel threshold boosting baseline.

Rules are conjunctions of single-feature threshold conditions found by
exhaustive scan.  The rest is ``boost``, the boosting loop that the oblique
learner runs too, so the two are directly comparable at equal rule counts.

The scan never sorts.  A fit sorts every column of the standardized
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

``fit_grid`` fits a whole grid of reg strengths in one pass of ``boost``,
and ``fit`` is ``fit_grid`` at one value, or at a whole grid given one.  The
reg strength enters a fit only through the scan's divisors, so fits that
have accepted the same propositions so far have the same weights, scores
and gradients, and scan the same rows in the same order.  They share one
branch; one scan answers for all of them, and only the divisions and
argmaxes run per reg strength.  Where their answers differ the branch
splits, and the traces stay bit for bit those of separate fits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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


def best_axis_proposition(active, X, g, orders,
                          reg_strengths) -> tuple[AxisCandidate | None, ...]:
    """Exhaustive scan over single-feature threshold conditions, one answer
    per value of ``reg_strengths``, in its order.

    Candidate thresholds are the midpoints between consecutive distinct
    feature values over the active rows, in both directions.  Ties are
    broken toward the lowest feature index, then the smallest threshold,
    then ``>=`` before ``<=``.  An answer is ``None`` when no feature has two
    distinct values.

    ``active`` holds the active row indices in ascending order, and
    ``orders[j]`` holds the same rows in ascending order of ``X[:, j]``,
    ties in ascending row order: the stable sort of all rows filtered to the
    active ones.  That is the order a stable sort of ``X[active, j]`` gives,
    so the running gradient sums, and hence the scores, are the same bits.

    The scan works on the ``n_act - 1`` split positions of each column:
    position ``k`` puts the first ``k + 1`` sorted rows below the threshold.
    Its ``<=`` sum is ``cumsum(g[rows])[k]`` and its ``>=`` sum is the rest
    of ``total``.  The divisors come from one table per reg strength,
    ``root[c] = sqrt(reg_strength + c)`` for every count ``c``, read forwards
    for ``<=`` and backwards for ``>=``; the counts are exact in floating
    point, so the table holds the same bits as a square root per position.
    A position between equal values is no threshold; it scores -1, below
    every real score, which is >= 0, and a column with no other position is
    skipped.  Each direction takes its own first argmax, and ``>=`` wins an
    equal score unless ``<=`` reaches it at a smaller threshold, which is
    the tie-break order above.

    The columns go in blocks of ``max(1, SCAN_BLOCK_CELLS // n_act)``, each
    handled by one set of numpy calls on ``(c, n_act)`` arrays, row ``i`` for
    column ``j0 + i``: one gather of gradients, one flat gather of values,
    one ``cumsum(axis=1)``, the tie mask and the absolute sums.  The
    ``cumsum`` adds along each row in order, as the 1-d one does, so the bits
    are the same.  None of that depends on the reg strength.  Each reg
    strength then divides the absolute sums by its table into two buffers
    allocated once per scan, masks the ties and takes one argmax per
    direction.  Only the choice between the two directions and across
    columns runs in Python, column by column in ascending order.

    ``X`` is ``(n, d)`` in either layout; ``fit_grid`` passes it column-major, so
    that the values of a block of columns are a view of contiguous memory,
    which a C-order ``X`` first copies.
    """
    active = np.asarray(active, dtype=int)
    n_act = active.size
    best: list[AxisCandidate | None] = [None] * len(reg_strengths)
    if n_act < 2:
        return tuple(best)
    total = float(g[active].sum())
    counts = np.arange(n_act + 1.0)
    roots = [np.sqrt(reg + counts) for reg in reg_strengths]
    divisors = [(root[1:n_act], root[n_act - 1:0:-1]) for root in roots]
    n, d = X.shape
    width = max(1, SCAN_BLOCK_CELLS // n_act)
    buf_le = np.empty((min(width, d), n_act - 1))
    buf_ge = np.empty_like(buf_le)
    for j0 in range(0, d, width):
        rows = orders[j0:j0 + width].astype(np.intp)
        c = rows.shape[0]
        sum_le = np.cumsum(g.take(rows), axis=1)[:, :-1]
        rows += n * np.arange(c)[:, None]
        sv = X.T[j0:j0 + c].ravel().take(rows)  # row i is column j0 + i, sorted
        tie = sv[:, :-1] >= sv[:, 1:]
        sum_ge = total - sum_le
        np.abs(sum_le, out=sum_le)
        np.abs(sum_ge, out=sum_ge)
        tied = tie.any()
        columns = [i for i, skip in enumerate(tie.all(axis=1).tolist()) if not skip]
        score_le, score_ge = buf_le[:c], buf_ge[:c]
        for r, (root_le, root_ge) in enumerate(divisors):
            np.divide(sum_le, root_le, out=score_le)
            np.divide(sum_ge, root_ge, out=score_ge)
            if tied:
                np.copyto(score_le, -1.0, where=tie)
                np.copyto(score_ge, -1.0, where=tie)
            kls = score_le.argmax(axis=1).tolist()
            kgs = score_ge.argmax(axis=1).tolist()
            for i in columns:
                kl, kg = kls[i], kgs[i]
                sl, sg = float(score_le[i, kl]), float(score_ge[i, kg])
                if sg > sl or (sg == sl and kg <= kl):
                    k, direction, score = kg, ">=", sg
                else:
                    k, direction, score = kl, "<=", sl
                if best[r] is None or score > best[r].score:
                    threshold = float(0.5 * (sv[i, k] + sv[i, k + 1]))
                    best[r] = AxisCandidate(j0 + i, direction, threshold, score)
    return tuple(best)


def _grow_conjunctions(Z, g, orders, reg_strengths, max_propositions):
    """One conjunction per value of ``reg_strengths`` on the gradients ``g``,
    as ``(picked, body, cover)`` triples: the positions in ``reg_strengths``
    that grew the propositions ``body``, and its 0/1 cover over all rows, or
    ``None`` for an empty body.

    The conjunctions grow as a tree.  A group holds the reg strengths that
    accepted the same propositions so far, with the rows inside all of them
    (``active``, the cover's support) and each one's last score
    (``current``).  At each level one scan answers for the whole group.  A
    reg strength whose answer is None or scores at most its own ``current``
    stops with the body so far; the others go on in groups of equal
    (feature, direction, threshold), each with one ``activations`` and one
    filter of ``orders``.

    Pending groups wait on a stack, last in first out.  Each holds its
    parent's ``orders`` and its own ``inside``, and filters on being popped,
    so a level's ``orders`` are dropped once no pending sibling needs them;
    a group that stops at ``max_propositions`` never filters for a scan that
    does not come.
    """
    n, d = Z.shape
    grown = []
    k = len(reg_strengths)
    pending = [(list(range(k)), [0.0] * k, [], np.arange(n), orders, None)]
    while pending:
        picked, current, body, active, orders, parent_inside = pending.pop()
        if parent_inside is not None:
            orders = np.compress(parent_inside[orders].ravel(), orders).reshape(d, -1)
        cands = best_axis_proposition(active, Z, g, orders, [reg_strengths[p] for p in picked])
        stopped, groups = [], {}
        for p, score, cand in zip(picked, current, cands):
            if cand is None or cand.score <= score:
                stopped.append(p)
            else:
                groups.setdefault(cand[:3], []).append((p, cand))
        children = []
        for chosen in groups.values():
            prop = chosen[0][1].to_proposition()
            inside = prop.activations(Z) >= 0.5
            if not inside[active].any():
                stopped += [p for p, _ in chosen]
                continue
            members = [p for p, _ in chosen]
            child_body, child_active = body + [prop], active[inside[active]]
            if len(child_body) == max_propositions:
                grown.append((members, child_body, child_active))
            else:
                scores = [cand.score for _, cand in chosen]
                children.append((members, scores, child_body, child_active, orders, inside))
        if stopped:
            grown.append((sorted(stopped), body, active))
        pending.extend(reversed(children))
    out = []
    for picked, body, active in grown:
        cover = None
        if body:
            cover = np.zeros(n)
            cover[active] = 1.0
        out.append((picked, body, cover))
    return out


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


def boost(X, y, cfg, prepare, n_members=1) -> tuple[FitTrace, ...]:
    """The boosting loop of both learners: one trace per member, each of up
    to ``cfg.max_rules`` rounds under ``cfg.loss``.

    ``prepare(Z, y)``, given the standardized features, returns ``(rows,
    grow)``: the rows that the intercept, the refits and each stage's
    ``train_risk`` use, and ``grow(g, members)``, which grows one conjunction
    per member on the gradients ``g`` over all rows and returns ``(picked,
    body, cover)`` groups as ``_grow_conjunctions`` does.  Each round refits
    all weights jointly, warm-started with the new rule's weight at 0.

    Members that have grown the same conjunctions share one branch: one
    gradient, ``grow`` call, refit and ``FitStage`` per round.  It splits
    where their groups differ.  Branches wait on a stack, last in first out.
    Each trace's ``wall_time_seconds`` is the call's time over ``n_members``.
    """
    t_start = perf_counter()
    kind = cfg.loss
    X, y, task = training_arrays(X, y, kind)
    n = X.shape[0]
    standardizer = Standardizer.fit(X)
    rows, grow = prepare(standardizer.transform(X), y)
    y_rows = y[rows]

    def stage(bodies, beta, scores) -> FitStage:
        risk = float(np.mean(loss(kind, y_rows, scores[rows])))
        return FitStage.of(bodies, beta, task, standardizer, risk)

    beta = np.array([init_intercept(kind, y_rows)])
    scores = np.full(n, beta[0])
    traced: list[list[FitStage]] = [[] for _ in range(n_members)]
    # a branch: its members, their refitted weights and scores, and their
    # covers, bodies and stages so far
    pending = [(list(range(n_members)), beta, scores, [], [], [stage([], beta, scores)])]
    while pending:
        members, beta, scores, covers, bodies, stages = pending.pop()
        grown = [(range(len(members)), None, None)]  # at max_rules every member stops
        if len(bodies) < cfg.max_rules:
            grown = grow(gradient(kind, y, scores), members)
        for picked, body, cover in grown:
            branch = [members[p] for p in picked]
            if cover is None:
                for m in branch:
                    traced[m] = stages
                continue
            branch_covers = covers + [cover]
            branch_bodies = bodies + [body]
            design = np.column_stack([np.ones(n)] + branch_covers)
            branch_beta = corrective_refit(design[rows], y_rows, kind, np.append(beta, 0.0))
            branch_scores = branch_beta[0] + design[:, 1:] @ branch_beta[1:]
            pending.append((branch, branch_beta, branch_scores, branch_covers, branch_bodies,
                            stages + [stage(branch_bodies, branch_beta, branch_scores)]))

    seconds = (perf_counter() - t_start) / n_members
    return tuple(FitTrace(stages=tuple(s), wall_time_seconds=seconds) for s in traced)


def fit_grid(X, y, cfg: TGBConfig, reg_strengths) -> tuple[FitTrace, ...]:
    """One trace per value of ``reg_strengths``, in its order, each bit for bit
    the trace of ``fit(X, y, replace(cfg, reg_strength=value))``;
    ``cfg.reg_strength`` itself is not read.

    One ``boost`` pass on all rows, a member per reg strength, fits them all,
    as glmnet fits a whole penalty path (Friedman, Hastie & Tibshirani, JSS
    33(1), 2010); members whose fits agree share the scans as well.
    """
    regs = [replace(cfg, reg_strength=reg).reg_strength for reg in reg_strengths]
    if not regs:
        raise ValueError("reg_strengths must hold at least one value")

    def prepare(Z, y):
        # column-major, so that every gather of the scan and the presort reads one column
        Z = np.asfortranarray(Z)
        orders = _stable_orders(Z)
        return slice(None), lambda g, members: _grow_conjunctions(
            Z, g, orders, [regs[m] for m in members], cfg.max_propositions)

    return boost(X, y, cfg, prepare, len(regs))


def fit(X, y, cfg: TGBConfig, reg_strengths=None) -> FitTrace | tuple[FitTrace, ...]:
    """Boost up to ``cfg.max_rules`` axis-parallel rules, tracing every stage.

    Runs the oblique learner's loop, ``boost``, but grows conjunctions by
    the exhaustive single-feature scan and carves out no validation rows, so
    training risk is measured on all rows.  It is ``fit_grid`` at the one
    reg strength ``cfg.reg_strength``; given
    ``reg_strengths``, it returns ``fit_grid(X, y, cfg, reg_strengths)``, so
    that the protocol's grid fits run inside ``fit`` as well, where a layer
    tracer that wraps ``tgb.fit`` times them.
    """
    if reg_strengths is not None:
        return fit_grid(X, y, cfg, reg_strengths)
    return fit_grid(X, y, cfg, (cfg.reg_strength,))[0]
