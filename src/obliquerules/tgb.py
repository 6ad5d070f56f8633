"""Axis-parallel threshold boosting baseline.

Rules are conjunctions of single-feature threshold conditions found by
exhaustive scan.  The rest is ``boost``, the boosting loop that the oblique
learner runs too, so the two are directly comparable at equal rule counts.

The scan never sorts.  A fit sorts every column of the standardized
features once, stably, and each conjunction filters those orders down to
the rows still inside it - the presorted columns of SLIQ (Mehta, Agrawal &
Rissanen, EDBT 1996) and of exact greedy split finding in XGBoost (Chen &
Guestrin, KDD 2016, section 4.1).  The sort lives in ``fit``, not in the
conjunction, because the first scan of every conjunction covers all rows;
and the sort finds that scan's tie mask and each column's tie summary.  No
pass is repeated for a result already known: the orders keep their small
unsigned type through every filter and gather; the first scan sums the
gradients without gathering them; a column with no tie among all rows has
none among any of them, so no later scan gathers its sorted values; and
only a block with a tie looks for columns that offer no threshold.
``fit_grid`` fits a whole grid of reg strengths in one pass of ``boost``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .core import FitStage, FitTrace, SparseProposition, Standardizer, check_integer_fields
from .losses import LossKind, gradient, init_intercept, loss, training_arrays
from .sparse_logreg import corrective_refit, split_groups

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
        if isinstance(reg, bool) or not 0.0 <= reg <= sys.float_info.max:  # non-number: TypeError
            raise ValueError(f"reg_strength must be a finite number >= 0, got {reg!r}")
        object.__setattr__(self, "reg_strength", float(reg))
        object.__setattr__(self, "loss", LossKind(self.loss))


class AxisCandidate(NamedTuple):
    feature: int
    direction: str  # ">=" or "<="
    threshold: float
    score: float

    def to_proposition(self) -> SparseProposition:
        """The condition, built unchecked: a scan's feature and threshold are valid."""
        feature = np.array([self.feature], dtype=np.int64)
        if self.direction == ">=":
            return SparseProposition._trusted(feature, np.array([1.0]), float(self.threshold))
        return SparseProposition._trusted(feature, np.array([-1.0]), -float(self.threshold))


def best_axis_proposition(active, X, g, orders, reg_strengths,
                          root_values=None) -> tuple[AxisCandidate | None, ...]:
    """Exhaustive scan over single-feature threshold conditions, one answer
    per value of ``reg_strengths``, in its order.

    Candidate thresholds are the midpoints between consecutive distinct
    feature values over the active rows, in both directions; where a midpoint
    rounds onto the value that the rule leaves out, as between neighbouring
    doubles, the threshold is the value it keeps.  So a rule covers exactly
    the active rows its score counts, at least one.  Ties are broken toward
    the lowest feature index, then the smallest threshold, then ``>=``
    before ``<=``.  An answer is ``None`` when no feature has two distinct
    values.

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
    skipped; only a block with a tie looks for such columns.  Each direction
    takes its own first argmax, and ``>=`` wins an equal score unless ``<=``
    reaches it at a smaller threshold, which is the tie-break order above.

    A bootstrap of a few hundred rows makes each column's numpy calls cost
    more than their arithmetic, so the columns go in blocks of ``max(1,
    SCAN_BLOCK_CELLS // n_act)``, like the column blocks of XGBoost, each
    handled by one set of numpy calls on ``(c, n_act)`` arrays, row ``i`` for
    column ``j0 + i``: one gather of gradients by ``orders`` in their own
    dtype, one ``cumsum(axis=1)``, the tie mask and the absolute sums.  The
    ``cumsum`` adds along each row in order, as the 1-d one does, so the bits
    are the same.  None of that depends on the reg strength.  Each reg
    strength then divides the absolute sums by its table into two buffers
    allocated once per scan, masks the ties and takes one argmax per
    direction.  Only the choice between the two directions and across
    columns runs in Python, column by column in ascending order.

    The tie mask compares the sorted values of a block, gathered by one
    ``take``: through flat indices, unless the block is one column, which is
    gathered as it is.  ``X`` is ``(n, d)`` in either layout; ``fit_grid``
    passes it column-major, so that the values of a block of columns are a
    view of contiguous memory, which a C-order ``X`` first copies.  A
    threshold reads its two values from ``X``, at the rows on either side of
    its split.

    ``root_values``, if given, holds the tie facts of all rows that
    ``_stable_orders`` returns with ``orders``, once per fit.  A scan of all
    rows then reads its tie mask from there and totals ``g`` as ``g.sum()``,
    the bits of ``g[active].sum()`` without the gather.  Any other scan
    gathers values only for a block with a column that ties among all rows;
    the others have no tie among the active rows either.
    """
    active = np.asarray(active, dtype=int)
    n_act = active.size
    best: list[AxisCandidate | None] = [None] * len(reg_strengths)
    if n_act < 2:
        return tuple(best)
    n, d = X.shape
    all_rows = root_values is not None and n_act == n
    total = float(g.sum() if all_rows else g[active].sum())
    counts = np.arange(n_act + 1.0)
    roots = [np.sqrt(reg + counts) for reg in reg_strengths]
    divisors = [(root[1:n_act], root[n_act - 1:0:-1]) for root in roots]
    width = max(1, SCAN_BLOCK_CELLS // n_act)
    buf_le = np.empty((min(width, d), n_act - 1))
    buf_ge = np.empty_like(buf_le)
    for j0 in range(0, d, width):
        rows = orders[j0:j0 + width]
        c = rows.shape[0]
        sum_le = np.cumsum(g.take(rows), axis=1)[:, :-1]
        if all_rows:
            tie = root_values[0][j0:j0 + c]
            tied = any(root_values[1][j0:j0 + c])
            skipped = root_values[2][j0:j0 + c]
        elif root_values is None or any(root_values[1][j0:j0 + c]):
            flat = rows if c == 1 else rows + n * np.arange(c)[:, None]
            sv = X.T[j0:j0 + c].ravel().take(flat)  # row i is column j0 + i, sorted
            tie = sv[:, :-1] >= sv[:, 1:]
            tied = bool(tie.any())
            skipped = tie.all(axis=1).tolist() if tied else None
        else:  # no two rows share a value in these columns, so no two active rows do
            tied = False
        sum_ge = total - sum_le
        np.abs(sum_le, out=sum_le)
        np.abs(sum_ge, out=sum_ge)
        columns = [i for i, skip in enumerate(skipped) if not skip] if tied else range(c)
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
                    j = j0 + i
                    lo, hi = float(X[rows[i, k], j]), float(X[rows[i, k + 1], j])
                    threshold = 0.5 * (lo + hi)  # unless it rounds onto the value left out
                    if threshold == (lo if direction == ">=" else hi):
                        threshold = hi if direction == ">=" else lo
                    best[r] = AxisCandidate(j, direction, threshold, score)
    return tuple(best)


def _grow_conjunctions(Z, g, orders, root_values, reg_strengths, max_propositions):
    """One conjunction per value of ``reg_strengths`` on the gradients ``g``,
    as ``(picked, body, inside)`` triples: the positions in ``reg_strengths``
    that grew the propositions ``body``, maybe none, and the rows it covers.
    Every scan reads ``root_values``, the tie mask and per-column tie
    summaries of all rows that ``best_axis_proposition`` takes.

    The conjunctions grow as a tree.  A group holds the reg strengths that
    accepted the same propositions so far, with the rows inside all of them
    (``active``, the cover's support) and each one's last score
    (``current``).  At each level one scan answers for the whole group.  A
    reg strength whose answer is None or scores at most its own ``current``
    stops with the body so far; the others go on in groups of equal
    (feature, direction, threshold), each with one ``activations`` and one
    filter of ``orders``, a ``take`` of the parent's cover that keeps their
    dtype.

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
            orders = np.compress(parent_inside.take(orders).ravel(), orders).reshape(d, -1)
        regs = [reg_strengths[p] for p in picked]
        cands = best_axis_proposition(active, Z, g, orders, regs, root_values)
        stopped, groups = [], {}
        for p, score, cand in zip(picked, current, cands):
            if cand is None or cand.score <= score:
                stopped.append(p)
            else:
                groups.setdefault(cand[:3], []).append((p, cand))
        children = []
        for chosen in groups.values():
            prop = chosen[0][1].to_proposition()
            inside = prop.activations(Z)
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
    return grown


def _stable_orders(Z) -> tuple[np.ndarray, tuple]:
    """``np.argsort(Z.T, axis=1, kind="stable")`` in the smallest unsigned type
    that holds ``n``, built one column at a time, and the tie facts ``(tie,
    tie_any, tie_all)``: the ``(d, n - 1)`` mask of equal sorted neighbours
    and, per column, whether any of its positions tie and, if so, all.

    Each column is sorted by the fast unstable sort.  Only if it has equal
    values is the order repaired: the sorted values are numbered by group
    of equal values, ascending, and the positions sorted again by the key
    ``group * n + row``.  The keys are distinct and order first by value,
    then by row, which is the stable order.  ``-0.0`` and ``0.0`` compare
    equal in both sorts, so they share a group, and the mask, built from
    the unstable sort, is the one the stable order gives.
    """
    n, d = Z.shape
    orders = np.empty((d, n), dtype=np.min_scalar_type(n))
    tie = np.empty((d, n - 1), dtype=bool)
    tie_any, tie_all = [False] * d, [False] * d
    for j in range(d):
        z = Z[:, j]
        order = np.argsort(z)
        sv = z[order]
        np.equal(sv[:-1], sv[1:], out=tie[j])
        if tie[j].any():
            tie_any[j], tie_all[j] = True, bool(tie[j].all())
            group = np.zeros(n, dtype=np.int64)
            np.cumsum(~tie[j], out=group[1:])
            order = np.sort(group * n + order) % n
        orders[j] = order
    return orders, (tie, tie_any, tie_all)


def boost(X, y, cfg, prepare, n_members=1) -> tuple[FitTrace, ...]:
    """The boosting loop of both learners: one trace per member, each of up
    to ``cfg.max_rules`` rounds under ``cfg.loss``.

    ``prepare(Z, y)``, given the standardized features, returns ``(rows,
    grow)``: the rows that the intercept, the refits and each stage's
    ``train_risk`` use, and ``grow(g, members)``, which grows one conjunction
    per member on the gradients ``g`` over all rows and returns ``(picked,
    body, inside)`` groups as ``_grow_conjunctions`` does; members with no
    body stop.  Each round refits all weights jointly, warm-started with the
    new rule's weight at 0.

    Members that have grown the same conjunctions share one branch: one
    gradient, ``grow`` call, refit and ``FitStage`` per round.  It splits
    where their groups differ.  Branches wait on a stack, last in first out.
    Each trace's ``wall_time_seconds`` is the call's time over ``n_members``.
    A branch writes each cover into the next column of its design buffer,
    which its first child takes and the others copy, and under logistic loss
    splits its refit rows' groups by it, to refit one row per group.
    """
    t_start = perf_counter()
    kind = cfg.loss
    X, y, task = training_arrays(X, y, kind)
    n = X.shape[0]
    standardizer = Standardizer.fit(X)
    rows, grow = prepare(standardizer.transform(X), y)
    fit_rows, y_rows = np.arange(n)[rows], y[rows]

    def stage(bodies, beta, scores) -> FitStage:
        risk = float(np.mean(loss(kind, y_rows, scores[rows])))
        return FitStage.of(bodies, beta, task, standardizer, risk)

    beta = np.array([init_intercept(kind, y_rows)])
    scores = np.full(n, beta[0])
    design = np.ones((n, cfg.max_rules + 1))  # [1 | covers]; each round writes its column
    groups = None if kind is LossKind.SQUARED else split_groups(  # squared refits all rows
        np.zeros(y_rows.size, dtype=np.intp), y_rows == 1)[0]
    traced: list[list[FitStage]] = [[] for _ in range(n_members)]
    # a branch: its members, their refitted weights and scores, design buffer,
    # refit row groups, bodies and stages so far
    pending = [(list(range(n_members)), beta, scores, design, groups, [],
                [stage([], beta, scores)])]
    while pending:
        members, beta, scores, design, groups, bodies, stages = pending.pop()
        m = len(bodies)
        grown = [(range(len(members)), None, None)]  # at max_rules every member stops
        if m < cfg.max_rules:
            grown = grow(gradient(kind, y, scores), members)
        for i, (picked, body, inside) in enumerate(grown):
            branch = [members[p] for p in picked]
            if not body:
                for member in branch:
                    traced[member] = stages
                continue
            branch_design = design.copy() if i else design
            branch_design[:, m + 1] = 0.0
            branch_design[inside, m + 1] = 1.0
            used, reps, counts, branch_groups = branch_design[:, :m + 2], fit_rows, None, None
            if groups is not None:
                branch_groups, counts, reps = split_groups(groups, branch_design[rows, m + 1] == 1)
                reps = fit_rows[reps]
            branch_beta = corrective_refit(used[reps], y[reps], kind, np.append(beta, 0.0), counts)
            branch_scores = branch_beta[0] + used[:, 1:] @ branch_beta[1:]
            branch_bodies = bodies + [body]
            pending.append((branch, branch_beta, branch_scores, branch_design, branch_groups,
                            branch_bodies,
                            stages + [stage(branch_bodies, branch_beta, branch_scores)]))

    seconds = (perf_counter() - t_start) / n_members
    return tuple(FitTrace(stages=tuple(s), wall_time_seconds=seconds) for s in traced)


def fit_grid(X, y, cfg: TGBConfig, reg_strengths) -> tuple[FitTrace, ...]:
    """One trace per value of ``reg_strengths``, in its order, each bit for bit
    the trace of ``fit(X, y, replace(cfg, reg_strength=value))``;
    ``cfg.reg_strength`` itself is not read.

    One ``boost`` pass on all rows, a member per reg strength, fits them all,
    as glmnet fits a whole penalty path (Friedman, Hastie & Tibshirani, JSS
    33(1), 2010).  The reg strength enters a fit only through the scan's
    divisors, so fits that have accepted the same propositions so far have
    the same weights, scores and gradients, and scan the same rows in the
    same order: they share one branch, and one scan answers for all of them.
    Where their answers differ the branch splits.
    """
    regs = [replace(cfg, reg_strength=reg).reg_strength for reg in reg_strengths]
    if not regs:
        raise ValueError("reg_strengths must hold at least one value")

    def prepare(Z, y):
        # column-major, so that every gather of the scan and the presort reads one column
        Z = np.asfortranarray(Z)
        orders, root_values = _stable_orders(Z)
        return slice(None), lambda g, members: _grow_conjunctions(
            Z, g, orders, root_values, [regs[m] for m in members], cfg.max_propositions)

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
