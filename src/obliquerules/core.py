"""Domain types for additive rule ensembles with linear-threshold conditions.

A proposition is a sparse half-space indicator ``step{w.x >= t}``; a rule is a
conjunction of propositions with an output weight; an ensemble sums rule
outputs on top of an intercept.  Model complexity counts rules, propositions,
and nonzero proposition weights.  Every score comes from one batch kernel,
:func:`score_ensembles`, which scores several ensembles on the same rows, block
by block, shares their work, and tests one-feature conditions by exact cuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Task(str, Enum):
    REGRESSION = "regression"
    CLASSIFICATION = "classification"


def check_integer_fields(obj, lowest: dict) -> None:
    """Raise ``ValueError`` unless each field of ``obj`` named in ``lowest`` is a
    non-bool integer at least its bound."""
    for name, low in lowest.items():
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _as_row_matrix(x) -> tuple[np.ndarray, bool]:
    """Coerce a single vector or a matrix to 2-d, remembering which it was."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr.reshape(1, -1), True
    if arr.ndim != 2:
        raise ValueError(f"expected a vector or matrix, got ndim={arr.ndim}")
    return arr, False


def _project(ZT, rows, weights, out, term) -> np.ndarray:
    """Write ``ZT[rows[0]] * weights[0] + ZT[rows[1]] * weights[1] + ...`` into
    ``out``, summed left to right one element at a time, using ``term`` as
    scratch.  Each element's bits depend only on its own entries, not on the
    layout of ``ZT`` or its length, as a BLAS product's can."""
    np.multiply(ZT[rows[0]], weights[0], out=out)
    for k, w in zip(rows[1:], weights[1:]):
        np.multiply(ZT[k], w, out=term)
        out += term
    return out


def _freeze(obj, **fields) -> None:
    """Set the fields of the frozen value type ``obj``, make its arrays read-only
    and store its hash, numeric so equal across processes (a bytes hash is
    salted per process)."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)
    object.__setattr__(obj, "_hash", hash(tuple(
        tuple(v.tolist()) if isinstance(v, np.ndarray) else v for v in fields.values())))


class _Value:
    """Base of the frozen value types with array fields: equal when of one type
    with ``np.array_equal`` fields, hashed by what :func:`_freeze` stored."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in self.__dataclass_fields__)

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, eq=False)
class Standardizer(_Value):
    """Per-feature affine transform ``(x - mean) / scale`` fitted on training data."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        scale = np.atleast_1d(np.asarray(self.scale, dtype=float))
        if mean.shape != scale.shape or mean.ndim != 1:
            raise ValueError("mean and scale must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(scale) & (scale > 0))):
            raise ValueError("mean and scale entries must be finite, scale entries positive")
        _freeze(self, mean=mean, scale=scale)

    @classmethod
    def fit(cls, X) -> "Standardizer":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("expected a 2-d feature matrix")
        with np.errstate(over="ignore"):  # an overflowing spread gives inf, refused below
            mean, scale = X.mean(axis=0), X.std(axis=0)
        # zero-variance columns: center only, keep unit scale
        scale = np.where(scale > 0, scale, 1.0)
        return cls(mean, scale)

    @property
    def n_features(self) -> int:
        return self.mean.shape[0]

    def _check_width(self, n_columns: int):
        if n_columns != self.n_features:
            raise ValueError(
                f"feature count mismatch: transform expects {self.n_features}, got {n_columns}"
            )

    def transform(self, X) -> np.ndarray:
        X, single = _as_row_matrix(X)
        self._check_width(X.shape[1])
        Z = (X - self.mean) / self.scale
        return Z[0] if single else Z


@dataclass(frozen=True, eq=False)
class SparseProposition(_Value):
    """Half-space indicator ``step{sum_j w_j x_j >= threshold}`` with sparse w.

    Weights are stored as a strictly increasing index array plus matching
    nonzero values.  An axis-parallel condition ``x_j <= t`` is expressed with
    weight -1 and threshold -t.

    >>> p = SparseProposition(indices=(0, 2), weights=(1.0, -0.5), threshold=0.25)
    >>> p.activations([[1.0, 9.9, 1.0], [0.0, 0.0, 1.0]]).tolist()
    [1.0, 0.0]
    """

    indices: np.ndarray
    weights: np.ndarray
    threshold: float

    def __post_init__(self):
        idx = np.atleast_1d(np.asarray(self.indices, dtype=np.int64))
        wts = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if idx.ndim != 1 or wts.ndim != 1 or idx.shape != wts.shape:
            raise ValueError("indices and weights must be 1-d arrays of equal length")
        if idx.size == 0:
            raise ValueError("a proposition needs at least one nonzero weight")
        if np.any(idx < 0):
            raise ValueError("feature indices must be nonnegative")
        if idx.size > 1 and not np.all(np.diff(idx) > 0):
            raise ValueError("feature indices must be strictly increasing")
        if not np.all(np.isfinite(wts)) or np.any(wts == 0):
            raise ValueError("weights must be finite and nonzero")
        if not np.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        _freeze(self, indices=idx, weights=wts, threshold=float(self.threshold))

    @classmethod
    def _trusted(cls, indices, weights, threshold: float) -> "SparseProposition":
        """Build unchecked from fields that already pass ``__post_init__``:
        strictly increasing nonnegative int64 ``indices``, finite nonzero float
        ``weights`` that no caller holds, and a finite float ``threshold``."""
        prop = object.__new__(cls)
        _freeze(prop, indices=indices, weights=weights, threshold=threshold)
        return prop

    @classmethod
    def from_dense(cls, w, threshold: float) -> "SparseProposition":
        """Build from a dense weight vector, keeping only exact nonzeros."""
        w = np.asarray(w, dtype=float)
        idx = np.flatnonzero(w)
        weights = w[idx]
        if w.ndim == 1 and idx.size and np.all(np.isfinite(weights)) and math.isfinite(threshold):
            return cls._trusted(idx, weights, float(threshold))
        return cls(indices=idx, weights=weights, threshold=threshold)  # raises the checks' error

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def _check_width(self, n_columns: int):
        if int(self.indices[-1]) >= n_columns:
            raise ValueError(
                f"proposition references feature {int(self.indices[-1])} "
                f"but input has only {n_columns} columns"
            )

    def activations(self, X) -> np.ndarray:
        """0/1 array of the indicator over the rows of ``X`` (standardized scale)."""
        X, _ = _as_row_matrix(X)
        self._check_width(X.shape[1])
        proj, term = np.empty((2, X.shape[0]))
        _project(X.T, self.indices, self.weights, proj, term)
        return (proj >= self.threshold).astype(float)


def conjunction_cover(propositions, X) -> np.ndarray:
    """0/1 array: rows of ``X`` where every one of ``propositions`` fires."""
    out = propositions[0].activations(X)
    for p in propositions[1:]:
        out *= p.activations(X)
    return out


@dataclass(frozen=True)
class Rule:
    """Conjunction of propositions with an additive output weight."""

    propositions: tuple[SparseProposition, ...]
    weight: float

    def __post_init__(self):
        props = tuple(self.propositions)
        if len(props) == 0:
            raise ValueError("a rule needs at least one proposition")
        if not all(isinstance(p, SparseProposition) for p in props):
            raise ValueError("propositions must be SparseProposition instances")
        if not np.isfinite(self.weight):
            raise ValueError("rule weight must be finite")
        object.__setattr__(self, "propositions", props)
        object.__setattr__(self, "weight", float(self.weight))

    def complexity(self) -> int:
        """Number of propositions plus total nonzero proposition weights."""
        return len(self.propositions) + sum(p.nnz for p in self.propositions)


@dataclass(frozen=True)
class RuleEnsemble:
    """Additive model ``score(x) = intercept + sum_i weight_i * rule_i(x~)``.

    Inputs to :meth:`decision_function` are raw feature vectors; the stored
    standardizer (fitted on training data) is applied before any rule is
    evaluated.
    """

    intercept: float
    rules: tuple[Rule, ...]
    task: Task
    standardizer: Standardizer

    def __post_init__(self):
        rules = tuple(self.rules)
        if not all(isinstance(r, Rule) for r in rules):
            raise ValueError("rules must be Rule instances")
        if not np.isfinite(self.intercept):
            raise ValueError("intercept must be finite")
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "task", Task(self.task))

    @property
    def n_rules(self) -> int:
        return len(self.rules)

    def decision_function(self, X) -> np.ndarray:
        return score_ensembles([self], X)[0]

    def predict(self, X) -> np.ndarray:
        """Regression: the score.  Classification: step of the score at 0."""
        score = self.decision_function(X)
        if self.task is Task.CLASSIFICATION:
            return (np.asarray(score) >= 0).astype(int)
        return score

    def complexity(self) -> int:
        """Rule count plus per-rule complexities; 0 for the intercept-only model."""
        return self.n_rules + sum(r.complexity() for r in self.rules)


# rows per block of score_ensembles; what stays cached of a block of wide rows (5.2 MB
# at d = 40) is each row's 64-byte line (1 MB) holding the next columns, in feature order
SCORE_BLOCK_ROWS = 16384
CUT_MIN_ROWS = 32768  # fewest rows for which score_ensembles searches cuts
_SIGN = np.uint64(1 << 63)  # a double's key: all its bits flipped if negative, else this one
_LOWEST, _HIGHEST = np.uint64(2**52 - 1), np.uint64(2**64 - 2**52)  # keys of -inf, +inf
_LADDER = np.array([*range(17), *(1 << b for b in range(6, 64, 6)), 2**64 - 1], dtype=np.uint64)
_SPAN = np.arange(65, dtype=np.uint64)


def _cuts(mean, scale, weight, threshold) -> np.ndarray:
    """Cut ``c`` of each condition ``fl(fl(fl(x - mean) / scale) * weight) >=
    threshold`` (arrays): it fires where ``x >= c`` if ``weight > 0``, ``x <= c``
    if not.  Rounding is monotone, so ``c`` is the first double that fires (on
    ``-x``, ``-mean`` for ``weight < 0``), never ``-inf``.  Keys 0..16, 64, 64**2,
    ... from ``mean + scale * threshold / weight`` bracket it, 64 steps a round."""
    sign = np.sign(weight)
    m, s, w, t = (a[:, None] for a in (mean * sign, scale, weight * sign, threshold))
    rows = np.arange(sign.size)
    with np.errstate(over="ignore"):
        bits = (m + s * (t / w)).view(np.uint64)
        start = np.where(bits >= _SIGN, ~bits, bits ^ _SIGN)
        probes = np.hstack([start - np.minimum(_LADDER[::-1], start - _LOWEST),
                            start + np.minimum(_LADDER[1:], _HIGHEST - start)])
        while True:
            x = np.where(probes >= _SIGN, probes ^ _SIGN, ~probes).view(float)
            first = ((x - m) / s * w >= t).argmax(axis=1)
            low, high = probes[rows, first - 1], probes[rows, first]
            if np.all(high - low <= 1):
                return sign * x[rows, first]
            step = ((high - low) >> np.uint64(6)) + np.uint64(1)
            probes = np.minimum(low[:, None] + step[:, None] * _SPAN, high[:, None])


def score_ensembles(ensembles, X) -> list:
    """Decision scores of each of ``ensembles`` on the raw rows ``X``.

    Returns one score array per ensemble, or one scalar each for a 1-d ``X``.
    The scores are the bits of ``intercept + sum_i weight_i * cover_i`` over
    ``standardizer.transform(X)``, summed in rule order, with each cover the
    product of its propositions' :meth:`SparseProposition.activations`.  The
    work is shared across the whole call, in the manner of QuickScorer
    (Lucchese et al., SIGIR 2015), which tests each distinct condition of an
    additive ensemble once over a whole block of rows.

    A plan made once per call gives an integer slot to each column that some
    proposition reads, to each distinct proposition and to each distinct
    rule body of two or more propositions, per standardizer, so the stages of
    one trace share them, and from ``CUT_MIN_ROWS`` rows on (where the search
    pays) each one-feature condition its exact cut, by :func:`_cuts`.  Then the
    rows are scored in blocks of ``SCORE_BLOCK_ROWS``, through buffers
    allocated once per call:

    - each used column goes, one at a time, into a row of the ``(u, rows)``
      block ``Z``: raw if only cuts read it, else standardized as ``(x -
      mean[j]) / scale[j]`` (elementwise, so the bits of ``transform``).
      The columns are read in feature order, so the reads of a row-major
      ``X`` only move forward and each 64-byte line of a row is used up
      while it is still cached (Drepper, "What every programmer should know
      about memory", 2007); the order in which propositions first name the
      columns jumps back to lines that a block of wide rows has evicted;
    - each cut (found with mean 0 and scale 1 on a standardized row) is
      compared with its row of ``Z``; each other proposition projects its
      rows in the fixed order of :func:`_project` that ``activations`` uses,
      so a row's cover depends on neither its block nor the layout of ``X``;
    - each body is the ``&`` of its propositions' conditions;
    - each ensemble's score slice is its intercept plus ``weight * cover``,
      rule by rule.
    """
    X, single = _as_row_matrix(X)
    n = X.shape[0]
    columns = []  # (j, mean[j], scale[j]) of each row of Z
    conditions = []  # (fires row, Z rows, weights, threshold) of each proposition
    conjunctions = []  # (fires row, fires rows of its propositions) of each body
    sums = []  # (intercept, ((weight, fires row of its cover), ...)) of each ensemble
    slots = {}  # standardizer -> its column, proposition and body slots
    n_fires = 0
    for ensemble in ensembles:
        std = ensemble.standardizer
        std._check_width(X.shape[1])
        column_at, proposition_at, body_at = slots.setdefault(std, ({}, {}, {}))
        terms = []
        for rule in ensemble.rules:
            body = rule.propositions
            cover = body_at.get(body)
            if cover is None:
                parts = []
                for p in body:
                    row = proposition_at.get(p)
                    if row is None:
                        p._check_width(X.shape[1])
                        rows = []
                        for j in p.indices.tolist():
                            if j not in column_at:
                                column_at[j] = len(columns)
                                columns.append((j, std.mean[j], std.scale[j]))
                            rows.append(column_at[j])
                        row = proposition_at[p] = n_fires
                        n_fires += 1
                        conditions.append((row, rows, p.weights.tolist(), p.threshold))
                    parts.append(row)
                if len(parts) == 1:
                    cover = parts[0]
                else:
                    cover = n_fires
                    n_fires += 1
                    conjunctions.append((cover, parts))
                body_at[body] = cover
            terms.append((rule.weight, cover))
        sums.append((ensemble.intercept, terms))
    # (fires row, Z row, comparison, cut) of each one-feature condition given a cut
    cut_tests = [c for c in conditions if len(c[1]) == 1] if n >= CUT_MIN_ROWS else []
    conditions = [c for c in conditions if len(c[1]) > 1 or not cut_tests]
    standardized = {k for _, rows, _, _ in conditions for k in rows}  # other rows stay raw
    if cut_tests:
        cuts = _cuts(*np.array([((0.0, 1.0) if rows[0] in standardized else columns[rows[0]][1:])
                                + (w[0], t) for _, rows, w, t in cut_tests]).T).tolist()
        cut_tests = [(row, rows[0], np.greater_equal if w[0] > 0 else np.less_equal, cut)
                     for (row, rows, w, _), cut in zip(cut_tests, cuts)]
    fills = sorted((j, k, mean, scale) for k, (j, mean, scale) in enumerate(columns))

    block_rows = SCORE_BLOCK_ROWS
    width = min(n, block_rows)
    Z_buf = np.empty((len(columns), width))
    fires_buf = np.empty((n_fires, width), dtype=bool)
    proj_buf, term_buf = np.empty((2, width))
    scores = [np.empty(n) for _ in ensembles]
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        m = stop - start
        Z, fires, proj, term = Z_buf[:, :m], fires_buf[:, :m], proj_buf[:m], term_buf[:m]
        block = X[start:stop]
        for j, k, mean, scale in fills:
            z = Z[k]
            if k in standardized:
                np.subtract(block[:, j], mean, out=z)
                np.divide(z, scale, out=z)
            else:
                np.copyto(z, block[:, j])
        for row, k, compare, cut in cut_tests:
            compare(Z[k], cut, out=fires[row])
        for row, rows, weights, threshold in conditions:
            _project(Z, rows, weights, proj, term)
            np.greater_equal(proj, threshold, out=fires[row])
        for row, parts in conjunctions:
            cover = fires[row]
            np.logical_and(fires[parts[0]], fires[parts[1]], out=cover)
            for k in parts[2:]:
                np.logical_and(cover, fires[k], out=cover)
        for score, (intercept, terms) in zip(scores, sums):
            part = score[start:stop]
            part.fill(intercept)
            for weight, row in terms:
                np.multiply(fires[row], weight, out=term)
                part += term
    return [score[0] for score in scores] if single else scores


# --------------------------------------------------------------------------
# Fit traces shared by the boosting learners
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FitStage:
    """Snapshot after one boosting round: the refitted ensemble plus its stats."""

    ensemble: RuleEnsemble
    train_risk: float
    complexity: int

    @classmethod
    def of(cls, bodies, beta, task, standardizer, train_risk: float) -> "FitStage":
        """Stage of rules ``bodies`` weighted by ``beta[1:]`` over intercept ``beta[0]``."""
        rules = tuple(
            Rule(propositions=tuple(b), weight=float(w)) for b, w in zip(bodies, beta[1:])
        )
        ensemble = RuleEnsemble(
            intercept=float(beta[0]), rules=rules, task=task, standardizer=standardizer
        )
        return cls(ensemble=ensemble, train_risk=train_risk, complexity=ensemble.complexity())


@dataclass(frozen=True, eq=False)
class FitTrace:
    """Nested sequence of ensembles with 0..r rules produced by one fit call."""

    stages: tuple[FitStage, ...]
    wall_time_seconds: float

    def __post_init__(self):
        stages = tuple(self.stages)
        if len(stages) == 0:
            raise ValueError("a trace holds at least the intercept-only stage")
        for m, stage in enumerate(stages):
            if stage.ensemble.n_rules != m:
                raise ValueError(f"stage {m} must hold an ensemble with {m} rules")
        object.__setattr__(self, "stages", stages)

    @property
    def final(self) -> RuleEnsemble:
        return self.stages[-1].ensemble
