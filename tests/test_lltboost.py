"""Tests for the oblique-rule boosting learner."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliquerules import lltboost, sparse_logreg
from obliquerules.core import SparseProposition
from obliquerules.datasets import make_oblique, make_rotated_box, make_staircase
from obliquerules.losses import LossKind, loss
from obliquerules.lltboost import (
    LLTConfig,
    _validation_split,
    fit,
    fit_conjunction,
    fit_proposition,
)


def random_proposition(rng, d):
    k = int(rng.integers(1, min(4, d) + 1))
    idx = np.sort(rng.choice(d, size=k, replace=False))
    w = rng.normal(size=k)
    w[w == 0] = 1.0
    return SparseProposition(
        indices=tuple(int(i) for i in idx),
        weights=tuple(float(v) for v in w),
        threshold=float(rng.normal()),
    )


# ---------------------------------------------------------------------------
# the objective / weighted-risk decomposition
# ---------------------------------------------------------------------------


def test_gradient_sum_decomposition_identity():
    # for any 0/1 cover q and either sign,  sgn * <g, q>  plus the
    # |g|-weighted 0/1 risk of q against labels 1{sgn*g >= 0} equals the
    # constant  sum of sgn*g over the rows with sgn*g >= 0
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        d = int(rng.integers(1, 8))
        X = rng.normal(size=(n, d))
        g = rng.normal(size=n) * rng.choice([0.0, 1.0, 1.0], size=n)
        prop = random_proposition(rng, d)
        q = prop.activations(X)
        for sgn in (1.0, -1.0):
            z = (sgn * g >= 0).astype(float)
            risk01 = float(np.abs(g)[(q >= 0.5) != (z >= 0.5)].sum())
            lhs = sgn * float(g @ q) + risk01
            const = float(np.sum((sgn * g)[sgn * g >= 0]))
            assert abs(lhs - const) <= 1e-9


# ---------------------------------------------------------------------------
# fit_proposition
# ---------------------------------------------------------------------------


def test_single_feature_threshold_recovery():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    g = np.array([-1.0, -1.0, 2.0, 2.0])
    cfg = LLTConfig(max_nonzeros=3)
    active = np.arange(4)
    prop, _ = fit_proposition(active, X, g, cfg, active)
    assert prop.indices == (0,)
    assert prop.weights[0] > 0
    assert np.array_equal(prop.activations(X), [0.0, 0.0, 1.0, 1.0])


def test_sign_tie_prefers_positive_direction():
    # both directions reach objective 2; the positive labeling wins the tie
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    cfg = LLTConfig()
    active = np.arange(4)
    prop, _ = fit_proposition(active, X, g, cfg, active)
    assert prop.weights[0] > 0  # covers the positive-gradient rows


def test_oblique_beats_axis_aligned():
    # no single-feature threshold separates the gradient signs, but the
    # direction x1 + x2 does; the two-feature candidate must win
    X = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
    g = np.array([1.0, 1.0, -1.0, -1.0])
    cfg = LLTConfig(max_nonzeros=2)
    active = np.arange(4)
    prop, _ = fit_proposition(active, X, g, cfg, active)
    assert prop.nnz == 2
    assert np.array_equal(prop.activations(X), [1.0, 1.0, 0.0, 0.0])


def test_single_active_example_gets_covered():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    g = rng.normal(size=30)
    g[17] = 2.5
    cfg = LLTConfig()
    prop, _ = fit_proposition(np.array([17]), X, g, cfg, np.array([], dtype=int))
    assert prop.activations(X[17])[0] == 1


def _no_path(problem):
    raise AssertionError("an L1 path was built for gradients of one sign")


def test_zero_gradients_yield_no_proposition(monkeypatch):
    monkeypatch.setattr(lltboost, "LambdaPath", _no_path)
    X = np.random.default_rng(0).normal(size=(10, 3))
    cfg = LLTConfig()
    active = np.arange(10)
    assert fit_proposition(active, X, np.zeros(10), cfg, active) is None


@pytest.mark.parametrize("light", [5e-13, lltboost.OBJECTIVE_TOLERANCE])
@pytest.mark.parametrize("heavy_sign", [1.0, -1.0])
def test_a_sign_of_rounding_level_mass_takes_the_one_sign_shortcut(monkeypatch, light,
                                                                  heavy_sign):
    # the lighter sign sums to at most the tolerance: there is nothing to
    # separate, so no L1 path is built and every active row is covered
    monkeypatch.setattr(lltboost, "LambdaPath", _no_path)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 4))
    g = heavy_sign * rng.uniform(0.5, 1.0, size=60)
    g[[4, 10]] = -heavy_sign * light / 2  # two active halves sum to ``light`` exactly
    active, validation = np.arange(0, 60, 2), np.arange(1, 60, 2)
    prop, cover = fit_proposition(active, X, g, LLTConfig(), validation)
    assert cover[active].all()
    assert np.array_equal(cover, prop.activations(X))


def test_nonzero_budget_respected(monkeypatch):
    monkeypatch.setattr(lltboost, "SPARSITY_ACCEPT_DELTA", 0.0)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 8))
        g = rng.normal(size=60)
        cfg = LLTConfig(max_nonzeros=2)
        active = np.arange(60)
        found = fit_proposition(active, X, g, cfg, active)
        if found is not None:
            assert found[0].nnz <= 2


def test_the_sparsity_margin_is_a_module_constant_not_a_setting(monkeypatch):
    assert lltboost.SPARSITY_ACCEPT_DELTA == 0.01
    with pytest.raises(TypeError):
        LLTConfig(sparsity_accept_delta=0.1)
    # x1 + 0.8 x2 separates the gradient signs and no single feature does, so
    # only the margin that fit_proposition reads keeps the two-feature level out
    X = np.random.default_rng(0).normal(size=(40, 2))
    g = np.where(X[:, 0] + 0.8 * X[:, 1] >= 0, 1.0, -1.0)
    active = np.arange(40)
    assert fit_proposition(active, X, g, LLTConfig(max_nonzeros=2), active)[0].nnz == 2
    monkeypatch.setattr(lltboost, "SPARSITY_ACCEPT_DELTA", float("inf"))
    assert fit_proposition(active, X, g, LLTConfig(max_nonzeros=2), active)[0].nnz == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(1, 4), st.integers(1, 3),
       st.sampled_from([0.0, 0.01, 0.5]))
def test_a_proposition_always_covers_an_active_row(seed, n, d, max_nonzeros, delta):
    # rounded features tie rows, and some gradients are 0; validation rows are
    # the rest of the sample, possibly none
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)), 1)
    g = rng.normal(size=n) * (rng.random(n) < 0.8)
    inside = rng.random(n) < 0.7
    active, validation = np.flatnonzero(inside), np.flatnonzero(~inside)
    cfg = LLTConfig(max_nonzeros=max_nonzeros)
    with mock.patch.object(lltboost, "SPARSITY_ACCEPT_DELTA", delta):
        found = fit_proposition(active, X, g, cfg, validation)
    if found is not None:
        prop, cover = found
        assert prop.activations(X[active]).any()
        assert np.array_equal(cover, prop.activations(X))


# ---------------------------------------------------------------------------
# fit_conjunction
# ---------------------------------------------------------------------------


def test_conjunction_objective_strictly_improves():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(120, 5))
    g = rng.normal(size=120)
    cfg = LLTConfig(max_propositions=4)
    active = np.arange(120)
    body = fit_conjunction(X, g, cfg, active, active)
    assert body is not None
    assert 1 <= len(body) <= 4
    # replaying the covers must show strictly increasing objective
    rows = np.arange(120)
    prev = 0.0
    for prop in body:
        rows = rows[prop.activations(X[rows]) >= 0.5]
        obj = abs(g[rows].sum())
        assert obj > prev
        prev = obj


def test_conjunction_none_for_zero_gradient():
    X = np.random.default_rng(1).normal(size=(15, 3))
    cfg = LLTConfig()
    active = np.arange(15)
    assert fit_conjunction(X, np.zeros(15), cfg, active, active) is None


def test_conjunction_evaluates_each_candidate_once(monkeypatch):
    # each candidate the L1 path yields is evaluated once, over all rows; that
    # cover gives the validation risk, the objective and the narrowed rows
    rng = np.random.default_rng(7)
    X = rng.normal(size=(120, 5))
    g = rng.normal(size=120)
    from_dense, activations = SparseProposition.from_dense.__func__, SparseProposition.activations
    produced, evaluated, found = [], [], []

    def counted_from_dense(cls, w, threshold):
        produced.append(from_dense(cls, w, threshold))
        return produced[-1]

    def counted_activations(prop, Z):
        evaluated.append(prop)
        return activations(prop, Z)

    def recorded(*args):
        found.append(fit_proposition(*args))
        return found[-1]

    monkeypatch.setattr(SparseProposition, "from_dense", classmethod(counted_from_dense))
    monkeypatch.setattr(SparseProposition, "activations", counted_activations)
    monkeypatch.setattr(lltboost, "fit_proposition", recorded)
    body = fit_conjunction(X, g, LLTConfig(max_propositions=4), np.arange(90),
                           np.arange(90, 120))
    monkeypatch.undo()
    assert body is not None and len(produced) > len(found) > 1
    assert [id(p) for p in evaluated] == [id(p) for p in produced]
    for prop, cover in filter(None, found):
        assert np.array_equal(cover, prop.activations(X))


# ---------------------------------------------------------------------------
# validation split
# ---------------------------------------------------------------------------


def test_split_partitions_rows():
    y = (np.arange(40) % 2).astype(float)
    fit_idx, val_idx = _validation_split(40, y, True, 0.25, 3)
    assert np.array_equal(np.sort(np.concatenate([fit_idx, val_idx])), np.arange(40))
    assert val_idx.size == 10
    # stratified: both classes appear proportionally
    assert (y[val_idx] == 1).sum() == 5


def test_split_deterministic_and_y_independent_for_regression():
    y1 = np.random.default_rng(0).normal(size=50)
    y2 = np.random.default_rng(99).normal(size=50)
    a = _validation_split(50, y1, False, 0.2, 7)
    b = _validation_split(50, y2, False, 0.2, 7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_split_keeps_two_fit_rows():
    fit_idx, val_idx = _validation_split(3, np.zeros(3), False, 0.9, 0)
    assert fit_idx.size >= 2
    assert fit_idx.size + val_idx.size == 3


def reference_split(y, stratify, fraction, seed):
    """(fit, val) of slices of seeded permutations: per class in class order if
    ``stratify``, else of all rows; then rows move from the end of fit to val
    while val is empty and fit has more than 2, and back while fit has fewer."""
    rng = np.random.default_rng(seed)
    if stratify:
        zeros, ones = np.flatnonzero(y == 0), np.flatnonzero(y == 1)
        zeros, ones = zeros[rng.permutation(zeros.size)], ones[rng.permutation(ones.size)]
        k0, k1 = round(fraction * zeros.size), round(fraction * ones.size)
        val = zeros[:k0].tolist() + ones[:k1].tolist()
        fit = zeros[k0:].tolist() + ones[k1:].tolist()
    else:
        perm = rng.permutation(y.size)
        k = round(fraction * y.size)
        val, fit = perm[:k].tolist(), perm[k:].tolist()
    while not val and len(fit) > 2:
        val.append(fit.pop())
    while len(fit) < 2 and val:
        fit.append(val.pop())
    return sorted(fit), sorted(val)


@pytest.mark.parametrize("y, stratify, fraction, seed, moved", [
    ((np.arange(40) % 2).astype(float), True, 0.25, 3, False),
    ((np.arange(30) < 7).astype(float), True, 0.25, 11, False),
    (np.random.default_rng(0).normal(size=50), False, 0.2, 7, False),
    (np.zeros(120), False, 0.25, 0, False),
    (np.zeros(4), False, 0.1, 5, True),  # no row rounds into val: one moves there
    (np.array([0.0, 1.0, 0.0]), True, 0.1, 2, True),
    (np.zeros(3), False, 0.9, 0, True),  # every row rounds into val: two move back
    (np.array([0.0, 1.0]), True, 0.9, 4, True),
    (np.ones(2), True, 0.5, 1, True),
], ids=["stratified-balanced", "stratified-skewed", "plain", "plain-large",
        "plain-empty-val", "stratified-empty-val", "plain-short-fit",
        "stratified-short-fit", "one-class-short-fit"])
def test_split_returns_the_rows_of_seeded_permutation_slices(y, stratify, fraction, seed, moved):
    fit_idx, val_idx = _validation_split(y.size, y, stratify, fraction, seed)
    want_fit, want_val = reference_split(y, stratify, fraction, seed)
    assert fit_idx.tolist() == want_fit and val_idx.tolist() == want_val
    rounded = sum(round(fraction * np.sum(y == c)) for c in (0.0, 1.0)) if stratify \
        else round(fraction * y.size)
    assert (val_idx.size != rounded) == moved  # the edge loops ran where they should


# ---------------------------------------------------------------------------
# full fit
# ---------------------------------------------------------------------------


def make_classification(seed, n=150, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.7 * X[:, 1] - 0.4 * X[:, 2] + 0.5 * rng.normal(size=n) > 0)
    return X, y.astype(float)


def make_regression(seed, n=150, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = 2.0 * (X[:, 0] > 0.2) - 1.5 * (X[:, 1] + X[:, 2] > 0) + 0.1 * rng.normal(size=n)
    return X, y


@pytest.mark.parametrize("maker,kind", [
    (make_classification, LossKind.LOGISTIC),
    (make_regression, LossKind.SQUARED),
])
def test_train_risk_never_increases(maker, kind):
    for seed in range(5):
        X, y = maker(seed)
        trace = fit(X, y, LLTConfig(max_rules=6, loss=kind, seed=seed))
        risks = [st.train_risk for st in trace.stages]
        for a, b in zip(risks, risks[1:]):
            assert b <= a + 1e-9


@pytest.mark.parametrize("make", [make_oblique, make_rotated_box, make_staircase])
@pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.SQUARED])
def test_fit_is_invariant_to_positive_per_feature_affine_rescaling(make, kind):
    # the fit standardizes X' = a * X + c (a > 0) to Z up to a few ulps, and
    # those ulps flip no cover here, so every stage keeps its train risk and
    # complexity exactly and the final model scores its own rows bit for bit
    data = make(n=250, d=4, seed=7)
    rng = np.random.default_rng(11)
    a = 10.0 ** rng.uniform(-3, 3, size=4)
    c = rng.uniform(-5, 5, size=4)
    inputs = (data.X, a * data.X + c)
    traces = [fit(X, data.y, LLTConfig(max_rules=5, loss=kind, seed=3)) for X in inputs]
    stages = [[(s.train_risk, s.complexity) for s in trace.stages] for trace in traces]
    assert stages[0] == stages[1]
    scores = [trace.final.decision_function(X) for trace, X in zip(traces, inputs)]
    assert np.array_equal(scores[0], scores[1])


def test_direct_fit_on_20000_rows_keeps_risk_monotone_and_converges(monkeypatch):
    # forty times the protocol's 500-row bootstrap cap
    data = make_oblique(n=20000, d=6, seed=0)
    solves = []
    solve = sparse_logreg.fit_weighted_l1

    def checked(problem, lam, *args, **kwargs):
        sol = solve(problem, lam, *args, **kwargs)
        tol = sparse_logreg.KKT_TOL * min(1.0, problem.lam_max)
        solves.append((sol.converged, sparse_logreg.kkt_residual(
            problem, lam, sol.weights, sol.intercept) <= tol))
        return sol

    monkeypatch.setattr(sparse_logreg, "fit_weighted_l1", checked)
    trace = fit(data.X, data.y, LLTConfig())
    risks = [st.train_risk for st in trace.stages]
    assert len(risks) == 11
    assert all(b <= a for a, b in zip(risks, risks[1:]))
    assert solves and all(converged and kkt_met for converged, kkt_met in solves)


def test_noise_free_fit_solves_no_l1_problem_of_a_weightless_sign(monkeypatch):
    # on this fixture some fit_proposition calls meet active rows whose
    # negative gradients sum to about 1e-12; an L1 problem weighted so cannot
    # meet its KKT tolerance, and its solves run to MAX_ITER unconverged
    data = make_oblique(n=500, d=6, noise=0.0, seed=1)
    unconverged = []
    solve = sparse_logreg.fit_weighted_l1

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        unconverged.append(not sol.converged)
        return sol

    monkeypatch.setattr(sparse_logreg, "fit_weighted_l1", counted)
    fit(data.X, data.y, LLTConfig())
    assert unconverged and sum(unconverged) == 0


def test_trace_structure():
    X, y = make_classification(3)
    trace = fit(X, y, LLTConfig(max_rules=4))
    for m, st in enumerate(trace.stages):
        assert len(st.ensemble.rules) == m
    comps = [st.complexity for st in trace.stages]
    assert all(b > a for a, b in zip(comps, comps[1:]))
    assert trace.wall_time_seconds > 0


def test_fit_learns_the_signal():
    X, y = make_classification(12, n=300)
    trace = fit(X, y, LLTConfig(max_rules=5, seed=0))
    acc = float((trace.final.predict(X) == y).mean())
    assert acc >= 0.85


def test_regression_fit_reduces_risk_substantially():
    X, y = make_regression(8, n=300)
    trace = fit(X, y, LLTConfig(max_rules=8, loss=LossKind.SQUARED, seed=0))
    assert trace.stages[-1].train_risk < 0.3 * trace.stages[0].train_risk


def test_fit_is_deterministic():
    X, y = make_classification(21)
    cfg = LLTConfig(max_rules=4, seed=13)
    t1 = fit(X, y, cfg)
    t2 = fit(X, y, cfg)
    assert len(t1.stages) == len(t2.stages)
    for a, b in zip(t1.stages, t2.stages):
        assert a.train_risk == b.train_risk
        assert a.ensemble.intercept == b.ensemble.intercept
        for ra, rb in zip(a.ensemble.rules, b.ensemble.rules):
            assert ra.weight == rb.weight
            assert ra.propositions == rb.propositions


def test_validation_targets_do_not_leak_into_fit():
    # with a single-nonzero budget the held-out rows only ever feed the
    # (inert) sparsity gate, so shuffling their targets must not change
    # anything: the split is target-independent for regression and the
    # refits only see the fit rows
    rng = np.random.default_rng(30)
    X, y = make_regression(30, n=120)
    cfg = LLTConfig(max_rules=4, max_nonzeros=1, loss=LossKind.SQUARED, seed=9)
    _, val_idx = _validation_split(120, y, False, cfg.validation_fraction, cfg.seed)
    y_shuffled = y.copy()
    y_shuffled[val_idx] = y[rng.permutation(val_idx)]
    t1 = fit(X, y, cfg)
    t2 = fit(X, y_shuffled, cfg)
    assert len(t1.stages) == len(t2.stages)
    for a, b in zip(t1.stages, t2.stages):
        assert a.ensemble.intercept == b.ensemble.intercept
        for ra, rb in zip(a.ensemble.rules, b.ensemble.rules):
            assert ra.weight == rb.weight
            assert ra.propositions == rb.propositions


def test_constant_regression_target_stops_immediately():
    X = np.random.default_rng(2).normal(size=(40, 3))
    y = np.full(40, 1.7)
    trace = fit(X, y, LLTConfig(loss=LossKind.SQUARED))
    assert len(trace.stages) - 1 == 0
    assert trace.final.intercept == pytest.approx(1.7)


def test_single_class_classification_runs():
    X = np.random.default_rng(4).normal(size=(40, 3))
    y = np.ones(40)
    trace = fit(X, y, LLTConfig(max_rules=2))
    risks = [st.train_risk for st in trace.stages]
    for a, b in zip(risks, risks[1:]):
        assert b <= a + 1e-9
    assert np.all(trace.final.predict(X) == 1)


def test_input_validation():
    X = np.zeros((10, 2))
    with pytest.raises(ValueError):
        fit(X, np.zeros(9), LLTConfig())
    with pytest.raises(ValueError):
        fit(np.array([[np.nan, 0.0]] * 4), np.zeros(4), LLTConfig(loss=LossKind.SQUARED))
    with pytest.raises(ValueError):
        fit(X[:1], np.zeros(1), LLTConfig(loss=LossKind.SQUARED))
    with pytest.raises(ValueError):
        fit(X, np.arange(10.0), LLTConfig(loss=LossKind.LOGISTIC))
    with pytest.raises(ValueError):
        fit(X, np.zeros(10), LLTConfig(loss=LossKind.ZERO_ONE))


def test_config_validation():
    with pytest.raises(ValueError):
        LLTConfig(max_rules=0)
    with pytest.raises(ValueError):
        LLTConfig(validation_fraction=0.0)
    with pytest.raises(ValueError):
        LLTConfig(validation_fraction=1.0)
    with pytest.raises(ValueError, match="seed"):
        LLTConfig(seed=-1)


@pytest.mark.parametrize("field", ["max_rules", "max_propositions", "max_nonzeros", "seed"])
@pytest.mark.parametrize("value", [1.5, True, 2.0, "2"])
def test_config_rejects_non_integer_counts_and_seed(field, value):
    with pytest.raises(ValueError, match=field):
        LLTConfig(**{field: value})
