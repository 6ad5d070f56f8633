import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obliquerules
from obliquerules import LLTConfig, TGBConfig, core, fit_lltboost, fit_tgb
from obliquerules.core import (
    FitStage,
    FitTrace,
    Rule,
    RuleEnsemble,
    SparseProposition,
    Standardizer,
    Task,
    conjunction_cover,
    score_ensembles,
)
from obliquerules.datasets import make_oblique

seed = 42


def make_prop(indices, weights, threshold):
    return SparseProposition(indices=indices, weights=weights, threshold=threshold)


def fires(propositions, x) -> int:
    """1 if every one of ``propositions`` holds at the single row ``x``, else 0."""
    return int(conjunction_cover(propositions, [x])[0])


# ---------------------------------------------------------------------------
# propositions
# ---------------------------------------------------------------------------


def test_oblique_proposition_fires_on_inclusive_boundary():
    p = make_prop((0, 1), (1.0, 1.0), 0.0)
    assert fires((p,), [0.5, -0.5]) == 1  # exactly on the boundary
    assert fires((p,), [0.5, -0.4]) == 1
    assert fires((p,), [0.5, -0.6]) == 0


def test_single_feature_ge_threshold():
    p = make_prop((2,), (1.0,), 1.5)
    assert fires((p,), [9.0, 9.0, 1.5]) == 1
    assert fires((p,), [9.0, 9.0, 1.4999]) == 0


def test_le_condition_via_negated_weight():
    # x_0 <= 2.0  is encoded as  -x_0 >= -2.0
    p = make_prop((0,), (-1.0,), -2.0)
    assert fires((p,), [2.0]) == 1
    assert fires((p,), [1.0]) == 1
    assert fires((p,), [2.0001]) == 0


def test_proposition_rejects_empty_and_zero_weights():
    with pytest.raises(ValueError):
        SparseProposition(indices=(), weights=(), threshold=0.0)
    with pytest.raises(ValueError):
        make_prop((0, 1), (1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        make_prop((1, 0), (1.0, 1.0), 0.0)  # indices must increase
    with pytest.raises(ValueError):
        make_prop((0, 0), (1.0, 1.0), 0.0)


def test_proposition_dimension_mismatch():
    p = make_prop((3,), (1.0,), 0.0)
    with pytest.raises(ValueError, match="feature"):
        p.activations([1.0, 2.0])
    with pytest.raises(ValueError):
        p.activations(np.zeros((4, 2)))


def test_from_dense_drops_exact_zeros():
    p = SparseProposition.from_dense([0.0, -0.5, 0.0, 2.0], threshold=1.0)
    assert list(p.indices) == [1, 3]
    assert list(p.weights) == [-0.5, 2.0]
    assert p.nnz == 2


@pytest.mark.parametrize("indices, weights, threshold", [
    ((), (), 0.0), ((0, 1), (1.0, 0.0), 0.0), ((0, 1), (1.0, np.nan), 0.0),
    ((0, 1), (-np.inf, 1.0), 0.0), ((1, 0), (1.0, 1.0), 0.0), ((0, 0), (1.0, 1.0), 0.0),
    ((-1,), (1.0,), 0.0), ((0, 1), (1.0,), 0.0), ((0,), (1.0,), np.nan), ((0,), (1.0,), np.inf),
], ids=["empty", "zero-weight", "nan-weight", "inf-weight", "decreasing", "repeated",
        "negative-index", "length-mismatch", "nan-threshold", "inf-threshold"])
def test_proposition_rejects_each_invalid_field(indices, weights, threshold):
    with pytest.raises(ValueError):
        SparseProposition(indices=indices, weights=weights, threshold=threshold)


@pytest.mark.parametrize("w, threshold", [
    ([0.0, -0.0], 0.5), ([0.0, np.nan], 0.5), ([np.inf, 1.0], 0.5), ([1.0, 0.0], np.nan),
    ([1.0, 0.0], -np.inf), ([[1.0, 0.0]], 0.5),
], ids=["empty", "nan-weight", "inf-weight", "nan-threshold", "inf-threshold", "2-d"])
def test_from_dense_rejects_what_the_constructor_rejects(w, threshold):
    with pytest.raises(ValueError):
        SparseProposition.from_dense(w, threshold)


@pytest.mark.parametrize("fit, cfg", [
    (fit_lltboost, LLTConfig(max_rules=4, seed=0)),
    (fit_tgb, TGBConfig(max_rules=4, reg_strength=1.0)),
])
def test_fit_built_propositions_equal_validated_ones(fit, cfg, monkeypatch):
    built = []
    trusted = SparseProposition._trusted
    monkeypatch.setattr(SparseProposition, "_trusted",
                        staticmethod(lambda *fields: built.append(trusted(*fields)) or built[-1]))
    data = make_oblique(n=300, d=6, seed=1)
    trace = fit(data.X, data.y, cfg)
    kept = [p for rule in trace.final.rules for p in rule.propositions]
    assert built and kept
    for p in built + kept:
        checked = SparseProposition(p.indices, p.weights, p.threshold)
        assert p == checked and hash(p) == hash(checked)
        assert p.indices.dtype == np.int64 and np.all(np.diff(p.indices) > 0)
        assert p.weights.dtype == np.float64 and type(p.threshold) is float
        assert not p.indices.flags.writeable and not p.weights.flags.writeable


# ---------------------------------------------------------------------------
# rules / conjunctions
# ---------------------------------------------------------------------------


def test_conjunction_requires_all_propositions():
    q = Rule(
        propositions=(make_prop((0,), (1.0,), 0.0), make_prop((1,), (-1.0,), -1.0)),
        weight=1.0,
    )
    assert fires(q.propositions, [0.5, 0.5]) == 1  # x0 >= 0 and x1 <= 1
    assert fires(q.propositions, [-0.5, 0.5]) == 0
    assert fires(q.propositions, [0.5, 1.5]) == 0


def test_rule_rejects_empty_body():
    with pytest.raises(ValueError):
        Rule(propositions=(), weight=1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_conjunction_equals_product_of_propositions(s):
    rng = np.random.default_rng(s)
    X = rng.normal(size=(20, 4))
    props = []
    for _ in range(rng.integers(1, 4)):
        k = int(rng.integers(1, 4))
        idx = np.sort(rng.choice(4, size=k, replace=False))
        w = rng.normal(size=k)
        w[w == 0] = 1.0
        props.append(SparseProposition(indices=idx, weights=w, threshold=rng.normal()))
    rule = Rule(propositions=tuple(props), weight=1.0)
    expected = np.prod([p.activations(X) for p in props], axis=0)
    assert np.array_equal(conjunction_cover(rule.propositions, X), expected)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def identity_ensemble(rules, intercept=0.0, task=Task.REGRESSION, d=3):
    return RuleEnsemble(
        intercept=intercept,
        rules=tuple(rules),
        task=task,
        standardizer=Standardizer(np.zeros(d), np.ones(d)),
    )


def test_empty_ensemble_predicts_intercept():
    f = identity_ensemble((), intercept=0.25)
    assert f.decision_function([1.0, 2.0, 3.0]) == 0.25
    assert f.complexity() == 0


def test_single_rule_score():
    rule = Rule(propositions=(make_prop((0,), (1.0,), 0.0),), weight=2.0)
    f = identity_ensemble((rule,), intercept=0.1)
    assert f.decision_function([1.0, 0.0, 0.0]) == pytest.approx(2.1)
    assert f.decision_function([-1.0, 0.0, 0.0]) == pytest.approx(0.1)


def test_classification_label_steps_at_zero():
    rule = Rule(propositions=(make_prop((0,), (1.0,), 0.0),), weight=-1.0)
    f = identity_ensemble((rule,), intercept=0.0, task=Task.CLASSIFICATION)
    # score 0 on the boundary -> class 1
    assert f.predict(np.array([[-1.0, 0, 0], [1.0, 0, 0]])).tolist() == [1, 0]


def test_standardizer_applied_before_rules():
    std = Standardizer(mean=np.array([10.0]), scale=np.array([2.0]))
    rule = Rule(propositions=(make_prop((0,), (1.0,), 0.0),), weight=1.0)
    f = RuleEnsemble(intercept=0.0, rules=(rule,), task=Task.REGRESSION, standardizer=std)
    assert f.decision_function([12.0]) == 1.0  # (12-10)/2 = 1 >= 0
    assert f.decision_function([8.0]) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-5, 5), st.floats(-3, 3))
def test_score_is_linear_in_weights(s, beta0, beta1):
    rng = np.random.default_rng(s)
    X = rng.normal(size=(15, 3))
    p = SparseProposition(indices=(0, 2), weights=(1.0, -1.0), threshold=0.1)
    rule = Rule(propositions=(p,), weight=beta1)
    f = identity_ensemble((rule,), intercept=beta0)
    q = p.activations(X)
    assert np.allclose(f.decision_function(X), beta0 + beta1 * q)


# ---------------------------------------------------------------------------
# batch scoring
# ---------------------------------------------------------------------------


def reference_scores(ensemble, X):
    """``intercept + sum_i weight_i * cover_i`` over ``transform(X)``, rule by rule."""
    Z = ensemble.standardizer.transform(X)
    score = np.full(Z.shape[0], ensemble.intercept)
    for rule in ensemble.rules:
        score += rule.weight * conjunction_cover(rule.propositions, Z)
    return score


def random_stages(rng, d):
    """Ensembles of 0..r rules under one standardizer, as the stages of a trace:
    stage m holds the first m rule bodies, refitted weights of either sign.
    Bodies draw from a small pool, so propositions repeat within and across
    bodies.  The pool's general propositions read only some of the ``d``
    columns; its ``tgb``-style ones (one feature, weight +-1) read any, so a
    column may be read by one-feature conditions only, by wider ones only,
    or by both.  The first proposition named, if any, reads the last column,
    so a call that reads two or more columns names them out of feature order."""
    std = Standardizer(rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
    columns = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
    pool = [SparseProposition(indices=(d - 1,), weights=(float(rng.choice([-1.0, 1.0])),),
                              threshold=0.5 * rng.normal())]
    for _ in range(int(rng.integers(1, 6))):
        if rng.random() < 0.4:
            idx, w = [int(rng.integers(d))], [float(rng.choice([-1.0, 1.0]))]
        else:
            k = int(rng.integers(1, columns.size + 1))
            w = rng.normal(size=k)
            w[w == 0] = 1.0
            idx = np.sort(rng.choice(columns, size=k, replace=False))
        pool.append(SparseProposition(indices=idx, weights=w, threshold=0.5 * rng.normal()))
    bodies = [tuple(pool[i] for i in rng.choice(len(pool), size=int(rng.integers(1, 4))))
              for _ in range(int(rng.integers(0, 6)))]
    if bodies:
        bodies[0] = (pool[0],) + bodies[0][1:]
    stages = [
        RuleEnsemble(
            intercept=rng.normal(),
            rules=tuple(Rule(propositions=b, weight=rng.normal()) for b in bodies[:m]),
            task=Task.REGRESSION,
            standardizer=std,
        )
        for m in range(len(bodies) + 1)
    ]
    return stages, pool


def cut_sides(n):
    """``CUT_MIN_ROWS`` values that put a call of ``n`` rows on each side: one-feature
    conditions compared with cuts, then every condition projected."""
    return (n, n + 1)


def check_scoring_matches_reference(s):
    rng = np.random.default_rng(s)
    d = int(rng.integers(1, 9))
    stages, pool = random_stages(rng, d)
    X = rng.normal(size=(int(rng.integers(1, 200)), d)) * 1.5 + 0.5
    for least in cut_sides(X.shape[0]):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "CUT_MIN_ROWS", least)
            for got, ensemble in zip(score_ensembles(stages, X), stages):
                assert np.array_equal(got, reference_scores(ensemble, X))
    for least in cut_sides(1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "CUT_MIN_ROWS", least)
            for got, ensemble in zip(score_ensembles(stages, X[0]), stages):
                assert np.ndim(got) == 0
                assert got == reference_scores(ensemble, X[:1])[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_batch_scoring_is_bit_equal_to_rule_by_rule_reference(s):
    check_scoring_matches_reference(s)


def on_hyperplanes(rng, pool, std, n_per):
    """Raw rows whose standardized images lie on the hyperplane of each
    proposition of ``pool``, where rounding decides the cover."""
    rows = []
    for p in pool:
        Z = rng.normal(size=(n_per, std.n_features))
        w = np.zeros(std.n_features)
        w[p.indices] = p.weights
        rows.append((Z + np.outer(p.threshold - Z @ w, w / (w @ w))) * std.scale + std.mean)
    return np.vstack(rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_row_on_a_hyperplane_scores_alone_as_in_its_batch(s):
    rng = np.random.default_rng(s)
    d = int(rng.integers(2, 12))
    stages, pool = random_stages(rng, d)
    final = stages[-1]
    X = on_hyperplanes(rng, pool, final.standardizer, n_per=int(rng.integers(1, 40)))
    assert np.array_equal(final.decision_function(X), reference_scores(final, X))
    for least in (0, X.shape[0] + 1):  # every call with cuts, then every call without
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "CUT_MIN_ROWS", least)
            batch = final.decision_function(X)
            assert np.array_equal(final.decision_function(np.asfortranarray(X)), batch)
            for i in range(X.shape[0]):
                assert final.decision_function(X[i]) == batch[i]
                assert final.decision_function(X[i:i + 1])[0] == batch[i]
    # the fitting side sees the same covers as scoring
    Z = final.standardizer.transform(X)
    for p in pool:
        assert np.array_equal(
            p.activations(Z), [p.activations(Z[i])[0] for i in range(Z.shape[0])])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_block_size_scores_the_reference_bits(s):
    rng = np.random.default_rng(s)
    d = int(rng.integers(1, 9))
    ensembles, pool = random_stages(rng, d)
    other, _ = random_stages(rng, d)
    std = ensembles[0].standardizer
    # an equal standardizer held by a distinct object shares the first one's slots
    twin = Standardizer(std.mean.copy(), std.scale.copy())
    ensembles += other + [RuleEnsemble(e.intercept, e.rules, e.task, twin) for e in ensembles]
    n = int(rng.integers(2, 60))
    X = rng.normal(size=(n, d)) * 1.5 + 0.5
    X = np.vstack([X, on_hyperplanes(rng, pool, std, n_per=3)])
    n = X.shape[0]
    expected = [reference_scores(e, X) for e in ensembles]
    # the bits depend on no layout of X: C and Fortran order, strided columns, reversed rows
    layouts = [(X, expected), (np.asfortranarray(X), expected),
               (np.repeat(X, 2, axis=1)[:, ::2], expected), (X[::-1], [e[::-1] for e in expected])]
    for block, least in zip((1, 7, n - 1, n, n + 1), (1, n + 1, n, 0, n + 1)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "SCORE_BLOCK_ROWS", block)
            # the batch has cuts at least 1, n and 0, the single rows at 1 and 0
            patch.setattr(core, "CUT_MIN_ROWS", least)
            for layout, want in layouts:
                got = score_ensembles(ensembles, layout)
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            for g, e in zip(score_ensembles(ensembles, X[-1]), ensembles):
                assert np.ndim(g) == 0
                assert np.float64(g).tobytes() == reference_scores(e, X[-1:]).tobytes()


finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
one_feature_conditions = st.tuples(
    finite,  # mean
    st.floats(5e-324, 1e300) | st.sampled_from([5e-324, 1e-300, 1.0, 1e300]),  # scale
    st.sampled_from([1.0, -1.0]) | finite.filter(lambda w: w != 0.0),  # weight
    finite,  # threshold
)


@settings(max_examples=300, deadline=None)
@given(st.lists(one_feature_conditions, min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_a_cut_decides_each_row_as_its_standardized_condition(conditions, s):
    mean, scale, weight, threshold = map(np.array, zip(*conditions))
    cuts = core._cuts(mean, scale, weight, threshold)
    rng = np.random.default_rng(s)
    for m, sc, w, t, cut in zip(mean, scale, weight, threshold, cuts):
        spread = 10.0 ** rng.uniform(-3, 3, size=20)
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.concatenate([
                [cut, np.nextafter(cut, -np.inf), np.nextafter(cut, np.inf),
                 0.0, -0.0, np.inf, -np.inf, np.nan],
                m + sc * t / w + sc * spread * rng.normal(size=20),  # near the boundary
                rng.normal(size=20) * 10.0 ** rng.uniform(-320, 300, size=20),
            ])
            standardized = (x - m) / sc * w >= t  # transform, then project
        raw = x >= cut if w > 0 else x <= cut
        assert np.array_equal(raw, standardized), (m, sc, w, t, cut)


@pytest.mark.parametrize("side", ["below", "at"])
def test_the_row_count_decides_whether_a_call_searches_cuts(side, monkeypatch):
    searches = []
    search = core._cuts
    monkeypatch.setattr(core, "_cuts", lambda *a: searches.append(a) or search(*a))
    rng = np.random.default_rng(3)
    stages, _ = random_stages(rng, 6)
    rules = [Rule(propositions=(make_prop((j,), (w,), 0.3 * j - 0.5),), weight=1.0 + j)
             for j, w in enumerate((1.0, -1.0, 0.5, -2.0))]
    rules.append(Rule(propositions=(make_prop((0, 4), (1.0, -0.5), 0.1),), weight=-1.5))
    ensemble = RuleEnsemble(0.2, tuple(rules), Task.REGRESSION, stages[0].standardizer)
    n = core.CUT_MIN_ROWS - (side == "below")
    X = rng.normal(size=(n, 6)) * 1.5 + 0.5
    assert np.array_equal(ensemble.decision_function(X), reference_scores(ensemble, X))
    assert len(searches) == (side == "at")


@pytest.mark.parametrize("fit, cfg", [
    (fit_lltboost, LLTConfig(max_rules=5, seed=0)),
    (fit_tgb, TGBConfig(max_rules=6, reg_strength=1.0)),
])
def test_staged_scores_equal_each_stages_own_decision_function(fit, cfg):
    data = make_oblique(n=300, d=6, seed=1)
    trace = fit(data.X, data.y, cfg)
    ensembles = [stage.ensemble for stage in trace.stages]
    assert len(ensembles) > 2
    for X in (data.X, make_oblique(n=2000, d=6, seed=2).X):
        for got, ensemble in zip(score_ensembles(ensembles, X), ensembles):
            assert np.array_equal(got, ensemble.decision_function(X))
            assert np.array_equal(got, reference_scores(ensemble, X))


def test_scoring_errors_are_pinned():
    rule = Rule(propositions=(make_prop((0, 2), (1.0, -1.0), 0.0),), weight=1.0)
    f = identity_ensemble((rule,))
    with pytest.raises(ValueError, match="feature count mismatch: transform expects 3, got 2"):
        f.decision_function(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="expected a vector or matrix, got ndim=3"):
        f.decision_function(np.zeros((2, 2, 3)))
    # a proposition wider than the ensemble's own standardizer
    wide = Rule(propositions=(make_prop((3,), (1.0,), 0.0),), weight=1.0)
    with pytest.raises(ValueError, match="references feature 3 but input has only 3 columns"):
        identity_ensemble((rule, wide)).decision_function(np.zeros(3))
    # checked ensemble by ensemble, in the order given, before any scoring
    with pytest.raises(ValueError, match="feature count mismatch: transform expects 4"):
        score_ensembles([f, identity_ensemble((), d=4)], np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# complexity accounting
# ---------------------------------------------------------------------------


def test_conjunction_complexity_counts_props_and_nonzeros():
    q = Rule(
        propositions=(
            make_prop((0, 3), (0.5, 0.5), 0.0),  # 2 nonzeros
            make_prop((1,), (1.0,), 1.0),  # 1 nonzero
        ),
        weight=1.0,
    )
    assert q.complexity() == 2 + 3


def test_axis_parallel_rule_complexity_is_twice_condition_count():
    props = tuple(make_prop((j,), (1.0,), 0.0) for j in range(3))
    q = Rule(propositions=props, weight=1.0)
    assert q.complexity() == 2 * 3


def test_ensemble_complexity_adds_rule_count():
    q1 = Rule(propositions=(make_prop((0, 3), (0.5, 0.5), 0.0),), weight=1.0)
    q2 = Rule(
        propositions=(make_prop((1,), (1.0,), 1.0), make_prop((2,), (-1.0,), 0.0)),
        weight=-1.0,
    )
    f = identity_ensemble((q1, q2), d=4)
    # 2 rules + (1 prop + 2 nnz) + (2 props + 2 nnz)
    assert f.complexity() == 2 + 3 + 4


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_axis_parallel_ensembles_collapse_to_classic_count(s):
    # when every proposition has one nonzero weight, c(f) = r + 2 * sum_i k_i
    rng = np.random.default_rng(s)
    rules = []
    total_props = 0
    for _ in range(int(rng.integers(1, 5))):
        k = int(rng.integers(1, 4))
        total_props += k
        props = tuple(
            SparseProposition(indices=(int(j),), weights=(1.0,), threshold=0.0)
            for j in rng.choice(6, size=k, replace=False)
        )
        rules.append(Rule(propositions=props, weight=1.0))
    f = identity_ensemble(tuple(rules), d=6)
    assert f.complexity() == len(rules) + 2 * total_props


# ---------------------------------------------------------------------------
# standardizer
# ---------------------------------------------------------------------------


def test_standardizer_fit_transform_zero_mean_unit_std():
    rng = np.random.default_rng(seed)
    X = rng.normal(3.0, 2.5, size=(200, 4))
    std = Standardizer.fit(X)
    Z = std.transform(X)
    assert np.max(np.abs(Z.mean(axis=0))) <= 1e-10
    assert np.max(np.abs(Z.std(axis=0) - 1.0)) <= 1e-10


def test_standardizer_zero_variance_column_centers_only():
    X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
    std = Standardizer.fit(X)
    assert std.scale[0] == 1.0
    Z = std.transform(X)
    assert np.all(Z[:, 0] == 0.0)


def test_standardizer_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        Standardizer(mean=np.zeros(2), scale=np.array([1.0, 0.0]))


@pytest.mark.parametrize("mean, scale", [
    ([np.nan, 0.0], [1.0, 1.0]), ([0.0, -np.inf], [1.0, 1.0]), ([0.0, 0.0], [np.inf, 1.0]),
])
def test_standardizer_rejects_non_finite_entries(mean, scale):
    with pytest.raises(ValueError, match="must be finite"):
        Standardizer(mean=np.array(mean), scale=np.array(scale))


@pytest.mark.parametrize("fit, cfg", [
    (fit_lltboost, LLTConfig(max_rules=2, seed=0)),
    (fit_tgb, TGBConfig(max_rules=2)),
])
def test_a_fit_whose_feature_spread_overflows_is_refused(fit, cfg):
    # finite features whose variance overflows: scale inf would standardize
    # the column to 0 everywhere, and the fit would find no rule
    X = np.column_stack([np.tile([1e200, -1e200], 25), np.linspace(-1.0, 1.0, 50)])
    y = (X[:, 0] > 0).astype(float)
    with pytest.raises(ValueError, match="mean and scale entries must be finite"):
        Standardizer.fit(X)
    with pytest.raises(ValueError, match="mean and scale entries must be finite"):
        fit(X, y, cfg)


def test_core_types_are_immutable():
    p = make_prop((0,), (1.0,), 0.0)
    with pytest.raises(Exception):
        p.threshold = 1.0
    with pytest.raises(Exception):
        p.weights[0] = 2.0


def test_value_equality_and_hashing():
    a = make_prop((0, 2), (1.0, -0.5), 0.25)
    b = make_prop((0, 2), (1.0, -0.5), 0.25)
    c = make_prop((0, 2), (1.0, -0.5), 0.75)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != make_prop((0, 3), (1.0, -0.5), 0.25)
    ra = Rule(propositions=(a,), weight=2.0)
    rb = Rule(propositions=(b,), weight=2.0)
    assert ra == rb and hash(ra) == hash(rb)
    assert ra != Rule(propositions=(a,), weight=2.5)
    sa = Standardizer(np.zeros(3), np.ones(3))
    assert sa == Standardizer(np.zeros(3), np.ones(3))
    assert sa != Standardizer(np.ones(3), np.ones(3))
    ea = RuleEnsemble(0.5, (ra,), Task.REGRESSION, sa)
    eb = RuleEnsemble(0.5, (rb,), Task.REGRESSION, Standardizer(np.zeros(3), np.ones(3)))
    assert ea == eb and hash(ea) == hash(eb)
    assert ea != RuleEnsemble(0.5, (ra,), Task.CLASSIFICATION, sa)


def test_hashes_are_numeric_and_survive_pickling_and_processes():
    # -0.0 == 0.0, so they must hash equal too (their bytes differ)
    a = make_prop((0, 2), (1.0, -0.5), 0.0)
    b = make_prop((0, 2), (1.0, -0.5), -0.0)
    sa = Standardizer(np.array([0.0, 1.5]), np.array([1.0, 2.0]))
    sb = Standardizer(np.array([-0.0, 1.5]), np.array([1.0, 2.0]))
    assert a == b and hash(a) == hash(b)
    assert sa == sb and hash(sa) == hash(sb)
    for obj in (a, sa, RuleEnsemble(0.5, (Rule((a,), 2.0),), Task.REGRESSION, sa)):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == hash(obj)
    # a trace pickled by a worker process keys the same slots as the parent's
    code = ("import numpy as np; from obliquerules.core import SparseProposition, Standardizer; "
            "print(hash(SparseProposition((0, 2), (1.0, -0.5), 0.0)), "
            "hash(Standardizer(np.array([0.0, 1.5]), np.array([1.0, 2.0]))))")
    src = str(Path(obliquerules.__file__).parents[1])
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert out == [str(hash(a)), str(hash(sa))]


# ---------------------------------------------------------------------------
# fit traces
# ---------------------------------------------------------------------------


def test_trace_stage_rule_counts_are_checked():
    f0 = identity_ensemble(())
    rule = Rule(propositions=(make_prop((0,), (1.0,), 0.0),), weight=1.0)
    f1 = identity_ensemble((rule,))
    trace = FitTrace(
        stages=(FitStage(f0, 1.0, 0), FitStage(f1, 0.5, f1.complexity())),
        wall_time_seconds=0.0,
    )
    assert len(trace.stages) - 1 == 1
    assert trace.final is f1
    with pytest.raises(ValueError):
        FitTrace(stages=(FitStage(f1, 0.5, 3),), wall_time_seconds=0.0)
