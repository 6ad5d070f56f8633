"""Tests for the axis-parallel boosting baseline."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obliquerules import lltboost, tgb
from obliquerules.core import conjunction_cover
from obliquerules.datasets import make_oblique, make_rotated_box, make_staircase
from obliquerules.losses import LossKind, loss
from obliquerules.tgb import AxisCandidate, TGBConfig, best_axis_proposition, fit


# ---------------------------------------------------------------------------
# threshold scan
# ---------------------------------------------------------------------------


def sorted_rows(active, X):
    """Each column's active rows in a stable sort of their values, shape (d, |active|)."""
    active = np.asarray(active, dtype=int)
    return active[np.argsort(X[active], axis=0, kind="stable")].T


def scan(active, X, g, reg_strength=0.0):
    return best_axis_proposition(active, X, g, sorted_rows(active, X), (reg_strength,))[0]


def test_hand_example():
    # scores |sum g| / sqrt(count) at reg 0: x>=1.5 covers {2,3}, sum 0 -> 0;
    # x>=2.5 -> 1/1; x<=1.5 -> 1/1; x<=2.5 -> 2/sqrt(2), the winner
    X = np.array([[1.0], [2.0], [3.0]])
    g = np.array([1.0, 1.0, -1.0])
    cand = scan(np.arange(3), X, g)
    assert cand == AxisCandidate(0, "<=", 2.5, 2.0 / math.sqrt(2.0))
    # at reg 2: x>=2.5 and x<=1.5 -> 1/sqrt(3); x<=2.5 -> 2/sqrt(4) = 1 still wins
    cand = scan(np.arange(3), X, g, 2.0)
    assert cand == AxisCandidate(0, "<=", 2.5, 1.0)


def test_zero_gradient_scores_zero():
    X = np.array([[1.0], [2.0]])
    cand = scan(np.arange(2), X, np.zeros(2))
    assert cand is not None
    assert cand.score == 0.0


def test_constant_features_give_no_candidate():
    X = np.ones((5, 2))
    g = np.arange(5.0)
    assert scan(np.arange(5), X, g) is None


def test_ge_wins_a_tie_at_the_same_threshold():
    # x>=1.5 and x<=1.5 both score 1/1; >= comes first at one threshold
    X = np.array([[1.0], [2.0]])
    cand = scan(np.arange(2), X, np.array([1.0, -1.0]))
    assert cand == AxisCandidate(0, ">=", 1.5, 1.0)


def test_a_single_active_row_gives_no_candidate():
    X = np.array([[1.0, 4.0], [2.0, 3.0], [3.0, 5.0]])
    assert scan(np.array([1]), X, np.array([1.0, -2.0, 3.0])) is None


@pytest.mark.parametrize("reg", [0.0, 1.0, 100.0])
def test_a_fully_tied_column_offers_no_threshold(reg):
    # column 0 is constant over the active rows, so every candidate comes from
    # column 1, although column 0 would win a tie by its lower index
    X = np.array([[7.0, 0.5], [1.0, -1.0], [7.0, 2.0], [7.0, 0.5], [7.0, 3.0], [2.0, 1.0]])
    g = np.array([2.0, 9.0, -1.0, 3.0, -4.0, 9.0])
    active = np.array([0, 2, 3, 4])
    cand = scan(active, X, g, reg)
    assert cand.feature == 1
    assert cand == brute_force_scan(active, X, g, reg)


def test_direction_to_proposition_semantics():
    ge = AxisCandidate(1, ">=", 0.5, 1.0).to_proposition()
    le = AxisCandidate(1, "<=", 0.5, 1.0).to_proposition()
    X = np.array([[0.0, 0.2], [0.0, 0.5], [0.0, 0.9]])
    assert np.array_equal(ge.activations(X), [0.0, 1.0, 1.0])
    assert np.array_equal(le.activations(X), [1.0, 1.0, 0.0])


def realized_score(cand, active, X, g, reg_strength=0.0):
    """|sum g| / sqrt(reg + count) over the active rows that ``cand``'s rule covers."""
    covered = cand.to_proposition().activations(X[active]) >= 0.5
    return abs(float(g[active][covered].sum())) / math.sqrt(reg_strength + float(covered.sum()))


@pytest.mark.parametrize("direction", [">=", "<="])
def test_a_threshold_between_neighbouring_doubles_covers_the_scored_rows(direction):
    # the midpoint of two neighbouring doubles rounds onto one of them: for >=
    # between 1 and its successor it rounds to 1, for <= between 1's
    # predecessor and 1 it rounds to 1
    if direction == ">=":
        column, g = [0.0, 1.0, np.nextafter(1.0, 2.0), 2.0], [-1.0, -1.0, 1.0, 1.0]
    else:
        column, g = [0.0, np.nextafter(1.0, 0.0), 1.0, 2.0], [1.0, 1.0, -1.0, 0.0]
    X, g = np.array(column)[:, None], np.array(g)
    active = np.arange(4)
    cand = scan(active, X, g)
    assert cand.direction == direction and cand.score == 2.0 / math.sqrt(2.0)
    assert realized_score(cand, active, X, g) == cand.score


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.sampled_from([0.0, 0.5, 3.0]))
def test_every_candidate_covers_an_active_row_and_realizes_its_score(seed, n, reg):
    # small integer columns, with some values moved onto a neighbouring double
    # of another value in the column; integer gradients make every sum exact
    rng = np.random.default_rng(seed)
    X = rng.integers(-3, 4, size=(n, 2)).astype(float)
    for j in range(2):
        for i in np.flatnonzero(rng.random(n) < 0.4):
            X[i, j] = np.nextafter(X[rng.integers(n), j], rng.choice([-np.inf, np.inf]))
    g = rng.integers(-3, 4, size=n).astype(float)
    active = np.flatnonzero(rng.random(n) < 0.8)
    cand = scan(active, X, g, reg)
    if cand is None:
        return
    assert cand.to_proposition().activations(X[active]).any()
    assert realized_score(cand, active, X, g, reg) == cand.score


def brute_force_scan(active, X, g, lam):
    """Reference implementation: enumerate every (feature, threshold, direction)."""
    best = None
    for j in range(X.shape[1]):
        vals = np.unique(X[active, j])
        for lo, hi in zip(vals, vals[1:]):
            mid = 0.5 * (lo + hi)
            for direction in (">=", "<="):
                if direction == ">=":
                    mask = X[active, j] >= mid
                else:
                    mask = X[active, j] <= mid
                total = float(g[active][mask].sum())
                score = abs(total) / math.sqrt(lam + float(mask.sum()))
                if best is None or score > best.score:
                    best = AxisCandidate(j, direction, float(mid), score)
    return best


@pytest.mark.parametrize("lam", [0.0, 1.0, 100.0])
def test_scan_matches_brute_force(lam):
    # integer gradients keep every partial sum exactly representable, so the
    # scores must match to the last bit
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 21))
        d = int(rng.integers(1, 4))
        X = np.round(rng.normal(size=(n, d)), 2)
        g = rng.integers(-5, 6, size=n).astype(float)
        active = np.arange(n)
        fast = scan(active, X, g, lam)
        slow = brute_force_scan(active, X, g, lam)
        assert fast == slow
        if fast is not None:
            p_fast, p_slow = fast.to_proposition(), slow.to_proposition()
            assert np.array_equal(p_fast.activations(X), p_slow.activations(X))


def test_scan_respects_active_subset():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 2))
    g = rng.integers(-3, 4, size=30).astype(float)
    active = np.arange(0, 30, 2)
    fast = scan(active, X, g)
    slow = brute_force_scan(active, X, g, 0.0)
    assert fast == slow


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), d=st.integers(1, 4),
       decimals=st.sampled_from([0, 1]), reg=st.sampled_from([0.0, 1.0, 100.0]))
def test_filtered_presort_scans_like_a_fresh_sort_under_ties(seed, n, d, decimals, reg):
    # few distinct values and duplicated rows tie every column; filtering the
    # stable order of all rows to nested ascending subsets must give, at each
    # depth, the stable order of the subset and the brute-force candidate
    rng = np.random.default_rng(seed)
    base = np.round(rng.normal(size=(int(rng.integers(1, n + 1)), d)), decimals)
    X = base[rng.integers(0, base.shape[0], size=n)]
    g = rng.integers(-5, 6, size=n).astype(float)
    active = np.arange(n)
    orders = np.argsort(X.T, axis=1, kind="stable")
    for _ in range(5):
        assert np.array_equal(orders, sorted_rows(active, X))
        cand = best_axis_proposition(active, X, g, orders, (reg,))[0]
        assert cand == brute_force_scan(active, X, g, reg)
        inside = rng.random(n) < rng.uniform(0.3, 1.0)
        if not inside[active].any():
            break
        active = active[inside[active]]
        orders = orders[inside[orders]].reshape(d, -1)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 5),
       decimals=st.sampled_from([0, 1, 2]), bootstrap=st.booleans(), constant=st.booleans(),
       fortran=st.booleans(), reg=st.sampled_from([0.0, 1.0, 100.0]))
@example(seed=0, n=1, d=3, decimals=1, bootstrap=False, constant=True, fortran=True, reg=0.0)
@example(seed=0, n=2, d=3, decimals=1, bootstrap=False, constant=True, fortran=False, reg=1.0)
@example(seed=2, n=2, d=2, decimals=0, bootstrap=True, constant=False, fortran=True, reg=0.0)
def test_block_scan_matches_brute_force_at_every_block_width(seed, n, d, decimals, bootstrap,
                                                            constant, fortran, reg):
    # rounded and resampled columns tie values and whole rows; a constant
    # column sits among the others of its block; blocks run from one column
    # to all of them
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)), decimals)
    if bootstrap:
        X = X[rng.integers(0, n, size=n)]
    if constant:
        X[:, rng.integers(d)] = 0.25
    X = np.asfortranarray(X) if fortran else np.ascontiguousarray(X)
    g = rng.integers(-5, 6, size=n).astype(float)
    active = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    orders = sorted_rows(active, X).astype(np.min_scalar_type(n))
    expected = brute_force_scan(active, X, g, reg)
    n_act = active.size
    for cells in (1, n_act - 1, n_act, n_act * d, 10**6):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tgb, "SCAN_BLOCK_CELLS", cells)
            assert best_axis_proposition(active, X, g, orders, (reg,))[0] == expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 5),
       decimals=st.sampled_from([0, 1, 2]), bootstrap=st.booleans(),
       regs=st.lists(st.sampled_from([0.0, 0.01, 1.0, 3.0, 100.0]), min_size=1, max_size=6))
@example(seed=0, n=1, d=2, decimals=1, bootstrap=False, regs=[1.0, 0.0])
@example(seed=3, n=12, d=3, decimals=0, bootstrap=True, regs=[100.0, 0.0, 100.0, 1.0])
def test_multi_reg_scan_matches_brute_force_per_reg_at_every_block_width(
        seed, n, d, decimals, bootstrap, regs):
    # one scan answers for every reg strength, in the order given, repeats
    # included, as a brute-force scan per reg strength would
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)), decimals)
    if bootstrap:
        X = X[rng.integers(0, n, size=n)]
    X = np.asfortranarray(X)
    g = rng.integers(-5, 6, size=n).astype(float)
    active = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    orders = sorted_rows(active, X).astype(np.min_scalar_type(n))
    expected = tuple(brute_force_scan(active, X, g, reg) for reg in regs)
    n_act = active.size
    for cells in (1, n_act - 1, n_act, n_act * d, 10**6):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tgb, "SCAN_BLOCK_CELLS", cells)
            assert best_axis_proposition(active, X, g, orders, regs) == expected


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), d=st.integers(1, 3),
       decimals=st.sampled_from([0, 1, 2]), bootstrap=st.booleans(),
       signed_zero=st.booleans(), constant=st.booleans())
@example(seed=0, n=1, d=2, decimals=0, bootstrap=False, signed_zero=True, constant=False)
@example(seed=0, n=2, d=2, decimals=0, bootstrap=False, signed_zero=True, constant=True)
@example(seed=1, n=200, d=2, decimals=0, bootstrap=True, signed_zero=True, constant=True)
def test_presort_equals_a_stable_argsort(seed, n, d, decimals, bootstrap, signed_zero,
                                         constant):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)), decimals)
    if bootstrap:
        X = X[rng.integers(0, n, size=n)]
    if signed_zero:  # -0.0 == 0.0, so the two tie in both sorts
        X[:, 0] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    if constant:
        X[:, -1] = 1.5
    orders, (tie, tie_any, tie_all) = tgb._stable_orders(X)
    assert orders.dtype == np.min_scalar_type(n)
    assert np.array_equal(orders, np.argsort(X.T, axis=1, kind="stable"))
    # the tie facts are those of the sorted neighbours, -0.0 and 0.0 tying
    sv = np.take_along_axis(X.T, orders, axis=1)
    expected = sv[:, :-1] == sv[:, 1:]
    assert tie.shape == (d, n - 1) and np.array_equal(tie, expected)
    assert tie_any == expected.any(axis=1).tolist()
    assert tie_all == (expected.any(axis=1) & expected.all(axis=1)).tolist()


@pytest.mark.parametrize("reg", [0.01, 100.0])
def test_every_scan_of_a_fit_gets_its_active_rows_in_stable_order(monkeypatch, reg):
    rng = np.random.default_rng(11)
    X = np.round(rng.normal(size=(400, 5)), 1)
    y = ((X[:, 0] > 0) & (X[:, 1] > -0.5) & (X[:, 2] < 0.5)).astype(float)
    sizes = []

    def checked_scan(active, Z, g, orders, reg_strengths, root_values=None):
        assert np.array_equal(orders, sorted_rows(active, Z))
        sizes.append(len(active))
        answers = best_axis_proposition(active, Z, g, orders, reg_strengths, root_values)
        # every scan reads the fit's tie mask and tie summaries of all rows, and
        # answers as the scan that gathers and compares the sorted values itself
        assert root_values is not None
        assert answers == best_axis_proposition(active, Z, g, orders, reg_strengths)
        return answers

    monkeypatch.setattr(tgb, "best_axis_proposition", checked_scan)
    fit(X, y, TGBConfig(max_rules=4, max_propositions=5, reg_strength=reg))
    # a scan of all rows opens each conjunction; the scans after it go deeper
    depths = np.diff(np.append(np.flatnonzero(np.array(sizes) == len(X)), len(sizes)))
    assert depths.max() >= 4


def test_scans_below_the_root_compare_sorted_values_only_where_a_column_ties():
    # columns 1 and 2 tie among all rows and 0 and 3 never do; a scan of some
    # of the rows, in blocks of one column (3000 rows) or two (1500 rows),
    # masks ties where a column ties and answers as the scan that gathers and
    # compares every column's sorted values itself
    rng = np.random.default_rng(7)
    n, d = 5000, 4
    Z = rng.normal(size=(n, d))
    Z[:, 1:3] = np.round(Z[:, 1:3])
    Z = np.asfortranarray(Z)
    all_orders, root_values = tgb._stable_orders(Z)
    assert root_values[1] == [False, True, True, False]
    for size in (3000, 1500):
        for _ in range(6):
            active = np.sort(rng.choice(n, size=size, replace=False))
            inside = np.zeros(n, dtype=bool)
            inside[active] = True
            orders = np.compress(inside.take(all_orders).ravel(), all_orders).reshape(d, -1)
            g = rng.integers(-5, 6, size=n).astype(float)
            regs = (0.0, 100.0)
            assert (best_axis_proposition(active, Z, g, orders, regs, root_values)
                    == best_axis_proposition(active, Z, g, orders, regs))


def test_scan_invariant_under_monotone_transforms():
    # a strictly increasing per-feature map preserves value order, hence all
    # candidate covers and their counts; the selected cover set must not change
    rng = np.random.default_rng(17)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(25, 3))
        g = rng.integers(-4, 5, size=25).astype(float)
        X2 = np.column_stack([np.exp(X[:, 0]), X[:, 1] ** 3 + 2 * X[:, 1], 5 * X[:, 2] - 1])
        a = scan(np.arange(25), X, g)
        b = scan(np.arange(25), X2, g)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.feature == b.feature and a.direction == b.direction
            assert a.score == b.score
            cov_a = a.to_proposition().activations(X)
            cov_b = b.to_proposition().activations(X2)
            assert np.array_equal(cov_a, cov_b)


def test_normalization_prefers_broader_covers():
    # one row carries gradient 5, twelve rows carry 0.5 each (sum 6): the
    # coverage-normalized score at reg 0 takes the single big-gradient row
    x = np.arange(13.0).reshape(-1, 1)
    g = np.full(13, 0.5)
    g[0] = -5.0
    norm = scan(np.arange(13), x, g, 0.0)
    assert norm.to_proposition().activations(x).sum() == 1


# ---------------------------------------------------------------------------
# full fit
# ---------------------------------------------------------------------------


def test_axis_target_solved_in_one_rule():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    y = (X[:, 0] >= 0).astype(float)
    trace = fit(X, y, TGBConfig(max_rules=1))
    preds = trace.final.predict(X)
    assert float(np.mean(loss(LossKind.ZERO_ONE, y, (preds * 2 - 1).astype(float)))) == 0.0
    rule = trace.final.rules[0]
    assert all(p.nnz == 1 for p in rule.propositions)


def test_all_propositions_single_feature_and_classic_complexity():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(150, 4))
    y = 1.2 * (X[:, 0] > 0.5) - 0.7 * (X[:, 1] < -0.2) + 0.05 * rng.normal(size=150)
    trace = fit(X, y, TGBConfig(max_rules=6, loss=LossKind.SQUARED))
    final = trace.final
    assert final.n_rules >= 1
    for rule in final.rules:
        assert all(p.nnz == 1 for p in rule.propositions)
    classic = final.n_rules + sum(2 * len(r.propositions) for r in final.rules)
    assert final.complexity() == classic


@pytest.mark.parametrize("make", [make_oblique, make_rotated_box, make_staircase])
@pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.SQUARED])
@pytest.mark.parametrize("reg", [0.0, 1.0])
def test_fit_is_invariant_to_positive_per_feature_affine_rescaling(make, kind, reg):
    # X' = a * X + c with a > 0 keeps every column's value order, so the fit
    # makes the same choices: the same train risks and complexities, bit for
    # bit, and final rules that cover the same training rows.  A negative a
    # would reverse the order and with it the >= / <= tie-break.
    for seed in range(6):
        data = make(n=300, d=5, seed=seed)
        rng = np.random.default_rng(100 + seed)
        a = rng.choice([0.001, 0.5, 3.0, 1000.0], size=5)
        c = rng.choice([-7.0, 0.0, 0.25, 1000.0], size=5)
        inputs = (data.X, a * data.X + c)
        traces = [fit(X, data.y, TGBConfig(loss=kind, reg_strength=reg)) for X in inputs]
        risks, complexities, covers = [], [], []
        for trace, X in zip(traces, inputs):
            risks.append([stage.train_risk for stage in trace.stages])
            complexities.append([stage.complexity for stage in trace.stages])
            Z = trace.final.standardizer.transform(X)
            covers.append([conjunction_cover(r.propositions, Z) for r in trace.final.rules])
        assert risks[0] == risks[1] and complexities[0] == complexities[1], seed
        assert np.array_equal(covers[0], covers[1]), seed


@pytest.mark.parametrize("kind", [LossKind.SQUARED, LossKind.LOGISTIC])
def test_train_risk_never_increases(kind):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(120, 4))
        if kind is LossKind.LOGISTIC:
            y = (X[:, 0] - X[:, 1] + 0.6 * rng.normal(size=120) > 0).astype(float)
        else:
            y = X[:, 0] * 1.5 + np.abs(X[:, 1]) + 0.1 * rng.normal(size=120)
        trace = fit(X, y, TGBConfig(max_rules=6, loss=kind, reg_strength=0.01))
        risks = [st.train_risk for st in trace.stages]
        for a, b in zip(risks, risks[1:]):
            assert b <= a + 1e-9


@pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.SQUARED])
@pytest.mark.parametrize("learner", ["lltboost", "tgb"])
def test_every_stage_risk_is_the_mean_loss_of_its_ensemble_on_its_refit_rows(learner, kind):
    # boost refits and measures on the rows that the learner's prepare names:
    # lltboost's fit rows, without the validation slice, and all rows for tgb
    rng = np.random.default_rng(5)
    X = rng.normal(size=(160, 4))
    y = X[:, 0] - 0.8 * X[:, 1] + 0.5 * (X[:, 2] > 0.3) + 0.3 * rng.normal(size=160)
    if kind is LossKind.LOGISTIC:
        y = (y > 0).astype(float)
    if learner == "lltboost":
        cfg = lltboost.LLTConfig(max_rules=5, loss=kind, seed=4)
        rows, _ = lltboost._validation_split(y.size, y, kind is LossKind.LOGISTIC,
                                             lltboost.VALIDATION_FRACTION, cfg.seed)
        assert rows.size < y.size
        traces = [lltboost.fit(X, y, cfg)]
    else:
        rows = np.arange(y.size)
        traces = tgb.fit_grid(X, y, TGBConfig(max_rules=5, loss=kind), (0.0, 1.0, 100.0))
    for trace in traces:
        assert len(trace.stages) > 2
        for stage in trace.stages:
            scores = stage.ensemble.decision_function(X[rows])
            expected = float(np.mean(loss(kind, y[rows], scores)))
            assert stage.train_risk == pytest.approx(expected, rel=1e-12, abs=0)


def test_fit_is_deterministic():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(100, 3))
    y = (X[:, 0] + X[:, 2] > 0.3).astype(float)
    cfg = TGBConfig(max_rules=5, reg_strength=0.1)
    t1, t2 = fit(X, y, cfg), fit(X, y, cfg)
    assert [st.train_risk for st in t1.stages] == [st.train_risk for st in t2.stages]
    for a, b in zip(t1.stages, t2.stages):
        assert a.ensemble == b.ensemble


def test_constant_target_stops_immediately():
    X = np.random.default_rng(1).normal(size=(30, 2))
    trace = fit(X, np.full(30, 2.5), TGBConfig(loss=LossKind.SQUARED))
    assert len(trace.stages) - 1 == 0
    assert trace.final.intercept == pytest.approx(2.5)


def assert_same_trace(a, b):
    """Two traces hold the same stages: risks, complexities, intercepts,
    weights and every proposition, bit for bit."""
    assert len(a.stages) == len(b.stages)
    for sa, sb in zip(a.stages, b.stages):
        assert sa.train_risk.hex() == sb.train_risk.hex()
        assert sa.complexity == sb.complexity
        ea, eb = sa.ensemble, sb.ensemble
        assert ea.intercept.hex() == eb.intercept.hex()
        assert len(ea.rules) == len(eb.rules)
        for ra, rb in zip(ea.rules, eb.rules):
            assert ra.weight.hex() == rb.weight.hex()
            assert len(ra.propositions) == len(rb.propositions)
            for pa, pb in zip(ra.propositions, rb.propositions):
                assert pa.indices.tobytes() == pb.indices.tobytes()
                assert pa.weights.tobytes() == pb.weights.tobytes()
                assert pa.threshold.hex() == pb.threshold.hex()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 120), d=st.integers(1, 4),
       decimals=st.sampled_from([None, 0, 1]),
       kind=st.sampled_from([LossKind.LOGISTIC, LossKind.SQUARED]),
       max_propositions=st.integers(1, 5), max_rules=st.integers(1, 6),
       regs=st.lists(st.sampled_from([0.0, 0.0001, 0.01, 1.0, 100.0]), min_size=1,
                     max_size=7))
@example(seed=1, n=120, d=3, decimals=1, kind=LossKind.LOGISTIC, max_propositions=5,
         max_rules=6, regs=[100.0, 0.0001, 0.01, 1.0, 0.0001, 0.0])
@example(seed=2, n=80, d=2, decimals=0, kind=LossKind.SQUARED, max_propositions=3,
         max_rules=6, regs=[1.0, 0.0, 1.0])
def test_grid_fit_equals_one_fit_per_reg_strength(seed, n, d, decimals, kind,
                                                  max_propositions, max_rules, regs):
    # unsorted grids with repeats; rounded features tie values, so scans at
    # different reg strengths agree for some levels and part at others
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if decimals is not None:
        X = np.round(X, decimals)
    if kind is LossKind.LOGISTIC:
        y = ((X[:, 0] > 0.2) ^ (X[:, -1] < -0.3) ^ (rng.random(n) < 0.1)).astype(float)
    else:
        y = np.where(X[:, 0] > 0, 1.0, -1.0) + X[:, -1] ** 2 + 0.2 * rng.normal(size=n)
    cfg = TGBConfig(max_rules=max_rules, max_propositions=max_propositions, loss=kind,
                    reg_strength=7.0)  # fit_grid does not read it
    traces = tgb.fit_grid(X, y, cfg, regs)
    assert len(traces) == len(regs)
    assert len({t.wall_time_seconds for t in traces}) == 1
    for reg, trace in zip(regs, traces):
        assert_same_trace(trace, fit(X, y, replace(cfg, reg_strength=reg)))


def test_grid_fit_shares_the_work_of_agreeing_reg_strengths(monkeypatch):
    # 1e-4 and 1e-3 barely change a score of hundreds of rows, so here the
    # two fits agree on every rule: one scan, one gradient and one refit
    # serve both, and a repeated value costs nothing
    data = make_oblique(n=300, d=4, seed=0)
    counts = {"scan": 0, "refit": 0, "gradient": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tgb, "best_axis_proposition", counted("scan", best_axis_proposition))
    monkeypatch.setattr(tgb, "corrective_refit", counted("refit", tgb.corrective_refit))
    monkeypatch.setattr(tgb, "gradient", counted("gradient", tgb.gradient))
    cfg = TGBConfig(max_rules=5)
    single = fit(data.X, data.y, replace(cfg, reg_strength=0.001))
    alone = dict(counts)
    counts.update(scan=0, refit=0, gradient=0)
    traces = fit(data.X, data.y, cfg, reg_strengths=(0.0001, 0.001, 0.0001))  # fit_grid's
    assert counts == alone and len(traces) == 3
    for trace in traces:
        assert_same_trace(trace, single)


def regrouped_full_rows(design, y, counts):
    """The full rows behind refit groups, grouped again by ``np.unique``: one
    row per group and its count, ordered by the reversed (label, covers)
    digits, so that the newest cover is the most significant."""
    repeats = counts.astype(int)
    design, y = np.repeat(design, repeats, axis=0), np.repeat(y, repeats)
    digits = np.column_stack([y, design[:, 1:]])
    _, rows, counts = np.unique(digits[:, ::-1], axis=0, return_index=True, return_counts=True)
    return design[rows], y[rows], counts


def test_grid_branches_that_split_at_several_depths_keep_their_own_designs(monkeypatch):
    # the grid splits at rounds 1, 2 and 3; a child that wrote into a design
    # column or group state of a sibling would break the equality with the
    # separate fits, and carried groups that left the full rows' group order
    # would break the equality with refits that regroup the full rows
    data = make_oblique(n=200, d=4, seed=0)
    X, regs = np.round(data.X, 1), (0.0, 3.0, 30.0, 300.0, 3000.0)
    cfg = TGBConfig(max_rules=6, max_propositions=3)
    branches = {}
    refit = tgb.corrective_refit

    def full_rows(design, y, kind, warm, counts):
        branches[design.shape[1] - 1] = branches.get(design.shape[1] - 1, 0) + 1
        design, y, counts = regrouped_full_rows(design, y, counts)
        return refit(design, y, kind, warm, counts)

    traces = tgb.fit_grid(X, data.y, cfg, regs)
    separate = [fit(X, data.y, replace(cfg, reg_strength=reg)) for reg in regs]
    monkeypatch.setattr(tgb, "corrective_refit", full_rows)
    regrouped = tgb.fit_grid(X, data.y, cfg, regs)
    assert [branches[k] for k in sorted(branches)] == [2, 3, 5, 5, 5, 5]
    for trace, alone, other in zip(traces, separate, regrouped):
        assert_same_trace(trace, alone)
        assert_same_trace(trace, other)


def test_carried_groups_past_52_rules_refit_as_the_full_rows_do(monkeypatch):
    # each round's cover is a digit of the rows' group key; past 52 rules a key
    # holds more digits than a double's mantissa, and the carried groups must
    # still keep the order in which np.unique groups the full rows
    data = make_oblique(n=600, d=6, noise=0.2, seed=3)
    cfg = TGBConfig(max_rules=60, max_propositions=3, reg_strength=1.0)
    refit = tgb.corrective_refit

    def full_rows(design, y, kind, warm, counts):
        design, y, counts = regrouped_full_rows(design, y, counts)
        return refit(design, y, kind, warm, counts)

    trace = fit(data.X, data.y, cfg)
    monkeypatch.setattr(tgb, "corrective_refit", full_rows)
    assert len(trace.stages) - 1 >= 56
    assert_same_trace(trace, fit(data.X, data.y, cfg))


def test_grid_fit_rejects_an_empty_or_invalid_grid():
    X, y = np.zeros((4, 2)), np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="at least one"):
        tgb.fit_grid(X, y, TGBConfig(), ())
    with pytest.raises(ValueError, match="reg_strength"):
        tgb.fit_grid(X, y, TGBConfig(), (1.0, -1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        TGBConfig(max_rules=0)
    with pytest.raises(ValueError):
        TGBConfig(reg_strength=-1.0)
    with pytest.raises(TypeError):
        TGBConfig(reg_strength="1")
    with pytest.raises(ValueError):
        fit(np.zeros((4, 2)), np.zeros(4), TGBConfig(loss=LossKind.ZERO_ONE))


@pytest.mark.parametrize("field", ["max_rules", "max_propositions"])
@pytest.mark.parametrize("value", [1.5, True, 2.0])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=field):
        TGBConfig(**{field: value})


@pytest.mark.parametrize("reg", [math.nan, math.inf, -math.inf, -1, True,
                                 pytest.param(10**400, id="int_too_large_for_a_double")])
def test_config_rejects_non_finite_or_negative_reg_strength(reg):
    with pytest.raises(ValueError, match="reg_strength"):
        TGBConfig(reg_strength=reg)


def test_config_takes_the_largest_double_as_reg_strength():
    assert TGBConfig(reg_strength=sys.float_info.max).reg_strength == sys.float_info.max


def test_config_stores_reg_strength_as_float():
    reg = TGBConfig(reg_strength=1).reg_strength
    assert reg == 1.0 and type(reg) is float
