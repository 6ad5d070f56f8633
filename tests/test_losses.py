import math
import warnings

import numpy as np
import pytest

from obliquerules import losses
from obliquerules.core import Task
from obliquerules.losses import (FIT_LOSS, LossKind, gradient, init_intercept, logistic, loss,
                                 training_arrays)

seed = 42


def test_squared_loss_values():
    assert loss(LossKind.SQUARED, 1.0, 0.0) == 0.5
    assert loss(LossKind.SQUARED, np.array([2.0]), np.array([2.0]))[0] == 0.0
    assert loss(LossKind.SQUARED, 0.0, 3.0) == 4.5


def test_logistic_loss_values():
    # score 0: log 2 regardless of label
    assert loss(LossKind.LOGISTIC, 1.0, 0.0) == pytest.approx(np.log(2.0))
    assert loss(LossKind.LOGISTIC, 0.0, 0.0) == pytest.approx(np.log(2.0))
    # strongly correct score: near zero loss
    assert loss(LossKind.LOGISTIC, 1.0, 30.0) < 1e-12


def test_zero_one_step_ties_go_to_class_one():
    y = np.array([1.0, 0.0, 1.0, 0.0])
    score = np.array([0.0, 0.0, -0.1, -0.1])
    assert loss(LossKind.ZERO_ONE, y, score).tolist() == [0.0, 1.0, 1.0, 0.0]


def test_logistic_loss_finite_over_wide_score_range():
    scores = np.array([-700.0, -100.0, 0.0, 100.0, 700.0])
    for y in (0.0, 1.0):
        vals = loss(LossKind.LOGISTIC, np.full_like(scores, y), scores)
        assert np.all(np.isfinite(vals))


def test_logistic_matches_the_closed_form_without_warnings():
    s = np.concatenate([[-800.0, -745.0, -709.0, -40.0, 0.0, 40.0, 709.0, 800.0],
                        np.linspace(-50.0, 50.0, 1001)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = logistic(s)
    # 1 / (1 + exp(-s)) in the form that cannot overflow, in Python floats
    closed = [1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))
              for x in s]
    # below s = -709 the exact value is subnormal or zero
    np.testing.assert_allclose(p, closed, rtol=1e-15, atol=1e-300)
    assert p[0] == 0.0 and p[-1] == 1.0 and np.all((p >= 0.0) & (p <= 1.0))


def test_logistic_silences_overflow_only_for_scores_that_overflow(monkeypatch):
    quiet = []
    errstate = np.errstate

    def counted(**kwargs):
        quiet.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(losses.np, "errstate", counted)
    edge = -np.log(np.finfo(float).max)  # exp(-edge) is the largest finite double
    s = np.array([-800.0, np.nextafter(edge, -np.inf), edge, -709.0, 0.0, 30.0])
    inputs = [(s, 1), (s[1:], 1), (s[2:], 1), (s[3:], 0), (s.reshape(2, 3), 1), (np.array([]), 0),
              (np.array(-800.0), 1), (np.float64(3.0), 0), (-800.0, 1), (np.zeros((0, 2)), 0),
              (np.array([np.nan, -800.0]), 1), (np.array([np.nan, 1.0]), 0)]
    for x, entries in inputs:
        quiet.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logistic(x)
        with errstate(over="ignore"):
            expected = 1.0 / (1.0 + np.exp(-np.asarray(x)))
        assert np.shape(got) == np.shape(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
        assert len(quiet) == entries


def test_classification_losses_reject_nonbinary_targets():
    with pytest.raises(ValueError):
        loss(LossKind.LOGISTIC, np.array([0.0, 2.0]), np.zeros(2))
    with pytest.raises(ValueError):
        gradient(LossKind.LOGISTIC, np.array([0.5]), np.zeros(1))


def test_gradient_values():
    assert gradient(LossKind.SQUARED, 1.0, 3.0) == 2.0
    assert gradient(LossKind.LOGISTIC, 1.0, 0.0) == pytest.approx(-0.5)
    assert gradient(LossKind.LOGISTIC, 0.0, 0.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        gradient(LossKind.ZERO_ONE, np.array([1.0]), np.array([0.0]))


def test_gradients_match_central_finite_differences():
    # 1000 random (target, score) pairs per differentiable loss
    rng = np.random.default_rng(seed)
    h = 1e-6
    score = rng.uniform(-10, 10, size=1000)
    for kind, y in (
        (LossKind.SQUARED, rng.normal(size=1000)),
        (LossKind.LOGISTIC, rng.integers(0, 2, size=1000).astype(float)),
    ):
        fd = (loss(kind, y, score + h) - loss(kind, y, score - h)) / (2 * h)
        assert np.max(np.abs(gradient(kind, y, score) - fd)) <= 1e-6


def test_init_intercept_squared_is_target_mean():
    y = np.array([1.0, 2.0, 6.0])
    assert init_intercept(LossKind.SQUARED, y) == pytest.approx(3.0)


def test_init_intercept_logistic_is_log_odds():
    y = np.array([1.0, 1.0, 1.0, 0.0])
    assert init_intercept(LossKind.LOGISTIC, y) == pytest.approx(np.log(3.0))


def test_init_intercept_minimizes_total_loss():
    rng = np.random.default_rng(seed)
    for kind, y in (
        (LossKind.SQUARED, rng.normal(size=50)),
        (LossKind.LOGISTIC, rng.integers(0, 2, size=50).astype(float)),
    ):
        b = init_intercept(kind, y)
        base = np.sum(loss(kind, y, np.full_like(y, b)))
        for eps in (-1e-3, 1e-3):
            assert np.sum(loss(kind, y, np.full_like(y, b + eps))) >= base


def test_init_intercept_clamps_single_class():
    y = np.ones(8)
    b = init_intercept(LossKind.LOGISTIC, y)
    assert b == pytest.approx(np.log(15.0))  # p clamped to 15/16
    assert init_intercept(LossKind.LOGISTIC, np.zeros(8)) == pytest.approx(-np.log(15.0))
    with pytest.raises(ValueError):
        init_intercept(LossKind.ZERO_ONE, y)


def test_fit_loss_maps_each_task_and_training_arrays_inverts_it():
    assert FIT_LOSS == {Task.CLASSIFICATION: LossKind.LOGISTIC, Task.REGRESSION: LossKind.SQUARED}
    X, y = np.zeros((4, 2)), np.array([0.0, 1.0, 1.0, 0.0])
    for task, kind in FIT_LOSS.items():
        assert training_arrays(X, y, kind)[2] is task
    with pytest.raises(ValueError, match="evaluation loss"):
        training_arrays(X, y, LossKind.ZERO_ONE)


def test_training_arrays_rejects_a_matrix_without_columns():
    with pytest.raises(ValueError, match="at least one feature column"):
        training_arrays(np.zeros((4, 0)), np.array([0.0, 1.0, 1.0, 0.0]), LossKind.LOGISTIC)
