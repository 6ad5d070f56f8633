"""Pointwise losses, gradients with respect to the score, and intercept inits.

Squared loss is ``(y - score)^2 / 2``; logistic loss is evaluated in the
numerically stable softplus form ``softplus(score) - y * score``.  The 0/1
loss exists for evaluation only and has no gradient.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from scipy.special import expit


class LossKind(str, Enum):
    SQUARED = "squared"
    LOGISTIC = "logistic"
    ZERO_ONE = "zero_one"


def _check_binary(y: np.ndarray):
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("classification losses require labels in {0, 1}")


def softplus(s):
    return np.logaddexp(0.0, s)


def loss(kind: LossKind, y, score) -> np.ndarray:
    """Elementwise loss of predicted scores against targets."""
    kind = LossKind(kind)
    y = np.asarray(y, dtype=float)
    score = np.asarray(score, dtype=float)
    if kind is LossKind.SQUARED:
        return 0.5 * (y - score) ** 2
    if kind is LossKind.LOGISTIC:
        _check_binary(y)
        return softplus(score) - y * score
    # zero-one: predicted label is step{score >= 0}
    _check_binary(y)
    return ((score >= 0).astype(float) != y).astype(float)


def gradient(kind: LossKind, y, score) -> np.ndarray:
    """Elementwise d loss / d score."""
    kind = LossKind(kind)
    y = np.asarray(y, dtype=float)
    score = np.asarray(score, dtype=float)
    if kind is LossKind.SQUARED:
        return score - y
    if kind is LossKind.LOGISTIC:
        _check_binary(y)
        return expit(score) - y
    raise ValueError("zero_one loss has no usable gradient")


def init_intercept(kind: LossKind, y, clamp_single_class: bool = False) -> float:
    """Score constant minimizing the total loss: mean target or log-odds.

    With ``clamp_single_class`` the logistic case clamps the positive rate
    into [1/(2n), 1 - 1/(2n)] so single-class samples stay finite.
    """
    kind = LossKind(kind)
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("cannot initialize an intercept from no targets")
    if kind is LossKind.SQUARED:
        return float(np.mean(y))
    if kind is LossKind.LOGISTIC:
        _check_binary(y)
        p = float(np.mean(y))
        if clamp_single_class:
            lo = 1.0 / (2 * y.size)
            p = min(max(p, lo), 1.0 - lo)
        elif p <= 0.0 or p >= 1.0:
            raise ValueError("logistic intercept undefined for single-class targets")
        return float(np.log(p / (1.0 - p)))
    raise ValueError("zero_one loss cannot initialize an intercept")


def fitting_task(kind: LossKind):
    """Task implied by a fitting loss (zero_one is evaluation-only)."""
    from .core import Task

    kind = LossKind(kind)
    if kind is LossKind.SQUARED:
        return Task.REGRESSION
    if kind is LossKind.LOGISTIC:
        return Task.CLASSIFICATION
    raise ValueError("zero_one is an evaluation loss, not a fitting loss")


def training_arrays(X, y, kind: LossKind):
    """Checked float training arrays plus the task that the loss ``kind`` fits."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("features must be a matrix with one target per row")
    if X.shape[0] < 2:
        raise ValueError("need at least two training rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("features and targets must be finite")
    task = fitting_task(kind)  # rejects evaluation-only losses
    if LossKind(kind) is LossKind.LOGISTIC and not np.all((y == 0) | (y == 1)):
        raise ValueError("classification targets must be in {0, 1}")
    return X, y, task
