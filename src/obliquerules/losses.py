"""Pointwise losses, gradients with respect to the score, and intercept inits.

Squared loss is ``(y - score)^2 / 2``; logistic loss is evaluated in the
numerically stable softplus form ``softplus(score) - y * score``.  The 0/1
loss exists for evaluation only and has no gradient.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core import Task


class LossKind(str, Enum):
    SQUARED = "squared"
    LOGISTIC = "logistic"
    ZERO_ONE = "zero_one"


# the loss every learner fits for each task
FIT_LOSS = {Task.CLASSIFICATION: LossKind.LOGISTIC, Task.REGRESSION: LossKind.SQUARED}


def _check_binary(y: np.ndarray):
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("classification losses require labels in {0, 1}")


def logistic(s):
    """1 / (1 + exp(-s)); for s < -709.78 exp(-s) overflows to inf and the result is 0."""
    if np.fmin.reduce(s, axis=None, initial=np.inf) < -709.78:  # skips NaN; cheaper than np.min
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-s))
    return 1.0 / (1.0 + np.exp(-s))


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
        return logistic(score) - y
    raise ValueError("zero_one loss has no usable gradient")


def log_odds(p: float, n: int) -> float:
    """log(p / (1 - p)) of a positive rate over n rows; a single class's rate, exactly
    0 or 1, is clamped into [1/(2n), 1 - 1/(2n)] first, so it gets a finite value."""
    if not 0.0 < p < 1.0:
        p = min(max(p, 1.0 / (2 * n)), 1.0 - 1.0 / (2 * n))
    return float(np.log(p / (1.0 - p)))


def init_intercept(kind: LossKind, y) -> float:
    """Score constant minimizing the total loss: mean target or :func:`log_odds`."""
    kind = LossKind(kind)
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("cannot initialize an intercept from no targets")
    if kind is LossKind.SQUARED:
        return float(np.mean(y))
    if kind is LossKind.LOGISTIC:
        _check_binary(y)
        return log_odds(float(np.mean(y)), y.size)
    raise ValueError("zero_one loss cannot initialize an intercept")


def training_arrays(X, y, kind: LossKind):
    """Checked float training arrays plus the task that the loss ``kind`` fits."""
    kind = LossKind(kind)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("features must be a matrix with one target per row")
    if X.shape[0] < 2:
        raise ValueError("need at least two training rows")
    if X.shape[1] < 1:
        raise ValueError("need at least one feature column")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("features and targets must be finite")
    task = {fit: task for task, fit in FIT_LOSS.items()}.get(kind)
    if task is None:
        raise ValueError(f"{kind.value} is an evaluation loss, not a fitting loss")
    if kind is LossKind.LOGISTIC and not np.all((y == 0) | (y == 1)):
        raise ValueError("classification targets must be in {0, 1}")
    return X, y, task
