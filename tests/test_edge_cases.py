"""Both learners on degenerate designs: no features, one feature, constant or
duplicated columns, and a rare positive class."""

import numpy as np
import pytest

from obliquerules import lltboost, sparse_logreg, tgb
from obliquerules.losses import LossKind

LEARNERS = {
    "lltboost": (lltboost.fit, lambda kind: lltboost.LLTConfig(max_rules=4, loss=kind)),
    "tgb": (tgb.fit, lambda kind: tgb.TGBConfig(max_rules=4, loss=kind, reg_strength=0.1)),
}


def degenerate_data(case, kind, n=300):
    rng = np.random.default_rng(17)
    x1, x2 = rng.normal(size=(2, n))
    X = {
        "one_feature": x1[:, None],
        "constant_columns": np.column_stack([x1, np.full(n, 3.0), x2, np.zeros(n)]),
        "duplicated_columns": np.column_stack([x1, x1, x2, x2]),
        "three_positives": np.column_stack([x1, x2]),
    }[case]
    if case == "three_positives":
        y = np.zeros(n)
        y[np.argsort(x1)[-3:]] = 1.0
        if kind is LossKind.SQUARED:
            y = 5.0 * y
    elif kind is LossKind.LOGISTIC:
        y = (x1 + 0.5 * x2 + 0.5 * rng.normal(size=n) > 0).astype(float)
    else:
        y = np.where(x1 + x2 > 0, 1.0, -1.0) + 0.1 * rng.normal(size=n)
    return X, y


@pytest.mark.parametrize("learner", sorted(LEARNERS))
@pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.SQUARED])
@pytest.mark.parametrize(
    "case", ["one_feature", "constant_columns", "duplicated_columns", "three_positives"]
)
def test_degenerate_designs_fit_with_nonincreasing_risk(learner, kind, case):
    fit, config = LEARNERS[learner]
    X, y = degenerate_data(case, kind)
    trace = fit(X, y, config(kind))
    risks = [stage.train_risk for stage in trace.stages]
    assert len(risks) > 1
    for a, b in zip(risks, risks[1:]):
        assert b <= a + 1e-9
    assert risks[-1] < risks[0]
    assert np.all(np.isfinite(trace.final.decision_function(X)))


@pytest.mark.parametrize("learner", sorted(LEARNERS))
def test_a_matrix_without_columns_is_rejected(learner):
    fit, config = LEARNERS[learner]
    with pytest.raises(ValueError, match="at least one feature column"):
        fit(np.zeros((10, 0)), np.tile([0.0, 1.0], 5), config(LossKind.LOGISTIC))


def test_every_l1_solve_of_a_rare_class_fit_converges(monkeypatch):
    # separable data: the train risk is near zero after one rule, which leaves
    # nearly flat weighted problems for the later propositions
    kkt = []
    paths = []
    real = sparse_logreg.fit_weighted_l1

    class RecordedPath(sparse_logreg.LambdaPath):
        def __init__(self, problem):
            super().__init__(problem)
            paths.append(self)

    def checked(problem, lam, *args, **kwargs):
        sol = real(problem, lam, *args, **kwargs)
        assert sol.converged
        kkt.append(sparse_logreg.kkt_residual(problem, lam, sol.weights, sol.intercept))
        return sol

    monkeypatch.setattr(sparse_logreg, "fit_weighted_l1", checked)
    monkeypatch.setattr(lltboost, "LambdaPath", RecordedPath)
    fit, config = LEARNERS["lltboost"]
    fit(*degenerate_data("three_positives", LossKind.LOGISTIC), config(LossKind.LOGISTIC))
    # every path with a positive lam_max walks at least one knot
    assert len(kkt) >= sum(path.problem.lam_max > 0 for path in paths) > 0
    assert max(kkt) <= sparse_logreg.KKT_TOL
