"""Spans and work counters at the layer boundaries of ``obliquerules``.

The tracer wraps the names that callers resolve at run time - module globals
that other modules imported by name, and class attributes - so every call
through a layer boundary opens a span.  Nothing under ``src/`` is edited;
``Tracer.close`` puts every original object back.

A span's self time is its duration minus the time covered by the spans it
caused (its children).  Spans are folded into per-name totals as they close,
so a traced run keeps a few dozen numbers rather than one record per call.
Time spent in the tracer's own counter hooks (for example the KKT residual of
each L1 solution) is charged to no layer.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    """Installs wrappers on layer entry points and aggregates their spans."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, span: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper.

        ``before(*args, **kwargs)`` runs ahead of the call and its return value
        is handed to ``after(result, state, *args, **kwargs)``, which runs once
        the call returned.  Neither hook's time is charged to any span.
        """
        original = vars(owner)[attr]
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            entered = perf_counter()
            state = before(*args, **kwargs) if before is not None else None
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                calls[span] += 1
                total_s[span] += elapsed
                self_s[span] += elapsed - children
            if after is not None:
                after(result, state, *args, **kwargs)
            if stack:
                # the whole wrapper, hooks included, is covered time of the parent
                stack[-1] += perf_counter() - entered
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def close(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0.0), float(value))


def _rows(X) -> int:
    return 1 if np.ndim(X) == 1 else len(X)


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def trace_layers(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every measured ``obliquerules`` layer."""
    from obliquerules import core, datasets, evaluation, lltboost, serialize, sparse_logreg, tgb

    counts = tracer.counts

    # sparse_logreg: callers resolve fit_weighted_l1 and loss_value through the
    # sparse_logreg globals, and corrective_refit through the learners' globals
    def l1_done(sol, _state, problem, lam, *args, **kwargs):
        counts["l1_solves"] += 1
        counts["l1_iters"] += sol.n_iter
        counts["l1_nonconverged"] += not sol.converged
        tracer.peak(
            "kkt_max",
            sparse_logreg.kkt_residual(problem, lam, sol.weights, sol.intercept),
        )

    def path_query_start(path, s, *args, **kwargs):
        return counts["l1_solves"]

    def path_query_done(sol, solves_before, path, s, *args, **kwargs):
        counts["path_query_solves"] += counts["l1_solves"] - solves_before
        counts["path_exact"] += sol.nnz == s

    def path_solve_start(path, lam):
        counts["path_cache_hits"] += lam in path._cache

    tracer.wrap(sparse_logreg, "fit_weighted_l1", "sparse_logreg.l1", after=l1_done)
    tracer.wrap(sparse_logreg.LambdaPath, "solve", "sparse_logreg.path_solve",
                before=path_solve_start)
    tracer.wrap(sparse_logreg.LambdaPath, "for_sparsity", "sparse_logreg.path_query",
                before=path_query_start, after=path_query_done)
    for learner in (lltboost, tgb):
        tracer.wrap(learner, "corrective_refit", "sparse_logreg.refit")

    # losses: every module that imported loss or gradient by name
    tracer.wrap(sparse_logreg, "loss_value", "losses.loss")
    for module in (lltboost, tgb, evaluation):
        tracer.wrap(module, "loss", "losses.loss")
    for module in (lltboost, tgb):
        tracer.wrap(module, "gradient", "losses.gradient")

    # learners
    def conjunction_done(body, *args, **kwargs):
        counts["propositions_kept"] += len(body) if body else 0

    def axis_scan_start(active, X, *args, **kwargs):
        counts["axis_rows_scanned"] += np.asarray(active).size * X.shape[1]

    tracer.wrap(lltboost, "fit", "lltboost.fit")
    tracer.wrap(lltboost, "fit_conjunction", "lltboost.conjunction", after=conjunction_done)
    tracer.wrap(lltboost, "fit_proposition", "lltboost.proposition")
    tracer.wrap(tgb, "fit", "tgb.fit")
    tracer.wrap(tgb, "best_axis_proposition", "tgb.axis_scan", before=axis_scan_start)

    # core: scoring and proposition activations, as class methods
    def decision_start(ensemble, X):
        counts["decision_rows"] += _rows(X)

    def activation_start(prop, X):
        counts["activation_rows"] += _rows(X)

    tracer.wrap(core.RuleEnsemble, "decision_function", "core.decision", before=decision_start)
    tracer.wrap(core.SparseProposition, "activations", "core.activation",
                before=activation_start)

    # evaluation, serialize, datasets
    def report_written(_result, _state, report, out_dir):
        counts["report_bytes"] += sum(p.stat().st_size for p in Path(out_dir).iterdir())

    def model_saved(_result, _state, model, path):
        counts["model_bytes"] += Path(path).stat().st_size

    tracer.wrap(evaluation, "run_benchmark", "evaluation.run")
    tracer.wrap(evaluation, "_run_repetition", "evaluation.repetition")
    tracer.wrap(evaluation.BenchmarkReport, "write", "evaluation.write", after=report_written)
    tracer.wrap(serialize, "save_model", "serialize.save", after=model_saved)
    tracer.wrap(serialize, "load_model", "serialize.load")
    for generator in ("make_oblique", "make_staircase"):
        tracer.wrap(datasets, generator, "datasets.generate")
    return tracer


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run as (value, unit).

    Every ratio's base is its own entry; a ratio over an empty base is 0.
    """
    c, n, own, total = tracer.counts, tracer.calls, tracer.self_s, tracer.total_s
    solves, queries = c["l1_solves"], n["sparse_logreg.path_query"]
    path_calls = n["sparse_logreg.path_solve"]
    proposition_calls = n["lltboost.proposition"]
    return {
        "sparse_logreg.l1_solves": (solves, "count"),
        "sparse_logreg.l1_iters": (c["l1_iters"], "count"),
        "sparse_logreg.iters_per_solve": (_ratio(c["l1_iters"], solves), "iters/solve"),
        "sparse_logreg.l1_nonconverged": (c["l1_nonconverged"], "count"),
        "sparse_logreg.l1_self_s": (own["sparse_logreg.l1"], "s"),
        "sparse_logreg.kkt_max": (tracer.maxima.get("kkt_max", 0.0), "gradient"),
        "sparse_logreg.path_queries": (queries, "count"),
        "sparse_logreg.path_solve_calls": (path_calls, "count"),
        "sparse_logreg.path_cache_hit_ratio": (_ratio(c["path_cache_hits"], path_calls), "hits/call"),
        "sparse_logreg.solves_per_query": (_ratio(c["path_query_solves"], queries), "solves/query"),
        "sparse_logreg.exact_sparsity_ratio": (_ratio(c["path_exact"], queries), "exact/query"),
        "sparse_logreg.path_self_s": (
            own["sparse_logreg.path_query"] + own["sparse_logreg.path_solve"], "s"),
        "sparse_logreg.refit_calls": (n["sparse_logreg.refit"], "count"),
        "sparse_logreg.refit_self_s": (own["sparse_logreg.refit"], "s"),
        "lltboost.fit_self_s": (own["lltboost.fit"] + own["lltboost.conjunction"], "s"),
        "lltboost.proposition_calls": (proposition_calls, "count"),
        "lltboost.propositions_kept_ratio": (
            _ratio(c["propositions_kept"], proposition_calls), "kept/call"),
        "lltboost.proposition_self_s": (own["lltboost.proposition"], "s"),
        "lltboost.conjunction_calls": (n["lltboost.conjunction"], "count"),
        "tgb.fit_self_s": (own["tgb.fit"], "s"),
        "tgb.axis_scans": (n["tgb.axis_scan"], "count"),
        "tgb.axis_rows_scanned": (c["axis_rows_scanned"], "rows"),
        "tgb.axis_scan_self_s": (own["tgb.axis_scan"], "s"),
        "core.decision_calls": (n["core.decision"], "count"),
        "core.decision_rows": (c["decision_rows"], "rows"),
        "core.decision_self_s": (own["core.decision"], "s"),
        "core.activation_calls": (n["core.activation"], "count"),
        "core.activation_rows": (c["activation_rows"], "rows"),
        "core.activation_self_s": (own["core.activation"], "s"),
        "losses.loss_calls": (n["losses.loss"], "count"),
        "losses.gradient_calls": (n["losses.gradient"], "count"),
        "losses.self_s": (own["losses.loss"] + own["losses.gradient"], "s"),
        "evaluation.repetitions": (n["evaluation.repetition"], "count"),
        "evaluation.self_s": (own["evaluation.run"] + own["evaluation.repetition"], "s"),
        "evaluation.write_s": (total["evaluation.write"], "s"),
        "evaluation.report_bytes": (c["report_bytes"], "bytes"),
        "serialize.save_s": (total["serialize.save"], "s"),
        "serialize.load_s": (total["serialize.load"], "s"),
        "serialize.model_bytes": (c["model_bytes"], "bytes"),
        "datasets.generate_s": (total["datasets.generate"], "s"),
    }
