#!/usr/bin/env python3
"""Check that two source trees of obliquerules fit and report byte-identically.

Each tree is imported in its own fresh interpreter, which writes:

- fits.json: every stage's train risk, complexity, intercept and rule weights,
  and every proposition's indices, weights and threshold (floats as repr), of
  lltboost and tgb fits on make_oblique, make_rotated_box and make_staircase
  (n=300, d=6, seeds 0 and 1) under logistic and squared loss, and of five
  more logistic tgb fits: one on make_staircase(n=2000, d=8) with the
  features rounded to 1 decimal, so that about 30 rows share each value of a
  column; one on make_oblique(n=1000, d=6, seed=2) at reg 100 with up to
  8 propositions per rule, so that rules are scanned up to 8 levels deep;
  one of 60 rules on make_oblique(n=2000, d=6, noise=0.2, seed=3), so that
  the logistic refit splits its row groups by up to 60 covers; and one
  on a bootstrap resample of make_staircase(n=2000, d=8) with a constant
  ninth column appended, so that duplicated rows tie every column of the
  presort and one feature offers no threshold at all; and one on
  make_staircase(n=20000, d=20, seed=0) at reg 100, so that the scan takes
  its one-column blocks (more than ``tgb.SCAN_BLOCK_CELLS // 2`` active
  rows) below the root too and each conjunction filters full-width orders;
  and of ten more logistic lltboost fits: one (seed 1) on 500 rows drawn
  with replacement from make_oblique(n=1000, d=6, seed=0), as the protocol
  draws them, and nine of the default config on noise-free make_oblique,
  make_rotated_box and make_staircase (n=500, d=6, noise=0, seeds 0-2), on
  which one gradient sign of a proposition's active rows can carry only a
  rounding-level mass (make_oblique seed 1 meets one of 5e-13); every stage
  also carries the sha256 of its ``decision_function`` scores on a fixed
  block of 40,000 raw rows from make_oblique (seed 10) of the fit's width,
  followed by 200 of those rows moved onto the hyperplane of each
  proposition of the fit's final stage.  On a hyperplane the rounding of a
  projection decides the cover, so a projection that rounds differently, as
  a dense oblique one can, changes the hash.  The block is not a multiple of
  ``core.SCORE_BLOCK_ROWS``, so it crosses a block boundary.
  For the two tgb fits whose columns tie (the rounded and the bootstrap
  one), the key ``presort/<fit key>`` holds the sha256 of the orders that
  ``tgb._stable_orders`` returns over the standardized training rows (alone,
  also where it returns them with the tie facts), the order of the rows
  inside each tie that the axis scan reads.  For each lltboost fit,
  the key ``l1/<fit key>`` holds the sha256 of every solution that
  ``LambdaPath.for_sparsity`` returned during the fit, with its sparsity
  level, so that a change of an L1 solution shows even where no final model
  keeps it.  The 22 lltboost fits run 1610 L1 solves on their paths: 1553
  at knots, 26 after a far jump halved lam and 31 after a halfway step, so
  both fallbacks of the walk are covered (the far jumps all come from the
  noise-free make_oblique seed 1 fit; 1 of the halfway steps comes from the
  bootstrap fit, 30 from the noise-free ones).  For each tgb fit, the
  key ``scan/<fit key>`` holds the sha256 of every answer of
  ``tgb.best_axis_proposition`` during the fit (feature, direction, and the
  hex of threshold and score, or None), so that a change of an axis scan
  shows even where no final model keeps it (a scan that answers for several
  reg strengths adds each answer in turn);
- report.json and the three result CSVs of a small run_benchmark run on the
  default 7-value tgb grid, over two classification datasets and one
  regression dataset, so that the grid is fitted under logistic and under
  squared loss;
- model_lltboost.json and model_tgb.json written by ``obliquerules train``, and
  model_lltboost_config.json and model_tgb_config.json written by ``train
  --config`` with every settings key given in the file.

Then every file is compared byte for byte.  For a JSON file that differs, the
paths of the differing values are listed with both sides (a list or object
as its size, any other value cut to 120 characters), then the count of
differing values per path with its list indices stripped (for example
``.curves[].complexity: 4``), then the largest relative difference
|a - b| / max(|a|, |b|) among the differing numbers and its path.  For
fits.json it also counts the fits whose final stage differs, and in how many
of those the final complexity rose or fell and the final train risk fell or
rose.

Usage:
    python3 scripts/compare_outputs.py BEFORE_SRC AFTER_SRC

where each argument is the ``src`` directory of a checkout.  Exit status 0
when every file is identical, 1 otherwise.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

FILES = ("fits.json", "report.json", "complexity_table.csv", "risk_table.csv",
         "curves.csv", "model_lltboost.json", "model_tgb.json",
         "model_lltboost_config.json", "model_tgb_config.json")
SCORE_ROWS = 40_000  # raw rows of the block every stage scores
BOUNDARY_ROWS = 200  # of them moved onto each proposition's hyperplane
TRAIN_CONFIG = {"rules": 3, "propositions": 2, "nonzeros": 2, "reg": 1, "seed": 4}


def _stage_doc(stage, block) -> dict:
    ens = stage.ensemble
    return {
        "scores": hashlib.sha256(ens.decision_function(block).tobytes()).hexdigest(),
        "train_risk": repr(stage.train_risk),
        "complexity": stage.complexity,
        "intercept": repr(ens.intercept),
        "rules": [
            {"weight": repr(rule.weight),
             "propositions": [{"indices": p.indices.tolist(),
                               "weights": [repr(float(w)) for w in p.weights],
                               "threshold": repr(p.threshold)}
                              for p in rule.propositions]}
            for rule in ens.rules
        ],
    }


def _score_block(base, ensemble):
    """``base`` plus its first BOUNDARY_ROWS rows moved, in standardized
    coordinates, onto the hyperplane of each proposition of ``ensemble``."""
    import numpy as np

    std = ensemble.standardizer
    Z = (base[:BOUNDARY_ROWS] - std.mean) / std.scale
    rows = [base]
    for rule in ensemble.rules:
        for p in rule.propositions:
            w = np.zeros(Z.shape[1])
            w[p.indices] = p.weights
            on_plane = Z + np.outer(p.threshold - Z @ w, w / (w @ w))
            rows.append(on_plane * std.scale + std.mean)
    return np.vstack(rows)


def _fit_doc(trace, base) -> list[dict]:
    block = _score_block(base, trace.final)
    return [_stage_doc(stage, block) for stage in trace.stages]


def _record_sparsity_queries(answers: list) -> None:
    """Append ``(s, solution)`` to ``answers`` for every ``LambdaPath.for_sparsity``
    call from now on, in call order."""
    from obliquerules.sparse_logreg import LambdaPath

    for_sparsity = LambdaPath.for_sparsity

    def recorded(path, s):
        solution = for_sparsity(path, s)
        answers.append((s, solution))
        return solution

    LambdaPath.for_sparsity = recorded


def _l1_digest(answers) -> str:
    """sha256 of each recorded (s, weights, intercept, lam, nnz, converged, n_iter)."""
    digest = hashlib.sha256()
    for s, sol in answers:
        digest.update(sol.weights.tobytes())
        digest.update(repr((int(s), float(sol.intercept), float(sol.lam), int(sol.nnz),
                            bool(sol.converged), int(sol.n_iter))).encode())
    return digest.hexdigest()


def _record_axis_scans(answers: list) -> None:
    """Append every ``tgb.best_axis_proposition`` answer from now on to
    ``answers``, in call order.  A scan that answers for several reg
    strengths at once returns a tuple of answers, and each is appended in
    turn, so a tree whose scan answers once per call compares equal."""
    from obliquerules import tgb

    best_axis_proposition = tgb.best_axis_proposition

    def recorded(*args, **kwargs):
        cand = best_axis_proposition(*args, **kwargs)
        single = cand is None or isinstance(cand, tgb.AxisCandidate)
        answers.extend((cand,) if single else cand)
        return cand

    tgb.best_axis_proposition = recorded


def _scan_digest(answers) -> str:
    """sha256 of each recorded (feature, direction, threshold hex, score hex) or None."""
    digest = hashlib.sha256()
    for cand in answers:
        if cand is not None:
            cand = (int(cand.feature), cand.direction, float(cand.threshold).hex(),
                    float(cand.score).hex())
        digest.update(repr(cand).encode())
    return digest.hexdigest()


def write_outputs(out: Path) -> None:
    """Fit, run the protocol and train through the CLI; write FILES into ``out``."""
    import numpy as np

    from obliquerules import cli, lltboost, tgb
    from obliquerules.core import Task
    from obliquerules.datasets import (Dataset, make_oblique, make_rotated_box, make_staircase,
                                       write_csv)
    from obliquerules.evaluation import ProtocolConfig, run_benchmark
    from obliquerules.losses import LossKind

    blocks = {d: make_oblique(n=SCORE_ROWS, d=d, seed=10).X for d in (6, 8, 9, 20)}
    fits = {}
    answers, scans = [], []
    _record_sparsity_queries(answers)
    _record_axis_scans(scans)
    for make in (make_oblique, make_rotated_box, make_staircase):
        for seed in (0, 1):
            data = make(n=300, d=6, seed=seed)
            for kind in (LossKind.LOGISTIC, LossKind.SQUARED):
                for module, cfg in ((lltboost, lltboost.LLTConfig(loss=kind, seed=seed)),
                                    (tgb, tgb.TGBConfig(loss=kind, reg_strength=1.0))):
                    answers.clear()
                    scans.clear()
                    trace = module.fit(data.X, data.y, cfg)
                    key = f"{make.__name__}/seed{seed}/{kind.value}/{module.__name__}"
                    fits[key] = _fit_doc(trace, blocks[6])
                    if module is lltboost:
                        fits[f"l1/{key}"] = _l1_digest(answers)
                    else:
                        fits[f"scan/{key}"] = _scan_digest(scans)
    # a bootstrap sample, as the protocol fits, on which the path walk takes
    # halfway steps, and noise-free samples, on which one gradient sign can
    # carry only a rounding-level mass
    boot = make_oblique(n=1000, d=6, seed=0)
    rows = np.random.default_rng(1).integers(0, boot.X.shape[0], size=500)
    lltboost_fits = [("boot/make_oblique_bootstrap/seed1/logistic/obliquerules.lltboost",
                      boot.X[rows], boot.y[rows], lltboost.LLTConfig(seed=1))]
    for make in (make_oblique, make_rotated_box, make_staircase):
        for seed in (0, 1, 2):
            clean = make(n=500, d=6, noise=0.0, seed=seed)
            lltboost_fits.append((f"clean/{make.__name__}_noise0/seed{seed}/logistic/"
                                  "obliquerules.lltboost", clean.X, clean.y, lltboost.LLTConfig()))
    for key, X, y, cfg in lltboost_fits:
        answers.clear()
        trace = lltboost.fit(X, y, cfg)
        fits[key] = _fit_doc(trace, blocks[6])
        fits[f"l1/{key}"] = _l1_digest(answers)
    tied = make_staircase(n=2000, d=8, seed=0)
    deep = make_oblique(n=1000, d=6, seed=2)
    wide = make_oblique(n=2000, d=6, noise=0.2, seed=3)
    large = make_staircase(n=20000, d=20, seed=0)
    resample = np.random.default_rng(0).integers(0, tied.X.shape[0], size=tied.X.shape[0])
    boot_X = np.column_stack([tied.X[resample], np.ones(tied.X.shape[0])])
    for key, X, y, cfg in (
            ("tied/make_staircase_round1/seed0/logistic/obliquerules.tgb", np.round(tied.X, 1),
             tied.y, tgb.TGBConfig(reg_strength=1.0)),
            ("deep/make_oblique/seed2/logistic/obliquerules.tgb", deep.X, deep.y,
             tgb.TGBConfig(reg_strength=100.0, max_propositions=8)),
            ("wide/make_oblique_noise0.2/seed3/logistic/obliquerules.tgb", wide.X, wide.y,
             tgb.TGBConfig(max_rules=60, max_propositions=3, reg_strength=1.0)),
            ("boot/make_staircase_bootstrap_const/seed0/logistic/obliquerules.tgb", boot_X,
             tied.y[resample], tgb.TGBConfig(reg_strength=1.0)),
            ("large/make_staircase/seed0/logistic/obliquerules.tgb", large.X, large.y,
             tgb.TGBConfig(reg_strength=100.0))):
        scans.clear()
        trace = tgb.fit(X, y, cfg)
        fits[key] = _fit_doc(trace, blocks[X.shape[1]])
        fits[f"scan/{key}"] = _scan_digest(scans)
        if key.startswith(("tied/", "boot/")):
            orders = tgb._stable_orders(trace.final.standardizer.transform(X))
            if isinstance(orders, tuple):  # a presort that also returns the tie facts
                orders = orders[0]
            fits[f"presort/{key}"] = hashlib.sha256(orders.tobytes()).hexdigest()
    (out / "fits.json").write_text(json.dumps(fits, indent=1, sort_keys=True))

    rng = np.random.default_rng(6)
    X = rng.normal(size=(150, 4))
    y = np.where(X[:, 0] > 0.3, 1.0, -0.5) + X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=150)
    regression = Dataset(name="regression", feature_names=("a", "b", "c", "d"), X=X, y=y,
                         task=Task.REGRESSION)
    datasets = [make_oblique(n=150, d=4, seed=3), make_staircase(n=150, d=4, seed=4), regression]
    config = ProtocolConfig(max_rules=4, bootstrap_cap=100)
    run_benchmark(datasets, config).write(out)
    (out / "timing_table.csv").unlink()  # wall clock, never identical

    csv_path = out / "train.csv"
    write_csv(make_rotated_box(n=200, d=4, seed=5), csv_path)
    config_path = out / "train_config.json"
    config_path.write_text(json.dumps(TRAIN_CONFIG))
    for method in ("lltboost", "tgb"):
        for suffix, flags in (("", ["--rules", "4"]), ("_config", ["--config", str(config_path)])):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(["train", "--data", str(csv_path), "--target", "target",
                                 "--task", "clf", "--method", method, *flags,
                                 "--out", str(out / f"model_{method}{suffix}.json")])
            if code != 0:
                raise SystemExit(f"train --method {method} {' '.join(flags)} exited {code}: "
                                 f"{err.getvalue()}")
    csv_path.unlink()
    config_path.unlink()


def _json_diffs(a, b, path="") -> list[tuple[str, object, object]]:
    """(path, before, after) of each value at which two decoded JSON documents
    differ; a missing key reads as ``'<absent>'``."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            if key in a and key in b:
                out += _json_diffs(a[key], b[key], f"{path}.{key}")
            else:
                out.append((f"{path}.{key}", a.get(key, "<absent>"), b.get(key, "<absent>")))
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out += _json_diffs(x, y, f"{path}[{i}]")
        return out
    return [] if a == b else [(path or ".", a, b)]


def _shown(value) -> str:
    """A differing value for one line: a list or object as its size, anything
    else as its repr, cut to 120 characters."""
    if isinstance(value, (list, dict)):
        return f"<{type(value).__name__} of {len(value)}>"
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _number(value) -> float | None:
    """A finite JSON number, or a string holding one (fits.json stores reprs)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        x = float(value)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _largest_relative_difference(diffs) -> str:
    """|a - b| / max(|a|, |b|), maximized over the differing number pairs."""
    best = None
    for path, a, b in diffs:
        x, y = _number(a), _number(b)
        if x is None or y is None:
            continue
        rel = abs(x - y) / max(abs(x), abs(y))
        if best is None or rel > best[0]:
            best = (rel, path)
    if best is None:
        return "largest relative difference: no differing numbers"
    return f"largest relative difference: {best[0]:.3g} at {best[1]}"


def _counts_by_path(diffs) -> list[str]:
    """``'<path without list indices>: <count>'`` per group of differing values."""
    counts = collections.Counter(re.sub(r"\[\d+\]", "[]", path) for path, _, _ in diffs)
    return [f"{path}: {count}" for path, count in sorted(counts.items())]


def _final_stage_changes(before: dict, after: dict) -> str:
    """For two fits.json documents: in how many fits the final stage differs,
    and how its complexity and train risk moved in those."""
    finals = [(before[key][-1], after[key][-1]) for key in sorted(set(before) & set(after))
              if isinstance(before[key], list) and isinstance(after[key], list)]
    changed = [(a, b) for a, b in finals if a != b]
    moves = collections.Counter()
    for a, b in changed:
        for field in ("complexity", "train_risk"):
            x, y = float(a[field]), float(b[field])
            moves[field, "rose" if y > x else "fell" if y < x else "held"] += 1
    return (f"final stage differs in {len(changed)} of {len(finals)} fits: complexity rose "
            f"{moves['complexity', 'rose']}, fell {moves['complexity', 'fell']}; train risk "
            f"fell {moves['train_risk', 'fell']}, rose {moves['train_risk', 'rose']}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--write":  # child: one tree, one output dir
        sys.path.insert(0, argv[1])
        write_outputs(Path(argv[2]))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for side, src in zip(("before", "after"), argv):
            out = Path(tmp) / side
            out.mkdir()
            subprocess.run([sys.executable, __file__, "--write", str(Path(src).resolve()),
                            str(out)], check=True, stdout=subprocess.DEVNULL)
            outs.append(out)
        same = True
        for name in FILES:
            a, b = ((out / name).read_bytes() for out in outs)
            digest = hashlib.sha256(a).hexdigest()[:16]
            if a == b:
                print(f"identical  {digest}  {name}")
                continue
            same = False
            print(f"DIFFERS    {digest}  {name}")
            if name.endswith(".json"):
                diffs = _json_diffs(json.loads(a), json.loads(b))
                for path, x, y in diffs:
                    print(f"    {path}: {_shown(x)} -> {_shown(y)}")
                for line in _counts_by_path(diffs):
                    print(f"    {line}")
                print(f"    {_largest_relative_difference(diffs)}")
                if name == "fits.json":
                    print(f"    {_final_stage_changes(json.loads(a), json.loads(b))}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
