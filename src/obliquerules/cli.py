"""Command-line surface: train, predict, print, benchmark, make-synthetic.

Exit codes: 0 success, 2 usage/config problems (an unwritable ``--out``
included), 3 data errors, 4 fit failures.  All commands are deterministic given their flags and seeds.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .core import Task
from .datasets import (
    SYNTHETIC_GENERATORS,
    DataError,
    Dataset,
    load_csv,
    load_feature_rows,
    load_targets,
    write_csv,
)
from .evaluation import LEARNERS, ProtocolConfig, learner_config, run_benchmark
from .losses import FIT_LOSS, LossKind, loss
from .serialize import ModelFile, ModelFormatError, load_model, save_model

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_FIT = 4

TASK_ALIASES = {
    "classification": Task.CLASSIFICATION,
    "clf": Task.CLASSIFICATION,
    "regression": Task.REGRESSION,
    "reg": Task.REGRESSION,
}


class UsageError(Exception):
    """Bad flags or malformed configuration."""


class FitError(Exception):
    """A learner failed on valid-looking data."""


# ---------------------------------------------------------------------------
# rule rendering
# ---------------------------------------------------------------------------


def _fmt(value: float, precision: int) -> str:
    return f"{value + 0.0:.{precision}f}"


def print_rules(model: ModelFile, precision: int = 2) -> str:
    """Human-readable rendering: one line per rule, then the complexity.

    Weighted conditions appear as ``w·name`` terms joined with explicit
    signs, thresholds after ``≥``, conjunctions joined with `` & ``.
    """
    ens = model.ensemble
    lines = [f"score = {ens.intercept + 0.0:+.{precision}f}"]
    for rule in ens.rules:
        conds = []
        for prop in rule.propositions:
            terms = ""
            for k, (j, w) in enumerate(zip(prop.indices, prop.weights)):
                name = model.feature_names[int(j)]
                mag = _fmt(abs(float(w)), precision)
                if k == 0:
                    terms = (f"−{mag}·{name}" if w < 0 else f"{mag}·{name}")
                else:
                    sign = "−" if w < 0 else "+"
                    terms += f" {sign} {mag}·{name}"
            conds.append(f"{terms} ≥ {_fmt(float(prop.threshold), precision)}")
        lines.append(f"{rule.weight + 0.0:+.{precision}f} if " + " & ".join(conds))
    lines.append(f"complexity: C(f) = {ens.complexity()}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _parse_task(text: str) -> Task:
    try:
        return TASK_ALIASES[str(text).lower()]
    except KeyError:
        raise UsageError(
            f"unknown task {text!r}; expected one of {sorted(TASK_ALIASES)}"
        ) from None


def _read_json(path, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: {what} must be a JSON object")
    return doc


@contextmanager
def _writing(path):
    """Report a failure to write ``path`` as a usage error, like an unreadable config."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_writable(path, make_dir=False):
    """Raise the usage error of :func:`_writing` unless the directory of ``path``
    (``path`` itself, made with its parents, given ``make_dir``) exists and is
    writable, so a long run does not end in a failed write."""
    directory = Path(path) if make_dir else Path(path).parent
    with _writing(path):
        if make_dir:
            directory.mkdir(parents=True, exist_ok=True)
        with os.scandir(directory):  # missing, or not a directory
            pass
        if not os.access(directory, os.W_OK):  # an existing directory may be read-only
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

# train --config key (and flag) -> learner config field; the config classes
# hold the defaults and check the values
TRAIN_FIELDS = {
    "rules": "max_rules",
    "propositions": "max_propositions",
    "nonzeros": "max_nonzeros",
    "reg": "reg_strength",
    "validation_fraction": "validation_fraction",
    "seed": "seed",
}


def _train_config(args, task: Task):
    """Checked config of ``args.method`` and the seed given (default 0).

    Every learner's config is built, so that a key only another method reads is checked too.
    """
    settings = {}
    if args.config:
        settings = _read_json(args.config, "config")
        unknown = set(settings) - set(TRAIN_FIELDS)
        if unknown:
            raise UsageError(f"{args.config}: unknown config keys {sorted(unknown)}")
    for key in TRAIN_FIELDS:  # explicit flags override file values
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    fields = {TRAIN_FIELDS[key]: value for key, value in settings.items()}
    try:
        configs = {m: learner_config(m, loss=FIT_LOSS[task], **fields) for m in LEARNERS}
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(str(exc)) from None
    return configs[args.method], configs["lltboost"].seed


def _cmd_train(args) -> int:
    task = _parse_task(args.task)
    cfg, seed = _train_config(args, task)

    dataset = load_csv(args.data, args.target, task)
    if dataset.n_skipped_rows:
        print(
            f"note: skipped {dataset.n_skipped_rows} row(s) with missing cells",
            file=sys.stderr,
        )
    _check_writable(args.out)
    try:
        trace = LEARNERS[args.method].module.fit(dataset.X, dataset.y, cfg)
    except Exception as exc:
        raise FitError(f"{type(exc).__name__}: {exc}") from exc

    final = trace.stages[-1]
    from dataclasses import asdict

    config_doc = {k: (v.value if isinstance(v, LossKind) else v) for k, v in asdict(cfg).items()}
    model = ModelFile(
        ensemble=final.ensemble,
        feature_names=dataset.feature_names,
        metadata={
            "method": args.method,
            "seed": seed,
            "config": config_doc,
            "library_version": __version__,
            "final_train_risk": final.train_risk,
            "label_names": list(dataset.label_names),
        },
    )
    with _writing(args.out):
        save_model(model, args.out)

    print("stage,complexity,train_risk")
    for m, stage in enumerate(trace.stages):
        print(f"{m},{stage.complexity},{stage.train_risk!r}")
    print(f"model written to {args.out}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# predict / print
# ---------------------------------------------------------------------------


def _model_labels(model: ModelFile) -> tuple[str, ...]:
    """The two raw labels ``train`` stored behind a classifier's 0/1, else ()."""
    labels = model.metadata.get("label_names")
    if (model.ensemble.task is Task.CLASSIFICATION and isinstance(labels, list)
            and len(labels) == 2 and all(isinstance(x, str) for x in labels)
            and labels[0] != labels[1]):
        return tuple(labels)
    return ()


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    ens = model.ensemble
    X = load_feature_rows(args.data, model.feature_names)
    y = None
    if args.target:
        y = load_targets(args.data, args.target, ens.task, _model_labels(model))
    scores = ens.decision_function(X)
    out_lines = [repr(float(s)) for s in scores]
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text("\n".join(out_lines) + "\n", encoding="utf-8")
    else:
        for line in out_lines:
            print(line)
    if y is not None:
        print(f"risk = {float(np.mean(loss(FIT_LOSS[ens.task], y, scores)))!r}")
    return EXIT_OK


def _cmd_print(args) -> int:
    if not 0 <= args.precision <= 17:  # a double carries at most 17 significant digits
        raise UsageError(f"--precision must be between 0 and 17, got {args.precision}")
    model = load_model(args.model)
    print(print_rules(model, precision=args.precision))
    return EXIT_OK


# ---------------------------------------------------------------------------
# benchmark / make-synthetic
# ---------------------------------------------------------------------------


def _dataset_from_spec(spec: dict, position: int) -> Dataset:
    if not isinstance(spec, dict):
        raise UsageError(f"datasets[{position}] must be a JSON object")
    if "synthetic" in spec:
        name = spec["synthetic"]
        if not isinstance(name, str) or name not in SYNTHETIC_GENERATORS:
            raise UsageError(
                f"datasets[{position}]: unknown synthetic generator {name!r}; "
                f"available: {sorted(SYNTHETIC_GENERATORS)}"
            )
        kwargs = {k: spec[k] for k in ("n", "d", "noise", "seed") if k in spec}
        extra = set(spec) - {"synthetic", "n", "d", "noise", "seed"}
        if extra:
            raise UsageError(f"datasets[{position}]: unknown keys {sorted(extra)}")
        return _synthesize(name, **kwargs)
    for key in ("path", "target", "task"):
        if key not in spec:
            raise UsageError(f"datasets[{position}]: missing key {key!r}")
    dataset = load_csv(spec["path"], spec["target"], _parse_task(spec["task"]))
    if "name" in spec:
        from dataclasses import replace

        dataset = replace(dataset, name=str(spec["name"]))
    return dataset


def _cmd_benchmark(args) -> int:
    doc = _read_json(args.config, "protocol config")
    specs = doc.pop("datasets", None)
    if not specs or not isinstance(specs, list):
        raise UsageError(f"{args.config}: 'datasets' must be a non-empty list")
    allowed = set(ProtocolConfig.__dataclass_fields__) - {"jobs"}
    unknown = set(doc) - allowed
    if unknown:
        raise UsageError(f"{args.config}: unknown config keys {sorted(unknown)}")
    doc = {
        k: tuple(v) if isinstance(v, list) else v
        for k, v in doc.items()
    }
    try:
        config = ProtocolConfig(jobs=args.jobs, **doc)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{args.config}: {exc}") from None
    datasets = [_dataset_from_spec(s, i) for i, s in enumerate(specs)]
    _check_writable(args.out, make_dir=True)  # before the protocol runs, not after

    report = run_benchmark(datasets, config)
    with _writing(args.out):
        report.write(args.out)
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"report written to {args.out}")
    return EXIT_OK


def _synthesize(generator: str, **spec) -> Dataset:
    try:
        return SYNTHETIC_GENERATORS[generator](**spec)
    except (TypeError, ValueError, DataError) as exc:
        raise UsageError(f"synthetic {generator!r} dataset: {exc}") from None


def _cmd_make_synthetic(args) -> int:
    dataset = _synthesize(args.generator, n=args.n, d=args.d, noise=args.noise, seed=args.seed)
    with _writing(args.out):
        write_csv(dataset, args.out, target_column=args.target_column)
    print(f"{dataset.name}: {dataset.n_rows} rows, {dataset.n_features} features "
          f"-> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obliquerules",
        description="Small additive rule ensembles with sparse oblique conditions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit one model from a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--method", required=True, choices=sorted(LEARNERS))
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file; explicit flags override its values")
    p.add_argument("--rules", type=int)
    p.add_argument("--propositions", type=int)
    p.add_argument("--nonzeros", type=int)
    p.add_argument("--reg", type=float)
    p.add_argument("--validation-fraction", dest="validation_fraction", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score a CSV with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", help="if given, also report the risk on this column")
    p.add_argument("--out", help="write scores here instead of standard output")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("print", help="render a saved model as rules")
    p.add_argument("--model", required=True)
    p.add_argument("--precision", type=int, default=2)
    p.set_defaults(func=_cmd_print)

    p = sub.add_parser("benchmark", help="run the risk-vs-complexity protocol")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("make-synthetic", help="write a bundled synthetic dataset")
    p.add_argument(
        "--generator", required=True, choices=sorted(SYNTHETIC_GENERATORS)
    )
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--d", type=int, default=6)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--target-column", dest="target_column", default="target")
    p.set_defaults(func=_cmd_make_synthetic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FitError as exc:
        print(f"error: fit failed: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
