"""Command-line surface: train, predict, print, benchmark, make-synthetic.

Exit codes: 0 success, 2 usage/config problems (an unwritable ``--out`` or
standard output included), 3 data errors, 4 fit failures.  All commands are
deterministic given their flags and seeds.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import Task
from .datasets import (
    SYNTHETIC_GENERATORS,
    DataError,
    Dataset,
    load_csv,
    load_rows,
    write_csv,
)
from .evaluation import LEARNERS, ProtocolConfig, learner_config, run_benchmark
from .losses import FIT_LOSS, loss
from .serialize import ModelFile, ModelFormatError, load_model, read_json, save_model

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


def _read_config(path, keys) -> dict:
    """The JSON object in config file ``path``, which may use only ``keys``."""
    doc = read_json(path, UsageError)
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    unknown = set(doc) - set(keys)
    if unknown:
        raise UsageError(f"{path}: unknown config keys {sorted(unknown)}")
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
    "seed": "seed",
}


def _train_config(args, task: Task):
    """Checked config of ``args.method`` and the seed given (default 0).

    Every learner's config is built, so that a key only another method reads is checked too.
    """
    settings = _read_config(args.config, TRAIN_FIELDS) if args.config else {}
    for key in TRAIN_FIELDS:  # explicit flags override file values
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    fields = {TRAIN_FIELDS[key]: value for key, value in settings.items()}
    try:
        configs = {m: learner_config(m, loss=FIT_LOSS[task], **fields) for m in LEARNERS}
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    return configs[args.method], configs["lltboost"].seed


def _cmd_train(args) -> str:
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
    model = ModelFile(
        ensemble=final.ensemble,
        feature_names=dataset.feature_names,
        metadata={
            "method": args.method,
            "seed": seed,
            "config": asdict(cfg),
            "final_train_risk": final.train_risk,
            "label_names": list(dataset.label_names),
        },
    )
    with _writing(args.out):
        save_model(model, args.out)

    print(f"model written to {args.out}", file=sys.stderr)
    return "\n".join(["stage,complexity,train_risk"] + [
        f"{m},{stage.complexity},{stage.train_risk!r}" for m, stage in enumerate(trace.stages)])


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


def _cmd_predict(args) -> str:
    model = load_model(args.model)
    ens = model.ensemble
    X, y = load_rows(args.data, model.feature_names, args.target or None, ens.task,
                     _model_labels(model))
    scores = ens.decision_function(X)
    out_lines = [repr(float(s)) for s in scores]
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text("\n".join(out_lines) + "\n", encoding="utf-8")
        out_lines = []
    if y is not None:
        out_lines.append(f"risk = {float(np.mean(loss(FIT_LOSS[ens.task], y, scores)))!r}")
    return "\n".join(out_lines)


def _cmd_print(args) -> str:
    if not 0 <= args.precision <= 17:  # a double carries at most 17 significant digits
        raise UsageError(f"--precision must be between 0 and 17, got {args.precision}")
    return print_rules(load_model(args.model), precision=args.precision)


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
        try:  # the generator's signature rejects any other key
            return _synthesize(name, **{k: v for k, v in spec.items() if k != "synthetic"})
        except UsageError as exc:
            raise UsageError(f"datasets[{position}]: {exc}") from None
    if extra := set(spec) - {"path", "target", "task", "name"}:
        raise UsageError(f"datasets[{position}]: unknown keys {sorted(extra)}")
    for key in ("path", "target", "task"):
        if key not in spec:
            raise UsageError(f"datasets[{position}]: missing key {key!r}")
    for key in ("path", "target", "name"):
        if not isinstance(spec.get(key, ""), str):
            raise UsageError(f"datasets[{position}]: {key!r} must be a string")
    dataset = load_csv(spec["path"], spec["target"], _parse_task(spec["task"]))
    return replace(dataset, name=spec["name"]) if "name" in spec else dataset


def _cmd_benchmark(args) -> str:
    keys = (set(ProtocolConfig.__dataclass_fields__) - {"jobs"}) | {"datasets"}
    doc = _read_config(args.config, keys)
    specs = doc.pop("datasets", None)
    if not specs or not isinstance(specs, list):
        raise UsageError(f"{args.config}: 'datasets' must be a non-empty list")
    try:
        config = ProtocolConfig(jobs=args.jobs, **doc)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{args.config}: {exc}") from None
    datasets = [_dataset_from_spec(s, i) for i, s in enumerate(specs)]
    names = [d.name for d in datasets]
    if repeated := sorted({name for name in names if names.count(name) > 1}):
        raise UsageError(f"{args.config}: dataset names must be unique, repeated: {repeated}")
    _check_writable(args.out, make_dir=True)  # before the protocol runs, not after

    report = run_benchmark(datasets, config)
    with _writing(args.out):
        report.write(args.out)
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    header = f"{'dataset':<14} {'method':<10} {'median':>8} {'interval':>16}"
    lines = [f"report written to {args.out}\n\n"
             "median minimum complexity to reach the baseline's mean test risk\n"
             "(0/1 or squared metric; in brackets the (4th, 7th) order-statistic interval, "
             "65.6% coverage):\n", header, "-" * len(header)]
    for row in report.complexity_rows:
        if row["metric"] in ("zero_one", "squared"):
            # the interval cells are blank unless there are 10 repetitions
            low, high = ("" if row[k] == "" else _fmt(row[k], 3)
                         for k in ("ci47_low", "ci47_high"))
            lines.append(f"{row['dataset']:<14} {row['method']:<10} "
                         f"{_fmt(row['median'], 3):>8} {f'[{low}, {high}]':>16}")
    return "\n".join(lines)


def _synthesize(generator: str, /, **spec) -> Dataset:
    try:
        return SYNTHETIC_GENERATORS[generator](**spec)
    except (TypeError, ValueError, DataError) as exc:
        raise UsageError(f"synthetic {generator!r} dataset: {exc}") from None
    except MemoryError:
        raise UsageError(f"synthetic {generator!r} dataset: too large to allocate") from None


def _cmd_make_synthetic(args) -> str:
    dataset = _synthesize(args.generator, n=args.n, d=args.d, noise=args.noise, seed=args.seed)
    with _writing(args.out):
        write_csv(dataset, args.out)
    return f"{dataset.name}: {dataset.n_rows} rows, {dataset.n_features} features -> {args.out}"


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
    p.set_defaults(func=_cmd_make_synthetic)

    return parser


def main(argv=None) -> int:
    """Run one command and write the text it returns to standard output here,
    not at exit, so that a failed write exits 2 like an unwritable ``--out``
    (with no message if a pipe's reader has gone, as in ``print ... | head``)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = args.func(args)
        with _writing("standard output"):
            try:
                print(text, end="\n" if text else "", flush=True)
            except BrokenPipeError:
                # Python's note on SIGPIPE: what is left goes to devnull, so that
                # the flush at exit cannot fail again (unless stdout has no descriptor)
                with suppress(AttributeError, ValueError):
                    fd = sys.stdout.fileno()
                    devnull = os.open(os.devnull, os.O_WRONLY)
                    os.dup2(devnull, fd)
                    os.close(devnull)
                return EXIT_USAGE
        return EXIT_OK
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
