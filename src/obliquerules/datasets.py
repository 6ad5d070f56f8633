"""Dataset container, CSV ingestion, and bundled synthetic generators."""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Task


class DataError(Exception):
    """Raised for unreadable, malformed, or semantically invalid input data."""


@dataclass(frozen=True, eq=False)
class Dataset:
    name: str
    feature_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    task: Task
    n_skipped_rows: int = 0
    label_names: tuple[str, ...] = ()  # raw labels behind 0/1, classification only

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise DataError("features must be n x d with one target per row")
        if X.shape[0] < 2:
            raise DataError("dataset has fewer than two usable rows")
        if X.shape[1] < 1:
            raise DataError("dataset has no feature columns")
        if len(self.feature_names) != X.shape[1]:
            raise DataError("one feature name required per column")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "task", Task(self.task))
        object.__setattr__(self, "label_names", tuple(self.label_names))

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


def _read_table(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Stripped header and data rows, each with its line number, of a CSV file."""
    try:
        # utf-8-sig drops a byte-order mark, which would otherwise stay in
        # the first header name
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
            rows = []
            for line_no, record in enumerate(reader, start=2):
                if len(record) != len(header):
                    raise DataError(
                        f"{path}:{line_no}: expected {len(header)} cells, got {len(record)}"
                    )
                rows.append((line_no, [c.strip() for c in record]))
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: unreadable CSV: {exc}") from None
    return header, rows


def _reject_repeated(path, header, names) -> None:
    """DataError for the first of ``names`` that ``header`` holds more than once."""
    counts = Counter(header)
    for name in names:
        if counts[name] > 1:
            raise DataError(f"{path}: column {name!r} appears {counts[name]} times in the header")


def _parse_floats(path, line_no: int, cells, columns, header) -> list[float]:
    """The finite numbers in ``columns`` of one row's ``cells``."""
    values = []
    for i in columns:
        try:
            values.append(float(cells[i]))
        except ValueError:
            raise DataError(
                f"{path}:{line_no}: non-numeric value {cells[i]!r} in column {header[i]!r}"
            ) from None
        if not math.isfinite(values[-1]):
            raise DataError(
                f"{path}:{line_no}: non-finite value {cells[i]!r} in column {header[i]!r}")
    return values


def _target_values(path, rows, j, column: str, task: Task, label_names=()):
    """Column ``j`` of ``rows`` as targets, and the labels behind 0/1.

    Regression targets must be finite numbers.  Classification labels map to
    0/1 through ``label_names`` when it is given, else through the two distinct
    labels found, in sorted order.
    """
    if task is Task.REGRESSION:
        y = np.empty(len(rows))
        for k, (line_no, cells) in enumerate(rows):
            try:
                y[k] = float(cells[j])
            except ValueError:
                raise DataError(
                    f"{path}:{line_no}: non-numeric regression "
                    f"target {cells[j]!r} in column {column!r}"
                ) from None
            if not math.isfinite(y[k]):
                raise DataError(
                    f"{path}:{line_no}: non-finite target {cells[j]!r} in column {column!r}")
        return y, ()
    names = tuple(label_names) or tuple(sorted({cells[j] for _, cells in rows}))
    if len(names) != 2:
        raise DataError(
            f"{path}: classification target needs exactly 2 distinct labels, "
            f"found {len(names)}"
        )
    mapping = {names[0]: 0.0, names[1]: 1.0}
    for line_no, cells in rows:
        if cells[j] not in mapping:
            raise DataError(
                f"{path}:{line_no}: label {cells[j]!r} in column {column!r} "
                f"is not one of {list(names)}"
            )
    return np.array([mapping[cells[j]] for _, cells in rows]), names


def load_csv(path, target_column: str, task) -> Dataset:
    """Read a headered CSV into a Dataset.

    Header names must be distinct.  Rows containing any empty cell are
    skipped (counted in ``n_skipped_rows``); a non-empty cell that is not a
    finite number is an error reported with its line number.  Classification
    targets may be arbitrary strings but exactly two distinct values must
    occur; they map to {0, 1} in sorted order.
    """
    task = Task(task)
    path = Path(path)
    header, records = _read_table(path)
    _reject_repeated(path, header, header)
    if target_column not in header:
        raise DataError(f"{path}: target column {target_column!r} not in header")
    target_idx = header.index(target_column)
    feature_idx = [i for i in range(len(header)) if i != target_idx]
    feature_names = tuple(header[i] for i in feature_idx)

    kept = [(line_no, cells) for line_no, cells in records if "" not in cells]
    X = np.array(
        [_parse_floats(path, line_no, cells, feature_idx, header) for line_no, cells in kept]
    )
    if len(kept) < 2:
        raise DataError(f"{path}: fewer than two usable rows")

    y, label_names = _target_values(path, kept, target_idx, target_column, task)
    return Dataset(
        name=path.stem,
        feature_names=feature_names,
        X=X,
        y=y,
        task=task,
        n_skipped_rows=len(records) - len(kept),
        label_names=label_names,
    )


def load_feature_rows(path, feature_names) -> np.ndarray:
    """Matrix of the ``feature_names`` columns of a CSV, in that order.

    Other columns are ignored; a named one must be named once.  Every row
    must have all the named cells, each a finite number, so row ``i`` of the
    result is data row ``i`` of the file.
    """
    header, records = _read_table(path)
    index_of = {name: j for j, name in enumerate(header)}
    missing = [n for n in feature_names if n not in index_of]
    if missing:
        raise DataError(f"{path}: missing feature column(s) {missing}")
    _reject_repeated(path, header, feature_names)
    cols = [index_of[n] for n in feature_names]
    rows = []
    for line_no, cells in records:
        if any(cells[j] == "" for j in cols):
            raise DataError(
                f"{path}:{line_no}: missing cell; rows given to predict must be complete"
            )
        rows.append(_parse_floats(path, line_no, cells, cols, header))
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def load_targets(path, target_column: str, task, label_names=()) -> np.ndarray:
    """Target of every data row of a CSV, for scoring a model against it.

    The target column must be named once and every cell filled.  Regression
    targets must be finite numbers.  Classification labels map to 0/1 through
    ``label_names`` (the model's two labels) when given, else as in ``load_csv``.
    """
    task = Task(task)
    header, records = _read_table(path)
    if target_column not in header:
        raise DataError(f"{path}: target column {target_column!r} not in header")
    _reject_repeated(path, header, [target_column])
    j = header.index(target_column)
    for line_no, cells in records:
        if cells[j] == "":
            raise DataError(
                f"{path}:{line_no}: missing cell; rows given to predict must be complete"
            )
    y, _ = _target_values(path, records, j, target_column, task, label_names)
    return y


def write_csv(dataset: Dataset, path, target_column: str = "target"):
    """Write a Dataset back out; floats use shortest round-trip repr."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(dataset.feature_names) + [target_column])
        for row, target in zip(dataset.X, dataset.y):
            if dataset.task is Task.CLASSIFICATION and dataset.label_names:
                tcell = dataset.label_names[int(target)]
            else:
                tcell = repr(float(target))
            writer.writerow([repr(float(v)) for v in row] + [tcell])


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------


def _finish_classification(name, X, clean_labels, noise, rng) -> Dataset:
    y = clean_labels.astype(float)
    if noise > 0:
        flip = rng.random(y.shape[0]) < noise
        y = np.where(flip, 1.0 - y, y)
    names = tuple(f"x{j + 1}" for j in range(X.shape[1]))
    return Dataset(name=name, feature_names=names, X=X, y=y,
                   task=Task.CLASSIFICATION, label_names=("0", "1"))


def _normal_features(n: int, d: int, noise: float, seed: int):
    """Generator seeded with ``seed`` and the n x d standard normal features it drew."""
    if d < 2:
        raise ValueError("need at least 2 features")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise is a flip probability in [0, 1], got {noise!r}")
    rng = np.random.default_rng(seed)
    return rng, rng.normal(size=(n, d))


def make_oblique(n: int = 1000, d: int = 6, noise: float = 0.05, seed: int = 0) -> Dataset:
    """Half-space target y = 1{x1 + x2 >= 0}; remaining features are noise."""
    rng, X = _normal_features(n, d, noise, seed)
    labels = X[:, 0] + X[:, 1] >= 0
    return _finish_classification("oblique", X, labels, noise, rng)


def make_rotated_box(n: int = 1000, d: int = 6, noise: float = 0.05, seed: int = 0) -> Dataset:
    """Diamond target: y = 1 inside {|x1 + x2| <= 1 and |x1 - x2| <= 1}."""
    rng, X = _normal_features(n, d, noise, seed)
    labels = (np.abs(X[:, 0] + X[:, 1]) <= 1.0) & (np.abs(X[:, 0] - X[:, 1]) <= 1.0)
    return _finish_classification("rotated_box", X, labels, noise, rng)


def make_staircase(n: int = 1000, d: int = 6, noise: float = 0.05, seed: int = 0) -> Dataset:
    """Axis-parallel-friendly target: y = 1{x2 >= s(x1)} with a 3-level staircase
    s(x1) = 1 for x1 < -0.5, 0 for -0.5 <= x1 < 0.5, -1 for x1 >= 0.5."""
    rng, X = _normal_features(n, d, noise, seed)
    step = np.where(X[:, 0] < -0.5, 1.0, np.where(X[:, 0] < 0.5, 0.0, -1.0))
    labels = X[:, 1] >= step
    return _finish_classification("staircase", X, labels, noise, rng)


SYNTHETIC_GENERATORS = {
    "oblique": make_oblique,
    "rotated-box": make_rotated_box,
    "staircase": make_staircase,
}
