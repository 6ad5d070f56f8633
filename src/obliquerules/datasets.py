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
                if not record:  # a blank line; one of only commas is a row of empty cells
                    continue
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


_MISSING = "missing cell; rows given to predict must be complete"


def _numbers(path, header, records, columns, what: str) -> np.ndarray:
    """The finite numbers in ``columns`` of ``records``, one row per record.

    A missing, non-numeric or non-finite cell is reported with its line number.
    """
    rows = []
    for line_no, cells in records:
        if any(cells[i] == "" for i in columns):
            raise DataError(f"{path}:{line_no}: {_MISSING}")
        row = []
        for i in columns:
            try:
                row.append(float(cells[i]))
            except ValueError:
                raise DataError(f"{path}:{line_no}: non-numeric {what} {cells[i]!r} "
                                f"in column {header[i]!r}") from None
            if not math.isfinite(row[-1]):
                raise DataError(f"{path}:{line_no}: non-finite {what} {cells[i]!r} "
                                f"in column {header[i]!r}")
        rows.append(row)
    return np.array(rows, dtype=float).reshape(len(records), len(columns))


def _target_index(path, header, target_column: str) -> int:
    """The index of ``target_column``, which ``header`` must hold once."""
    if target_column not in header:
        raise DataError(f"{path}: target column {target_column!r} not in header")
    _reject_repeated(path, header, [target_column])
    return header.index(target_column)


def _target_values(path, header, rows, j, task: Task, label_names=()):
    """Column ``j`` of ``rows`` as targets, and the labels behind 0/1.

    Regression targets must be finite numbers.  Classification labels map to
    0/1 through ``label_names`` when it is given, else through the two distinct
    labels found, in sorted order.
    """
    if task is Task.REGRESSION:
        return _numbers(path, header, rows, [j], "target")[:, 0], ()
    labels = [cells[j] for _, cells in rows]
    if "" in labels:  # only load_rows keeps a row with a missing cell
        raise DataError(f"{path}:{rows[labels.index('')][0]}: {_MISSING}")
    names = tuple(label_names) or tuple(sorted(set(labels)))
    if len(names) != 2:
        raise DataError(
            f"{path}: classification target needs exactly 2 distinct labels, "
            f"found {len(names)}"
        )
    mapping = {names[0]: 0.0, names[1]: 1.0}
    for (line_no, _), label in zip(rows, labels):
        if label not in mapping:
            raise DataError(
                f"{path}:{line_no}: label {label!r} in column {header[j]!r} "
                f"is not one of {list(names)}"
            )
    return np.array([mapping[label] for label in labels]), names


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
    target_idx = _target_index(path, header, target_column)
    feature_idx = [i for i in range(len(header)) if i != target_idx]

    kept = [(line_no, cells) for line_no, cells in records if "" not in cells]
    X = _numbers(path, header, kept, feature_idx, "value")
    if len(kept) < 2:
        raise DataError(f"{path}: fewer than two usable rows")

    y, label_names = _target_values(path, header, kept, target_idx, task)
    return Dataset(
        name=path.stem,
        feature_names=tuple(header[i] for i in feature_idx),
        X=X,
        y=y,
        task=task,
        n_skipped_rows=len(records) - len(kept),
        label_names=label_names,
    )


def load_rows(path, feature_names, target_column=None, task=None, label_names=()):
    """``(X, y)`` from one read of a CSV: its ``feature_names`` columns in that
    order and its ``target_column``, or ``None`` without one.

    Other columns are ignored; a column read must be named once and have every
    cell, so row ``i`` is data row ``i``.  Features, checked first, and
    regression targets must be finite numbers.  Labels map to 0/1 through
    ``label_names`` (the model's two labels) when given, else as in ``load_csv``.
    """
    header, records = _read_table(path)
    index_of = {name: j for j, name in enumerate(header)}
    missing = [n for n in feature_names if n not in index_of]
    if missing:
        raise DataError(f"{path}: missing feature column(s) {missing}")
    _reject_repeated(path, header, feature_names)
    X = _numbers(path, header, records, [index_of[n] for n in feature_names], "value")
    if not records:
        raise DataError(f"{path}: no data rows")
    if target_column is None:
        return X, None
    j = _target_index(path, header, target_column)
    return X, _target_values(path, header, records, j, Task(task), label_names)[0]


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
