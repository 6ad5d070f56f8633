"""Versioned JSON persistence for fitted rule ensembles.

The document stores proposition weights keyed by feature name so printed
rules stay human-readable, and relies on JSON's shortest-round-trip float
encoding: a load of a save reproduces every score bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .core import Rule, RuleEnsemble, SparseProposition, Standardizer, Task

FORMAT_VERSION = 1


class ModelFormatError(Exception):
    """Raised when a model document cannot be understood."""


@dataclass(frozen=True)
class ModelFile:
    """A fitted ensemble plus the context needed to use and display it."""

    ensemble: RuleEnsemble
    feature_names: tuple[str, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != self.ensemble.standardizer.mean.size:
            raise ModelFormatError(
                "feature name count must match the standardizer width"
            )
        if len(set(names)) != len(names):
            raise ModelFormatError("feature names must be unique")
        object.__setattr__(self, "feature_names", names)


def _require(doc: dict, key: str):
    if key not in doc:
        raise ModelFormatError(f"model document missing {key!r}")
    return doc[key]


def _number(value, what: str) -> float:
    """``value`` as a float if JSON read it as a number (an integer too, a boolean not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a JSON number, got {value!r}")
    return float(value)


def _numbers(values, what: str) -> np.ndarray:
    """The JSON list ``values`` of numbers, as floats."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a JSON list of numbers, got {values!r}")
    return np.array([_number(v, what) for v in values], dtype=float)


def model_to_dict(model: ModelFile) -> dict:
    ens = model.ensemble
    rules = []
    for rule in ens.rules:
        props = []
        for prop in rule.propositions:
            weights = {
                model.feature_names[int(j)]: float(w)
                for j, w in zip(prop.indices, prop.weights)
            }
            props.append({"weights": weights, "threshold": float(prop.threshold)})
        rules.append({"weight": float(rule.weight), "propositions": props})
    return {
        "format_version": FORMAT_VERSION,
        "task": ens.task.value,
        "feature_names": list(model.feature_names),
        "standardizer": {
            "mean": [float(v) for v in ens.standardizer.mean],
            "scale": [float(v) for v in ens.standardizer.scale],
        },
        "intercept": float(ens.intercept),
        "rules": rules,
        "complexity": ens.complexity(),
        "metadata": dict(model.metadata),
    }


def model_from_dict(doc: dict) -> ModelFile:
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = _require(doc, "format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format_version {version!r}; this library reads "
            f"version {FORMAT_VERSION}"
        )
    try:
        task = Task(_require(doc, "task"))
        feature_names = _require(doc, "feature_names")
        if not isinstance(feature_names, list) or not all(isinstance(n, str) for n in feature_names):
            raise ValueError(f"feature_names must be a JSON list of strings, got {feature_names!r}")
        index_of = {name: j for j, name in enumerate(feature_names)}
        std_doc = _require(doc, "standardizer")
        standardizer = Standardizer(
            mean=_numbers(_require(std_doc, "mean"), "standardizer mean"),
            scale=_numbers(_require(std_doc, "scale"), "standardizer scale"),
        )
        rules = []
        for rule_doc in _require(doc, "rules"):
            props = []
            for prop_doc in _require(rule_doc, "propositions"):
                pairs = []
                for name, w in _require(prop_doc, "weights").items():
                    if name not in index_of:
                        raise ModelFormatError(f"unknown feature name {name!r}")
                    pairs.append((index_of[name], _number(w, "proposition weight")))
                pairs.sort()
                props.append(
                    SparseProposition(
                        indices=tuple(j for j, _ in pairs),
                        weights=tuple(w for _, w in pairs),
                        threshold=_number(_require(prop_doc, "threshold"), "threshold"),
                    )
                )
            rules.append(
                Rule(propositions=tuple(props),
                     weight=_number(_require(rule_doc, "weight"), "rule weight"))
            )
        ensemble = RuleEnsemble(
            intercept=_number(_require(doc, "intercept"), "intercept"),
            rules=tuple(rules),
            task=task,
            standardizer=standardizer,
        )
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from None
    stored = doc.get("complexity")
    if stored is not None and (type(stored) is not int or stored != ensemble.complexity()):
        raise ModelFormatError(
            f"stored complexity {stored!r} disagrees with the rules "
            f"({ensemble.complexity()})"
        )
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ModelFormatError("metadata must be a JSON object")
    return ModelFile(
        ensemble=ensemble,
        feature_names=tuple(feature_names),
        metadata=dict(metadata),
    )


def save_model(model: ModelFile, path) -> None:
    doc = model_to_dict(model)
    doc.setdefault("metadata", {}).setdefault("library_version", __version__)
    write_json(path, doc)


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_json(path, error: type[Exception]):
    """The document in JSON file ``path``; ``error`` if it cannot be read or parsed."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 or nested too deep
        raise error(f"{path}: not valid JSON: {exc}") from None


def load_model(path) -> ModelFile:
    return model_from_dict(read_json(Path(path), ModelFormatError))
