import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from obliquerules import lltboost, tgb
from obliquerules.core import Rule, RuleEnsemble, SparseProposition, Standardizer, Task
from obliquerules.datasets import make_oblique
from obliquerules.serialize import (
    FORMAT_VERSION,
    ModelFile,
    ModelFormatError,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)


def random_ensemble(rng, d=5, n_rules=3):
    rules = []
    for _ in range(n_rules):
        props = []
        for _ in range(rng.integers(1, 3)):
            k = int(rng.integers(1, d + 1))
            idx = np.sort(rng.choice(d, size=k, replace=False))
            w = rng.normal(size=k)
            w[w == 0] = 1.0
            props.append(
                SparseProposition(
                    indices=idx, weights=w, threshold=float(rng.normal())
                )
            )
        rules.append(Rule(propositions=tuple(props), weight=float(rng.normal())))
    std = Standardizer(mean=rng.normal(size=d), scale=np.abs(rng.normal(size=d)) + 0.5)
    return RuleEnsemble(
        intercept=float(rng.normal()),
        rules=tuple(rules),
        task=Task.CLASSIFICATION,
        standardizer=std,
    )


def names(d):
    return tuple(f"x{j + 1}" for j in range(d))


def test_round_trip_preserves_scores_bit_exactly(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(5):
        ens = random_ensemble(rng)
        model = ModelFile(ensemble=ens, feature_names=names(5), metadata={"seed": trial})
        path = tmp_path / f"m{trial}.json"
        save_model(model, path)
        back = load_model(path)
        X = rng.normal(size=(200, 5)) * 3.0
        expect = ens.decision_function(X)
        got = back.ensemble.decision_function(X)
        assert np.array_equal(expect, got)  # bit-exact, not merely close
        assert back.ensemble == ens
        assert back.feature_names == model.feature_names
        assert back.metadata["seed"] == trial


def test_round_trip_of_fitted_models(tmp_path):
    data = make_oblique(n=80, d=4, noise=0.1, seed=1)
    for tag, trace in (
        ("llt", lltboost.fit(data.X, data.y, lltboost.LLTConfig(max_rules=2, seed=0))),
        ("tgb", tgb.fit(data.X, data.y, tgb.TGBConfig(max_rules=2))),
    ):
        ens = trace.stages[-1].ensemble
        path = tmp_path / f"{tag}.json"
        save_model(ModelFile(ensemble=ens, feature_names=data.feature_names), path)
        back = load_model(path)
        X = np.random.default_rng(7).normal(size=(500, 4))
        assert np.array_equal(ens.decision_function(X), back.ensemble.decision_function(X))


def test_document_shape(tmp_path):
    rng = np.random.default_rng(3)
    ens = random_ensemble(rng, d=3, n_rules=1)
    model = ModelFile(ensemble=ens, feature_names=("a", "b", "c"))
    doc = model_to_dict(model)
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["task"] == "classification"
    assert doc["complexity"] == ens.complexity()
    rule = doc["rules"][0]
    assert set(rule) == {"weight", "propositions"}
    prop = rule["propositions"][0]
    assert set(prop) == {"weights", "threshold"}
    assert all(name in {"a", "b", "c"} for name in prop["weights"])
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded_doc = json.loads(path.read_text())
    assert "library_version" in loaded_doc["metadata"]


def test_rejects_unknown_version():
    for version in (99, True, 1.0, "1"):  # true and 1.0 equal 1 under ==, but are no int
        with pytest.raises(ModelFormatError, match="format_version"):
            model_from_dict({"format_version": version})


def test_rejects_unknown_feature_name():
    rng = np.random.default_rng(4)
    ens = random_ensemble(rng, d=2, n_rules=1)
    doc = model_to_dict(ModelFile(ensemble=ens, feature_names=("a", "b")))
    doc["rules"][0]["propositions"][0]["weights"] = {"zzz": 1.0}
    with pytest.raises(ModelFormatError, match="zzz"):
        model_from_dict(doc)


def test_rejects_complexity_mismatch():
    rng = np.random.default_rng(5)
    ens = random_ensemble(rng, d=2, n_rules=1)
    doc = model_to_dict(ModelFile(ensemble=ens, feature_names=("a", "b")))
    doc["complexity"] = doc["complexity"] + 1
    with pytest.raises(ModelFormatError, match="complexity"):
        model_from_dict(doc)


def test_rejects_missing_keys_and_bad_json(tmp_path):
    with pytest.raises(ModelFormatError, match="missing"):
        model_from_dict({"format_version": FORMAT_VERSION})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="JSON"):
        load_model(bad)
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "absent.json")


def test_model_file_validates_names():
    rng = np.random.default_rng(6)
    ens = random_ensemble(rng, d=3, n_rules=1)
    with pytest.raises(ModelFormatError, match="width"):
        ModelFile(ensemble=ens, feature_names=("a", "b"))
    with pytest.raises(ModelFormatError, match="unique"):
        ModelFile(ensemble=ens, feature_names=("a", "a", "b"))


def valid_doc(d=2):
    ens = random_ensemble(np.random.default_rng(8), d=d, n_rules=2)
    return model_to_dict(ModelFile(ensemble=ens, feature_names=names(d)))


def with_field(path, value):
    doc = valid_doc()
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize("path,value", [
    (("standardizer", "scale"), [0.0, 1.0]),
    (("standardizer", "mean"), [float("nan"), 0.0]),
    (("standardizer", "scale"), [1.0, float("inf")]),
    (("standardizer", "mean"), ["a", 0.0]),
    (("standardizer", "mean"), [0.0, 0.0, 0.0]),
    (("feature_names",), 3),
    (("metadata",), [1, 2]),
    (("complexity",), "abc"),
    (("complexity",), 0.5),
    (("rules", 0, "weight"), 10**400),
], ids=["zero-scale", "nan-mean", "inf-scale", "text-mean", "width-mismatch", "int-names",
        "list-metadata", "text-complexity", "fractional-complexity", "overflowing-weight"])
def test_malformed_fields_raise_model_format_error(path, value):
    with pytest.raises(ModelFormatError):
        model_from_dict(with_field(path, value))


@pytest.mark.parametrize("field, value", [
    ("weights", {}), ("weights", {"x1": 0.0}), ("weights", {"x1": float("nan")}),
    ("weights", {"x1": float("inf")}), ("threshold", float("nan")), ("threshold", float("-inf")),
], ids=["empty", "zero-weight", "nan-weight", "inf-weight", "nan-threshold", "inf-threshold"])
def test_load_model_rejects_each_invalid_proposition_field(tmp_path, field, value):
    doc = with_field(("rules", 0, "propositions", 0, field), value)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="malformed"):
        load_model(path)


def test_non_integer_complexity_is_rejected_even_when_it_rounds_to_the_truth():
    doc = valid_doc()
    doc["complexity"] = doc["complexity"] + 0.25
    with pytest.raises(ModelFormatError, match="complexity"):
        model_from_dict(doc)


def test_non_utf8_model_file_is_a_format_error(tmp_path):
    bad = tmp_path / "model.json"
    bad.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ModelFormatError):
        load_model(bad)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
FIELD_PATHS = [
    ("format_version",), ("task",), ("feature_names",), ("feature_names", 0),
    ("standardizer",), ("standardizer", "mean"), ("standardizer", "scale", 1),
    ("intercept",), ("rules",), ("rules", 0), ("rules", 0, "weight"),
    ("rules", 0, "propositions"), ("rules", 0, "propositions", 0),
    ("rules", 0, "propositions", 0, "weights"), ("rules", 0, "propositions", 0, "threshold"),
    ("complexity",), ("metadata",),
]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(FIELD_PATHS), st.booleans(), JSON_VALUES),
                min_size=1, max_size=3))
def test_load_model_only_raises_model_format_error(mutations):
    doc = valid_doc()
    for path, delete, value in mutations:
        *parents, last = path
        target = doc
        try:
            for key in parents:
                target = target[key]
            if delete:
                del target[last]
            else:
                target[last] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed this field's parent
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_model(path)
        except ModelFormatError:
            pass
