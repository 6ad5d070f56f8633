import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from obliquerules import cli, datasets, tgb
from obliquerules.cli import TRAIN_FIELDS, main, print_rules
from obliquerules.core import Rule, RuleEnsemble, SparseProposition, Standardizer, Task
from obliquerules.datasets import load_csv, make_oblique, write_csv
from obliquerules.losses import LossKind, loss
from obliquerules.serialize import (
    ModelFile, ModelFormatError, load_model, model_from_dict, save_model)


@pytest.fixture()
def clf_csv(tmp_path):
    data = make_oblique(n=60, d=3, noise=0.1, seed=0)
    path = tmp_path / "train.csv"
    write_csv(data, path, target_column="y")
    return path


def empty_model(intercept, d=2):
    ens = RuleEnsemble(
        intercept=intercept,
        rules=(),
        task=Task.CLASSIFICATION,
        standardizer=Standardizer(np.zeros(d), np.ones(d)),
    )
    return ModelFile(ensemble=ens, feature_names=tuple(f"x{i+1}" for i in range(d)))


# ---------------------------------------------------------------------------
# rule rendering
# ---------------------------------------------------------------------------


def test_print_rules_empty_model():
    text = print_rules(empty_model(0.25))
    assert text.splitlines() == ["score = +0.25", "complexity: C(f) = 0"]


def test_print_rules_weighted_condition_format():
    ens = RuleEnsemble(
        intercept=0.0,
        rules=(
            Rule(
                propositions=(
                    SparseProposition(
                        indices=(0, 3), weights=(0.3, -0.2), threshold=1.2
                    ),
                ),
                weight=1.5,
            ),
        ),
        task=Task.CLASSIFICATION,
        standardizer=Standardizer(np.zeros(4), np.ones(4)),
    )
    model = ModelFile(ensemble=ens, feature_names=("x1", "x2", "x3", "x4"))
    lines = print_rules(model, precision=2).splitlines()
    assert lines[0] == "score = +0.00"
    assert lines[1] == "+1.50 if 0.30·x1 − 0.20·x4 ≥ 1.20"
    assert lines[2] == "complexity: C(f) = 4"


def test_print_rules_joins_conjunctions_and_negative_lead():
    ens = RuleEnsemble(
        intercept=-1.0,
        rules=(
            Rule(
                propositions=(
                    SparseProposition(indices=(0,), weights=(-1.0,), threshold=-2.0),
                    SparseProposition(indices=(1,), weights=(2.0,), threshold=0.5),
                ),
                weight=-0.75,
            ),
        ),
        task=Task.REGRESSION,
        standardizer=Standardizer(np.zeros(2), np.ones(2)),
    )
    model = ModelFile(ensemble=ens, feature_names=("a", "b"))
    line = print_rules(model).splitlines()[1]
    assert line == (
        "-0.75 if −1.00·a ≥ -2.00 & 2.00·b ≥ 0.50"
    )


def test_printed_complexity_matches_ensemble_complexity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        rules = []
        for _ in range(int(rng.integers(0, 4))):
            props = []
            for _ in range(int(rng.integers(1, 3))):
                k = int(rng.integers(1, d + 1))
                idx = np.sort(rng.choice(d, size=k, replace=False))
                w = np.where(rng.normal(size=k) == 0, 1.0, rng.normal(size=k))
                props.append(
                    SparseProposition(indices=idx, weights=w, threshold=0.0)
                )
            rules.append(Rule(propositions=tuple(props), weight=1.0))
        ens = RuleEnsemble(
            intercept=0.0,
            rules=tuple(rules),
            task=Task.CLASSIFICATION,
            standardizer=Standardizer(np.zeros(d), np.ones(d)),
        )
        model = ModelFile(
            ensemble=ens, feature_names=tuple(f"f{i}" for i in range(d))
        )
        last = print_rules(model).splitlines()[-1]
        assert last == f"complexity: C(f) = {ens.complexity()}"


def test_the_readme_one_rule_example_prints_what_the_readme_shows(tmp_path, monkeypatch,
                                                                 capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["make-synthetic", "--generator", "oblique", "--n", "1000", "--d", "6",
                 "--noise", "0.05", "--seed", "0", "--out", "oblique.csv"]) == 0
    assert main(["train", "--data", "oblique.csv", "--target", "target", "--task",
                 "classification", "--method", "lltboost", "--rules", "1",
                 "--out", "model.json"]) == 0
    capsys.readouterr()
    assert main(["print", "--model", "model.json"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "score = -2.89", "+5.75 if 2.18·x1 + 2.18·x2 ≥ -0.04", "complexity: C(f) = 4"]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_model_and_stage_table(tmp_path, clf_csv, capsys):
    out = tmp_path / "model.json"
    code = main(
        [
            "train", "--data", str(clf_csv), "--target", "y",
            "--task", "clf", "--method", "tgb", "--rules", "2",
            "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "stage,complexity,train_risk"
    assert len(lines) == 4  # header + stages 0..2
    assert out.exists()
    model = load_model(out)
    assert model.metadata["method"] == "tgb"
    assert model.metadata["seed"] == 7


def test_train_config_file_with_flag_override(tmp_path, clf_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rules": 1, "seed": 3}), encoding="utf-8")
    out = tmp_path / "m.json"
    code = main(
        [
            "train", "--data", str(clf_csv), "--target", "y", "--task",
            "classification", "--method", "tgb", "--config", str(cfg),
            "--rules", "2", "--out", str(out),
        ]
    )
    assert code == 0
    model = load_model(out)
    assert model.metadata["config"]["max_rules"] == 2  # flag wins
    assert model.metadata["seed"] == 3  # file value kept


def test_train_usage_errors(tmp_path, clf_csv):
    out = str(tmp_path / "m.json")
    # unknown flag -> argparse usage error
    assert main(["train", "--bogus", "1"]) == 2
    # unknown task
    assert main(
        ["train", "--data", str(clf_csv), "--target", "y", "--task", "nope",
         "--method", "tgb", "--out", out]
    ) == 2
    # malformed config file
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(
        ["train", "--data", str(clf_csv), "--target", "y", "--task", "clf",
         "--method", "tgb", "--config", str(bad), "--out", out]
    ) == 2
    # unknown config key
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"mystery": 1}), encoding="utf-8")
    assert main(
        ["train", "--data", str(clf_csv), "--target", "y", "--task", "clf",
         "--method", "tgb", "--config", str(bad2), "--out", out]
    ) == 2
    # config value of the wrong JSON type
    bad3 = tmp_path / "bad3.json"
    bad3.write_text(json.dumps({"rules": [3]}), encoding="utf-8")
    assert main(
        ["train", "--data", str(clf_csv), "--target", "y", "--task", "clf",
         "--method", "tgb", "--config", str(bad3), "--out", out]
    ) == 2
    # invalid hyperparameter value
    assert main(
        ["train", "--data", str(clf_csv), "--target", "y", "--task", "clf",
         "--method", "tgb", "--rules", "0", "--out", out]
    ) == 2
    # the task picks the loss; there is no --loss flag
    assert main(
        ["train", "--data", str(clf_csv), "--target", "y", "--task", "clf",
         "--method", "tgb", "--loss", "squared", "--out", out]
    ) == 2


def test_train_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,y\n1,x1\n2,x2\n3,x3\n", encoding="utf-8")
    code = main(
        ["train", "--data", str(bad), "--target", "y", "--task", "clf",
         "--method", "tgb", "--out", str(tmp_path / "m.json")]
    )
    assert code == 3  # three distinct labels


@pytest.mark.parametrize("method", ["tgb", "lltboost"])
def test_train_target_only_csv_is_a_data_error(tmp_path, method, capsys):
    data = tmp_path / "target_only.csv"
    data.write_text("y\n" + "no\nyes\n" * 10, encoding="utf-8")
    out = tmp_path / "m.json"
    code = main(
        ["train", "--data", str(data), "--target", "y", "--task", "clf",
         "--method", method, "--out", str(out)]
    )
    assert code == 3
    assert "no feature columns" in capsys.readouterr().err
    assert not out.exists()


def test_train_fit_failure_exit_code(tmp_path, clf_csv, monkeypatch, capsys):
    # valid data that the learner fails on
    def failing_fit(X, y, cfg):
        raise FloatingPointError("the fit diverged")

    monkeypatch.setattr(tgb, "fit", failing_fit)
    out = tmp_path / "m.json"
    code = main(
        ["train", "--data", str(clf_csv), "--target", "y", "--task", "clf",
         "--method", "tgb", "--out", str(out)]
    )
    assert code == 4
    assert "fit failed: FloatingPointError: the fit diverged" in capsys.readouterr().err
    assert not out.exists()


def _with_cell(src, dst, line, column, cell):
    """Copy CSV ``src`` to ``dst`` with the cell at (file ``line``, ``column``) replaced."""
    lines = src.read_text(encoding="utf-8").splitlines()
    cells = lines[line - 1].split(",")
    cells[column] = cell
    lines[line - 1] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return dst


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("method", ["tgb", "lltboost"])
def test_train_rejects_non_finite_feature_cells(tmp_path, clf_csv, cell, method, capsys):
    bad = _with_cell(clf_csv, tmp_path / "bad.csv", 6, 1, cell)
    out = tmp_path / "m.json"
    code = main(["train", "--data", str(bad), "--target", "y", "--task", "clf",
                 "--method", method, "--out", str(out)])
    assert code == 3
    assert f":6: non-finite value '{cell}' in column 'x2'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_train_rejects_a_non_finite_regression_target(tmp_path, clf_csv, cell, capsys):
    reg_csv = _rewrite_target(clf_csv, tmp_path / "reg.csv", lambda i, t: f"{0.37 * i}")
    bad = _with_cell(reg_csv, tmp_path / "bad.csv", 4, -1, cell)
    out = tmp_path / "m.json"
    code = main(["train", "--data", str(bad), "--target", "y", "--task", "reg",
                 "--method", "tgb", "--out", str(out)])
    assert code == 3
    assert f":4: non-finite target '{cell}' in column 'y'" in capsys.readouterr().err
    assert not out.exists()


def test_train_non_fitting_loss_in_config_is_usage_error(tmp_path, clf_csv, capsys):
    # the task picks the loss, so a config file has no loss key to set
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loss": "zero_one"}), encoding="utf-8")
    code = main(
        ["train", "--data", str(clf_csv), "--target", "y", "--task", "clf",
         "--method", "tgb", "--config", str(cfg), "--out", str(tmp_path / "m.json")]
    )
    assert code == 2
    assert "unknown config keys ['loss']" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["tgb", "lltboost"])
@pytest.mark.parametrize("doc", [{"rules": 1.9}, {"seed": -1}, {"reg": float("nan")},
                                 {"nonzeros": True}])
def test_train_rejects_unchecked_config_values(tmp_path, clf_csv, doc, method, capsys):
    # every key is checked, also one that the chosen method does not read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "m.json"
    code = main(
        ["train", "--data", str(clf_csv), "--target", "y", "--task", "clf",
         "--method", method, "--config", str(cfg), "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["tgb", "lltboost"])
@pytest.mark.parametrize("task, loss", [("clf", "logistic"), ("reg", "squared")])
def test_train_task_picks_the_loss(tmp_path, clf_csv, method, task, loss):
    out = tmp_path / "m.json"
    code = main(
        ["train", "--data", str(clf_csv), "--target", "y", "--task", task,
         "--method", method, "--rules", "1", "--out", str(out)]
    )
    assert code == 0
    model = load_model(out)
    expected = Task.CLASSIFICATION if task == "clf" else Task.REGRESSION
    assert model.ensemble.task is expected
    assert model.metadata["config"]["loss"] == loss


config_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**12, max_value=10**12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(["logistic", "squared", "zero_one", "hinge"]),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
config_docs = st.one_of(
    st.dictionaries(st.sampled_from(sorted(TRAIN_FIELDS) + ["loss", "mystery"]),
                    config_values, max_size=4),
    config_values,
)


def _is_checked(key, value) -> bool:
    """Whether a ``train --config`` value is one the learner configs accept."""
    if key == "reg":
        return type(value) in (int, float) and 0 <= value < math.inf
    if key == "validation_fraction":
        return type(value) in (int, float) and 0 < value < 1
    return type(value) is int and value >= (0 if key == "seed" else 1)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=config_docs, method=st.sampled_from(["tgb", "lltboost"]))
@example(doc={"propositions": float("inf")}, method="tgb")  # int(inf) overflows
@example(doc={"loss": "zero_one", "reg": float("nan")}, method="lltboost")
@example(doc={"propositions": 1.9}, method="tgb")
@example(doc={"seed": -1}, method="tgb")
@example(doc={"seed": -1}, method="lltboost")
@example(doc={"reg": float("nan")}, method="tgb")
@example(doc={"reg": float("nan")}, method="lltboost")
def test_train_config_fuzz_never_escapes_main(tmp_path, clf_csv, doc, method):
    cfg = tmp_path / "fuzz.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")  # NaN/Infinity allowed
    out = tmp_path / "m.json"
    out.unlink(missing_ok=True)
    code = main(
        ["train", "--data", str(clf_csv), "--target", "y", "--task", "clf",
         "--method", method, "--rules", "1", "--config", str(cfg), "--out", str(out)]
    )
    assert code in {0, 2, 3, 4}
    if code == 0:
        # every key but the one --rules overrides was checked and is stored as given
        metadata = load_model(out).metadata
        for key, value in doc.items():
            if key == "rules":
                continue
            assert _is_checked(key, value), (key, value)
            field = TRAIN_FIELDS[key]
            if field in metadata["config"]:
                assert metadata["config"][field] == value
        assert metadata["seed"] == doc.get("seed", 0)


# ---------------------------------------------------------------------------
# predict / print commands
# ---------------------------------------------------------------------------


def trained_model(tmp_path, clf_csv, method="tgb"):
    out = tmp_path / f"{method}.json"
    code = main(
        ["train", "--data", str(clf_csv), "--target", "y", "--task", "clf",
         "--method", method, "--rules", "2", "--out", str(out)]
    )
    assert code == 0
    return out


def test_predict_reproduces_final_train_risk(tmp_path, clf_csv, capsys):
    model_path = trained_model(tmp_path, clf_csv)
    capsys.readouterr()
    code = main(
        ["predict", "--model", str(model_path), "--data", str(clf_csv),
         "--target", "y"]
    )
    assert code == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    risk_line = out_lines[-1]
    assert risk_line.startswith("risk = ")
    risk = float(risk_line.removeprefix("risk = "))
    stored = load_model(model_path).metadata["final_train_risk"]
    assert abs(risk - stored) <= 1e-12


def test_predict_without_target_writes_scores(tmp_path, clf_csv, capsys):
    model_path = trained_model(tmp_path, clf_csv)
    capsys.readouterr()
    out_file = tmp_path / "scores.txt"
    code = main(
        ["predict", "--model", str(model_path), "--data", str(clf_csv),
         "--out", str(out_file)]
    )
    assert code == 0
    scores = [float(v) for v in out_file.read_text().split()]
    model = load_model(model_path)
    data = load_csv(clf_csv, "y", Task.CLASSIFICATION)
    expect = model.ensemble.decision_function(data.X)
    assert np.array_equal(np.asarray(scores), expect)


def test_predict_missing_feature_column(tmp_path, clf_csv):
    model_path = trained_model(tmp_path, clf_csv)
    other = tmp_path / "narrow.csv"
    other.write_text("x1,x2\n0.1,0.2\n", encoding="utf-8")
    code = main(["predict", "--model", str(model_path), "--data", str(other)])
    assert code == 3


def _with_column_repeated(src, dst, column):
    """Copy CSV ``src`` to ``dst`` with ``column`` given twice, side by side."""
    lines = [line.split(",") for line in src.read_text(encoding="utf-8").splitlines()]
    for cells in lines:
        cells.insert(column, cells[column])
    dst.write_text("\n".join(",".join(cells) for cells in lines) + "\n", encoding="utf-8")
    return dst


@pytest.mark.parametrize("method", ["tgb", "lltboost"])
def test_train_rejects_a_repeated_header_name_before_fitting(tmp_path, clf_csv, method,
                                                            monkeypatch, capsys):
    def no_fit(X, y, cfg):
        raise AssertionError("the data should be rejected before any fit")

    monkeypatch.setattr(cli.LEARNERS[method].module, "fit", no_fit)
    bad = _with_column_repeated(clf_csv, tmp_path / "bad.csv", 1)  # x1,x2,x2,x3,y
    out = tmp_path / "m.json"
    code = main(["train", "--data", str(bad), "--target", "y", "--task", "clf",
                 "--method", method, "--out", str(out)])
    assert code == 3
    assert f"{bad}: column 'x2' appears 2 times in the header" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("column,name", [(1, "x2"), (3, "y")])
def test_predict_rejects_a_repeated_column_it_reads(tmp_path, clf_csv, column, name, capsys):
    model_path = trained_model(tmp_path, clf_csv)
    bad = _with_column_repeated(clf_csv, tmp_path / "bad.csv", column)
    capsys.readouterr()
    code = main(["predict", "--model", str(model_path), "--data", str(bad), "--target", "y"])
    assert code == 3
    captured = capsys.readouterr()
    assert f"{bad}: column '{name}' appears 2 times in the header" in captured.err
    assert captured.out == ""


def test_predict_ignores_a_repeated_column_it_does_not_read(tmp_path, clf_csv, capsys):
    model_path = trained_model(tmp_path, clf_csv)
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(clf_csv)]) == 0
    scores = capsys.readouterr().out
    extra = _with_column_repeated(clf_csv, tmp_path / "extra.csv", 3)  # y,y: not read
    assert main(["predict", "--model", str(model_path), "--data", str(extra)]) == 0
    assert capsys.readouterr().out == scores


def test_predict_target_reads_its_csv_once(tmp_path, clf_csv, monkeypatch, capsys):
    model_path = trained_model(tmp_path, clf_csv)
    reads = []
    read_table = datasets._read_table

    def counted(path):
        reads.append(path)
        return read_table(path)

    monkeypatch.setattr(datasets, "_read_table", counted)
    assert main(["predict", "--model", str(model_path), "--data", str(clf_csv),
                 "--target", "y"]) == 0
    assert reads == [str(clf_csv)]


def test_predict_rejects_bad_model_file(tmp_path, clf_csv):
    bad = tmp_path / "model.json"
    bad.write_text("{}", encoding="utf-8")
    assert main(["predict", "--model", str(bad), "--data", str(clf_csv)]) == 3


# a model whose standardizer is not finite would score its intercept on every row;
# json writes and reads such values as NaN and Infinity
@pytest.mark.parametrize("field, value", [
    ("scale", 0.0), ("mean", float("nan")), ("scale", float("inf")),
], ids=["zero-scale", "nan-mean", "inf-scale"])
@pytest.mark.parametrize("command", ["predict", "print"])
def test_malformed_model_exits_with_data_error(tmp_path, clf_csv, command, field, value,
                                               capsys):
    model_path = trained_model(tmp_path, clf_csv)
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    doc["standardizer"][field][0] = value
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, "--model", str(model_path)]
    if command == "predict":
        argv += ["--data", str(clf_csv)]
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert field in captured.err and captured.out == ""


@pytest.mark.parametrize("value", ["text", True], ids=["string", "bool"])
@pytest.mark.parametrize("field", ["intercept", "rule-weight", "proposition-weight",
                                   "threshold", "mean", "scale"])
def test_model_file_takes_numbers_only_as_json_numbers(tmp_path, clf_csv, field, value, capsys):
    model_path = trained_model(tmp_path, clf_csv)
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    rule = doc["rules"][0]
    prop = rule["propositions"][0]
    parent, key = {
        "intercept": (doc, "intercept"),
        "rule-weight": (rule, "weight"),
        "proposition-weight": (prop["weights"], next(iter(prop["weights"]))),
        "threshold": (prop, "threshold"),
        "mean": (doc["standardizer"]["mean"], 0),
        "scale": (doc["standardizer"]["scale"], 0),
    }[field]
    parent[key] = repr(parent[key]) if value == "text" else value  # the number as text
    with pytest.raises(ModelFormatError, match="must be a JSON number"):
        model_from_dict(doc)
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(clf_csv)]) == 3
    captured = capsys.readouterr()
    assert "must be a JSON number" in captured.err and captured.out == ""


def test_model_file_takes_feature_names_only_as_strings(tmp_path, clf_csv, capsys):
    model_path = trained_model(tmp_path, clf_csv)
    text = model_path.read_text(encoding="utf-8")
    doc = json.loads(text.replace('"x1"', '"7"'))  # a name that reads as a number ...
    doc["feature_names"][0] = 7  # ... given as one
    with pytest.raises(ModelFormatError, match="feature_names must be a JSON list of strings"):
        model_from_dict(doc)
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["predict", "--model", str(model_path), "--data", str(clf_csv)]) == 3


def test_model_file_takes_json_integers_as_numbers(tmp_path, clf_csv):
    model_path = trained_model(tmp_path, clf_csv)
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    doc["intercept"] = 1
    doc["rules"][0]["weight"] = -2
    doc["rules"][0]["propositions"][0]["threshold"] = 0
    doc["standardizer"]["mean"] = [0, 0, 0]
    doc["standardizer"]["scale"] = [1, 2, 3]
    ensemble = model_from_dict(doc).ensemble
    assert (ensemble.intercept, ensemble.rules[0].weight) == (1.0, -2.0)
    assert ensemble.rules[0].propositions[0].threshold == 0.0
    assert ensemble.standardizer.scale.tolist() == [1.0, 2.0, 3.0]


def with_blank_line(tmp_path, csv_path, at):
    """A copy of ``csv_path`` with a blank line inserted before line ``at``
    (1-based; past the last line, the file ends in an empty line)."""
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    lines.insert(at - 1, "")
    blank = tmp_path / f"blank{at}.csv"
    blank.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return blank


@pytest.mark.parametrize("at", [10, 62])  # mid-file, and the last line of the file
def test_train_reads_the_rows_around_a_blank_line(tmp_path, clf_csv, at, capsys):
    blank = with_blank_line(tmp_path, clf_csv, at)
    tables = []
    for data in (clf_csv, blank):
        assert main(["train", "--data", str(data), "--target", "y", "--task", "clf",
                     "--method", "tgb", "--rules", "2", "--out", str(tmp_path / "m.json")]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


@pytest.mark.parametrize("at", [10, 62])
def test_predict_scores_each_data_row_around_a_blank_line(tmp_path, clf_csv, at, capsys):
    model_path = trained_model(tmp_path, clf_csv)
    blank = with_blank_line(tmp_path, clf_csv, at)
    scores = []
    for data in (clf_csv, blank):
        out_file = tmp_path / "scores.txt"
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(out_file)]) == 0
        scores.append(out_file.read_text().split())
    assert len(scores[1]) == 60 and scores[0] == scores[1]


@pytest.mark.parametrize("target", [None, "y"])
def test_predict_rejects_incomplete_rows(tmp_path, clf_csv, target, capsys):
    model_path = trained_model(tmp_path, clf_csv)
    lines = clf_csv.read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[0] = ""
    lines[5] = ",".join(cells)
    holed = tmp_path / "holed.csv"
    holed.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["predict", "--model", str(model_path), "--data", str(holed)]
    if target:
        argv += ["--target", target]
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be complete" in captured.err


@pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("target", [None, "y"])
def test_predict_rejects_non_finite_feature_cells(tmp_path, clf_csv, cell, target, capsys):
    model_path = trained_model(tmp_path, clf_csv)
    bad = _with_cell(clf_csv, tmp_path / "non_finite.csv", 6, 1, cell)
    argv = ["predict", "--model", str(model_path), "--data", str(bad)]
    if target:
        argv += ["--target", target]
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f":6: non-finite value '{cell}' in column 'x2'" in captured.err


@pytest.mark.parametrize("train_on_bom", [True, False])
def test_byte_order_mark_keeps_feature_names(tmp_path, clf_csv, train_on_bom, capsys):
    # spreadsheet "CSV UTF-8" exports start with a byte-order mark; a model
    # trained with or without one scores either file the same
    bom_csv = tmp_path / "bom.csv"
    bom_csv.write_bytes(b"\xef\xbb\xbf" + clf_csv.read_bytes())
    model_path = trained_model(tmp_path, bom_csv if train_on_bom else clf_csv)
    assert load_model(model_path).feature_names == ("x1", "x2", "x3")
    outputs = []
    for data in (clf_csv, bom_csv):
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--target", "y"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("config", [[1, 2], {"loss": "squared"}])
def test_predict_target_ignores_metadata_config(tmp_path, clf_csv, config, capsys):
    # the model's task picks the loss of the reported risk
    model_path = trained_model(tmp_path, clf_csv)
    argv = ["predict", "--model", str(model_path), "--data", str(clf_csv), "--target", "y"]
    capsys.readouterr()
    assert main(argv) == 0
    expected = capsys.readouterr().out
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    doc["metadata"]["config"] = config
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def _rewrite_target(src, dst, target_of):
    """Copy CSV ``src`` to ``dst``, the last cell of data line i replaced by
    ``target_of(i, cell)``; a ``None`` drops the line."""
    lines = src.read_text(encoding="utf-8").splitlines()
    out = [lines[0]]
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        cells[-1] = target_of(i, cells[-1])
        if cells[-1] is not None:
            out.append(",".join(cells))
    dst.write_text("\n".join(out) + "\n", encoding="utf-8")
    return dst


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_predict_rejects_a_non_finite_regression_target(tmp_path, clf_csv, cell, capsys):
    reg_csv = _rewrite_target(clf_csv, tmp_path / "reg.csv", lambda i, t: f"{0.37 * i}")
    model = tmp_path / "reg.json"
    assert main(["train", "--data", str(reg_csv), "--target", "y", "--task", "reg",
                 "--method", "tgb", "--rules", "1", "--out", str(model)]) == 0
    bad = _rewrite_target(reg_csv, tmp_path / "bad.csv", lambda i, t: cell if i == 4 else t)
    capsys.readouterr()
    code = main(["predict", "--model", str(model), "--data", str(bad), "--target", "y"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f":4: non-finite target '{cell}' in column 'y'" in captured.err


def test_predict_target_reads_labels_through_the_model(tmp_path, clf_csv, capsys):
    model_path = trained_model(tmp_path, clf_csv)
    assert load_model(model_path).metadata["label_names"] == ["0", "1"]
    positives = _rewrite_target(clf_csv, tmp_path / "pos.csv",
                                lambda i, t: t if t == "1" else None)
    argv = ["predict", "--model", str(model_path), "--data", str(positives), "--target", "y"]
    capsys.readouterr()
    assert main(argv) == 0  # one class is enough once the model names both
    out = capsys.readouterr().out.splitlines()
    data = load_csv(clf_csv, "y", Task.CLASSIFICATION)
    scores = load_model(model_path).ensemble.decision_function(data.X[data.y == 1])
    expected = float(np.mean(loss(LossKind.LOGISTIC, np.ones(scores.size), scores)))
    assert out[-1] == f"risk = {expected!r}"

    stranger = _rewrite_target(clf_csv, tmp_path / "odd.csv", lambda i, t: "2" if i == 7 else t)
    argv[4] = str(stranger)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ":7: label '2' in column 'y' is not one of ['0', '1']" in captured.err

    # a model without label_names reads the target as train does
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    del doc["metadata"]["label_names"]
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    argv[4] = str(positives)
    assert main(argv) == 3
    assert "exactly 2 distinct labels, found 1" in capsys.readouterr().err


def test_predict_target_maps_word_labels_in_the_model_order(tmp_path, clf_csv, capsys):
    words = _rewrite_target(clf_csv, tmp_path / "words.csv",
                            lambda i, t: {"0": "no", "1": "yes"}[t])
    model_path = tmp_path / "words.json"
    assert main(["train", "--data", str(words), "--target", "y", "--task", "clf",
                 "--method", "tgb", "--rules", "2", "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(words),
                 "--target", "y"]) == 0
    risk = float(capsys.readouterr().out.splitlines()[-1].removeprefix("risk = "))
    assert abs(risk - load_model(model_path).metadata["final_train_risk"]) <= 1e-12


CSV_FAULTS = ["ragged", "empty", "text", "nan", "inf", "1e400", "bom", "undecodable",
              "no_target"]


def _malformed_csv(base, faults) -> bytes:
    """``base`` CSV text with each (fault, data row, column) applied."""
    rows = [line.split(",") for line in base.splitlines()]
    prefix, raw_rows = b"", {}
    for fault, row, col in faults:
        row = 1 + row % (len(rows) - 1)
        col %= len(rows[0])
        if fault == "ragged":
            rows[row] = rows[row][:-1] if col % 2 else rows[row] + ["1"]
        elif fault in ("empty", "text", "nan", "inf", "1e400"):
            rows[row][col % len(rows[row])] = {"empty": "", "text": "abc"}.get(fault, fault)
        elif fault == "bom":
            prefix = b"\xef\xbb\xbf"
        elif fault == "undecodable":
            raw_rows[row] = b"\xff\xfe"
        else:  # no_target
            rows[0] = [c if c != "y" else "label" for c in rows[0]]
    lines = [raw_rows.get(i, b"") + ",".join(r).encode() for i, r in enumerate(rows)]
    return prefix + b"\n".join(lines) + b"\n"


def _assert_one_error_line(code, err):
    assert code in {0, 2, 3, 4}
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (code != 0), err
    assert "Traceback" not in err


@pytest.fixture()
def fuzz_models(tmp_path, clf_csv):
    """A tgb model per task, trained on the clean files, and the regression file's text."""
    reg_csv = _rewrite_target(clf_csv, tmp_path / "reg.csv", lambda i, t: f"{0.37 * i}")
    models = {}
    for task, data in (("clf", clf_csv), ("reg", reg_csv)):
        models[task] = tmp_path / f"{task}.json"
        assert main(["train", "--data", str(data), "--target", "y", "--task", task,
                     "--method", "tgb", "--rules", "1", "--out", str(models[task])]) == 0
    return models, reg_csv.read_text(encoding="utf-8")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(faults=st.lists(st.tuples(st.sampled_from(CSV_FAULTS), st.integers(0, 59),
                                 st.integers(0, 3)), min_size=1, max_size=3),
       task=st.sampled_from(["clf", "reg"]), method=st.sampled_from(["tgb", "lltboost"]))
@example(faults=[("nan", 2, 3)], task="reg", method="tgb")  # a nan regression target
def test_malformed_csv_fuzz_never_escapes_main(tmp_path, clf_csv, fuzz_models, capsys,
                                               faults, task, method):
    models, reg_text = fuzz_models
    base = clf_csv.read_text(encoding="utf-8") if task == "clf" else reg_text
    data = tmp_path / "fuzz.csv"
    data.write_bytes(_malformed_csv(base, faults))
    capsys.readouterr()
    code = main(["train", "--data", str(data), "--target", "y", "--task", task,
                 "--method", method, "--rules", "1", "--out", str(tmp_path / "fuzz.json")])
    _assert_one_error_line(code, capsys.readouterr().err)
    for target in ([], ["--target", "y"]):
        code = main(["predict", "--model", str(models[task]), "--data", str(data), *target])
        _assert_one_error_line(code, capsys.readouterr().err)
    if faults == [("nan", 2, 3)]:
        assert code == 3


def test_print_rejects_negative_precision(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(empty_model(0.25), path)
    assert main(["print", "--model", str(path), "--precision", "-1"]) == 2
    assert "--precision" in capsys.readouterr().err


def test_print_command(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(empty_model(0.25), path)
    code = main(["print", "--model", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out == "score = +0.25\ncomplexity: C(f) = 0\n"


# ---------------------------------------------------------------------------
# benchmark / make-synthetic commands
# ---------------------------------------------------------------------------


def test_make_synthetic_round_trips_and_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["make-synthetic", "--generator", "staircase", "--n", "40",
            "--d", "3", "--noise", "0.1", "--seed", "5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    back = load_csv(a, "target", Task.CLASSIFICATION)
    assert back.n_rows == 40 and back.n_features == 3


def test_benchmark_command_writes_report(tmp_path, capsys):
    data_csv = tmp_path / "d.csv"
    assert main(
        ["make-synthetic", "--generator", "oblique", "--n", "50", "--d", "3",
         "--noise", "0.1", "--seed", "0", "--out", str(data_csv)]
    ) == 0
    cfg = {
        "datasets": [
            {"synthetic": "oblique", "n": 50, "d": 3, "noise": 0.1, "seed": 1},
            {"path": str(data_csv), "target": "target", "task": "clf",
             "name": "fromfile"},
        ],
        "repetitions": 10,
        "max_rules": 2,
        "bootstrap_cap": 40,
        "tgb_reg_grid": [0.1, 10.0],
        "methods": ["tgb"],
    }
    cfg_path = tmp_path / "protocol.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "report"
    assert main(["benchmark", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    found = {p.name for p in out_dir.iterdir()}
    assert found == {
        "report.json",
        "complexity_table.csv",
        "risk_table.csv",
        "curves.csv",
        "timing_table.csv",
    }
    doc = json.loads((out_dir / "report.json").read_text())
    assert {d["name"] for d in doc["datasets"]} == {"oblique", "fromfile"}


@pytest.mark.parametrize("repetitions", [10, 3])  # with 3 the intervals are blank
def test_quick_benchmark_run_labels_the_interval_by_its_coverage(tmp_path, capsys, repetitions):
    cfg = {"datasets": [{"synthetic": "oblique", "n": 120, "d": 3, "noise": 0.05, "seed": 0}],
           "max_rules": 3, "bootstrap_cap": 80, "tgb_reg_grid": [0.01, 1.0],
           "repetitions": repetitions}
    cfg_path = tmp_path / "protocol.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "report"
    assert main(["benchmark", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    # P(X(4) <= median <= X(7)) for 10 draws is 672/1024
    assert "(4th, 7th) order-statistic interval, 65.6% coverage" in out
    assert "90%" not in out
    # each printed median and interval is its 0/1 row of complexity_table.csv
    with open(out_dir / "complexity_table.csv", encoding="utf-8", newline="") as handle:
        table = [[row[k] for k in ("method", "median", "ci47_low", "ci47_high")]
                 for row in csv.DictReader(handle) if row["metric"] == "zero_one"]
    printed = [line.split(maxsplit=3)[1:] for line in out.splitlines()
               if line.startswith("oblique ")]
    assert [p[0] for p in printed] == [t[0] for t in table] == ["lltboost", "tgb"]
    for (_, median, interval), (_, *cells) in zip(printed, table):
        low, high = interval.strip().removeprefix("[").removesuffix("]").split(", ")
        assert [v and float(v) for v in (median, low, high)] == [v and float(v) for v in cells]


@pytest.mark.parametrize("task,column,cell", [("clf", 1, "nan"), ("clf", 0, "1e400"),
                                              ("reg", -1, "inf")])
def test_benchmark_rejects_a_non_finite_csv_cell_before_the_protocol(
        tmp_path, clf_csv, monkeypatch, capsys, task, column, cell):
    def protocol(*args):
        raise AssertionError("the protocol ran on a non-finite dataset")

    monkeypatch.setattr(cli, "run_benchmark", protocol)
    if task == "reg":
        clf_csv = _rewrite_target(clf_csv, tmp_path / "reg.csv", lambda i, t: f"{0.37 * i}")
    bad = _with_cell(clf_csv, tmp_path / "bad.csv", 9, column, cell)
    cfg = {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3},
                        {"path": str(bad), "target": "y", "task": task}],
           "methods": ["tgb"]}
    cfg_path = tmp_path / "protocol.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "report"
    assert main(["benchmark", "--config", str(cfg_path), "--out", str(out_dir)]) == 3
    assert "bad.csv:9: non-finite" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("flags", [["--d", "1"], ["--n", "-5"], ["--noise", "2"],
                                   ["--noise", "-0.1"], ["--noise", "nan"]])
def test_make_synthetic_bad_shape_is_usage_error(tmp_path, flags, capsys):
    argv = ["make-synthetic", "--generator", "oblique", "--out", str(tmp_path / "a.csv")]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("fields", [
    {"datasets": [{"synthetic": "oblique", "d": 1}]},
    {"datasets": [{"synthetic": "oblique", "n": "x"}]},
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3}], "repetitions": 1.5},
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3}], "master_seed": -1},
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3}], "bootstrap_cap": -1},
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3}], "max_nonzeros": 0},
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3}], "tgb_reg_grid": [0.1, 1.0, 0.1]},
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3}], "tgb_reg_grid": [0.0, -0.0]},
    {"datasets": [{"path": 5, "target": "y", "task": "classification"}]},
    {"datasets": [{"path": "a.csv", "target": ["y"], "task": "classification"}]},
    {"datasets": [{"path": "a.csv", "target": "y", "task": "classification", "name": None}]},
    {"datasets": [{"path": "a.csv", "target": "y", "task": "classification", "nmae": "a"}]},
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3},
                  {"synthetic": "oblique", "n": 50, "d": 3, "seed": 1}]},
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3}], "methods": []},
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3}], "tgb_reg_grid": []},
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3}], "methods": ["tgb", "tgb"]},
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3}], "methods": "tgb"},
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3}], "tgb_reg_grid": "10"},
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3}], "tgb_reg_grid": 5},
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3, "bogus": 1}]},
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3, "generator": "oblique"}]},
    # the margin is lltboost.SPARSITY_ACCEPT_DELTA, not a protocol setting
    {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3}], "sparsity_accept_delta": 0.1},
])
def test_benchmark_bad_spec_or_field_is_usage_error(tmp_path, fields, capsys):
    cfg_path = tmp_path / "protocol.json"
    cfg_path.write_text(json.dumps(fields), encoding="utf-8")
    assert main(["benchmark", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()
    for key in ("nmae", "bogus", "generator"):  # an unknown dataset key is named
        assert key not in fields["datasets"][0] or repr(key) in err


def test_benchmark_bad_synthetic_spec_names_its_position(tmp_path, capsys):
    cfg = {"datasets": [{"synthetic": "oblique", "n": 50, "d": 3},
                        {"synthetic": "oblique", "n": 50, "d": 3, "bogus": 1}]}
    cfg_path = tmp_path / "protocol.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["benchmark", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: datasets[1]: ") and "'bogus'" in err


def _config_command(command, config, data, out):
    """Argument list of ``train`` (on ``data``) or ``benchmark``, reading ``config``."""
    if command == "train":
        return ["train", "--data", str(data), "--target", "y", "--task", "clf",
                "--method", "tgb", "--config", str(config), "--out", str(out)]
    return ["benchmark", "--config", str(config), "--out", str(out)]


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_config_file_that_is_not_utf8_is_usage_error(tmp_path, clf_csv, command, capsys):
    config = tmp_path / "cfg.json"
    config.write_bytes(b'{"seed": 1, "note": "caf\xe9"}')  # a raw Latin-1 byte
    out = tmp_path / "out"
    assert main(_config_command(command, config, clf_csv, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: not valid JSON") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_config_number_too_large_for_a_double_is_usage_error(tmp_path, clf_csv, command,
                                                             capsys):
    huge = "1" + "0" * 400  # JSON reads it as an exact Python int
    text = ('{"reg": %s}' if command == "train" else
            '{"datasets": [{"synthetic": "oblique", "n": 50, "d": 3}], "tgb_reg_grid": [%s]}')
    config = tmp_path / "cfg.json"
    config.write_text(text % huge, encoding="utf-8")
    out = tmp_path / "out"
    assert main(_config_command(command, config, clf_csv, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "reg_strength must be a finite number" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, code", [("print", 3), ("benchmark", 2)])
def test_json_file_nested_too_deep_is_a_typed_error(tmp_path, command, code, capsys):
    # the decoder gives up on deep nesting with a RecursionError, not a ValueError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    argv = (["print", "--model", str(deep)] if command == "print" else
            ["benchmark", "--config", str(deep), "--out", str(tmp_path / "o")])
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {deep}: not valid JSON") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["make-synthetic", "benchmark"])
def test_synthetic_dataset_too_large_to_allocate_is_usage_error(tmp_path, command,
                                                                monkeypatch, capsys):
    def too_large(**spec):
        raise MemoryError

    monkeypatch.setitem(cli.SYNTHETIC_GENERATORS, "oblique", too_large)
    if command == "make-synthetic":
        argv = ["make-synthetic", "--generator", "oblique", "--out", str(tmp_path / "a.csv")]
    else:
        cfg_path = tmp_path / "protocol.json"
        cfg_path.write_text(json.dumps({"datasets": [{"synthetic": "oblique"}]}),
                            encoding="utf-8")
        argv = ["benchmark", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too large to allocate" in err
    assert "Traceback" not in err
    assert not (tmp_path / "a.csv").exists() and not (tmp_path / "o").exists()


def test_benchmark_config_errors(tmp_path):
    no_data = tmp_path / "c1.json"
    no_data.write_text(json.dumps({"repetitions": 10}), encoding="utf-8")
    assert main(["benchmark", "--config", str(no_data), "--out", str(tmp_path / "o")]) == 2

    bad_key = tmp_path / "c2.json"
    bad_key.write_text(
        json.dumps({"datasets": [{"synthetic": "oblique"}], "zzz": 1}),
        encoding="utf-8",
    )
    assert main(["benchmark", "--config", str(bad_key), "--out", str(tmp_path / "o")]) == 2

    bad_gen = tmp_path / "c3.json"
    bad_gen.write_text(
        json.dumps({"datasets": [{"synthetic": "cubes"}]}), encoding="utf-8"
    )
    assert main(["benchmark", "--config", str(bad_gen), "--out", str(tmp_path / "o")]) == 2


def test_benchmark_names_a_repeated_dataset_name(tmp_path, clf_csv, capsys):
    # two CSVs with one stem and no "name" are two datasets called "train"
    other = tmp_path / "other"
    other.mkdir()
    twin = other / clf_csv.name
    twin.write_bytes(clf_csv.read_bytes())
    spec = {"target": "y", "task": "clf"}
    cfg_path = tmp_path / "protocol.json"
    cfg_path.write_text(json.dumps({"datasets": [{"path": str(clf_csv), **spec},
                                                 {"path": str(twin), **spec}]}),
                        encoding="utf-8")
    capsys.readouterr()
    assert main(["benchmark", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "dataset names must be unique, repeated: ['train']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "predict", "make-synthetic", "benchmark"])
def test_unwritable_out_is_a_usage_error(tmp_path, clf_csv, command, monkeypatch, capsys):
    (tmp_path / "file.txt").write_text("", encoding="utf-8")
    cfg_path = tmp_path / "protocol.json"
    cfg_path.write_text(json.dumps({"datasets": [{"synthetic": "oblique", "n": 50, "d": 3}]}),
                        encoding="utf-8")
    argv = {
        "train": ["train", "--data", str(clf_csv), "--target", "y", "--task", "clf",
                  "--method", "tgb", "--rules", "1"],
        "predict": ["predict", "--model", str(trained_model(tmp_path, clf_csv)),
                    "--data", str(clf_csv)],
        "make-synthetic": ["make-synthetic", "--generator", "oblique", "--n", "20"],
        "benchmark": ["benchmark", "--config", str(cfg_path)],
    }[command]

    def protocol_must_not_run(*args, **kwargs):
        raise AssertionError("the protocol ran before the output was checked")

    def fit_must_not_run(*args, **kwargs):
        raise AssertionError("the learner fitted before the output was checked")

    monkeypatch.setattr(cli, "run_benchmark", protocol_must_not_run)
    if command == "train":
        monkeypatch.setattr(cli.LEARNERS["tgb"].module, "fit", fit_must_not_run)
    # benchmark creates the missing parents of its output directory
    bad_paths = ["file.txt/out"] if command == "benchmark" else ["missing/out", "file.txt/out"]
    for bad in bad_paths:
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / bad}: ")
        assert "Traceback" not in err
        assert not (tmp_path / bad).exists()
    if command == "benchmark":
        # an existing directory that denies writing; as root every directory is
        # writable, so the denial comes from os.access
        read_only = tmp_path / "read_only"
        read_only.mkdir()
        access = cli.os.access
        monkeypatch.setattr(cli.os, "access", lambda path, mode, *args, **kwargs: (
            Path(path) != read_only and access(path, mode, *args, **kwargs)))
        assert main(argv + ["--out", str(read_only)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {read_only}: ")
        assert "Traceback" not in err
        assert not any(read_only.iterdir())


def test_version_flag_exits_zero(capsys):
    assert main(["--version"]) == 0
