import importlib.util
import sys
from pathlib import Path

from obliquerules import lltboost, tgb
from obliquerules.datasets import make_oblique

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name="run_oblique_benchmark", folder=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_benchmark_run_labels_the_interval_by_its_coverage(tmp_path, capsys):
    assert load_script().main(["--quick", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    # P(X(4) <= median <= X(7)) for 10 draws is 672/1024
    assert "(4th, 7th) order-statistic interval, 65.6% coverage" in out
    assert "90%" not in out
    assert (tmp_path / "report.json").is_file()


def test_compare_outputs_reports_the_largest_relative_difference():
    compare = load_script("compare_outputs")
    before = {"w": ["1.0", "-2.0"], "t": 4.0, "name": "a", "gone": 1}
    after = {"w": ["1.0", "-2.000002"], "t": 4.0000004, "name": "b"}
    diffs = compare._json_diffs(before, after)
    assert diffs == [(".gone", 1, "<absent>"), (".name", "a", "b"), (".t", 4.0, 4.0000004),
                     (".w[1]", "-2.0", "-2.000002")]
    assert compare._largest_relative_difference(diffs) == (
        "largest relative difference: 1e-06 at .w[1]")
    assert compare._largest_relative_difference(diffs[:2]) == (
        "largest relative difference: no differing numbers")


def test_compare_outputs_counts_differing_values_by_path():
    compare = load_script("compare_outputs")
    before = {"curves": [{"complexity": 4, "risk": 0.5}, {"complexity": 6, "risk": 0.4}],
              "rules": [{"w": [1.0, 2.0]}, {"w": [3.0]}], "seed": 1}
    after = {"curves": [{"complexity": 3, "risk": 0.5}, {"complexity": 5, "risk": 0.4}],
             "rules": [{"w": [1.5, 2.0]}, {"w": [3.5]}], "seed": 2}
    diffs = compare._json_diffs(before, after)
    assert compare._counts_by_path(diffs) == [
        ".curves[].complexity: 2", ".rules[].w[]: 2", ".seed: 1"]
    assert compare._counts_by_path([]) == []


def test_compare_outputs_summarizes_changed_final_stages():
    compare = load_script("compare_outputs")

    def fit(*stages):
        return [{"train_risk": repr(risk), "complexity": cx, "rules": []} for risk, cx in stages]

    before = {"a": fit((0.7, 0), (0.5, 4)), "b": fit((0.7, 0), (0.4, 6)),
              "c": fit((0.7, 0), (0.3, 8)), "d": fit((0.6, 0))}
    after = {"a": fit((0.7, 0), (0.5, 4)), "b": fit((0.7, 0), (0.35, 5)),
             "c": fit((0.7, 0), (0.3, 9)), "d": fit((0.6, 0), (0.65, 2))}
    # a presort hash is no fit and is left out of the count
    before["presort/c"], after["presort/c"] = "00ff", "ff00"
    assert compare._final_stage_changes(before, after) == (
        "final stage differs in 3 of 4 fits: complexity rose 2, fell 1; "
        "train risk fell 1, rose 1")


def test_benchmark_tracer_finds_and_restores_every_name_it_wraps(monkeypatch):
    # perfbench/tracer.py wraps names of src/ where callers resolve them today,
    # so a refactor that moves one must move the tracer's name with it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    tracer = load_script("tracer", ROOT / "perfbench")
    data = make_oblique(n=120, d=3, seed=0)
    with tracer.Tracer() as live:
        tracer.trace_layers(live)  # a KeyError names a wrapped name that is gone
        wrapped = list(live._saved)
        lltboost.fit(data.X, data.y, lltboost.LLTConfig(max_rules=2))
        tgb.fit(data.X, data.y, tgb.TGBConfig(max_rules=2))
    assert wrapped and all(vars(owner)[attr] is original for owner, attr, original in wrapped)
    # the learners still call through the wrapped names
    for span in ("sparse_logreg.l1", "sparse_logreg.path_query", "sparse_logreg.path_solve",
                 "sparse_logreg.refit", "losses.loss", "losses.gradient", "lltboost.fit",
                 "lltboost.proposition", "tgb.fit", "tgb.axis_scan", "core.activation"):
        assert live.calls[span] > 0, span
