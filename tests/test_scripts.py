import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from obliquerules import lltboost, tgb
from obliquerules.datasets import make_oblique

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name="compare_outputs", folder=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_reports_the_largest_relative_difference():
    compare = load_script()
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
    compare = load_script()
    before = {"curves": [{"complexity": 4, "risk": 0.5}, {"complexity": 6, "risk": 0.4}],
              "rules": [{"w": [1.0, 2.0]}, {"w": [3.0]}], "seed": 1}
    after = {"curves": [{"complexity": 3, "risk": 0.5}, {"complexity": 5, "risk": 0.4}],
             "rules": [{"w": [1.5, 2.0]}, {"w": [3.5]}], "seed": 2}
    diffs = compare._json_diffs(before, after)
    assert compare._counts_by_path(diffs) == [
        ".curves[].complexity: 2", ".rules[].w[]: 2", ".seed: 1"]
    assert compare._counts_by_path([]) == []


def test_compare_outputs_shows_a_removed_key_or_shortened_list_by_its_size():
    compare = load_script()
    before = {"curves": [{"rep": k, "test_risk": 0.5} for k in range(1600)],
              "notes": ["a", "b", "c"], "text": "x" * 500, "seed": 1}
    after = {"notes": ["a", "b"], "text": "y" * 500, "seed": 2}
    diffs = compare._json_diffs(before, after)
    shown = [f"{path}: {compare._shown(a)} -> {compare._shown(b)}" for path, a, b in diffs]
    assert shown[:3] == [".curves: <list of 1600> -> '<absent>'",
                         ".notes: <list of 3> -> <list of 2>", ".seed: 1 -> 2"]
    assert shown[3] == f".text: '{'x' * 116}... -> '{'y' * 116}..."
    assert compare._shown({"a": 1}) == "<dict of 1>"
    # the counts and the largest difference still see the whole values
    assert compare._counts_by_path(diffs) == [".curves: 1", ".notes: 1", ".seed: 1", ".text: 1"]
    assert compare._largest_relative_difference(diffs) == (
        "largest relative difference: 0.5 at .seed")


def test_compare_outputs_summarizes_changed_final_stages():
    compare = load_script()

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


@pytest.mark.parametrize("learner", [lltboost, tgb])
def test_benchmark_tracer_sees_each_learners_refits_and_losses_alone(learner, monkeypatch):
    # one learner's calls must not hide that the other's escape the tracer
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    tracer = load_script("tracer", ROOT / "perfbench")
    data = make_oblique(n=120, d=3, seed=0)
    cfg = lltboost.LLTConfig(max_rules=2) if learner is lltboost else tgb.TGBConfig(max_rules=2)
    with tracer.Tracer() as live:
        tracer.trace_layers(live)
        learner.fit(data.X, data.y, cfg)
    for span in ("sparse_logreg.refit", "losses.gradient", "losses.loss"):
        assert live.calls[span] > 0, span


def test_bench_pairs_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr():
    pairs = load_script("bench_pairs")
    parent = [10.0, 11.0, 12.0, 10.5, 11.5, 10.0, 12.0, 11.0, 10.8, 11.2]
    # sorted, the 3rd to 4th and 7th to 8th values are 10.5, 10.8 and 11.2, 11.5
    assert pairs.quartiles(parent) == pytest.approx((10.575, 11.0, 11.425))
    faster = [p - 2.0 for p in parent]
    s = pairs.compare(parent, faster, "lower", 0.25)
    assert (s["change_wins"], s["parent_wins"], s["claim"], s["beyond_bound"]) == (10, 0, True, False)
    # 8 wins of 10 fall short, however large the gap
    eight = faster[:8] + [p + 0.1 for p in parent[8:]]
    assert pairs.compare(parent, eight, "lower", 0.25)["change_wins"] == 8
    assert not pairs.compare(parent, eight, "lower", 0.25)["claim"]
    # 10 wins whose median gap is inside the parent's IQR fall short too
    close = [p - 0.5 for p in parent]
    assert pairs.compare(parent, close, "lower", 0.25)["change_wins"] == 10
    assert not pairs.compare(parent, close, "lower", 0.25)["claim"]
    # a throughput is better when higher; 30% less of it is beyond a 25% bound
    s = pairs.compare(parent, [0.7 * p for p in parent], "higher", 0.25)
    assert (s["change_wins"], s["parent_wins"], s["claim"], s["beyond_bound"]) == (0, 10, False, True)
    assert pairs.compare(parent, [p + 2.0 for p in parent], "higher", 0.25)["claim"]


def test_bench_pairs_marks_a_metric_unresolved_when_the_parent_spreads_wider_than_its_bound():
    pairs = load_script("bench_pairs")
    # an IQR of 0.0625 around a median of 0.22: 28% of the median
    parent = [0.17, 0.19, 0.20, 0.21, 0.22, 0.22, 0.25, 0.27, 0.27, 0.30]
    assert pairs.quartiles(parent) == pytest.approx((0.2025, 0.22, 0.265))
    same = pairs.compare(parent, list(parent), "lower", 0.25)
    assert (same["unresolved"], same["beyond_bound"], same["claim"]) == (True, False, False)
    # a bound wider than the spread resolves it
    assert not pairs.compare(parent, list(parent), "lower", 0.30)["unresolved"]
    # so does a change whose every run beats every parent run
    assert not pairs.compare(parent, [0.16] * 10, "lower", 0.25)["unresolved"]
    assert pairs.compare(parent, [0.16] * 9 + [0.18], "lower", 0.25)["unresolved"]
    # higher is better for a throughput
    assert not pairs.compare(parent, [0.31] * 10, "higher", 0.25)["unresolved"]
    assert pairs.compare(parent, [0.16] * 10, "higher", 0.25)["unresolved"]


def test_bench_pairs_alternates_sides_records_runs_and_fails_on_a_failed_gate(tmp_path, capsys):
    pairs = load_script("bench_pairs")
    run_py = ("import json, sys\n"
              "job = {job}\n"
              "metrics = {{'job_s': {{'value': job, 'unit': 's'}}}}\n"
              "print('job_s', job)\n"
              "print(json.dumps({{'correct': {correct}, 'metrics': metrics}}))\n"
              "sys.exit(0 if {correct} else 1)\n")
    benchmark = {"end_to_end": [{"name": "job_s", "better": "lower", "bound": 0.25}]}
    roots = {}
    for side, job in (("parent", 2.0), ("change", 1.0), ("broken", 1.0)):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        correct = side != "broken"
        (root / "perfbench" / "run.py").write_text(run_py.format(job=job, correct=correct))
        (root / "BENCHMARK.json").write_text(json.dumps(benchmark))
        roots[side] = str(root)
    common = ["--workload", "protocol", "--seed", "0", "--seconds", "1", "--pairs", "2"]

    out = tmp_path / "bench.json"
    assert pairs.main([roots["parent"], roots["change"], *common, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert [(r["pair"], r["side"], r["order"]) for r in record["runs"]] == [
        (0, "parent", 0), (0, "change", 1), (1, "change", 0), (1, "parent", 1)]
    assert record["summary"]["job_s"]["change_wins"] == 2
    assert record["summary"]["job_s"]["unresolved"] is False
    assert "job_s" in capsys.readouterr().out

    assert pairs.main([roots["parent"], roots["broken"], *common, "--out", str(out)]) == 1
    assert json.loads(out.read_text())["summary"] == {}


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_pairs_names_each_tree_by_its_sources_and_its_own_checkout_only(tmp_path):
    pairs = load_script("bench_pairs")

    def tree(root, files):
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
        return root

    files = {"src/pkg/a.py": "A = 1\n", "src/pkg/sub/b.py": "B = 2\n", "README.md": "x\n"}
    checkout = tree(tmp_path / "checkout", files)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for command in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "c"]):
        subprocess.run(git + command, cwd=checkout, check=True, capture_output=True)
    inner = tree(checkout / "copy", files)  # a copy inside another checkout
    plain = tree(tmp_path / "plain", {**files, "README.md": "y\n", "src/pkg/c.txt": "z\n"})
    named = {root.name: pairs.revision(root) for root in (checkout, inner, plain)}
    assert named["checkout"]["git"]
    assert named["copy"]["git"] is None and named["plain"]["git"] is None
    # only the sources' paths and bytes count
    assert len({r["src_sha256"] for r in named.values()}) == 1
    (plain / "src/pkg/sub/b.py").rename(plain / "src/pkg/b.py")
    moved = pairs.revision(plain)["src_sha256"]
    (plain / "src/pkg/b.py").write_text("B = 3\n")
    assert len({named["plain"]["src_sha256"], moved, pairs.revision(plain)["src_sha256"]}) == 3
