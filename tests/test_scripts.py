import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_oblique_benchmark.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_oblique_benchmark", SCRIPT)
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
