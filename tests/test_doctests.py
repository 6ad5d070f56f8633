import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import obliquerules

README = Path(__file__).resolve().parent.parent / "README.md"


def test_docstring_examples_of_every_module_pass():
    names = ["obliquerules"] + [
        info.name
        for info in pkgutil.iter_modules(obliquerules.__path__, "obliquerules.")
        if info.name != "obliquerules.__main__"  # exits the interpreter on import
    ]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted > 0


def test_readme_python_api_examples_run(tmp_path, monkeypatch):
    # the blocks run in order in one namespace, as a reader would paste them;
    # the second writes model.json into the working directory
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert (tmp_path / "model.json").is_file()
