import doctest
import importlib
import pkgutil

import obliquerules


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
