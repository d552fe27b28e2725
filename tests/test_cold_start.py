"""Importing the package generates no code.

Every class in the package is a plain class whose methods are written
out in its own module, so importing it runs each class body's `def`s
and nothing else: no method is generated and exec'd at import (such a
method reports the file "<string>"), and the dataclasses module, with
the inspect, ast, dis and tokenize modules it pulls in, is never
loaded.  A child interpreter imports the CLI and the fixtures afresh,
so the test process's own imports do not count.  CI runs this on every
Python it tests, so a standard module that starts importing dataclasses
on a newer Python shows here too.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "bimodcheck"

CHILD = """
import json, sys

sys.path.insert(0, sys.argv[1])
import bimodcheck.cli, bimodcheck.fixtures

def codes(value):
    # a function, a classmethod or staticmethod, a cached_property or a
    # property, each by the functions it holds
    for obj in (value, getattr(value, "__func__", None),
                getattr(value, "func", None), getattr(value, "fget", None),
                getattr(value, "fset", None)):
        code = getattr(obj, "__code__", None)
        if code is not None:
            yield code

files = {}
for name, module in list(sys.modules.items()):
    if not name.startswith("bimodcheck."):
        continue
    for cls in vars(module).values():
        if isinstance(cls, type) and cls.__module__ == name:
            key = name.split(".")[1] + "." + cls.__qualname__
            files[key] = {attr: code.co_filename
                          for attr, value in vars(cls).items()
                          for code in codes(value)}
json.dump({"dataclasses": "dataclasses" in sys.modules, "files": files},
          sys.stdout)
"""


def _classes() -> set:
    """module.Class for every top-level class in the package's source."""
    return {f"{path.stem}.{node.name}"
            for path in PACKAGE.glob("*.py")
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.ClassDef)}


def test_the_package_imports_no_generated_code():
    proc = subprocess.run([sys.executable, "-c", CHILD, str(SRC)],
                          capture_output=True, text=True, check=True)
    found = json.loads(proc.stdout)
    assert not found["dataclasses"], "importing the package loads dataclasses"
    assert set(found["files"]) == _classes()
    outside = {f"{cls}.{attr}": path
               for cls, methods in found["files"].items()
               for attr, path in methods.items()
               if Path(path).resolve().parent != PACKAGE}
    assert outside == {}, "methods not written in the package's source"
    assert found["files"]["exactlin.Frozen"], "no method was inspected"
