"""Every function in the package is reached by the CLI corpus, or says why not.

A child process profiles cli.main over the corpus documents in both
output formats, from before the package is imported, so import-time
calls count and the test process's caches stay untouched.  A function the
corpus never calls must be on ALLOWED with its reason; anything else is
API that only tests reach, and it should go.  Dunders and fixtures.py
(the corpus builder) are exempt.

Functions are matched on their file and first line, since co_qualname
is missing before Python 3.11; a decorated function's code starts at
its first decorator.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from bimodcheck.cli import DIM_CAP_ENV

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "bimodcheck"
FIXTURE_DIR = ROOT / "fixtures"

ALLOWED = {
    "exactlin.rref": "bench/tracer.py wraps it by name (ROADMAP item 6)",
    "exactlin.right_inverse":
        "bench/tracer.py wraps it by name (ROADMAP item 6)",
    "exactlin.invert": "bench/tracer.py wraps it by name; "
                       "fixtures.conjugate calls it",
    "bimodule.BimoduleMap.validate":
        "reference check on a formed map, run by the tests",
    "homology.ChainComplex.validate":
        "reference check: acceptance criterion 5 calls chain.validate()",
    "homology.ring_hochschild":
        "the entry point to ring-relative cohomology over any ring map",
    "diagnostics.smooth_product":
        "the paper's product statement; no CLI task runs it",
    "diagnostics.SmoothProductReport.hypotheses_hold":
        "smooth_product's report",
    "bimodule.is_fg_projective_right": "smooth_product reads it",
    "bimodule.hom_right": "is_fg_projective_right reads it",
    "diagnostics.MoritaReport.ok":
        "the one-bit summary of morita_check for library callers; "
        "the CLI renders its fields",
    "structures.identity_map":
        "fixtures.py builds the corpus's identity maps with it",
    "cli.serialize_document": "scripts/make_fixtures.py writes the corpus "
                              "with it",
    "cli._positive_int":
        f"reached only when --dim-cap or {DIM_CAP_ENV} is given",
}

CHILD = """
import contextlib, io, json, sys

sys.path.insert(0, sys.argv[1])
reached = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        reached.add((code.co_filename, code.co_firstlineno))

sys.setprofile(profile)
from bimodcheck import cli
for doc in sys.argv[2:]:
    for fmt in ("json", "text"):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["check", doc, "--format", fmt])
sys.setprofile(None)
json.dump(sorted(reached), sys.stdout)
"""


def _defined() -> dict:
    """{(file, first line): "module.Qual.name"} over every function and
    method in the package but dunders and fixtures.py."""
    out = {}

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, path, prefix + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + [child.name]
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    out[(path, first)] = ".".join([module] + qual)
                visit(child, module, path, qual)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "fixtures.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem,
                  str(path.resolve()), [])
    return out


def _reached() -> set:
    env = {k: v for k, v in os.environ.items() if k != DIM_CAP_ENV}
    docs = [str(p) for p in sorted(FIXTURE_DIR.glob("*.json"))]
    assert docs, "no corpus documents"
    proc = subprocess.run([sys.executable, "-c", CHILD, str(SRC), *docs],
                          capture_output=True, text=True, env=env,
                          check=True)
    return {(str(Path(f).resolve()), line)
            for f, line in json.loads(proc.stdout)}


def test_every_function_is_reached_by_the_corpus_or_allowed():
    defined, reached = _defined(), _reached()
    assert set(ALLOWED) <= set(defined.values()), "an allowed name is gone"
    unreached = {name for key, name in defined.items() if key not in reached}
    assert unreached - set(ALLOWED) == set(), "only tests reach these"
    assert set(ALLOWED) - unreached == set(), "the corpus reaches these now"
