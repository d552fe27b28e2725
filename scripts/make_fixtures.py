"""Regenerate the JSON fixture corpus and its golden reports.

Documents are assembled from the package's own fixture constructors and
serialized through the CLI's canonical form, so schema drift shows up
here first.  Golden reports are the CLI's own JSON output, and
tests/text_golden/ holds its text output of the same documents; rerunning
this script must be a no-op unless behavior changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bimodcheck import cli
from bimodcheck.bimodule import regular_bimodule
from bimodcheck.exactlin import Field
from bimodcheck.fixtures import fixture

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE_DIR = ROOT / "fixtures"
GOLDEN_DIR = FIXTURE_DIR / "golden"
TEXT_GOLDEN_DIR = ROOT / "tests" / "text_golden"


def task(op, *args, expect=None, **options):
    return cli.Task(op, tuple(args), dict(options), expect)


def assemble(field, algebras, bimodules, maps, tasks) -> dict:
    doc = cli.InputDocument(field,
                            {a.name: a for a in algebras},
                            dict(bimodules), dict(maps), list(tasks))
    return cli.serialize_document(doc)


def build_documents() -> dict:
    docs = {}

    fx1 = fixture("fx1")
    m = fx1.bimodule
    docs["fx1"] = assemble(
        m.field, [m.left_algebra], {"M": m}, {},
        [task("generator", "M", expect={"verdict": True}),
         task("separable", "M", expect={"verdict": True}),
         task("smooth", "M", expect={"verdict": True}),
         task("hdim", "M", nmax=2, expect={"hdim": "0"}),
         task("hochschild", "M", "M", nmax=2, expect={"dims": [1, 0, 0]}),
         task("homotopy", "M", depth=2, expect={"ok": True})])

    fx2 = fixture("fx2")
    m = fx2.bimodule
    b = m.left_algebra
    k = fx2.base_map.source
    docs["fx2"] = assemble(
        m.field, [k, b], {"M": m, "BB": regular_bimodule(b)},
        {"unit": fx2.base_map},
        [task("generator", "M", expect={"verdict": True}),
         task("separable", "M", expect={"verdict": True}),
         task("smooth", "M", expect={"verdict": True, "route": "separable"}),
         task("hdim", "M", nmax=3, expect={"hdim": "0"}),
         task("rel_projective", "BB", "M", expect={"verdict": True}),
         task("hochschild", "M", "BB", nmax=2, expect={"dims": [2, 0, 0]}),
         task("homotopy", "M", depth=2, expect={"ok": True}),
         task("separable_extension", "unit", expect={"verdict": True}),
         task("smooth_extension", "unit", expect={"verdict": True})])

    fx3 = fixture("fx3")
    m = fx3.bimodule
    b = m.left_algebra
    k = fx3.base_map.source
    docs["fx3"] = assemble(
        m.field, [k, b], {"M": m, "BB": regular_bimodule(b)},
        {"unit": fx3.base_map},
        [task("generator", "M", expect={"verdict": True}),
         task("separable", "M", expect={"verdict": False}),
         task("smooth", "M", expect={"verdict": False}),
         task("hdim", "M", nmax=3, expect={"hdim": "> 3"}),
         task("rel_projective", "BB", "M", expect={"verdict": False}),
         task("hochschild", "M", "BB", nmax=2, expect={"dims": [2, 1, 1]}),
         task("bar", "M", depth=3, expect={"dims": [4, 8, 16]}),
         task("homotopy", "M", depth=2, expect={"ok": True}),
         task("separable_extension", "unit", expect={"verdict": False}),
         task("smooth_extension", "unit", expect={"verdict": False})])

    fx4 = fixture("fx4")
    m = fx4.bimodule
    b = m.left_algebra
    k = fx4.base_map.source
    docs["fx4"] = assemble(
        m.field, [k, b], {"M": m, "BB": regular_bimodule(b)},
        {"unit": fx4.base_map},
        [task("generator", "M", expect={"verdict": True}),
         task("separable", "M", expect={"verdict": False}),
         task("smooth", "M", expect={"verdict": True}),
         task("hdim", "M", nmax=2, expect={"hdim": "1"}),
         task("hochschild", "M", "BB", nmax=2, expect={"dims": [1, 0, 0]}),
         task("static", "M"),
         task("homotopy", "M", depth=2, expect={"ok": True}),
         task("smooth_extension", "unit", expect={"verdict": True})])

    fx5 = fixture("fx5")
    m = fx5.bimodule
    b = m.left_algebra
    docs["fx5"] = assemble(
        m.field, [m.right_algebra, b], {"M": m, "BB": regular_bimodule(b)},
        {},
        [task("separable", "M", expect={"verdict": True}),
         task("generator", "M", expect={"verdict": True}),
         task("smooth", "M", expect={"verdict": True}),
         task("hdim", "M", nmax=2, expect={"hdim": "0"}),
         task("morita", "M", "BB", nmax=2,
              expect={"module_dims": [1, 0, 0], "ring_dims": [1, 0, 0],
                      "dims_agree": True, "comparison_ok": True}),
         task("sugano", "M", expect={"agree": True}),
         task("static", "M", expect={"ev_endo_iso": True})])

    fx6 = fixture("fx6")
    m = fx6.bimodule
    b = m.left_algebra
    diag = fx6.base_map.source
    docs["fx6"] = assemble(
        m.field, [diag, b], {"M": m, "BB": regular_bimodule(b)},
        {"incl": fx6.base_map},
        [task("generator", "M", expect={"verdict": True}),
         task("separable", "M", expect={"verdict": True}),
         task("smooth", "M", expect={"verdict": True}),
         task("hdim", "M", nmax=2, expect={"hdim": "0"}),
         task("hochschild", "M", "BB", nmax=2, expect={"dims": [1, 0, 0]}),
         task("bar", "M", depth=3, expect={"dims": [8, 16, 32]}),
         task("morita", "M", "BB", nmax=2,
              expect={"module_dims": [1, 0, 0], "ring_dims": [1, 0, 0],
                      "dims_agree": True, "comparison_ok": True}),
         task("separable_extension", "incl", expect={"verdict": True}),
         task("smooth_extension", "incl", expect={"verdict": True}),
         task("homotopy", "M", depth=2, expect={"ok": True})])

    simple = fixture("simple-over-dual").bimodule
    zero = fixture("zero-over-dual").bimodule
    docs["edge"] = assemble(
        simple.field, [simple.left_algebra, simple.right_algebra],
        {"simple": simple, "zero": zero}, {},
        [task("generator", "simple", expect={"verdict": False}),
         task("separable", "simple", expect={"verdict": False}),
         task("smooth", "simple",
              expect={"verdict": True, "route": "ev-injective"}),
         task("generator", "zero", expect={"verdict": False}),
         task("smooth", "zero", expect={"verdict": True})])

    f5 = Field(5)
    fx5p = fixture("fx5", f5)
    m = fx5p.bimodule
    b = m.left_algebra
    docs["fp5"] = assemble(
        f5, [m.right_algebra, b], {"M": m, "BB": regular_bimodule(b)}, {},
        [task("generator", "M", expect={"verdict": True}),
         task("separable", "M", expect={"verdict": True}),
         task("smooth", "M", expect={"verdict": True}),
         task("hdim", "M", nmax=2, expect={"hdim": "0"}),
         task("hochschild", "M", "BB", nmax=2, expect={"dims": [1, 0, 0]})])

    return docs


def golden_report(path: pathlib.Path, fmt: str = "json") -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(["check", str(path), "--format", fmt,
                           "--assert"])
    if status != 0:
        raise SystemExit(f"{path.name}: exit {status}; expectations inside "
                         f"the document failed")
    return buf.getvalue()


def main() -> None:
    FIXTURE_DIR.mkdir(exist_ok=True)
    GOLDEN_DIR.mkdir(exist_ok=True)
    TEXT_GOLDEN_DIR.mkdir(exist_ok=True)
    for name, obj in build_documents().items():
        doc_path = FIXTURE_DIR / f"{name}.json"
        doc_path.write_text(json.dumps(obj, indent=2) + "\n",
                            encoding="utf-8")
        (GOLDEN_DIR / f"{name}.json").write_text(golden_report(doc_path),
                                                 encoding="utf-8")
        (TEXT_GOLDEN_DIR / f"{name}.txt").write_text(
            golden_report(doc_path, "text"), encoding="utf-8")
        print(f"wrote {doc_path.relative_to(ROOT)} and its goldens")


if __name__ == "__main__":
    main()
