"""Deterministic work gates and the layer names the benchmark tracer wraps.

The gates count work instead of timing it, so they do not flake on a
loaded machine: forming a full product where only a few of its columns
are read shows up as a jump in dense-product cells or in applies.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from bimodcheck import cli
from bimodcheck.exactlin import Matrix

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"
TRACER = ROOT / "bench" / "tracer.py"

# Measured on fixtures/fx4.json: 17,402,130 cells in 605 products and
# 29,961 applies.  Forming the full hom and tensor products again costs
# 204,540,480 cells and 92,142 applies.
FX4_MAX_MATMUL_CELLS = 20_000_000
FX4_MAX_APPLIES = 33_000


def test_fx4_work_stays_under_its_gates(monkeypatch, capsys):
    counts = {"cells": 0, "applies": 0}
    matmul, apply = Matrix.__matmul__, Matrix.apply

    def counted_matmul(a, b):
        counts["cells"] += a.rows * a.cols * b.cols
        return matmul(a, b)

    def counted_apply(a, vec):
        counts["applies"] += 1
        return apply(a, vec)

    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    monkeypatch.setattr(Matrix, "apply", counted_apply)
    doc = FIXTURE_DIR / "fx4.json"
    assert cli.main(["check", str(doc), "--format", "json"]) == 0
    golden = (FIXTURE_DIR / "golden" / "fx4.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
    assert counts["cells"] <= FX4_MAX_MATMUL_CELLS, counts
    assert counts["applies"] <= FX4_MAX_APPLIES, counts


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists():
    tracer = _tracer()
    for mod_name, fn_name, _ in tracer.FUNCTIONS:
        mod = importlib.import_module(f"bimodcheck.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), (mod_name, fn_name)
    for mod_name, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"bimodcheck.{mod_name}"),
                      cls_name)
        assert attr in cls.__dict__, (cls_name, attr)
    # the tracer counts unknowns from the third positional argument
    from bimodcheck.bimodule import equivariant_maps
    params = list(inspect.signature(equivariant_maps).parameters)
    assert params[2] == "tgt_dim"
