"""Deterministic work gates and the layer names the benchmark tracer wraps.

The gates count work instead of timing it, so they do not flake on a
loaded machine: forming a full product where only a few of its columns
are read shows up as a jump in dense-product cells or in applies.
"""

import importlib
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

from bimodcheck import cli, exactlin
from bimodcheck.exactlin import QQ, Matrix

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"
TRACER = ROOT / "bench" / "tracer.py"

# Measured on fixtures/fx4.json: 17,402,130 cells in 605 products and
# 7,336 applies.  Forming the full hom and tensor products again costs
# 204,540,480 cells and 92,142 applies; applying the equivariant
# solver's target operators to all-zero value blocks costs 29,961.
FX4_MAX_MATMUL_CELLS = 20_000_000
FX4_MAX_APPLIES = 8_100
# Fraction zero tests (Fraction.__bool__ calls) on fixtures/fx4.json:
# 1,275, nearly all of them cancellations inside elimination.  Passing
# dense vectors between the kernels costs 14,100; testing the shared
# field.zero by value where an identity test would do costs 1,390,065;
# walking dense rows in every kernel costs 4,493,209.
FX4_MAX_ZERO_TESTS = 1_400
# exactlin._echelon on fixtures/fx4.json: 104 eliminations of 2,403
# input rows in total.
FX4_MAX_ECHELONS = 114
FX4_MAX_ECHELON_ROWS = 2_650


def _run_fx4(capsys):
    doc = FIXTURE_DIR / "fx4.json"
    assert cli.main(["check", str(doc), "--format", "json"]) == 0
    golden = (FIXTURE_DIR / "golden" / "fx4.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


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
    _run_fx4(capsys)
    assert counts["cells"] <= FX4_MAX_MATMUL_CELLS, counts
    assert counts["applies"] <= FX4_MAX_APPLIES, counts


def test_fx4_zero_tests_stay_under_their_gate(monkeypatch, capsys):
    if exactlin._rational is not Fraction:
        pytest.skip("the gate counts fractions.Fraction zero tests")
    calls = [0]
    is_nonzero = Fraction.__bool__

    def counted(x):
        calls[0] += 1
        return is_nonzero(x)

    monkeypatch.setattr(Fraction, "__bool__", counted)
    _run_fx4(capsys)
    assert calls[0] <= FX4_MAX_ZERO_TESTS, calls[0]


def test_fx4_eliminations_stay_under_their_gates(monkeypatch, capsys):
    counts = {"calls": 0, "rows": 0}
    echelon = exactlin._echelon

    def counted(rows):
        rows = list(rows)
        counts["calls"] += 1
        counts["rows"] += len(rows)
        return echelon(rows)

    monkeypatch.setattr(exactlin, "_echelon", counted)
    _run_fx4(capsys)
    assert counts["calls"] <= FX4_MAX_ECHELONS, counts
    assert counts["rows"] <= FX4_MAX_ECHELON_ROWS, counts


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


def test_tracer_matmul_counts_read_the_sparse_storage():
    a = Matrix(QQ, [[QQ.scalar(x) for x in row]
                    for row in [[1, 0, 2], [0, 0, 3], [0, 0, 0]]])
    b = Matrix(QQ, [[QQ.scalar(x) for x in row]
                    for row in [[0, 1], [4, 0], [5, 6]]])
    useful = sum(1 for i in range(3) for k in range(3) for j in range(2)
                 if a.data[i][k] and b.data[k][j])
    assert useful == 5
    fresh_a, fresh_b = Matrix(QQ, a.data), Matrix(QQ, b.data)
    counts = _tracer()._matmul_counts((fresh_a, fresh_b), fresh_a @ fresh_b)
    assert counts == {"cells": 3 * 3 * 2, "useful": useful}
