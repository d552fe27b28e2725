"""Deterministic work gates and the layer names the benchmark tracer wraps.

The gates count work instead of timing it, so they do not flake on a
loaded machine: forming a full product where only a few of its columns
are read shows up as a jump in dense-product cells or in applies.
"""

import importlib
import importlib.util
import inspect
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import bimodcheck
from bimodcheck import (
    bimodule, cli, diagnostics, exactlin, fixtures, homology,
)
from bimodcheck.exactlin import QQ, Matrix

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"
TRACER = ROOT / "bench" / "tracer.py"

# Measured on fixtures/fx4.json: 1,583,433 cells and 1,138 applies.
# Applying each left action to the right action's column at a generator
# for every two-sided product, where that column is zero, makes 1,324
# applies.
# Deciding separability of M twice, once for separable and once for
# smooth's separable route, makes 1,583,460 cells.
# Forming the dim B^2 products of the left and right actions on the
# kernel of multiplication for the extension counit, and the
# multiplication as a product with a section matrix, makes 1,585,647
# cells.
# Tensoring M over End(M) with *M for the evaluation over End(M) apart
# from M's own evaluation as a (B, End(M))-bimodule makes 1,375 applies.
# Forming each basis map that a counit, a hom-space action or a
# coboundary reads, one map at a time, instead of reading f_u(v) for
# all u from the stacked value matrix W (EquivariantBasis.images) costs
# 2,195,514 cells and 4,253 applies.  Growing bar object P_3 and solving
# for its two-sided cochains, which only give the top coboundary a
# target basis, costs 2,799,693 cells and 7,188 applies.  Forming every
# solved basis map and the counit @ [g_0 g_1 ...] product in each
# counit split costs 17,402,130 cells; forming the full hom and tensor
# products again costs 204,540,480 cells and 92,142 applies; applying
# the equivariant solver's target operators to all-zero value blocks
# costs 29,961 applies.
FX4_MAX_MATMUL_CELLS = 1_583_433
FX4_MAX_APPLIES = 1_138
# Basis maps formed on fixtures/fx4.json: 3 of the 242 solved, the
# endomorphisms of M that End(M)'s multiplication and M as a
# (B, End(M))-bimodule are made of.  Counits, hom-space actions,
# coboundaries and the trace read images from W instead, and the counit
# splits and the top hom level Hom(M, P_2) read only generator values.
# Hom(M, B) is solved once for *M, the trace, evaluation over End(M)
# and M as a (B, End(M))-bimodule; solving it for each solves 253 maps.
# Forming each map that is read forms 99; building smooth's kernel apart
# from Omega^1 solves 283 and forms 111; growing P_3 forms 192 of 364;
# forming every solved map forms all 242.  Taking hochschild's
# cochains on the bar complex instead of the syzygy resolution solves
# 244.
FX4_SOLVED_MAPS = 242
FX4_MAX_MAPS_FORMED = 3
# equivariant_maps calls on fixtures/fx4.json and fx5.json: 15 and 12,
# no two with the same operator objects.  On fx4, hochschild's syzygy
# resolution solves Hom(M, Omega^n) for its covers, the cochains on
# them, and Hom(Omega^2, B) for the top cocycles; the bar complex made
# 13.  Solving Hom(M, B) apart for the evaluation, the trace, evaluation
# over End(M) and M as a (B, End(M))-bimodule makes 3 more, the (3, 3)
# and (2, 4) solves 4 times.  On fx5 and fx6, morita reads its module
# cohomology from module_hochschild and its transport from bar degrees
# 0..2.  B is relatively projective on both, so it resolves itself: one
# solve of Hom(B, B), where covering Omega^1 and Omega^2 on fx6 makes
# 18.  fx5's Omega^1 is 0, so its chain stops at P_0, whose cochains
# the transport solves anyway: 12.  Reading the top coboundary on the
# bar instead solves Hom(M, P_2): 13 and 18.
EQUIVARIANT_SOLVES = {"fx4": 15, "fx5": 13, "fx6": 14}
# Bar objects grown on fixtures/fx4.json, whose tasks reach degree 2: 3,
# all for homotopy, which reads Hom(M, P_2) but not P_3; growing P_3
# makes 4.
FX4_MAX_BAR_OBJECTS = 3
# Bar objects grown on fixtures/fp5.json, whose only tasks that resolve
# B are hdim and hochschild: 0.  Both read the syzygy chain, whose
# Omega^1 the bar's first syzygy shares; on the bar complex they grow
# P_0 to P_2, 3.
FP5_BAR_OBJECTS = 0
# Rows of the counit-splitting systems on fixtures/fx4.json: 42 over 3
# splits, r * d rows each for r generators of a d-dimensional object.
# Splitting ker ev for smooth apart from Omega^1 for hdim makes 4 splits
# of 60 rows; one row per entry of End(P), d^2 each, is 117.
FX4_SPLITS = 3
FX4_MAX_SPLIT_ROWS = 42
# Vector shape checks (exactlin.check_vec calls) on fixtures/fx4.json:
# 1,620, at the entry points that take a vector from outside (apply,
# span_add, coords_of, lincomb for the actions, the eliminations).
# Applying the left actions to zero right-action columns makes 1,806;
# adding every zero orbit column to the span tracker as well makes
# 2,108.  Deciding separability of M twice adds 2, and building the
# evaluation over End(M) apart 68 more.
# Applying each formed map where W's images do makes 5,444; checking
# every internal hop as well (from_columns, coords_from, lincomb,
# multiply, embed, project_vec, kron_vec) makes 12,789.
FX4_MAX_CHECK_VECS = 1_620
# homology.apply_slot calls on fixtures/fx6.json: 388, nearly all in the
# transport of its one morita task.  Collapsing each transport vector
# once per basis cochain instead of once per column makes 1,078.
FX6_MAX_APPLY_SLOTS = 388
# Fraction zero tests (Fraction.__bool__ calls) on fixtures/fx4.json:
# 0, since its integral rationals are ints.  Storing them as Fractions
# costs 1,255 (cancellations inside elimination); passing dense vectors
# between the kernels as well costs 14,100; testing the shared
# field.zero by value where an identity test would do costs 1,390,065;
# walking dense rows in every kernel costs 4,493,209.
FX4_MAX_ZERO_TESTS = 0
# Fractions built (Fraction.__new__ calls) on fixtures/fx4.json: 0.  Its
# scalar strings are integers, which the parser reads with int(), and
# every value the engine computes is integral.  Sending every scalar
# string through the rational parser costs 125; storing integral
# rationals as Fractions costs 13,297.
FX4_MAX_FRACTIONS = 0
# Fractions built by bar_resolution(fx6-twisted, 3), fixture included:
# 100,858.  The twisted basis has real denominators, so most of them
# stay; storing integral rationals as Fractions costs 101,210.
FX6_TWISTED_BAR_MAX_FRACTIONS = 101_210
# exactlin._echelon on fixtures/fx4.json: 60 eliminations of 277 input
# rows in total.  A relation row per zero orbit column, most of them one
# entry that only pins an unknown to 0, makes 60 of 903.  Measured with
# those rows: deciding separability of M twice, once for separable
# and once for smooth's separable route, makes 63 of 922.  Eliminating
# each tensor relation basis, already reduced, a second time in
# quotient_space makes 65 of 934.  Tensoring
# M over End(M) with *M for the evaluation
# over End(M) apart from M's own evaluation as a (B, End(M))-bimodule
# makes 67 of 955.  Eliminating each hom solve's presentation twice, once
# for its relations and once for its lift, makes 82 of 1,069.  With
# hochschild on the bar complex it was 60 of 1,300 with one elimination
# per presentation and 73 of 1,453 with two; solving Hom(M, B) once per
# use made 82 of 1,483, and growing P_3 and solving for its cochains
# 103 of 2,345.
FX4_MAX_ECHELONS = 60
FX4_MAX_ECHELON_ROWS = 277
# exactlin._echelon on fixtures/fx6.json: 61 eliminations.  Deciding
# separability of M twice makes 63; building B tensor_A B once for
# separable_extension and again for smooth_extension makes 62; both make
# 64.  Eliminating each tensor relation basis a second time in
# quotient_space makes 75; tensoring *M over End(M) with M and inverting
# theta for morita's psi, instead of reading psi off the dual basis,
# makes 66; both make 78.
FX6_MAX_ECHELONS = 61
# exactlin.axpy calls on fixtures/fx4.json: 555.  A relation row per
# zero orbit column makes 1,431; with those rows, deciding separability
# of M twice makes 1,466, and building the evaluation over End(M) apart
# as well makes 1,502.  A relation row of
# an equivariant solve sums only the nonzero rows of the target
# operators its stored entries name; forming the full tgt_dim x tgt_dim
# combination of the operators per relation and generator makes 4,252.
FX4_MAX_AXPYS = 555
# Zero orbit columns handed to a hom solve's presentation elimination
# (kernel_and_right_inverse) on fixtures/fx4.json: 0 of 115 columns.  A
# zero column pins the unknowns it names instead; handing the
# elimination every orbit column hands it 302 zero columns of 417, each
# of which became a relation.
FX4_ZERO_ORBIT_COLUMNS_ELIMINATED = 0


def _count_calls(monkeypatch, fn, weight=lambda *args: 1):
    """A one-item list that adds weight(*args) on each call of fn, patched
    in every bimodcheck module that holds fn, since each module that
    imports a function holds its own name for it."""
    calls = [0]

    def counted(*args):
        calls[0] += weight(*args)
        return fn(*args)

    for info in pkgutil.iter_modules(bimodcheck.__path__):
        mod = importlib.import_module(f"bimodcheck.{info.name}")
        if getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


def _run(capsys, name):
    doc = FIXTURE_DIR / f"{name}.json"
    assert cli.main(["check", str(doc), "--format", "json"]) == 0
    golden = (FIXTURE_DIR / "golden" / f"{name}.json").read_text(
        encoding="utf-8")
    assert capsys.readouterr().out == golden


def _run_fx4(capsys):
    _run(capsys, "fx4")


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
    assert 0 < counts["cells"] <= FX4_MAX_MATMUL_CELLS, counts
    assert 0 < counts["applies"] <= FX4_MAX_APPLIES, counts


def _count_fraction_calls(monkeypatch, name):
    """A one-item list that counts calls of fractions.Fraction.<name>."""
    if exactlin._rational is not Fraction:
        pytest.skip("the gate counts fractions.Fraction calls")
    calls = [0]
    method = getattr(Fraction, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return method(*args, **kwargs)

    monkeypatch.setattr(Fraction, name, counted)
    return calls


def test_fx4_zero_tests_stay_under_their_gate(monkeypatch, capsys):
    calls = _count_fraction_calls(monkeypatch, "__bool__")
    _run_fx4(capsys)
    assert calls[0] <= FX4_MAX_ZERO_TESTS, calls[0]


def test_fx4_builds_few_fractions(monkeypatch, capsys):
    calls = _count_fraction_calls(monkeypatch, "__new__")
    _run_fx4(capsys)
    assert calls[0] <= FX4_MAX_FRACTIONS, calls[0]


def test_twisted_bar_growth_builds_no_more_fractions(monkeypatch):
    calls = _count_fraction_calls(monkeypatch, "__new__")
    # built afresh: fixture() shares instances, whose resolutions are cached
    m = fixtures._build("fx6-twisted", QQ).bimodule
    homology.bar_resolution(m, 3)
    assert 0 < calls[0] <= FX6_TWISTED_BAR_MAX_FRACTIONS, calls[0]


def _eliminations(monkeypatch, capsys, name):
    counts = {"calls": 0, "rows": 0}
    echelon = exactlin._echelon

    def counted(rows, p=None):
        rows = list(rows)
        counts["calls"] += 1
        counts["rows"] += len(rows)
        return echelon(rows, p)

    monkeypatch.setattr(exactlin, "_echelon", counted)
    _run(capsys, name)
    return counts


def test_fx4_eliminations_stay_under_their_gates(monkeypatch, capsys):
    counts = _eliminations(monkeypatch, capsys, "fx4")
    assert 0 < counts["calls"] <= FX4_MAX_ECHELONS, counts
    assert 0 < counts["rows"] <= FX4_MAX_ECHELON_ROWS, counts


def test_fx6_eliminations_stay_under_their_gate(monkeypatch, capsys):
    counts = _eliminations(monkeypatch, capsys, "fx6")
    assert 0 < counts["calls"] <= FX6_MAX_ECHELONS, counts


def test_fx4_axpys_stay_under_their_gate(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, exactlin.axpy)
    _run_fx4(capsys)
    assert 0 < calls[0] <= FX4_MAX_AXPYS, calls[0]


def test_no_zero_orbit_column_reaches_an_elimination(monkeypatch, capsys):
    counts = {"zero": 0, "columns": 0}
    eliminate = bimodule.kernel_and_right_inverse

    def counted(m):
        counts["zero"] += m.cols - len({c for row in m.nz for c in row})
        counts["columns"] += m.cols
        return eliminate(m)

    monkeypatch.setattr(bimodule, "kernel_and_right_inverse", counted)
    _run_fx4(capsys)
    assert counts["columns"] > 0, counts
    assert counts["zero"] == FX4_ZERO_ORBIT_COLUMNS_ELIMINATED, counts


class _Unscannable(tuple):
    """Positions that fail when a reader walks them."""

    def __iter__(self):
        raise AssertionError("a coordinate read scanned the positions")


def test_coordinate_reads_never_scan_positions(monkeypatch, capsys):
    # once a solver is built, coordinates are read through its position
    # index: a scan of every position per column would cost solver.dim
    # per read however sparse the column
    solvers = []
    solve = bimodule.equivariant_maps

    def recorded(*args):
        solver = solve(*args)
        solver.positions = _Unscannable(solver.positions)
        solvers.append(solver)
        return solver

    monkeypatch.setattr(bimodule, "equivariant_maps", recorded)
    _run_fx4(capsys)
    assert solvers and any(s.dim for s in solvers)


def test_fx4_forms_few_basis_maps(monkeypatch, capsys):
    solvers = []
    solve = bimodule.equivariant_maps

    def recorded(*args):
        solvers.append(solve(*args))
        return solvers[-1]

    monkeypatch.setattr(bimodule, "equivariant_maps", recorded)
    _run_fx4(capsys)

    def is_formed(solver):
        # maps kept as a plain attribute were formed with the solve
        attrs = vars(solver)
        return attrs.get("_maps", attrs.get("maps")) is not None

    solved = sum(s.dim for s in solvers)
    formed = sum(s.dim for s in solvers if is_formed(s))
    assert solved == FX4_SOLVED_MAPS, solved
    assert 0 < formed <= FX4_MAX_MAPS_FORMED, (formed, solved)


@pytest.mark.parametrize("name", sorted(EQUIVARIANT_SOLVES))
def test_no_hom_solve_repeats(monkeypatch, capsys, name):
    calls = []
    solve = bimodule.equivariant_maps

    def recorded(field, src_dim, tgt_dim, src_ops, tgt_ops):
        # the operator objects themselves, so equal values built apart
        # would count as two solves
        calls.append((src_dim, tgt_dim, tuple(map(id, src_ops)),
                      tuple(map(id, tgt_ops))))
        return solve(field, src_dim, tgt_dim, src_ops, tgt_ops)

    monkeypatch.setattr(bimodule, "equivariant_maps", recorded)
    _run(capsys, name)
    assert len(calls) == EQUIVARIANT_SOLVES[name], len(calls)
    repeated = [c[:2] for c in set(calls) if calls.count(c) > 1]
    assert not repeated, repeated


def _bar_objects_grown(monkeypatch, capsys, name):
    grown = [0]
    extend = homology._BarEngine._extend

    def counted(self, dim_cap):
        grown[0] += 1
        return extend(self, dim_cap)

    monkeypatch.setattr(homology._BarEngine, "_extend", counted)
    _run(capsys, name)
    return grown[0]


def test_fx4_grows_few_bar_objects(monkeypatch, capsys):
    grown = _bar_objects_grown(monkeypatch, capsys, "fx4")
    assert 0 < grown <= FX4_MAX_BAR_OBJECTS, grown


def test_hdim_and_hochschild_grow_no_bar_object(monkeypatch, capsys):
    grown = _bar_objects_grown(monkeypatch, capsys, "fp5")
    assert grown == FP5_BAR_OBJECTS, grown


def test_fx4_split_systems_stay_under_their_gate(monkeypatch, capsys):
    splits = [0]
    inside = [False]
    split = diagnostics._split

    def counted_split(*args):
        splits[0] += 1
        inside[0] = True
        try:
            return split(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(diagnostics, "_split", counted_split)
    rows = _count_calls(monkeypatch, exactlin.solve_affine,
                        lambda m, rhs: m.rows if inside[0] else 0)
    _run_fx4(capsys)
    assert splits[0] == FX4_SPLITS, splits[0]
    assert 0 < rows[0] <= FX4_MAX_SPLIT_ROWS, rows[0]


def test_fx4_checks_few_vector_shapes(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, exactlin.check_vec)
    _run_fx4(capsys)
    assert 0 < calls[0] <= FX4_MAX_CHECK_VECS, calls[0]


def test_fx6_transport_apply_slots_stay_under_their_gate(monkeypatch,
                                                         capsys):
    calls = [0]
    apply_slot = homology.apply_slot

    def counted(*args, **kwargs):
        calls[0] += 1
        return apply_slot(*args, **kwargs)

    monkeypatch.setattr(homology, "apply_slot", counted)
    _run(capsys, "fx6")
    assert 0 < calls[0] <= FX6_MAX_APPLY_SLOTS, calls[0]


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


def test_tracer_reads_the_bar_engine_it_wraps():
    # the bar_extend span reads the engine's newest object, so renaming
    # the attribute fails here and not only in the traced benchmark run;
    # built afresh, so its engine has grown exactly P_0 and P_1
    m = fixtures._build("fx4", QQ).bimodule
    dims = [p.dim for p in homology.bar_resolution(m, 2).objects]
    counts = _tracer()._counts("homology.bar_extend", "_extend",
                               (homology._engine(m), None), None)
    assert counts == {"dim": dims[-1]}


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
