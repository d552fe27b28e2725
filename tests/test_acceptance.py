"""The acceptance gate: eight criteria, one test and one PASS/FAIL line
per criterion.  Run with -s to see the lines as they print.

Every expected value is either re-derived here through the independent
oracles in tests/oracles.py (classical complexes and raw affine solves
that never import the package) or re-checked by direct matrix
substitution against stored witnesses.  All comparisons are exact; no
tolerances apply over Q or F_p.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import oracles

from bimodcheck.bimodule import (
    evaluation_data, is_generator, regular_bimodule, sub_bimodule,
)
from bimodcheck.cli import main as cli_main
from bimodcheck.diagnostics import (
    hdim_upto, is_formally_smooth_bimodule, is_formally_smooth_extension,
    is_rel_projective, is_separable_bimodule, is_separable_extension,
    morita_check,
)
from bimodcheck.errors import PreconditionError
from bimodcheck.exactlin import (
    Matrix, dense_vec, kernel_basis, rank, sparse_vec,
)
from bimodcheck.fixtures import corpus, fixture
from bimodcheck.homology import bar_resolution, homotopy_check, module_hochschild
from bimodcheck.structures import multiplication_map

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"
GOLDEN_DIR = FIXTURE_DIR / "golden"


def finish(number: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {number}: {label}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def recheck_casimir(t_space, target_mat, unit, element) -> bool:
    field, n = t_space.field, target_mat.rows
    elt = sparse_vec(field, element)
    for i in range(t_space.left_algebra.dim):
        delta = t_space.left_action[i] - t_space.right_action[i]
        if any(dense_vec(field, delta.apply(elt), t_space.dim)):
            return False
    return dense_vec(field, target_mat.apply(elt), n) \
        == dense_vec(field, unit, n)


def recheck_section(counit, section) -> bool:
    if not section.validate().ok:
        return False
    ident = Matrix.identity(section.matrix.field, section.source.dim)
    return counit.matrix @ section.matrix == ident


def test_criterion_1_oracle_equivalence():
    """Module cohomology of B over k agrees with the classical complex."""
    cases = (
        ("fx2", oracles.RAW_PRODUCT, (2, 0, 0)),
        ("fx3", oracles.RAW_DUAL, (2, 1, 1)),
        ("fx4", oracles.RAW_UPPER, (1, 0, 0)),
    )
    failures = []
    ops = oracles.RationalOps
    for name, raw, frozen in cases:
        oracle = oracles.hochschild_dims(raw, 2, ops)
        m = fixture(name).bimodule
        engine = module_hochschild(m, regular_bimodule(m.left_algebra), 2)
        if oracle != frozen:
            failures.append(f"{name}: oracle drifted to {oracle}")
        if engine.dims() != frozen:
            failures.append(f"{name}: engine {engine.dims()} != {frozen}")
    finish(1, "module cohomology matches the classical complex exactly",
           failures)


def test_criterion_2_morita_invariance():
    """Module-relative dims equal ring-relative dims on progenerators,
    with the degreewise rewrite commuting, for both coefficient probes."""
    frozen = {("fx5", "regular"): (1, 0, 0), ("fx5", "kernel"): (0, 0, 0),
              ("fx6", "regular"): (1, 0, 0), ("fx6", "kernel"): (1, 0, 0)}
    failures = []
    for name in ("fx5", "fx6"):
        m = fixture(name).bimodule
        ev = evaluation_data(m)
        probes = {
            "regular": regular_bimodule(m.left_algebra),
            "kernel": sub_bimodule(ev.tensor.space,
                                   kernel_basis(ev.map.matrix),
                                   name="ker(ev)")[0],
        }
        for label, n in probes.items():
            rep = morita_check(m, n, 2)
            if rep.module_dims != frozen[(name, label)]:
                failures.append(
                    f"{name}/{label}: dims {rep.module_dims} != "
                    f"{frozen[(name, label)]}")
            if not rep.dims_agree:
                failures.append(f"{name}/{label}: theories disagree "
                                f"{rep.module_dims} vs {rep.ring_dims}")
            if not rep.comparison.ok:
                failures.append(f"{name}/{label}: rewrite squares fail")
    finish(2, "both cohomology theories agree on progenerators "
              "(degrees 0..2, both probes)", failures)


def test_criterion_3_classification_grid():
    """Generator/separable/smooth/hdim on the standard grid, with every
    cell certified by an independent oracle."""
    ops = oracles.RationalOps
    grid = {
        # name: (generator, separable, smooth, hdim rendering)
        "fx2": (True, True, True, "0"),
        "fx3": (True, False, False, "> 3"),
        "fx4": (True, False, True, "1"),
        "fx5": (True, True, True, "0"),
    }
    oracle_sep = {
        "fx2": oracles.separable_over_ground(oracles.RAW_PRODUCT, ops),
        "fx3": oracles.separable_over_ground(oracles.RAW_DUAL, ops),
        "fx4": oracles.separable_over_ground(oracles.RAW_UPPER, ops),
    }
    oracle_smooth = {
        "fx2": oracles.smooth_over_ground(oracles.RAW_PRODUCT, ops),
        "fx3": oracles.smooth_over_ground(oracles.RAW_DUAL, ops),
        "fx4": oracles.smooth_over_ground(oracles.RAW_UPPER, ops),
    }
    col = oracles.column_module_oracles(ops)
    failures = []
    for name, (gen, sep, smooth, hrender) in grid.items():
        m = fixture(name).bimodule
        nmax = 3 if name == "fx3" else 2
        got = (is_generator(m).verdict, is_separable_bimodule(m).verdict,
               is_formally_smooth_bimodule(m).verdict,
               hdim_upto(m, nmax).render())
        if got != (gen, sep, smooth, hrender):
            failures.append(f"{name}: tool says {got}")
    # independent certifications
    for name in ("fx2", "fx3", "fx4"):
        if oracle_sep[name] != grid[name][1]:
            failures.append(f"{name}: separability oracle disagrees")
        if oracle_smooth[name] != grid[name][2]:
            failures.append(f"{name}: smoothness oracle disagrees")
    if not (col["generator"] and col["ev_injective"] and col["separable"]):
        failures.append("fx5: column-module oracle disagrees")
    # hdim cells: 0 from the separability oracles, 1 from smooth-not-
    # separable, and the dual numbers exceed 3 because the classical
    # complex is nonzero in degrees 3 and 4
    dual_deep = oracles.hochschild_dims(oracles.RAW_DUAL, 4, ops)
    if dual_deep != (2, 1, 1, 1, 1):
        failures.append(f"fx3: degree-4 oracle drifted to {dual_deep}")
    if not (oracle_smooth["fx4"] and not oracle_sep["fx4"]):
        failures.append("fx4: oracle pair does not pin hdim to 1")
    finish(3, "classification grid certified by independent oracles",
           failures)


def test_criterion_4_implications_hold_corpus_wide():
    """separable => smooth, injective-ev => smooth, separable <=> hdim 0,
    smooth <=> hdim <= 1, across the full corpus with no counterexample."""
    failures = []
    fixtures = corpus()
    if len(fixtures) < 10:
        failures.append(f"corpus has only {len(fixtures)} fixtures")
    for fx in fixtures:
        m = fx.bimodule
        sep = is_separable_bimodule(m).verdict
        smooth = is_formally_smooth_bimodule(m).verdict
        ev = evaluation_data(m)
        ev_injective = rank(ev.map.matrix) == ev.tensor.space.dim
        if sep and not smooth:
            failures.append(f"{fx.name}: separable but not smooth")
        if ev_injective and not smooth:
            failures.append(f"{fx.name}: injective ev but not smooth")
        if not is_generator(m).verdict:
            continue
        h = hdim_upto(m, 2)
        if sep != (h.value == 0):
            failures.append(f"{fx.name}: separable vs hdim {h.render()}")
        if smooth != (h.value in (0, 1)):
            failures.append(f"{fx.name}: smooth vs hdim {h.render()}")
    finish(4, f"dimension characterizations hold on all "
              f"{len(fixtures)} fixtures", failures)


def test_criterion_5_resolution_health():
    """Bar differentials square to zero, the contracting homotopy
    certifies exactness to depth 3, and degree 0 recovers the invariants
    of the coefficients, for every generator in the corpus."""
    failures = []
    for fx in corpus():
        m = fx.bimodule
        if not is_generator(m).verdict:
            try:
                bar_resolution(m, 2)
                failures.append(f"{fx.name}: non-generator not rejected")
            except PreconditionError:
                pass
            continue
        chain = bar_resolution(m, 3)
        v = chain.validate()
        if not v.ok:
            failures.append(f"{fx.name}: {v.message}")
        h = homotopy_check(m, 3)
        if not h.ok:
            failures.append(f"{fx.name}: homotopy {h.message}")
        # independent invariants dimension: eliminate the stacked action
        # differences over plain fractions
        b = m.left_algebra
        reg = regular_bimodule(b)
        rows = []
        for l, r in zip(reg.left_action, reg.right_action):
            diff = l - r
            rows.extend([Fraction(str(x)) for x in row] for row in diff.data)
        inv_dim = b.dim - oracles.rank_of(rows, b.dim, oracles.RationalOps)
        h0 = module_hochschild(m, reg, 0).dims()[0]
        if h0 != inv_dim:
            failures.append(f"{fx.name}: H^0 {h0} != invariants {inv_dim}")
    finish(5, "resolutions are exact complexes with the right degree zero",
           failures)


def test_criterion_6_every_witness_revalidates():
    """100% of true verdicts carry witnesses that pass re-checking by
    direct substitution; matrix arithmetic only, no solver reruns."""
    failures = []
    checked = 0
    for fx in corpus():
        m = fx.bimodule
        gen = is_generator(m)
        if gen.verdict:
            ev = evaluation_data(m)
            b, ev_mat = m.left_algebra, ev.map.matrix
            img = dense_vec(m.field, ev_mat.apply(
                sparse_vec(m.field, gen.preimage_of_unit)), ev_mat.rows)
            checked += 1
            if img != dense_vec(m.field, b.unit, b.dim):
                failures.append(f"{fx.name}: unit preimage fails")
        sep = is_separable_bimodule(m)
        if sep.verdict:
            ev = evaluation_data(m)
            checked += 1
            if not recheck_casimir(ev.tensor.space, ev.map.matrix,
                                   m.left_algebra.unit, sep.casimir):
                failures.append(f"{fx.name}: Casimir fails")
        smooth = is_formally_smooth_bimodule(m)
        if smooth.verdict and smooth.route == "kernel-splitting":
            checked += 1
            if not recheck_section(smooth.detail.counit,
                                   smooth.detail.section):
                failures.append(f"{fx.name}: smoothness section fails")
        if gen.verdict:
            h = hdim_upto(m, 2)
            if h.witness is not None and h.witness.section.matrix.cols:
                checked += 1
                if not recheck_section(h.witness.counit, h.witness.section):
                    failures.append(f"{fx.name}: hdim section fails")
        if fx.base_map is None:
            continue
        ext_sep = is_separable_extension(fx.base_map)
        if ext_sep.verdict:
            mult = multiplication_map(m.left_algebra, fx.base_map)
            checked += 1
            if not recheck_casimir(mult.source, mult.matrix,
                                   m.left_algebra.unit, ext_sep.idempotent):
                failures.append(f"{fx.name}: extension idempotent fails")
        ext_smooth = is_formally_smooth_extension(fx.base_map)
        if ext_smooth.verdict and ext_smooth.kernel_dim:
            checked += 1
            if not recheck_section(ext_smooth.counit, ext_smooth.section):
                failures.append(f"{fx.name}: extension section fails")
    if checked < 20:
        failures.append(f"only {checked} witnesses exercised")
    finish(6, f"all {checked} witnesses re-validate by substitution",
           failures)


def test_criterion_7_extension_parity():
    """For B itself over the ground field, the bimodule-side and the
    extension-side smoothness verdicts coincide."""
    failures = []
    for name in ("fx2", "fx3", "fx4"):
        fx = fixture(name)
        side_m = is_formally_smooth_bimodule(fx.bimodule).verdict
        side_e = is_formally_smooth_extension(fx.base_map).verdict
        if side_m != side_e:
            failures.append(f"{name}: bimodule {side_m} vs extension "
                            f"{side_e}")
    finish(7, "bimodule-side and extension-side smoothness coincide",
           failures)


def test_criterion_8_reports_are_reproducible():
    """Two in-process corpus runs produce byte-identical reports, both
    matching the stored goldens."""
    failures = []
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        runs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli_main(["check", str(path), "--format", "json",
                               "--assert"])
            if rc != 0:
                failures.append(f"{path.name}: exit {rc}")
            runs.append(buf.getvalue())
        if runs[0] != runs[1]:
            failures.append(f"{path.name}: runs differ")
        golden = (GOLDEN_DIR / path.name).read_text()
        if runs[0] != golden:
            failures.append(f"{path.name}: drifted from golden")
    finish(8, "corpus reports are byte-identical and match the goldens",
           failures)
