"""Decision procedures and their witnesses.

Every frozen verdict here was cross-derived by the independent affine
solvers in tests/oracles.py before being inlined.  The re-check helpers
validate witnesses by direct matrix arithmetic only, never by re-running
the decision procedure that produced them.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimodcheck import bimodule, cli, diagnostics, fixtures, homology
from bimodcheck.bimodule import (
    evaluation_data, is_fg_projective_left, is_fg_projective_right,
    is_generator, regular_bimodule, restrict_left, restrict_right,
    sub_bimodule, tensor_over,
)
from bimodcheck.diagnostics import (
    hdim_upto, is_formally_smooth_bimodule, is_formally_smooth_extension,
    is_rel_projective, is_separable_bimodule, is_separable_extension,
    morita_check, smooth_product, static_criteria, sugano_check,
)
from bimodcheck.errors import PreconditionError, ValidationError
from bimodcheck.exactlin import (
    Field, Matrix, QQ, dense_vec, kernel_basis, rank, sparse_vec,
)
from bimodcheck.fixtures import (
    EXTRAS, STANDARD, algebra_dual_numbers, algebra_ground, algebra_matrix2,
    conjugate, corpus, fixture, ground_map,
)
from bimodcheck.homology import ring_hochschild
from bimodcheck.structures import (
    RingMap, Verdict, identity_map, multiplication_map,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def assert_casimir(t_space, target_mat, unit, element):
    """Centrality plus evaluation to the unit, by substitution."""
    field, n = t_space.field, target_mat.rows
    elt = sparse_vec(field, element)
    for i in range(t_space.left_algebra.dim):
        delta = t_space.left_action[i] - t_space.right_action[i]
        assert not any(dense_vec(field, delta.apply(elt), t_space.dim))
    assert dense_vec(field, target_mat.apply(elt), n) \
        == dense_vec(field, unit, n)


def assert_section(counit, section):
    """The section is a two-sided map splitting its counit."""
    assert section.validate().ok
    ident = Matrix.identity(section.matrix.field, section.source.dim)
    assert counit.matrix @ section.matrix == ident


# ---------------------------------------------------------------------------
# Separability


def test_separability_verdicts():
    assert is_separable_bimodule(fixture("fx2").bimodule).verdict
    assert is_separable_bimodule(fixture("fx5").bimodule).verdict
    assert is_separable_bimodule(fixture("fx6").bimodule).verdict
    assert not is_separable_bimodule(fixture("fx3").bimodule).verdict
    assert not is_separable_bimodule(fixture("fx4").bimodule).verdict
    assert not is_separable_bimodule(fixture("simple-over-dual").bimodule).verdict


def test_casimir_witness_revalidates():
    for name in ("fx2", "fx5", "fx6"):
        m = fixture(name).bimodule
        res = is_separable_bimodule(m)
        ev = evaluation_data(m)
        assert_casimir(ev.tensor.space, ev.map.matrix,
                       m.left_algebra.unit, res.casimir)


def test_separability_failure_carries_obstruction():
    m = fixture("fx3").bimodule
    res = is_separable_bimodule(m)
    assert res.casimir is None
    assert res.obstruction is not None
    assert res.dimensions["tensor_square"] == 4
    assert not res


def test_separability_mod_five_matches_rational_verdicts():
    f5 = Field(5)
    assert is_separable_bimodule(fixture("fx5", f5).bimodule).verdict
    assert not is_separable_bimodule(fixture("fx3", f5).bimodule).verdict


# ---------------------------------------------------------------------------
# Relative projectivity


def test_regular_bimodule_is_rel_projective_over_separable_module():
    m = fixture("fx2").bimodule
    p = regular_bimodule(m.left_algebra)
    res = is_rel_projective(p, m)
    assert res.verdict
    assert_section(res.counit, res.section)


def test_regular_bimodule_fails_over_dual_numbers():
    m = fixture("fx3").bimodule
    p = regular_bimodule(m.left_algebra)
    res = is_rel_projective(p, m)
    assert not res.verdict
    assert res.section is None
    assert res.obstruction is not None


def test_obstruction_read_after_the_verdicts_matches_rel_projective(
        monkeypatch):
    # hdim and smooth decide without forming an obstruction; reading one
    # afterwards gives the bytes the rel_projective report renders.  Built
    # afresh: fixture() shares instances, whose splits are memoized
    m = fixtures._build("fx3", QQ).bimodule
    b_reg = regular_bimodule(m.left_algebra)
    made = []
    rel_projective = diagnostics.is_rel_projective

    def recorded(p, n):
        made.append((p, rel_projective(p, n)))
        return made[-1][1]

    def split_afresh(p):
        return diagnostics._rel_projective.__wrapped__(m, p)

    monkeypatch.setattr(diagnostics, "is_rel_projective", recorded)
    assert hdim_upto(m, 2).render() == "> 2"
    smooth = is_formally_smooth_bimodule(m)
    assert smooth.route == "kernel-splitting" and not smooth.verdict
    # smooth asks for the split of Omega^1 that hdim level 1 made
    assert len(made) == 4
    assert made[3][0] is made[1][0] and made[3][1] is made[1][1]
    assert all(r.certify is not None for _, r in made)
    golden = json.loads((FIXTURE_DIR / "golden" / "fx3.json").read_text(
        encoding="utf-8"))
    rendered = [r["obstruction"] for r in golden["reports"]
                if r["op"] == "rel_projective"]
    level0 = made[0][1].obstruction
    assert made[0][0] is b_reg
    assert cli._coords(QQ, level0) == rendered[0]
    assert level0 == split_afresh(b_reg).obstruction
    for p, r in made:
        assert r.obstruction == split_afresh(p).obstruction
        assert r.certify is None
    assert smooth.detail is made[-1][1]
    # the kernel of ev built apart from the bar engine splits the same way
    ev = evaluation_data(m)
    ker_ev, _ = sub_bimodule(ev.tensor.space, kernel_basis(ev.map.matrix))
    assert smooth.detail.obstruction == split_afresh(ker_ev).obstruction


def test_zero_module_is_rel_projective():
    m = fixture("fx3").bimodule
    ev = evaluation_data(m)
    zero_sub, _ = sub_bimodule(ev.tensor.space,
                               kernel_basis(Matrix.identity(QQ, 4)),
                               name="zero")
    res = is_rel_projective(zero_sub, m)
    assert res.verdict
    assert res.section.matrix.cols == 0


def test_rel_projectivity_requires_two_sided_object():
    m = fixture("fx3").bimodule
    with pytest.raises(PreconditionError):
        is_rel_projective(m, m)          # m is (B, k), not (B, B)


# ---------------------------------------------------------------------------
# Formal smoothness


SMOOTH_GRID = {
    "fx1": (True, "ev-injective"),
    "fx2": (True, "separable"),
    "fx3": (False, "kernel-splitting"),
    "fx4": (True, "kernel-splitting"),
    "fx5": (True, "ev-injective"),
    "fx6": (True, "separable"),
    "simple-over-dual": (True, "ev-injective"),
    "zero-over-dual": (True, "ev-injective"),
}


@pytest.mark.parametrize("name,expected", sorted(SMOOTH_GRID.items()))
def test_smoothness_verdicts_and_routes(name, expected):
    res = is_formally_smooth_bimodule(fixture(name).bimodule)
    assert (res.verdict, res.route) == expected


def test_smoothness_kernel_dimensions():
    assert is_formally_smooth_bimodule(fixture("fx3").bimodule).kernel_dim == 2
    res4 = is_formally_smooth_bimodule(fixture("fx4").bimodule)
    assert res4.kernel_dim == 6
    assert res4.dimensions == {"tensor_square": 9, "evaluation_rank": 3,
                               "kernel": 6}


def test_kernel_splitting_witness_revalidates():
    res = is_formally_smooth_bimodule(fixture("fx4").bimodule)
    assert res.verdict
    rp = res.detail
    assert_section(rp.counit, rp.section)


def test_smoothness_failure_carries_the_kernel_obstruction():
    res = is_formally_smooth_bimodule(fixture("fx3").bimodule)
    assert not res.verdict
    assert res.detail.obstruction is not None


# Smoothness reads Omega^1 = ker d_0 off the bar engine, whose d_0 is
# the evaluation, and the split that hdim level 1 makes.  The oracle
# keeps the path that built them apart: its own kernel of ev, its own
# sub-bimodule and a split that no memo answers.


def _smooth_apart(m):
    """(verdict, route, kernel_dim, dimensions, split) built apart from
    the bar engine; split is None unless the kernel is split."""
    ev = evaluation_data(m)
    t_dim = ev.tensor.space.dim
    dims = {"tensor_square": t_dim, "evaluation_rank": rank(ev.map.matrix)}
    if dims["evaluation_rank"] == t_dim:
        return True, "ev-injective", 0, dims, None
    if is_separable_bimodule(m).verdict:
        return True, "separable", None, dims, None
    ker, _ = sub_bimodule(ev.tensor.space, kernel_basis(ev.map.matrix),
                          name="ker-ev")
    dims["kernel"] = ker.dim
    rp = diagnostics._rel_projective.__wrapped__(m, ker)
    return rp.verdict, "kernel-splitting", ker.dim, dims, rp


def _assert_smooth_matches_the_apart_path(m) -> str:
    """The route, after comparing both paths."""
    res = is_formally_smooth_bimodule(m)
    verdict, route, kernel_dim, dims, rp = _smooth_apart(m)
    assert (res.verdict, res.route, res.kernel_dim, res.dimensions) \
        == (verdict, route, kernel_dim, dims)
    if rp is not None:
        assert res.detail.dimensions == rp.dimensions
        assert (res.detail.section is None) == (rp.section is None)
        assert res.detail.obstruction == rp.obstruction
    return route


def test_smoothness_matches_the_apart_path_across_corpus():
    routes = {_assert_smooth_matches_the_apart_path(fx.bimodule)
              for fx in corpus()}
    assert routes == {"ev-injective", "separable", "kernel-splitting"}


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(STANDARD + EXTRAS), st.integers(0, 2 ** 16))
def test_smoothness_matches_the_apart_path_on_twists(name, seed):
    _assert_smooth_matches_the_apart_path(
        conjugate(fixture(name).bimodule, seed))


def test_smoothness_kernel_is_the_first_syzygy(monkeypatch):
    # built afresh, so neither is cached when smoothness asks first
    m = fixtures._build("fx3", QQ).bimodule
    made = []
    rel_projective = diagnostics.is_rel_projective

    def recorded(p, n):
        made.append(rel_projective(p, n))
        return made[-1]

    monkeypatch.setattr(diagnostics, "is_rel_projective", recorded)
    res = is_formally_smooth_bimodule(m)
    assert res.route == "kernel-splitting"
    omega1 = homology._syzygy_chain(m).syzygy(1)
    assert res.detail.counit.target is omega1
    assert res.kernel_dim == omega1.dim
    # hdim level 1 gets smoothness's split back, not a new one
    hdim_upto(m, 1)
    assert made[-1] is res.detail


# ---------------------------------------------------------------------------
# Extension-side separability and smoothness


def test_extension_separability_verdicts():
    assert is_separable_extension(fixture("fx2").base_map).verdict
    assert not is_separable_extension(fixture("fx3").base_map).verdict
    assert not is_separable_extension(fixture("fx4").base_map).verdict
    assert is_separable_extension(fixture("fx6").base_map).verdict


def test_extension_idempotent_revalidates():
    fx = fixture("fx6")
    b = fx.bimodule.left_algebra
    res = is_separable_extension(fx.base_map)
    mult = multiplication_map(b, fx.base_map)
    assert_casimir(mult.source, mult.matrix, b.unit, res.casimir)


def test_column_split_idempotent_is_a_valid_witness():
    # e11 (x) e11 + e21 (x) e12 in matrix2 (x)_diagonal matrix2; the naive
    # diagonal split e11 (x) e11 + e22 (x) e22 is not central here because
    # tensor relations only move diagonal factors across
    fx = fixture("fx6")
    b = fx.bimodule.left_algebra
    reg = regular_bimodule(b)
    square = tensor_over(restrict_right(reg, fx.base_map),
                         restrict_left(reg, fx.base_map))
    plain = [QQ.zero] * 16
    plain[0 * 4 + 0] = QQ.one        # e11 (x) e11
    plain[2 * 4 + 1] = QQ.one        # e21 (x) e12
    element = dense_vec(QQ, square._project_vec(sparse_vec(QQ, plain)),
                        square.space.dim)
    mult = multiplication_map(b, fx.base_map)
    assert_casimir(square.space, mult.matrix, b.unit, element)

    naive = [QQ.zero] * 16
    naive[0 * 4 + 0] = QQ.one        # e11 (x) e11
    naive[3 * 4 + 3] = QQ.one        # e22 (x) e22
    bad = square._project_vec(sparse_vec(QQ, naive))
    e12 = 1
    delta = square.space.left_action[e12] - square.space.right_action[e12]
    assert any(dense_vec(QQ, delta.apply(bad), square.space.dim))


def test_extension_smoothness_verdicts_and_kernels():
    res2 = is_formally_smooth_extension(fixture("fx2").base_map)
    assert res2.verdict and res2.dimensions["kernel"] == 2
    assert_section(res2.counit, res2.section)

    res3 = is_formally_smooth_extension(fixture("fx3").base_map)
    assert not res3.verdict
    assert res3.dimensions["kernel"] == 2
    assert res3.obstruction is not None

    res4 = is_formally_smooth_extension(fixture("fx4").base_map)
    assert res4.verdict and res4.dimensions["kernel"] == 6
    assert res4.dimensions["expansion"] == 54
    assert_section(res4.counit, res4.section)


def test_identity_extension_is_smooth_with_zero_kernel():
    b = fixture("fx3").bimodule.left_algebra
    res = is_formally_smooth_extension(identity_map(b))
    assert res.verdict
    assert res.dimensions["kernel"] == 0
    assert res.counit is None
    assert res.section.matrix.cols == 0


# ---------------------------------------------------------------------------
# Homological dimension


def test_hdim_of_separable_fixtures_is_zero():
    for name in ("fx1", "fx2", "fx5", "fx6", "dual-self"):
        res = hdim_upto(fixture(name).bimodule, 2)
        assert res.value == 0, name
        assert not res.shift_inferred
        assert res.render() == "0"


def test_hdim_of_upper_triangular_is_one():
    res = hdim_upto(fixture("fx4").bimodule, 2)
    assert res.value == 1
    assert not res.shift_inferred
    assert res.bounded
    assert_section(res.witness.counit, res.witness.section)


def test_hdim_of_dual_numbers_exceeds_every_probed_level():
    res = hdim_upto(fixture("fx3").bimodule, 3)
    assert res.value is None
    assert not res.bounded
    assert res.render() == "> 3"
    assert res.shift_inferred
    assert res.witness is None


def test_hdim_render_at_level_zero():
    res = hdim_upto(fixture("fx3").bimodule, 0)
    assert res.render() == "> 0"
    assert not res.shift_inferred      # no syzygy shifting was attempted


def test_hdim_preconditions():
    with pytest.raises(PreconditionError):
        hdim_upto(fixture("simple-over-dual").bimodule, 1)
    with pytest.raises(PreconditionError):
        hdim_upto(fixture("fx3").bimodule, -1)


# ---------------------------------------------------------------------------
# Cross-theory reports


def test_morita_report_on_the_column_module():
    m = fixture("fx5").bimodule
    rep = morita_check(m, regular_bimodule(m.left_algebra), 2)
    assert rep.module_dims == (1, 0, 0)
    assert rep.ring_dims == (1, 0, 0)
    assert rep.dims_agree
    assert rep.ok


def test_morita_builds_the_ring_complex_once(monkeypatch, capsys):
    calls = []
    ring_complex = homology._ring_complex

    def counted(*args, **kwargs):
        calls.append(args)
        return ring_complex(*args, **kwargs)

    monkeypatch.setattr(homology, "_ring_complex", counted)
    m = fixture("fx6").bimodule
    rep = morita_check(m, regular_bimodule(m.left_algebra), 2)
    assert rep.ok and rep.module_dims == rep.ring_dims == (1, 0, 0)
    assert len(calls) == 1
    # the fx6 document holds one morita task among its ten
    calls.clear()
    doc = FIXTURE_DIR / "fx6.json"
    assert cli.main(["check", str(doc), "--format", "json"]) == 0
    golden = (FIXTURE_DIR / "golden" / "fx6.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
    assert len(calls) == 1


def test_progenerator_checks_solve_once_per_bimodule(monkeypatch, capsys):
    m = fixture("fx6").bimodule
    assert is_generator(m) is is_generator(m)
    assert is_fg_projective_left(m) is is_fg_projective_left(m)
    assert is_fg_projective_right(m) is not is_fg_projective_left(m)
    # evaluation_data is memoized, so a bimodule's evaluation solve always
    # gets the same matrix object: no matrix may reach the solver twice
    solved = []                 # kept alive, so ids are not reused
    solve = bimodule.solve_or_certify

    def counted(mat, rhs):
        solved.append(mat)
        return solve(mat, rhs)

    monkeypatch.setattr(bimodule, "solve_or_certify", counted)
    doc = FIXTURE_DIR / "fx6.json"
    assert cli.main(["check", str(doc), "--format", "json"]) == 0
    golden = (FIXTURE_DIR / "golden" / "fx6.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
    assert solved
    assert len({id(mat) for mat in solved}) == len(solved)


def test_morita_check_requires_a_progenerator():
    m = fixture("simple-over-dual").bimodule
    with pytest.raises(PreconditionError):
        morita_check(m, regular_bimodule(m.left_algebra), 1)


def test_sugano_report_on_separable_column_module():
    rep = sugano_check(fixture("fx5").bimodule)
    assert rep.separable_bimodule
    assert rep.generator
    assert rep.extension_separable
    assert rep.agree


def test_sugano_report_on_inseparable_free_module():
    rep = sugano_check(fixture("fx3").bimodule)
    assert not rep.separable_bimodule
    assert rep.generator
    assert not rep.extension_separable
    assert rep.agree


def test_sugano_requires_projectivity():
    with pytest.raises(PreconditionError):
        sugano_check(fixture("simple-over-dual").bimodule)


def test_static_criteria_on_the_column_module():
    rep = static_criteria(fixture("fx5").bimodule)
    assert rep.ev_endo_injective and rep.ev_endo_iso
    assert rep.generator and rep.endo_separable and rep.trace_static
    assert rep.injectivity_cluster and rep.generator_cluster


def test_static_criteria_on_the_simple_module():
    rep = static_criteria(fixture("simple-over-dual").bimodule)
    assert rep.ev_endo_injective
    assert rep.trace_static
    assert not rep.generator
    assert not rep.ev_endo_iso
    assert not rep.endo_separable
    assert rep.dimensions == {"tensor_over_endo": 1, "trace": 1}


def test_smooth_product_mode_one_with_separable_partner():
    m2 = algebra_matrix2(QQ)
    col = fixture("fx5").bimodule
    partner = restrict_left(regular_bimodule(m2), ground_map(QQ, m2))
    rep = smooth_product(col, partner, 1)
    assert rep.hypotheses_hold
    assert rep.smooth.verdict
    assert rep.product.dim == 8


def test_smooth_product_reports_failed_hypotheses_without_raising():
    fx = fixture("fx4")
    b = fx.bimodule.left_algebra
    partner = restrict_left(regular_bimodule(b), fx.base_map)
    rep = smooth_product(fx.bimodule, partner, 2)
    assert not rep.hypotheses["evaluation_injective"]
    assert not rep.hypotheses_hold
    assert rep.smooth.verdict            # smooth anyway; no violation to raise


def test_smooth_product_negative_outcome_with_failed_hypotheses():
    fx = fixture("fx3")
    partner = restrict_left(regular_bimodule(fx.bimodule.left_algebra),
                            fx.base_map)
    rep = smooth_product(fx.bimodule, partner, 1)
    assert not rep.hypotheses_hold
    assert not rep.smooth.verdict


def test_smooth_product_mode_validation():
    col = fixture("fx5").bimodule
    with pytest.raises(PreconditionError):
        smooth_product(col, col, 3)
    with pytest.raises(PreconditionError):
        smooth_product(col, col, 1)      # middle algebras differ


def test_separable_implies_formally_smooth_everywhere():
    for fx in corpus():
        sep = is_separable_bimodule(fx.bimodule)
        if sep.verdict:
            assert is_formally_smooth_bimodule(fx.bimodule).verdict, fx.name


# ---------------------------------------------------------------------------
# One rule for every verdict and one ring-map check


def _verdicts(fx):
    """One result of every verdict type that fx can be asked for."""
    m = fx.bimodule
    b_reg = regular_bimodule(m.left_algebra)
    out = [is_generator(m), is_fg_projective_left(m),
           is_fg_projective_right(m), bimodule.static_check(m, b_reg)[0],
           is_separable_bimodule(m), is_rel_projective(b_reg, m),
           is_formally_smooth_bimodule(m)]
    if fx.base_map is not None:
        out += [is_separable_extension(fx.base_map),
                is_formally_smooth_extension(fx.base_map)]
    return out


def test_every_verdict_is_truthy_exactly_when_its_verdict_is():
    fxs = corpus()
    assert "simple-over-dual" in {fx.name for fx in fxs}
    kinds = set()
    for fx in fxs:
        for r in _verdicts(fx):
            assert isinstance(r, Verdict), type(r)
            assert bool(r) is r.verdict, (fx.name, type(r).__name__)
            kinds.add(type(r))
    assert len(kinds) == 6          # both projectivity sides share a type
    # the case that read True while its verdict was False
    assert not is_generator(fixture("simple-over-dual").bimodule)


def test_a_nonunital_map_is_refused_alike_by_every_extension_reader():
    k = algebra_ground(QQ)
    b = algebra_dual_numbers(QQ)
    bad = RingMap(k, b, Matrix(QQ, [[QQ.zero], [QQ.one]]), name="to-x")
    for call in (lambda: ring_hochschild(bad, regular_bimodule(b), 1),
                 lambda: is_separable_extension(bad),
                 lambda: is_formally_smooth_extension(bad)):
        with pytest.raises(ValidationError,
                           match="invalid ring map: map does not preserve "
                                 "the unit"):
            call()
