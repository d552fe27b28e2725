"""Bar resolutions, contracting homotopies, syzygies, and both relative
cohomology theories.

Expected dimensions are frozen: bar object sizes follow dim B * (hom
dims), and the cohomology values were derived from the independent
classical-complex oracle in tests/oracles.py before being inlined here.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimodcheck import bimodule, cli, diagnostics, fixtures, homology
from bimodcheck.bimodule import (
    basis_orbit, centralizer, comonad_apply, endomorphism_ring,
    evaluation_data, hom_bimodule, hom_module, regular_bimodule,
    restrict_left, static_check, sub_bimodule, two_sided_generators,
)
from bimodcheck.errors import (
    DimensionCapError, PreconditionError, ValidationError,
)
from bimodcheck.exactlin import (
    Field, Matrix, QQ, _kron_vec, apply_slot, axpy, kernel_basis, lincomb,
)
from bimodcheck.fixtures import STANDARD, conjugate, fixture, ground_map
from bimodcheck.homology import (
    _engine, bar_resolution, comparison_check, coefficient_transport,
    homotopy_check, module_hochschild, morita_data, ring_hochschild,
)
from bimodcheck.structures import Algebra, identity_map


def _truncated_polynomials_over_ground(n):
    """Q[x]/(x^n) as a (B, k)-bimodule, built afresh on every call, so
    nothing about it is cached yet."""
    mult = tuple(tuple({i + j: 1} if i + j < n else {} for j in range(n))
                 for i in range(n))
    b = Algebra(QQ, n, mult, {0: 1}, name=f"Q[x]/(x^{n})")
    return fixtures.over_ground(QQ, b)


def _bar_syzygy(m, n):
    """Omega^n = ker d_{n-1} of the bar resolution as a two-sided
    submodule of P_{n-1}; degree 0 gives B back."""
    if n == 0:
        return regular_bimodule(m.left_algebra)
    d = bar_resolution(m, n).differentials[n - 1]
    return sub_bimodule(d.source, kernel_basis(d.matrix),
                        name=f"bar-syz{n}({m.name})")[0]


# ---------------------------------------------------------------------------
# Comonad and bar complex


def test_comonad_expansion_of_the_regular_coefficients():
    m = fixture("fx3").bimodule
    b_reg = regular_bimodule(m.left_algebra)
    cover = comonad_apply(m, b_reg)
    assert cover.tensor.space.dim == 4
    assert cover.map.validate().ok
    # the counit against the regular coefficients is evaluation
    assert cover.map.matrix == evaluation_data(m).map.matrix
    assert cover is evaluation_data(m)


def test_the_cover_is_shared():
    # one F(Y) per (M, Y): the bar complex, the evaluation and evaluation
    # over End(M) read the same objects
    m = fixture("fx4").bimodule
    eng = _engine(m)
    eng.object(1)
    p0 = eng.objects[0]
    assert p0 is evaluation_data(m).tensor.space
    assert eng.tensors[1] is comonad_apply(m, p0).tensor
    assert eng.hom_level(1) is comonad_apply(m, p0).hom
    assert static_check(m, regular_bimodule(m.left_algebra))[1] \
        is evaluation_data(endomorphism_ring(m).right_module).map


def test_bar_object_dimensions():
    for name, dims in (("fx1", (1, 1, 1)), ("fx3", (4, 8, 16)),
                       ("fx5", (4, 4, 4)), ("fx6", (8, 16, 32))):
        chain = bar_resolution(fixture(name).bimodule, 3)
        assert tuple(p.dim for p in chain.objects) == dims, name


def test_bar_differentials_compose_to_zero():
    chain = bar_resolution(fixture("fx3").bimodule, 3)
    v = chain.validate()
    assert v.ok, v.message
    assert chain.differentials[0].matrix \
        == evaluation_data(fixture("fx3").bimodule).map.matrix


def test_bar_differentials_equal_slotwise_assembly():
    # d_n = counit - F(d_{n-1}), with F(d_{n-1}) applied to slot 1 of every
    # lifted basis vector and projected, as a full slot application
    for name in ("fx3", "fx5", "fx6", "dual-self"):
        m = fixture(name).bimodule
        bar_resolution(m, 3)
        eng = _engine(m)
        for n in (1, 2):
            hom, tensor = eng.hom_level(n), eng.tensors[n]
            below = eng.hom_level(n - 1)
            push = Matrix._from_columns(
                QQ, [below.coords_of(eng.diffs[n - 1].matrix @ f)
                     for f in hom.maps], below.dim)
            cols = []
            for q in range(eng.objects[n].dim):
                w, _ = apply_slot(tensor.lift_column(q),
                                  [m.dim, hom.dim], 1, push)
                cols.append(eng.tensors[n - 1]._project_vec(w))
            fmat = Matrix._from_columns(QQ, cols, eng.objects[n - 1].dim)
            counit = comonad_apply(m, eng.objects[n - 1]).map
            assert eng.diffs[n].matrix == counit.matrix - fmat, name


def test_bar_resolution_requires_a_generator():
    with pytest.raises(PreconditionError):
        bar_resolution(fixture("simple-over-dual").bimodule, 2)
    with pytest.raises(PreconditionError):
        bar_resolution(fixture("fx3").bimodule, 0)


def test_contracting_homotopy_certifies_exactness():
    for name in ("fx1", "fx2", "fx3", "fx5", "fx6", "dual-self"):
        v = homotopy_check(fixture(name).bimodule, 2)
        assert v.ok, f"{name}: {v.message}"


def test_homotopy_check_rejects_non_generators():
    with pytest.raises(PreconditionError):
        homotopy_check(fixture("zero-over-dual").bimodule, 1)


# ---------------------------------------------------------------------------
# Syzygies


def test_syzygy_zero_is_the_algebra_itself():
    m = fixture("fx3").bimodule
    s0 = homology._syzygy_chain(m).syzygy(0)
    assert s0 is regular_bimodule(m.left_algebra)


def test_first_syzygy_dimensions():
    # Omega^1 = ker ev on both resolutions
    for name, dim in (("fx5", 0), ("fx3", 2), ("fx6", 4)):
        m = fixture(name).bimodule
        assert _bar_syzygy(m, 1).dim == dim, name
        assert homology._syzygy_chain(m).syzygy(1).dim == dim, name


def test_second_syzygy_of_dual_numbers():
    # d_1: P_1 (dim 8) -> P_0 (dim 4) has rank 2 by exactness
    assert _bar_syzygy(fixture("fx3").bimodule, 2).dim == 6


def test_syzygy_is_the_kernel_of_the_differential():
    m = fixture("fx3").bimodule
    chain = bar_resolution(m, 2)
    ker = kernel_basis(chain.differentials[1].matrix)
    assert _bar_syzygy(m, 2).dim == ker.dim


# ---------------------------------------------------------------------------
# Module-relative cohomology


FROZEN_MODULE_DIMS = {
    "fx1": (1, 0, 0),
    "fx2": (2, 0, 0),
    "fx3": (2, 1, 1),
    "fx4": (1, 0, 0),
    "fx5": (1, 0, 0),
    "fx6": (1, 0, 0),
}


@pytest.mark.parametrize("name,dims", sorted(FROZEN_MODULE_DIMS.items()))
def test_module_cohomology_of_regular_coefficients(name, dims):
    m = fixture(name).bimodule
    h = module_hochschild(m, regular_bimodule(m.left_algebra), 2)
    assert h.dims() == dims


def test_degree_zero_is_the_centralizer():
    for name in ("fx1", "fx2", "fx3", "fx4", "fx5", "fx6"):
        m = fixture(name).bimodule
        b_reg = regular_bimodule(m.left_algebra)
        h = module_hochschild(m, b_reg, 0)
        assert h.dims()[0] == centralizer(b_reg).dim, name


def test_cohomology_bookkeeping_is_consistent():
    h = module_hochschild(fixture("fx3").bimodule,
                          regular_bimodule(fixture("fx3").bimodule.left_algebra),
                          2)
    for deg in h.degrees:
        assert deg.dim == deg.cocycle_dim - deg.coboundary_dim
        assert len(deg.representatives) == deg.dim
    assert h.degrees[1].degree == 1


def test_module_cohomology_rejects_one_sided_coefficients():
    m = fixture("fx3").bimodule
    with pytest.raises(PreconditionError):
        module_hochschild(m, m, 1)       # coefficients are (B, k), not (B, B)


def test_module_cohomology_rejects_non_generators():
    m = fixture("simple-over-dual").bimodule
    with pytest.raises(PreconditionError):
        module_hochschild(m, regular_bimodule(m.left_algebra), 1)


def _forbid(monkeypatch, module, name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran after the cap was exceeded")
    monkeypatch.setattr(module, name, refuse)


def test_ring_cap_guards_the_top_coboundary_embedding(monkeypatch):
    # the top tensor power of fx3 over F_5 at nmax 2 has dim 8, within the
    # cap; its 8 generators read coefficients of dim 2
    fx = fixture("fx3", Field(5))
    b = fx.bimodule.left_algebra
    _forbid(monkeypatch, homology, "hom_bimodule")
    with pytest.raises(DimensionCapError) as exc:
        ring_hochschild(fx.base_map, regular_bimodule(b), 2, dim_cap=8)
    assert "ring complex: top coboundary embedding" in str(exc.value)
    assert exc.value.requested == 16


LEVEL0_TASKS = {
    "smooth": lambda m, b, cap: diagnostics.is_formally_smooth_bimodule(
        m, dim_cap=cap),
    "hdim": lambda m, b, cap: diagnostics.hdim_upto(m, 2, dim_cap=cap),
    "hochschild": lambda m, b, cap: module_hochschild(m, b, 1, dim_cap=cap),
    "bar": lambda m, b, cap: bar_resolution(m, 2, dim_cap=cap),
    "homotopy": lambda m, b, cap: homotopy_check(m, 1, dim_cap=cap),
    "morita": lambda m, b, cap: diagnostics.morita_check(m, b, 1,
                                                          dim_cap=cap),
}


@pytest.mark.parametrize("task", sorted(LEVEL0_TASKS))
def test_level0_cap_fires_before_the_tensor_square(monkeypatch, task):
    # fx3: bar object 0 = M tensor_A *M has dim 2 x 2; with the cap at 3
    # every task that takes a cap refuses before any tensor is built
    m = fixtures._build("fx3", QQ).bimodule
    b = regular_bimodule(m.left_algebra)
    for mod in (bimodule, homology, diagnostics):
        _forbid(monkeypatch, mod, "tensor_over")
    with pytest.raises(DimensionCapError) as exc:
        LEVEL0_TASKS[task](m, b, 3)
    assert str(exc.value) == ("bar growth: bar object 0 (2 x 2) needs "
                              "dimension 4, above the cap 3")
    assert (exc.value.requested, exc.value.cap) == (4, 3)


def test_smooth_task_with_a_tiny_cap_builds_no_tensor(monkeypatch, tmp_path,
                                                      capsys):
    doc = json.loads((CORPUS_DIR / "fx3.json").read_text(encoding="utf-8"))
    doc["tasks"] = ["smooth M"]
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for mod in (bimodule, homology, diagnostics):
        _forbid(monkeypatch, mod, "tensor_over")
    assert cli.main(["check", str(path), "--format", "json",
                     "--dim-cap", "3"]) == 2
    error = json.loads(capsys.readouterr().out)["reports"][0]["error"]
    assert error == {"kind": "DimensionCapError",
                     "message": "bar growth: bar object 0 (2 x 2) needs "
                                "dimension 4, above the cap 3"}


def test_dimension_cap_names_the_offending_level():
    m = fixture("fx3", Field(5)).bimodule
    with pytest.raises(DimensionCapError) as exc:
        bar_resolution(m, 3, dim_cap=10)
    assert "bar object" in str(exc.value)
    assert exc.value.requested == 16
    assert exc.value.cap == 10


@pytest.mark.parametrize("task", ["hdim", "hochschild", "morita"])
def test_dimension_cap_names_the_syzygy_cover(monkeypatch, task):
    # Q[x]/(x^4) over the ground: Omega^1 has dim 12 and Hom(M, Omega^1)
    # dim 12, so P_1 = F(Omega^1) needs 4 x 12; P_0 (4 x 4) is within
    # the cap, and nothing but P_0 is tensored once P_1 is refused.
    # morita reads the syzygy resolution before its transport, so it
    # grows no bar object past P_0 either
    m = _truncated_polynomials_over_ground(4)
    b = regular_bimodule(m.left_algebra)
    tensor_over = bimodule.tensor_over
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return tensor_over(*args, **kwargs)

    for mod in (bimodule, homology):
        monkeypatch.setattr(mod, "tensor_over", recorded)
    with pytest.raises(DimensionCapError) as exc:
        if task == "hdim":
            diagnostics.hdim_upto(m, 3, dim_cap=40)
        elif task == "morita":
            diagnostics.morita_check(m, b, 3, dim_cap=40)
        else:
            module_hochschild(m, b, 3, dim_cap=40)
    assert str(exc.value) == ("syzygy resolution: P_1 = F(Omega^1) "
                              "(4 x 12) needs dimension 48, above the "
                              "cap 40")
    assert (exc.value.requested, exc.value.cap) == (48, 40)
    assert calls == [(m, hom_module(m, b))]


BAD_ARGUMENTS = {
    "hochschild nmax": lambda m, b: module_hochschild(m, b, -1),
    "hochschild coefficients": lambda m, b: module_hochschild(m, m, 1),
    "hdim": lambda m, b: diagnostics.hdim_upto(m, -1),
    "bar": lambda m, b: bar_resolution(m, 0),
    "homotopy": lambda m, b: homotopy_check(m, -1),
    "morita": lambda m, b: diagnostics.morita_check(m, b, -1),
}


@pytest.mark.parametrize("task", sorted(BAD_ARGUMENTS))
def test_arguments_are_checked_before_any_work(monkeypatch, task):
    # built afresh, so no hom solve or tensor of it is cached; a bad nmax,
    # depth or coefficient bimodule is refused before Hom(M, B) is solved
    # or M tensor_A *M is built
    m = fixtures._build("fx3", QQ).bimodule
    b = regular_bimodule(m.left_algebra)

    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the arguments were checked")

    for name in ("tensor_over", "equivariant_maps"):
        monkeypatch.setattr(bimodule, name, refuse)
    monkeypatch.setattr(homology, "tensor_over", refuse)
    with pytest.raises(PreconditionError):
        BAD_ARGUMENTS[task](m, b)


def test_cohomology_is_deterministic_across_rebuilds():
    # non-default fields bypass the fixture cache, giving independent builds
    runs = []
    for _ in range(2):
        m = fixture("fx3", Field(5)).bimodule
        h = module_hochschild(m, regular_bimodule(m.left_algebra), 2)
        runs.append((h.dims(),
                     tuple(tuple(str(c) for c in rep)
                           for deg in h.degrees for rep in deg.representatives)))
    assert runs[0] == runs[1]


def test_module_cohomology_mod_five():
    m = fixture("fx5", Field(5)).bimodule
    h = module_hochschild(m, regular_bimodule(m.left_algebra), 2)
    assert h.dims() == (1, 0, 0)


# ---------------------------------------------------------------------------
# Ring-relative cohomology


def test_identity_extension_reduces_to_the_centralizer():
    b = fixture("fx3").bimodule.left_algebra
    h = ring_hochschild(identity_map(b), regular_bimodule(b), 2)
    assert h.dims() == (2, 0, 0)


def test_ring_cohomology_over_the_ground_field_is_classical():
    fx = fixture("fx3")
    b = fx.bimodule.left_algebra
    h = ring_hochschild(fx.base_map, regular_bimodule(b), 2)
    assert h.dims() == (2, 1, 1)


def test_ring_cohomology_of_matrix_algebra_over_diagonal():
    fx = fixture("fx6")
    b = fx.bimodule.left_algebra
    h = ring_hochschild(fx.base_map, regular_bimodule(b), 2)
    assert h.dims() == (1, 0, 0)


def test_ring_cohomology_refuses_coefficients_over_another_algebra():
    # regular_bimodule(k) is over the source on both sides, and fx3's
    # bimodule is over (B, k): each must be two-sided over the target B
    fx = fixture("fx3")
    for w in (regular_bimodule(fx.base_map.source), fx.bimodule):
        with pytest.raises(ValidationError,
                           match="coefficients must be two-sided over the "
                                 "target"):
            ring_hochschild(fx.base_map, w, 1)


def test_ring_cohomology_respects_the_cap():
    fx = fixture("fx3", Field(5))
    b = fx.bimodule.left_algebra
    with pytest.raises(DimensionCapError):
        ring_hochschild(fx.base_map, regular_bimodule(b), 2, dim_cap=6)


# ---------------------------------------------------------------------------
# The identification between the two theories


def test_psi_rebuilds_each_endomorphism_from_the_dual_basis():
    # psi(s_k) = sum over (u, j) of its entry at u * dim M + j times the
    # endomorphism y -> ((y) f_u) . e_j, which must give back s_k
    for name in ("fx5", "fx6", "dual-self", "fx5-twisted", "fx6-twisted",
                 "dual-self-twisted"):
        for field in (QQ, Field(5)):
            m = fixture(name, field).bimodule
            md = morita_data(m)
            dm = m.dim
            orbits = [basis_orbit(m, m.left_action, j) for j in range(dm)]
            rank_one = [orbit @ f for f in md.dual.maps for orbit in orbits]
            for k, s_k in enumerate(md.endo.hom.maps):
                assert lincomb(field, dm, dm, md.psi_plain.column(k),
                               rank_one) == s_k, (name, field, k)
            assert md.psi_unit == md.psi_plain.apply(md.endo.algebra.unit)


def test_coefficient_transport_dimension():
    m = fixture("fx5").bimodule
    w = coefficient_transport(m, regular_bimodule(m.left_algebra)).w
    # *M (x)_B B (x)_B M collapses to *M (x)_B M, which is S
    assert w.dim == 1


def test_comparison_rewrite_is_a_degreewise_isomorphism():
    for name in ("fx5", "fx6", "dual-self"):
        m = fixture(name).bimodule
        rep = comparison_check(m, regular_bimodule(m.left_algebra), 2)
        assert rep.ok, name
        assert rep.base_square
        assert all(rep.step_squares)
        for deg in rep.degrees:
            assert deg.iso
            assert deg.module_cochain_dim == deg.ring_cochain_dim


def test_comparison_requires_a_progenerator():
    m = fixture("simple-over-dual").bimodule
    with pytest.raises(PreconditionError):
        comparison_check(m, regular_bimodule(m.left_algebra), 1)


def test_morita_data_rejects_non_progenerators():
    m = fixture("simple-over-dual").bimodule
    with pytest.raises(PreconditionError):
        morita_data(m)



# ---------------------------------------------------------------------------
# The ring-side coboundaries and the transport build what does not depend
# on the cochain once per column.  The oracles below evaluate each
# cochain anew, column by column, with every face and every slot applied
# in turn, and must agree exactly.


def _ring_coboundary_column(extension, w, chain, g, n, q):
    """Column q of the coboundary of the degree-n cochain g."""
    a, s_alg = extension.source, extension.target
    field, s = a.field, s_alg.dim
    if n == 0:
        return (w.left_action[q] - w.right_action[q]).apply(g.apply(a.unit))
    mu = Matrix._from_columns(field, [cell for row in s_alg.mult
                                      for cell in row], s)
    pi_n = chain.from_plain[n]
    v_plain = chain.to_plain[n + 1].column(q)
    acc = {}
    for idx, x in v_plain.items():
        j, rest = divmod(idx, s ** n)
        axpy(acc, x, w.left_action[j].apply(g.apply(pi_n.apply(
            {rest: field.one}))), field.p)
    sign = field.one
    for i in range(1, n + 1):
        sign = -sign
        v2, _ = apply_slot(v_plain, [s] * (n + 1), i - 1, mu, 2)
        axpy(acc, sign, g.apply(pi_n.apply(v2)), field.p)
    sign = -sign
    for idx, x in v_plain.items():
        rest, l = divmod(idx, s)
        axpy(acc, sign * x, w.right_action[l].apply(g.apply(pi_n.apply(
            {rest: field.one}))), field.p)
    return acc


def _assert_ring_deltas_match_per_cochain(extension, w, nmax):
    solvers, deltas, chain, _ = homology._ring_complex(extension, w, nmax,
                                                       None)
    field = extension.source.field
    for n in range(nmax):
        cols = [solvers[n + 1]._coords_from(
                    lambda q: _ring_coboundary_column(extension, w, chain,
                                                      g, n, q))
                for g in solvers[n].maps]
        assert deltas[n] == Matrix._from_columns(field, cols,
                                                 solvers[n + 1].dim)
    # the top coboundary stacks its columns at the top generators
    gens = two_sided_generators(chain.spaces[nmax + 1])
    cols = []
    for g in solvers[nmax].maps:
        col = {}
        for k, q in enumerate(gens):
            value = _ring_coboundary_column(extension, w, chain, g, nmax, q)
            col.update({k * w.dim + t: x for t, x in value.items()})
        cols.append(col)
    assert deltas[nmax] == Matrix._from_columns(field, cols, len(gens) * w.dim)


def _transport_phis(m, coefficients, nmax):
    """The rewrite of every module-relative basis cochain, transported
    one column at a time."""
    field = m.field
    k_solvers, _ = homology._module_complex(m, coefficients, nmax, None)
    md = morita_data(m)
    eng = _engine(m)
    wd = coefficient_transport(m, coefficients)
    rel_solvers, _, chain, w_mid = homology._ring_complex(
        md.endo.to_endo, wd.w, nmax, None)
    dm, dd = m.dim, md.dual.dim
    s, ddm = md.endo.algebra.dim, dd * dm

    def iso_mat(k):
        prev, hom = eng.objects[k - 1], eng.hom_level(k)
        cols = []
        for fd in md.dual.maps:
            for y in range(prev.dim):
                orbit = basis_orbit(prev, prev.left_action, y)
                cols.append(hom._coords_from(
                    lambda g: orbit.apply(fd.column(g))))
        return Matrix._from_columns(field, cols, hom.dim)

    def collapse(k, sv, dims, lo):
        if k == 0:
            return apply_slot(sv, dims, lo, eng.tensors[0].projection, 2)
        sv, dims = collapse(k - 1, sv, dims, lo + 2)
        sv, dims = apply_slot(sv, dims, lo + 1, iso_mat(k), 2)
        return apply_slot(sv, dims, lo, eng.tensors[k].projection, 2)

    def to_w(sv, dims):
        sv, dims = apply_slot(sv, dims, 0, wd.t1.projection, 2)
        return apply_slot(sv, dims, 0, wd.t2.projection, 2)[0]

    def image(gmat, n):
        if n == 0:
            sv, dims = collapse(
                0, _kron_vec(md.psi_unit, md.psi_unit, ddm, field.p),
                [dd, dm, dd, dm], 1)
            w0 = to_w(*apply_slot(sv, dims, 1, gmat))
            cols = [w_mid.left_action[q].apply(w0)
                    for q in range(m.right_algebra.dim)]
            return Matrix._from_columns(field, cols, wd.w.dim)
        cols = []
        for q in range(chain.spaces[n].dim):
            sv, dims = chain.to_plain[n].column(q), [s] * n
            for j in range(n):
                sv, dims = apply_slot(sv, dims, j, md.psi_plain)
            mid = ddm ** n
            sv = _kron_vec(md.psi_unit,
                           _kron_vec(sv, md.psi_unit, ddm, field.p),
                           mid * ddm, field.p)
            sv, dims = collapse(n, sv, [dd, dm] * (n + 2), 1)
            cols.append(to_w(*apply_slot(sv, dims, 1, gmat)))
        return Matrix._from_columns(field, cols, wd.w.dim)

    return [Matrix._from_columns(
                field, [rel_solvers[n].coords_of(image(g, n))
                        for g in k_solvers[n].maps], rel_solvers[n].dim)
            for n in range(nmax + 1)]


# the twisted basis makes bar object 3, which nmax 2 needs, cost seconds
@pytest.mark.parametrize("name, nmax", [("fx6", 2), ("fx6-twisted", 1)])
def test_ring_deltas_and_transport_match_per_cochain(name, nmax):
    m = fixture(name).bimodule
    b_reg = regular_bimodule(m.left_algebra)
    rep = comparison_check(m, b_reg, nmax)
    assert rep.ok
    md = morita_data(m)
    _assert_ring_deltas_match_per_cochain(
        md.endo.to_endo, coefficient_transport(m, b_reg).w, nmax)
    assert list(rep.phis) == _transport_phis(m, b_reg, nmax)


def test_ring_deltas_over_the_diagonal_match_per_cochain():
    fx = fixture("fx6")
    _assert_ring_deltas_match_per_cochain(
        fx.base_map, regular_bimodule(fx.bimodule.left_algebra), 2)


# ---------------------------------------------------------------------------
# The top coboundary of each complex is replaced by a matrix with the
# same kernel: on the syzygy resolution (hochschild and morita), the
# annihilator of the top cocycles; on the ring side, an embedding of the
# next cochain space.  The old paths, kept here, grow the next cover
# F(Omega^{n+1}) or the next tensor power, solve for its cochains, and
# form the top coboundary in solver coordinates.  Each pair of paths
# must give the same cohomology, field by field.  The bar oracle grows
# P_{nmax+1} the same way; its dims must match the syzygy resolution's.

CORPUS_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def _old_module_cohomology(m, coefficients, nmax):
    eng = _engine(m)
    solvers = [hom_bimodule(eng.object(n), coefficients)
               for n in range(nmax + 2)]
    deltas = []
    for n in range(nmax + 1):
        into, d = solvers[n + 1], eng.diffs[n + 1].matrix
        deltas.append(Matrix._from_columns(
            m.field, [into.coords_of(g @ d) for g in solvers[n].maps],
            into.dim))
    return homology._cohomology(m.field, [s.dim for s in solvers], deltas,
                                nmax)


def _old_syzygy_cohomology(m, coefficients, nmax):
    """The syzygy resolution through P_{nmax+1} = F(Omega^{nmax+1}), every
    coboundary in solver coordinates of the next cochains."""
    chain = homology._syzygy_chain(m)
    covers = [chain.cover(n).matrix for n in range(nmax + 2)]
    solvers = [hom_bimodule(chain.cover(n).source, coefficients)
               for n in range(nmax + 2)]
    deltas = []
    for n in range(nmax + 1):
        # d_{n+1} = (Omega^{n+1} in P_n) eps_{n+1}, zero past a zero Omega
        if n + 1 < len(chain.inclusions):
            d = chain.inclusions[n + 1] @ covers[n + 1]
        else:
            d = Matrix.from_sparse(m.field,
                                   [{} for _ in range(covers[n].cols)],
                                   covers[n + 1].cols)
        into = solvers[n + 1]
        deltas.append(Matrix._from_columns(
            m.field, [into.coords_of(g @ d) for g in solvers[n].maps],
            into.dim))
    return homology._cohomology(m.field, [s.dim for s in solvers], deltas,
                                nmax)


def _old_ring_cohomology(extension, w, nmax):
    _, _, chain, w_mid = homology._ring_complex(extension, w, nmax, None)
    solvers = [hom_bimodule(chain.spaces[k], w_mid) for k in range(nmax + 2)]
    field = extension.source.field
    deltas = [Matrix._from_columns(
                  field, [solvers[n + 1]._coords_from(
                              lambda q: _ring_coboundary_column(
                                  extension, w, chain, g, n, q))
                          for g in solvers[n].maps], solvers[n + 1].dim)
              for n in range(nmax + 1)]
    return homology._cohomology(field, [s.dim for s in solvers], deltas,
                                nmax)


def _assert_same_cohomology(new, old):
    assert len(new.degrees) == len(old.degrees)
    for got, want in zip(new.degrees, old.degrees):
        assert got.degree == want.degree
        assert got.dim == want.dim
        assert got.cocycle_dim == want.cocycle_dim
        assert got.coboundary_dim == want.coboundary_dim
        assert got.representatives == want.representatives
        assert [[str(x) for x in rep] for rep in got.representatives] \
            == [[str(x) for x in rep] for rep in want.representatives]


def _self_resolved(field, dim, nmax):
    """The degrees of B resolving itself: every two-sided map B -> N is
    a cocycle, in the solver's basis, and nothing lies above degree 0."""
    basis = tuple(tuple(field.one if i == j else field.zero
                        for i in range(dim)) for j in range(dim))
    return ((homology.CohomologyDegree(0, dim, dim, 0, basis),)
            + tuple(homology.CohomologyDegree(n, 0, 0, 0, ())
                    for n in range(1, nmax + 1)))


def _assert_both_paths_agree(m, coefficients, nmax, ring_side):
    # each new path runs first, before its old one grows P_{nmax+1}
    new = module_hochschild(m, coefficients, nmax)
    old = _old_syzygy_cohomology(m, coefficients, nmax)
    b = regular_bimodule(m.left_algebra)
    if diagnostics.is_rel_projective(b, m).verdict:
        # B resolves itself, so no top rule is read
        assert new.degrees == _self_resolved(
            m.field, hom_bimodule(b, coefficients).dim, nmax)
        assert new.dims() == old.dims()
    else:
        _assert_same_cohomology(new, old)
    assert new.dims() == _old_module_cohomology(m, coefficients, nmax).dims()
    if ring_side:
        extension = morita_data(m).endo.to_endo
        w = coefficient_transport(m, coefficients).w
        _assert_same_cohomology(ring_hochschild(extension, w, nmax),
                                _old_ring_cohomology(extension, w, nmax))


def _corpus_cases():
    """(document, task) for every hochschild and morita task of the
    CLI corpus."""
    out = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        doc = cli.load_document(str(path))
        out += [(path.stem, doc, task) for task in doc.tasks
                if task.op in ("hochschild", "morita")]
    return out


@pytest.mark.parametrize("nmax", [0, 1, 2])
def test_top_embedding_matches_the_old_path_on_the_corpus(nmax):
    cases = _corpus_cases()
    assert {name for name, _, _ in cases} \
        == {"fp5", "fx1", "fx2", "fx3", "fx4", "fx5", "fx6"}
    for _, doc, task in cases:
        m, n = (doc.bimodules[a] for a in task.args)
        _assert_both_paths_agree(m, n, nmax, task.op == "morita")


@pytest.mark.parametrize("nmax", [0, 1, 2])
def test_morita_reports_the_syzygy_cohomology_on_the_corpus(nmax):
    cases = [(doc, task) for _, doc, task in _corpus_cases()
             if task.op == "morita"]
    assert len(cases) == 2
    for doc, task in cases:
        m, n = (doc.bimodules[a] for a in task.args)
        _assert_same_cohomology(comparison_check(m, n, nmax).module,
                                module_hochschild(m, n, nmax))


@pytest.mark.parametrize("name, p, nmax", [
    ("fx5", None, 2), ("fx6", None, 1), ("fx6", None, 2), ("fx6", 5, 2)])
def test_morita_grows_the_bar_only_to_degree_nmax(monkeypatch, name, p,
                                                  nmax):
    # the transport reads bar degrees 0..nmax; the cohomology comes from
    # the syzygy resolution, so Hom(M, P_nmax), which only a top
    # coboundary on the bar would read, is never solved.  M is built
    # afresh, so its bar engine starts empty.
    m = fixtures._build(name, QQ if p is None else Field(p)).bimodule
    b_reg = regular_bimodule(m.left_algebra)
    covered = []
    cover_hom = bimodule.cover_hom

    def recorded(m, y):
        covered.append(y)
        return cover_hom(m, y)

    for mod in (bimodule, homology):
        monkeypatch.setattr(mod, "cover_hom", recorded)
    assert diagnostics.morita_check(m, b_reg, nmax).ok
    objects = _engine(m).objects
    assert len(objects) == nmax + 1
    assert all(y is not objects[nmax] for y in covered)
    assert any(y is objects[nmax - 1] for y in covered)


@pytest.mark.parametrize("name, p", [
    ("fx1", None), ("fx2", None), ("fx6", None), ("fx6", 5), ("fx3", None),
    ("fx4", None)])
def test_a_relatively_projective_base_resolves_itself(name, p):
    # hdim 0 on fx1, fx2 and fx6: B is split off F(B), so no syzygy is
    # covered and only Hom(B, B) is solved; fx3 and fx4 cover Omega^0 to
    # Omega^2.  M is built afresh, so its chain starts at B.
    m = fixtures._build(name, QQ if p is None else Field(p)).bimodule
    b_reg = regular_bimodule(m.left_algebra)
    h = module_hochschild(m, b_reg, 2)
    assert h.dims() == FROZEN_MODULE_DIMS[name]
    separable = diagnostics.hdim_upto(m, 0).bounded
    assert separable == (name in ("fx1", "fx2", "fx6"))
    chain = homology._syzygy_chain(m)
    assert len(chain.syzygies) == (1 if separable else 3)
    if separable:
        assert h.degrees == _self_resolved(
            m.field, hom_bimodule(b_reg, b_reg).dim, 2)


@pytest.mark.parametrize("name", ["fx2", "fx3", "fx4", "fx6"])
def test_top_embedding_matches_the_old_path_over_the_ground(name):
    fx = fixture(name)
    b_reg = regular_bimodule(fx.bimodule.left_algebra)
    for nmax in range(3):
        _assert_same_cohomology(
            ring_hochschild(fx.base_map, b_reg, nmax),
            _old_ring_cohomology(fx.base_map, b_reg, nmax))


def _bar_hdim(m, nmax):
    """The least n <= nmax whose bar syzygy is relatively projective."""
    for n in range(nmax + 1):
        if diagnostics.is_rel_projective(_bar_syzygy(m, n), m).verdict:
            return n
    return None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(STANDARD + ("dual-self",)),
       st.sampled_from([None, 2, 3, 5]), st.integers(0, 2 ** 16),
       st.integers(0, 2))
def test_syzygy_and_bar_resolutions_give_the_same_answers(name, p, seed,
                                                          nmax):
    # the comparison theorem for hochschild, relative Schanuel for hdim
    field = QQ if p is None else Field(p)
    m = conjugate(fixtures._build(name, field).bimodule, seed)
    b_reg = regular_bimodule(m.left_algebra)
    assert module_hochschild(m, b_reg, nmax).dims() \
        == _old_module_cohomology(m, b_reg, nmax).dims()
    assert diagnostics.hdim_upto(m, nmax).value == _bar_hdim(m, nmax)


@settings(max_examples=10)
@given(st.sampled_from(STANDARD), st.integers(0, 2 ** 16), st.integers(0, 2))
def test_top_embedding_matches_the_old_path_on_twists(name, seed, nmax):
    m = conjugate(fixture(name).bimodule, seed)
    _assert_both_paths_agree(m, regular_bimodule(m.left_algebra), nmax,
                             name in ("fx5", "fx6"))
