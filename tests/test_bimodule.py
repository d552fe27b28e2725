"""Bimodules, hom spaces, tensor products, evaluation, and the
module-theoretic predicates (generation, projectivity, staticness).

Worked dimensions are frozen from hand computation on the standard
fixtures; the loops over the corpus assert the structural invariants that
hold for every fixture regardless of basis.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimodcheck.bimodule import (
    Bimodule, BimoduleMap, centralizer, comonad_apply, composition_matrix,
    cover_hom, dual_module, endomorphism_ring, equivariant_maps,
    evaluation_data, hom_bimodule, hom_left, hom_module,
    hom_right, is_fg_projective_left,
    is_fg_projective_right, is_generator, orbit_generators,
    regular_bimodule, restrict_left,
    restrict_right, static_check, sub_bimodule, tensor_over, trace_in,
    validate_bimodule,
)
from bimodcheck import bimodule, cli, diagnostics, fixtures
from bimodcheck.errors import ShapeError, ValidationError
from bimodcheck.exactlin import (
    Field, Matrix, QQ, Subspace, axpy, dense_vec, invert, kernel_basis,
    lincomb, rank, right_inverse, solve_or_certify, sparse_vec,
)
from bimodcheck.fixtures import (
    EXTRAS, STANDARD, TWISTED, algebra_dual_numbers, algebra_ground,
    algebra_matrix2, conjugate, corpus, fixture, ground_map,
)
from bimodcheck.homology import bar_resolution, morita_data
from bimodcheck.structures import validate_algebra, validate_ring_map


def test_corpus_bimodules_validate():
    for fx in corpus():
        v = validate_bimodule(fx.bimodule)
        assert v.ok, f"{fx.name}: {v.message}"


def test_broken_action_is_caught():
    b = algebra_dual_numbers(QQ)
    # x acting as the identity is not multiplicative: x^2 = 0 but id^2 = id
    bad = Bimodule(b, algebra_ground(QQ), 1,
                   (Matrix.identity(QQ, 1), Matrix.identity(QQ, 1)),
                   (Matrix.identity(QQ, 1),), name="bad")
    v = validate_bimodule(bad)
    assert not v.ok
    assert "multiplicative" in v.message


def test_regular_bimodule_is_cached_and_valid():
    b = algebra_dual_numbers(QQ)
    reg = regular_bimodule(b)
    assert regular_bimodule(b) is reg
    assert validate_bimodule(reg).ok
    assert reg.dim == b.dim


def test_restriction_along_unit_map():
    b = algebra_dual_numbers(QQ)
    reg = regular_bimodule(b)
    right = restrict_right(reg, ground_map(QQ, b))
    assert right.right_algebra.dim == 1
    assert right.right_action[0] == Matrix.identity(QQ, 2)
    left = restrict_left(reg, ground_map(QQ, b))
    assert left.left_algebra.dim == 1
    assert validate_bimodule(left).ok


# ---------------------------------------------------------------------------
# Hom spaces


def test_hom_from_free_module_has_module_dimension():
    fx = fixture("fx3")
    b = fx.bimodule.left_algebra
    hom = hom_left(fx.bimodule, regular_bimodule(b))
    assert hom.dim == 2


def test_hom_between_column_modules_is_scalars():
    m = fixture("fx5").bimodule
    hom = hom_left(m, m)
    assert hom.dim == 1
    assert hom.maps[0] == Matrix.identity(QQ, 2) or \
        invert(hom.maps[0]) @ hom.maps[0] == Matrix.identity(QQ, 2)


def test_hom_onto_simple_module_kills_the_socle():
    fx = fixture("fx3")
    simple = fixture("simple-over-dual").bimodule
    hom = hom_left(fx.bimodule, simple)
    assert hom.dim == 1
    # the map factors through B/(x), so x goes to zero
    assert not any(hom.maps[0].column(1))


def test_hom_basis_intertwines_left_actions():
    for name in ("fx3", "fx5", "fx6"):
        m = fixture(name).bimodule
        n = regular_bimodule(m.left_algebra)
        hom = hom_left(m, n)
        for g in hom.maps:
            for lb, ln in zip(m.left_action, n.left_action):
                assert g @ lb == ln @ g


def test_hom_space_coordinate_roundtrip():
    m = fixture("fx3").bimodule
    hom = hom_left(m, regular_bimodule(m.left_algebra))
    for u in range(hom.dim):
        coords = hom.coords_of(hom.maps[u], verify=True)
        expected = [QQ.one if v == u else QQ.zero for v in range(hom.dim)]
        assert dense_vec(QQ, coords, hom.dim) == expected
        assert hom.matrix_of(coords) == hom.maps[u]


def test_hom_right_of_column_module_is_full_matrix_space():
    # right algebra is the ground field, so right-linear maps are all maps
    m = fixture("fx5").bimodule
    hom = hom_right(m, m)
    assert hom.dim == 4


def test_hom_requires_shared_algebra():
    m = fixture("fx5").bimodule
    n = fixture("fx3").bimodule
    with pytest.raises(ValidationError):
        hom_left(m, n)


def test_dual_module_dimensions():
    assert dual_module(fixture("fx3").bimodule).dim == 2
    assert dual_module(fixture("fx5").bimodule).dim == 2
    assert dual_module(fixture("zero-over-dual").bimodule).dim == 0
    assert dual_module(fixture("simple-over-dual").bimodule).dim == 1


def test_hom_bimodule_of_regular_is_the_center():
    b = algebra_dual_numbers(QQ)
    solver = hom_bimodule(regular_bimodule(b), regular_bimodule(b))
    assert solver.dim == 2
    m2 = algebra_matrix2(QQ)
    solver2 = hom_bimodule(regular_bimodule(m2), regular_bimodule(m2))
    assert solver2.dim == 1


def test_centralizer_dimensions():
    assert centralizer(regular_bimodule(algebra_dual_numbers(QQ))).dim == 2
    assert centralizer(regular_bimodule(algebra_matrix2(QQ))).dim == 1
    prod = fixture("fx2").bimodule.left_algebra
    assert centralizer(regular_bimodule(prod)).dim == 2


# ---------------------------------------------------------------------------
# Tensor products


def test_tensor_over_ground_field_multiplies_dimensions():
    m = fixture("fx3").bimodule                       # (B, k), dim 2
    b = m.left_algebra
    n = restrict_left(regular_bimodule(b), ground_map(QQ, b))   # (k, B)
    t = tensor_over(m, n)
    assert t.space.dim == m.dim * n.dim
    assert t.trivial


def test_tensor_collapses_over_the_full_algebra():
    b = algebra_dual_numbers(QQ)
    reg = regular_bimodule(b)
    t = tensor_over(reg, reg)
    assert t.space.dim == 2
    assert t.relations.dim == 2


def test_matrix_square_over_diagonal_has_dimension_eight():
    fx = fixture("fx6")
    b = fx.bimodule.left_algebra
    reg = regular_bimodule(b)
    left = restrict_right(reg, fx.base_map)
    right = restrict_left(reg, fx.base_map)
    t = tensor_over(left, right)
    assert t.space.dim == 8
    assert t.relations.dim == 8
    for q in range(t.space.dim):
        assert t._project_vec(t.lift_column(q)) == {q: QQ.one}
    for row in t.relations.basis.data:
        assert not any(dense_vec(QQ, t.projection.apply(sparse_vec(QQ, row)),
                                 t.space.dim))


def test_tensor_space_validates_as_bimodule():
    fx = fixture("fx6")
    ev = evaluation_data(fx.bimodule)
    assert validate_bimodule(ev.tensor.space).ok


def test_tensor_requires_shared_middle_algebra():
    m = fixture("fx3").bimodule            # (B, k)
    with pytest.raises(ValidationError):
        tensor_over(m, m)                  # middle would be k vs B


# ---------------------------------------------------------------------------
# Evaluation


def test_evaluation_of_regular_bimodule_is_multiplication():
    fx = fixture("fx3")
    ev = evaluation_data(fx.bimodule)
    assert ev.tensor.space.dim == 4
    assert rank(ev.map.matrix) == 2
    assert kernel_basis(ev.map.matrix).dim == 2
    assert ev.map.validate().ok


def test_evaluation_of_column_module_is_an_isomorphism():
    ev = evaluation_data(fixture("fx5").bimodule)
    assert ev.tensor.space.dim == 4
    assert rank(ev.map.matrix) == 4
    assert ev.map.validate().ok


def test_evaluation_in_identity_context_is_an_isomorphism():
    ev = evaluation_data(fixture("dual-self").bimodule)
    assert ev.tensor.space.dim == 2
    assert rank(ev.map.matrix) == 2


def test_evaluation_maps_validate_across_corpus():
    for fx in corpus():
        ev = evaluation_data(fx.bimodule)
        v = ev.map.validate()
        assert v.ok, f"{fx.name}: {v.message}"


# ---------------------------------------------------------------------------
# Endomorphism rings


def test_endomorphism_ring_of_free_rank_one_is_the_algebra():
    fx = fixture("fx3")
    endo = endomorphism_ring(fx.bimodule)
    assert endo.algebra.dim == 2
    assert validate_algebra(endo.algebra).ok
    assert validate_ring_map(endo.to_endo).ok
    # commutative base: S carries the same structure constants
    assert endo.algebra.dim == fx.bimodule.left_algebra.dim


def test_endomorphism_ring_of_column_module_is_the_ground_field():
    endo = endomorphism_ring(fixture("fx5").bimodule)
    assert endo.algebra.dim == 1
    assert validate_ring_map(endo.to_endo).ok
    assert endo.to_endo.source.dim == 1


def test_endomorphism_data_validates_across_corpus():
    for fx in corpus():
        if fx.bimodule.dim == 0:
            continue                      # no unit endomorphism to normalize
        endo = endomorphism_ring(fx.bimodule)
        assert validate_algebra(endo.algebra).ok, fx.name
        assert validate_ring_map(endo.to_endo).ok, fx.name
        assert validate_bimodule(endo.right_module).ok, fx.name


# ---------------------------------------------------------------------------
# Generation and the trace


def test_generator_verdicts():
    assert is_generator(fixture("fx5").bimodule).verdict
    assert is_generator(fixture("fx3").bimodule).verdict
    assert not is_generator(fixture("simple-over-dual").bimodule).verdict
    assert not is_generator(fixture("zero-over-dual").bimodule).verdict


def test_generator_witness_hits_the_unit():
    m = fixture("fx6").bimodule
    res = is_generator(m)
    ev = evaluation_data(m)
    assert res.preimage_of_unit is not None
    img = dense_vec(QQ, ev.map.matrix.apply(sparse_vec(QQ, res.preimage_of_unit)),
                    ev.map.matrix.rows)
    assert img == dense_vec(QQ, m.left_algebra.unit, m.left_algebra.dim)


def test_generator_obstruction_kills_the_image():
    m = fixture("simple-over-dual").bimodule
    res = is_generator(m)
    cert = res.cokernel_functional
    assert cert is not None
    ev = evaluation_data(m)
    assert all(not x for x in dense_vec(
        QQ, ev.map.matrix.transpose().apply(sparse_vec(QQ, cert)),
        ev.map.matrix.cols))
    unit = dense_vec(QQ, m.left_algebra.unit, m.left_algebra.dim)
    pairing = sum((c * u for c, u in zip(cert, unit)), QQ.zero)
    assert pairing == QQ.one


def test_generation_matches_full_trace_across_corpus():
    for fx in corpus():
        m = fx.bimodule
        b_reg = regular_bimodule(m.left_algebra)
        tr = trace_in(m, b_reg)
        assert is_generator(m).verdict == (tr.dim == m.left_algebra.dim), fx.name


def test_trace_of_simple_module_is_the_socle():
    m = fixture("simple-over-dual").bimodule
    tr = trace_in(m, regular_bimodule(m.left_algebra))
    assert tr.dim == 1
    assert tr.coords_of(sparse_vec(QQ, [QQ.zero, QQ.one])) == {0: QQ.one}


# ---------------------------------------------------------------------------
# Finitely generated projectivity


def test_fg_projective_verdicts():
    assert is_fg_projective_left(fixture("fx3").bimodule).verdict
    assert is_fg_projective_left(fixture("fx5").bimodule).verdict
    assert is_fg_projective_right(fixture("fx5").bimodule).verdict
    assert not is_fg_projective_left(fixture("simple-over-dual").bimodule).verdict


def test_fg_projective_failure_carries_certificate():
    m = fixture("simple-over-dual").bimodule
    res = is_fg_projective_left(m)
    assert res.certificate is not None
    assert res.dual_basis is None
    # it vanishes on the full system and pairs to 1 with the identity
    _assert_projectivity_matches_full_system(m, "left")


def test_dual_basis_reconstructs_identity():
    m = fixture("fx5").bimodule
    res = is_fg_projective_left(m)
    assert res.verdict
    hom = dual_module(m)
    for c in range(m.dim):
        y = [QQ.one if i == c else QQ.zero for i in range(m.dim)]
        acc = [QQ.zero] * m.dim
        for x_coords, f_coords in res.dual_basis:
            f = hom.matrix_of(sparse_vec(QQ, f_coords))
            b_elt = f.apply(sparse_vec(QQ, y))      # (y) f in B
            img = dense_vec(QQ, m.left_act(b_elt).apply(sparse_vec(QQ, x_coords)),
                            m.dim)
            acc = [a + z for a, z in zip(acc, img)]
        assert acc == y


def test_fg_projective_tensor_dimension_matches_endo_ring():
    # for a progenerator, *M tensor_B M has the endomorphism ring dimension
    for name in ("fx3", "fx5", "fx6", "dual-self"):
        m = fixture(name).bimodule
        endo = endomorphism_ring(m)
        t = tensor_over(hom_module(m, regular_bimodule(m.left_algebra)), m)
        assert t.space.dim == endo.algebra.dim, name


# ---------------------------------------------------------------------------
# Evaluation over the endomorphism ring and staticness


# static_check(M, B)'s map is ev: M tensor_End(M) *M -> B


def test_evaluation_over_endomorphisms_is_iso_for_column_module():
    m = fixture("fx5").bimodule
    _, ev_s = static_check(m, regular_bimodule(m.left_algebra))
    assert ev_s.source.dim == 4
    assert rank(ev_s.matrix) == 4


def test_evaluation_over_endomorphisms_of_simple_injects_but_misses():
    m = fixture("simple-over-dual").bimodule
    _, ev_s = static_check(m, regular_bimodule(m.left_algebra))
    r = rank(ev_s.matrix)
    assert r == ev_s.source.dim        # injective
    assert r < ev_s.target.dim         # not surjective


def test_static_check_on_the_trace():
    m = fixture("simple-over-dual").bimodule
    b_reg = regular_bimodule(m.left_algebra)
    tr_sub, _ = sub_bimodule(b_reg, trace_in(m, b_reg), name="trace")
    res, ev = static_check(m, tr_sub)
    assert res.verdict
    assert ev.validate().ok


def test_static_check_against_whole_algebra_fails_for_simple():
    m = fixture("simple-over-dual").bimodule
    res, _ = static_check(m, regular_bimodule(m.left_algebra))
    assert res.injective
    assert not res.surjective
    assert not res.verdict


def test_sub_bimodule_requires_invariance():
    b_reg = regular_bimodule(algebra_dual_numbers(QQ))
    # the line through 1 is not an ideal: x . 1 = x escapes
    line = Subspace.from_span(QQ, 2, [sparse_vec(QQ, [QQ.one, QQ.zero])])
    with pytest.raises(ValidationError):
        sub_bimodule(b_reg, line)


def test_dense_lists_and_long_indices_fail_loudly():
    m = fixture("fx3").bimodule
    hom = hom_left(m, regular_bimodule(m.left_algebra))
    entry_points = {
        "left_act": (m.left_act, m.left_algebra.dim),
        "right_act": (m.right_act, m.right_algebra.dim),
        "matrix_of": (hom.matrix_of, hom.dim),
    }
    for name, (call, n) in entry_points.items():
        with pytest.raises(ShapeError):
            call([QQ.one] * n)
            pytest.fail(f"{name} took a dense list")
        with pytest.raises(ShapeError):
            call({n: QQ.one})
            pytest.fail(f"{name} took an index past its length")


def test_coords_of_rejects_a_matrix_of_another_shape():
    # coords_of reads the columns at the generators unchecked, so the
    # matrix's shape is checked first
    m = fixture("fx3").bimodule
    hom = hom_left(m, regular_bimodule(m.left_algebra))
    tgt, src = hom.tgt_dim, hom.src_dim
    assert hom.coords_of(hom.maps[0]) == {0: QQ.one}
    for rows, cols in ((tgt + 1, src), (tgt, src + 1), (tgt - 1, src)):
        with pytest.raises(ShapeError):
            hom.coords_of(Matrix.from_sparse(QQ, [{}] * rows, cols))


def test_equivariant_maps_rejects_unpaired_operator_lists():
    ident = Matrix.identity(QQ, 2)
    with pytest.raises(ShapeError):
        equivariant_maps(QQ, 2, 2, [ident, ident], [ident])


def test_bimodule_and_map_shapes_are_enforced():
    # Algebra's and RingMap's checks are tested in test_structures.py
    m = fixture("dual-self").bimodule
    b, acts = m.left_algebra, m.left_action
    for left, right, dim in ((acts[:1], acts, 2), (acts, acts[:1], 2),
                             (acts, acts, 3)):
        with pytest.raises(ShapeError):
            Bimodule(b, b, dim, left, right, name="bad")
    with pytest.raises(ShapeError, match="map g"):
        BimoduleMap(m, m, Matrix.identity(QQ, 3), name="g")
    with pytest.raises(ShapeError):
        BimoduleMap(m, regular_bimodule(fixture("fx1").bimodule.left_algebra),
                    Matrix.identity(QQ, 2))


def test_bimodule_map_validation_catches_non_intertwiner():
    swap = Matrix(QQ, [[QQ.zero, QQ.one], [QQ.one, QQ.zero]])
    bad = BimoduleMap(fixture("dual-self").bimodule,
                      fixture("dual-self").bimodule, swap, name="swap")
    v = bad.validate()
    assert not v.ok
    assert "intertwine" in v.message


# ---------------------------------------------------------------------------
# Generator columns, source columns and tensor columns at their positions
# against the full products they stand for.  The solvers and tensor
# actions form only the columns that are read; these oracles form the
# whole product.


twisted_bimodules = st.builds(
    lambda name, seed: conjugate(fixture(name).bimodule, seed),
    st.sampled_from(STANDARD + EXTRAS), st.integers(0, 2 ** 16))


def _hom_spaces(m):
    """One-sided hom spaces out of m, each with the operators acting on
    its maps by F -> F @ op (before) and by F -> op @ F (after)."""
    b_reg = regular_bimodule(m.left_algebra)
    return [(hom_left(m, m), m.right_action, m.right_action),
            (dual_module(m), m.right_action, b_reg.right_action),
            (hom_right(m, m), m.left_action, m.left_action)]


def _composites(hom, op, before, verify=False):
    """The matrix of f -> f @ op (before) or op @ f in hom's coordinates,
    from full products of the formed maps; verify when each composite is
    in hom."""
    oracle = [hom.coords_of(f @ op if before else op @ f, verify=verify)
              for f in hom.maps]
    return Matrix._from_columns(QQ, oracle, hom.dim)


def _assert_composition_matches_products(hom, op, before):
    assert composition_matrix(hom, op, before, hom) \
        == _composites(hom, op, before)


def _assert_hom_module_matches_products(m, y):
    """Hom(M, Y)'s actions, a . f = (x -> (x a) f) and f . c = (x -> ((x)
    f) c), against full products on its maps."""
    hom, module = cover_hom(m, y), hom_module(m, y)
    assert module.dim == hom.dim
    assert (module.left_algebra, module.right_algebra) \
        == (m.right_algebra, y.right_algebra)
    for op, got in zip(m.right_action, module.left_action):
        assert got == _composites(hom, op, True, verify=True)
    for op, got in zip(y.right_action, module.right_action):
        assert got == _composites(hom, op, False, verify=True)
    assert validate_bimodule(module).ok


def _assert_actions_match_products(m):
    for hom, before_ops, after_ops in _hom_spaces(m):
        for op in before_ops:
            _assert_composition_matches_products(hom, op, True)
        for op in after_ops:
            _assert_composition_matches_products(hom, op, False)
    # the covers' hom modules: F(B) = M (x)_A *M, and Hom(M, M)
    for y in (regular_bimodule(m.left_algebra), m):
        _assert_hom_module_matches_products(m, y)


def _assert_hom_bimodule_matches_full_solve(src, tgt):
    solver = hom_bimodule(src, tgt)
    full = equivariant_maps(
        src.field, src.dim, tgt.dim,
        [l @ r for l in src.left_action for r in src.right_action],
        [l @ r for l in tgt.left_action for r in tgt.right_action])
    assert solver.maps == full.maps
    assert solver.generators == full.generators
    assert solver.positions == full.positions


def _assert_tensor_actions_match_products(t):
    m, n = t.left_factor, t.right_factor
    ident_m = Matrix.identity(m.field, m.dim)
    ident_n = Matrix.identity(m.field, n.dim)
    lift = Matrix._from_columns(
        m.field, [t.lift_column(q) for q in range(t.space.dim)], m.dim * n.dim)
    assert t.projection @ lift == Matrix.identity(m.field, t.space.dim)
    assert not any(t.projection.apply(row) for row in t.relations.basis.nz)
    pairs = ([(a.kron(ident_n), got) for a, got in
              zip(m.left_action, t.space.left_action)]
             + [(ident_m.kron(a), got) for a, got in
                zip(n.right_action, t.space.right_action)])
    for k, got in pairs:
        assert got == t.projection @ k @ lift


def _tensors(m):
    b_reg = regular_bimodule(m.left_algebra)
    m_bs = endomorphism_ring(m).right_module
    return [evaluation_data(m).tensor,
            tensor_over(hom_module(m, b_reg), m),
            tensor_over(m_bs, hom_module(m_bs, b_reg))]


def test_composition_matrix_equals_full_products_across_corpus():
    for fx in corpus():
        _assert_actions_match_products(fx.bimodule)


def test_composing_after_needs_the_targets_generators_among_the_sources():
    # op @ f reads f's generator values only; hom_left(fx3, fx3) is
    # generated at e_0, while hom_right(fx3, fx3) needs e_0 and e_1
    m = fixture("fx3").bimodule
    solver, into = hom_left(m, m), hom_right(m, m)
    assert into.generators == (0, 1) and solver.generators == (0,)
    op = Matrix.identity(QQ, m.dim)
    with pytest.raises(ValidationError, match="generators"):
        composition_matrix(solver, op, False, into)
    # composing before reads images, so any generators will do
    assert composition_matrix(solver, op, True, into).cols == solver.dim


@pytest.mark.parametrize("name", ["fx4", "fx5", "fx6", "fx6-twisted"])
def test_the_cover_tensors_over_the_one_hom_module(name):
    # F(Y) = M (x)_A Hom(M, Y) takes Hom(M, Y)'s actions from hom_module,
    # which forms them once per (M, Y) on cover_hom's coordinates
    m = fixture(name).bimodule
    for y in (regular_bimodule(m.left_algebra), m):
        cover = comonad_apply(m, y)
        assert cover.tensor.right_factor is hom_module(m, y)
        assert cover.hom is cover_hom(m, y)


@pytest.mark.parametrize("seed", [None, 3, 2 ** 16])
@pytest.mark.parametrize("name", ["fx5", "fx6", "dual-self"])
def test_the_morita_dual_is_the_hom_module_over_the_endomorphisms(name, seed):
    # *M over (End(M), B) is hom_module's, on dual_module's solve, so the
    # static and morita tasks of one document form it once
    m = fixture(name).bimodule
    if seed is not None:
        m = conjugate(m, seed)
    m_bs = endomorphism_ring(m).right_module
    b_reg = regular_bimodule(m.left_algebra)
    md = morita_data(m)
    assert md.dual_endo is hom_module(m_bs, b_reg)
    assert cover_hom(m_bs, b_reg) is md.dual is dual_module(m)
    _assert_hom_module_matches_products(m_bs, b_reg)


@given(twisted_bimodules, st.data())
def test_composition_matrix_equals_full_products_on_twists(m, data):
    _assert_actions_match_products(m)
    # an operator outside the action families reads the same coordinates
    entries = st.lists(st.integers(-4, 4), min_size=m.dim, max_size=m.dim)
    raw = data.draw(st.lists(entries, min_size=m.dim, max_size=m.dim))
    arbitrary = Matrix(QQ, [[QQ.scalar(x) for x in row] for row in raw],
                       cols=m.dim)
    for hom in (hom_left(m, m), hom_right(m, m)):
        for before in (True, False):
            _assert_composition_matches_products(hom, arbitrary, before)


def test_hom_bimodule_equals_full_product_solve_across_corpus():
    for fx in corpus():
        m = fx.bimodule
        _assert_hom_bimodule_matches_full_solve(m, m)
        reg = regular_bimodule(m.left_algebra)
        _assert_hom_bimodule_matches_full_solve(reg, reg)
        if is_generator(m).verdict:
            p0 = bar_resolution(m, 1).objects[0]
            _assert_hom_bimodule_matches_full_solve(p0, reg)
            _assert_hom_bimodule_matches_full_solve(p0, p0)


@given(twisted_bimodules)
def test_hom_bimodule_equals_full_product_solve_on_twists(m):
    _assert_hom_bimodule_matches_full_solve(m, m)


def test_tensor_actions_equal_full_products_across_corpus():
    for fx in corpus():
        for t in _tensors(fx.bimodule):
            _assert_tensor_actions_match_products(t)


@given(twisted_bimodules)
def test_tensor_actions_equal_full_products_on_twists(m):
    for t in _tensors(m):
        _assert_tensor_actions_match_products(t)


# Counit splits against the full d^2-row system, and matrix_of against
# the formed maps.  _split solves on the generator rows only and forms
# its certificate on the full system when it is read.


def _split_counits(m, fx=None, seed=0):
    """(counit, section, certify) for every counit diagnostics splits
    while deciding m: relative projectivity of B and of B in a twisted
    basis, smoothness, hdim up to 2 for a generator, and smoothness of
    the base map when there is one.  The twisted B gives obstructions
    that are not symmetric in the two indices of End(B).

    Relative projectivity is decided afresh on every request, as if not
    memoized, so a split made earlier on a shared instance (the dual-self
    module is its algebra's regular bimodule) is not hidden."""
    seen = []
    split = diagnostics._split

    def recorded(counit, dims):
        section, certify = split(counit, dims)
        seen.append((counit, section, certify))
        return section, certify

    def afresh(p, n):
        return diagnostics._rel_projective.__wrapped__(n, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagnostics, "_split", recorded)
        mp.setattr(diagnostics, "is_rel_projective", afresh)
        b_reg = regular_bimodule(m.left_algebra)
        diagnostics.is_rel_projective(b_reg, m)
        diagnostics.is_rel_projective(conjugate(b_reg, seed), m)
        diagnostics.is_formally_smooth_bimodule(m)
        if is_generator(m).verdict:
            diagnostics.hdim_upto(m, 2)
        if fx is not None and fx.base_map is not None:
            diagnostics.is_formally_smooth_extension(fx.base_map)
    return seen


def _assert_split_matches_full_system(counit, section, certify):
    p, fp = counit.target, counit.source
    field, d = p.field, p.dim
    solver = hom_bimodule(p, fp)
    # column u is counit @ g_u flattened column-major: (i, j) at j * d + i
    cols = [{j * d + i: x for i, row in enumerate((counit.matrix @ g).nz)
             for j, x in row.items()} for g in solver.maps]
    full = Matrix._from_columns(field, cols, d * d)
    rhs = {i * (d + 1): field.one for i in range(d)}
    sol, cert = solve_or_certify(full, rhs)
    if sol is not None:
        assert certify is None
        assert section.matrix == solver.matrix_of(sol)
        return
    assert section is None
    y = certify()
    assert y == tuple(dense_vec(field, cert, d * d))
    # y . full = 0 and y . rhs = 1, by substitution
    assert full.transpose().apply(sparse_vec(field, y)) == {}
    assert sum((y[k] for k in rhs), field.zero) == field.one


def test_split_equals_the_full_system_across_corpus():
    # built afresh: fixture() shares instances, whose splits are memoized
    fresh = [fixtures._build(fx.name, QQ) for fx in corpus()]
    splits = [s for fx in fresh for s in _split_counits(fx.bimodule, fx)]
    assert any(section is None for _, section, _ in splits)
    assert any(section is not None for _, section, _ in splits)
    for counit, section, certify in splits:
        _assert_split_matches_full_system(counit, section, certify)


@settings(max_examples=25)
@given(twisted_bimodules, st.integers(0, 2 ** 16))
def test_split_equals_the_full_system_on_twists(m, seed):
    for counit, section, certify in _split_counits(m, seed=seed):
        _assert_split_matches_full_system(counit, section, certify)


# The dual basis criterion against its full d^2-row system, built from
# formed maps.  _fg_projective solves at the generators of the maps f_u
# and forms them only for a certificate.

FIELDS = (QQ, Field(3), Field(5))


def _assert_projectivity_matches_full_system(m, side):
    field, d = m.field, m.dim
    if side == "left":
        res = is_fg_projective_left(m)
        hom, acts = dual_module(m), m.left_action
    else:
        res = is_fg_projective_right(m)
        hom = hom_right(m, regular_bimodule(m.right_algebra))
        acts = m.right_action
    # column i * hd + u is y -> ((y) f_u) . m_i, flattened row-major:
    # entry (r, j) at r * d + j
    cols = [{r * d + j: x for r, row in enumerate((orbit @ f).nz)
             for j, x in row.items()}
            for orbit in (bimodule.basis_orbit(m, acts, i)
                          for i in range(d))
            for f in hom.maps]
    full = Matrix._from_columns(field, cols, d * d)
    rhs = {i * (d + 1): field.one for i in range(d)}
    sol, cert = solve_or_certify(full, rhs)
    if sol is not None:
        hd, sol = hom.dim, dense_vec(field, sol, len(cols))
        assert res.verdict and res.certificate is None
        assert res.dual_basis == tuple(
            (tuple(dense_vec(field, {i: field.one}, d)),
             tuple(sol[i * hd:(i + 1) * hd])) for i in range(d))
        return
    assert not res.verdict and res.dual_basis is None
    assert res.certificate == tuple(dense_vec(field, cert, d * d))
    # y . full = 0 and y . 1 = 1, by substitution
    assert full.transpose().apply(sparse_vec(field, res.certificate)) == {}
    assert sum((res.certificate[k] for k in rhs), field.zero) == field.one


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_projectivity_equals_the_full_system_across_corpus(field):
    verdicts = []
    for name in STANDARD + EXTRAS + TWISTED:
        # built afresh: fixture() shares instances, whose results are
        # memoized
        m = fixtures._build(name, field).bimodule
        for twisted in (m, conjugate(m, 1), conjugate(m, 7)):
            for side in ("left", "right"):
                _assert_projectivity_matches_full_system(twisted, side)
                verdicts.append(bimodule._fg_projective(twisted, side))
    assert any(verdicts) and not all(verdicts)


@settings(max_examples=25)
@given(st.sampled_from(STANDARD + EXTRAS), st.sampled_from(FIELDS),
       st.integers(0, 2 ** 16))
def test_projectivity_equals_the_full_system_on_twists(name, field, seed):
    m = conjugate(fixtures._build(name, field).bimodule, seed)
    for side in ("left", "right"):
        _assert_projectivity_matches_full_system(m, side)


def test_projectivity_forms_no_basis_map_unless_it_certifies(monkeypatch):
    reads = []
    maps = bimodule.EquivariantBasis.maps
    monkeypatch.setattr(bimodule.EquivariantBasis, "maps", property(
        lambda solver: reads.append(solver) or maps.fget(solver)))
    for name in STANDARD + EXTRAS:
        for side in ("left", "right"):
            reads.clear()
            # run afresh, as if not memoized
            res = bimodule._fg_projective.__wrapped__(fixture(name).bimodule,
                                                      side)
            assert bool(reads) == (not res.verdict), (name, side)


def _assert_matrix_of_matches_formed_maps(solver, coords_list):
    # matrix_of gives the same map on a fresh solver and after its maps
    # are formed, which it never reads
    before = [solver.matrix_of(c) for c in coords_list]
    maps = solver.maps
    for coords, got in zip(coords_list, before):
        want = lincomb(QQ, solver.tgt_dim, solver.src_dim, coords, maps)
        assert got == want
        assert solver.matrix_of(coords) == want


def _solver_pairs(m):
    reg = regular_bimodule(m.left_algebra)
    return [(m, m), (reg, reg), (reg, evaluation_data(m).tensor.space)]


def _coords_list(dim, seed):
    units = [{u: QQ.one} for u in range(dim)]
    mixed = {u: QQ.scalar((u * 7 + seed) % 5 - 2) for u in range(dim)}
    return units + [{u: x for u, x in mixed.items() if x}]


def test_matrix_of_equals_lincomb_of_maps_across_corpus():
    for fx in corpus():
        for src, tgt in _solver_pairs(fx.bimodule):
            solver = hom_bimodule(src, tgt)
            _assert_matrix_of_matches_formed_maps(
                solver, _coords_list(solver.dim, 1))


@given(twisted_bimodules, st.integers(0, 4))
def test_matrix_of_equals_lincomb_of_maps_on_twists(m, seed):
    for src, tgt in _solver_pairs(m):
        solver = hom_bimodule(src, tgt)
        _assert_matrix_of_matches_formed_maps(
            solver, _coords_list(solver.dim, seed))


# ---------------------------------------------------------------------------
# The stacked value matrix W against forming one map at a time.  The
# oracle keeps the solver's old loop: for each basis map, a matrix W_F
# whose columns are the target operators applied to the map's generator
# values, times the lift of the presentation.

CORPUS_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def _old_presentation(field, src_dim, src_ops):
    """(g_mat, used, lift_used) of the source presentation."""
    _, g_cols = orbit_generators(field, src_dim, src_ops)
    g_mat = Matrix._from_columns(field, g_cols, src_dim)
    lift = right_inverse(g_mat) if src_dim else Matrix(field, [], cols=0)
    used = [k for k, row in enumerate(lift.nz) if row]
    lift_used = Matrix.from_sparse(field, [lift.nz[k] for k in used],
                                   src_dim)
    return g_mat, used, lift_used


def _old_forming(field, src_dim, tgt_dim, src_ops, tgt_ops):
    """values row -> the map with those generator values, formed alone."""
    n_ops = len(src_ops)
    _, used, lift_used = _old_presentation(field, src_dim, src_ops)

    def form(row):
        blocks = {}
        for c, x in row.items():
            j, s = divmod(c, tgt_dim)
            blocks.setdefault(j, {})[s] = x
        w_cols = []
        for c in used:
            j, k = divmod(c, n_ops)
            w_cols.append(tgt_ops[k].apply(blocks[j]) if j in blocks else {})
        return Matrix._from_columns(field, w_cols, tgt_dim) @ lift_used

    return form


def _assert_solver_matches_old_forming(args):
    field, src_dim = args[0], args[1]
    form = _old_forming(*args)
    solver = equivariant_maps(*args)      # fresh: nothing built yet
    coords = {u: c for u in range(solver.dim)
              if (c := field.scalar(3 * u + 1))}
    combined = {}
    for u, c in coords.items():
        axpy(combined, c, solver.values[u], field.p)
    want_combined = form(combined)
    want = [form(row) for row in solver.values]
    # matrix_of before W exists, after it, and after the maps are formed
    assert solver.matrix_of(coords) == want_combined
    vectors = [{i: field.one} for i in range(src_dim)] + [
        {i: c for i in range(src_dim) if (c := field.scalar(i - 2))}]
    for vec in vectors:
        assert solver.images(vec) == [f.apply(vec) for f in want]
    assert solver.matrix_of(coords) == want_combined
    assert solver.maps == tuple(want)
    assert solver.matrix_of(coords) == want_combined


def _recording_solves(monkeypatch):
    calls = []
    solve = bimodule.equivariant_maps

    def recorded(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(bimodule, "equivariant_maps", recorded)
    return calls


def _corpus_solves(monkeypatch, capsys):
    """The arguments of every solve the corpus documents make."""
    calls = _recording_solves(monkeypatch)
    for doc in sorted(CORPUS_DIR.glob("*.json")):
        cli.main(["check", str(doc), "--format", "json"])
    capsys.readouterr()
    monkeypatch.undo()
    assert len(calls) > 50 and any(not args[0].is_rational for args in calls)
    return calls


def _twist_solves(m):
    """The arguments of the solves of m's dual and its hom spaces."""
    calls = []
    solve = bimodule.equivariant_maps

    def recorded(*args):
        calls.append(args)
        return solve(*args)

    bimodule.equivariant_maps = recorded
    try:
        dual_module(m)
        hom_left(m, m)
        hom_right(m, m)
        hom_bimodule(m, m)
    finally:
        bimodule.equivariant_maps = solve
    return calls


def test_stacked_values_match_forming_each_map_across_corpus(monkeypatch,
                                                              capsys):
    for args in _corpus_solves(monkeypatch, capsys):
        _assert_solver_matches_old_forming(args)


@settings(max_examples=15)
@given(twisted_bimodules)
def test_stacked_values_match_forming_each_map_on_twists(m):
    for args in _twist_solves(m):
        _assert_solver_matches_old_forming(args)


# ---------------------------------------------------------------------------
# The solve, coordinate reads and W against the code they replaced,
# kept here as oracles: every relation among the orbit columns, zero
# columns included, built as one tgt_dim x tgt_dim combination of the
# target operators per relation and generator, read row by row for
# every t; coordinates read by scanning every position; and W's rows
# built by walking every used presentation column for each map.


def _old_relation_rows(field, src_dim, tgt_dim, src_ops, tgt_ops):
    n_ops = len(src_ops)
    g_mat, _, _ = _old_presentation(field, src_dim, src_ops)
    rows = []
    for rel in kernel_basis(g_mat).basis.nz:
        coeffs = {}
        for c, x in rel.items():
            j, k = divmod(c, n_ops)
            coeffs.setdefault(j, {})[k] = x
        blocks = [(j * tgt_dim,
                   lincomb(field, tgt_dim, tgt_dim, cs, tgt_ops).nz)
                  for j, cs in coeffs.items()]
        for t in range(tgt_dim):
            row = {base + s: x for base, blk in blocks
                   for s, x in blk[t].items()}
            if row:
                rows.append(row)
    return rows


def _old_coords_from(solver, column):
    vals = {}
    for r, g in enumerate(solver.generators):
        base = r * solver.tgt_dim
        for s, x in column(g).items():
            vals[base + s] = x
    return {k: vals[p] for k, p in enumerate(solver.positions) if p in vals}


def _old_w_block(field, src_dim, tgt_dim, src_ops, tgt_ops):
    """values row -> the tgt_dim rows of W for the map with those values."""
    n_ops = len(src_ops)
    _, used, _ = _old_presentation(field, src_dim, src_ops)

    def block(row):
        out = [{} for _ in range(tgt_dim)]
        blocks = {}
        for c, x in row.items():
            j, s = divmod(c, tgt_dim)
            blocks.setdefault(j, {})[s] = x
        for idx, c in enumerate(used):
            j, k = divmod(c, n_ops)
            if j in blocks:
                for s, x in tgt_ops[k].apply(blocks[j]).items():
                    out[s][idx] = x
        return out

    return block


def _assert_solver_matches_old_scans(args):
    field, tgt_dim = args[0], args[2]
    solver = equivariant_maps(*args)
    # the solve, not its rows: a zero orbit column pins unknowns instead
    # of adding a relation, and the reduced rows are the same
    old = kernel_basis(Matrix.from_sparse(
        field, _old_relation_rows(*args), len(solver.generators) * tgt_dim))
    assert old.positions == solver.positions
    assert old.basis.nz == solver.values
    combined = {}
    for u in range(solver.dim):
        axpy(combined, field.scalar(u + 2), solver.values[u], field.p)
    block = _old_w_block(*args)
    assert solver._w_block(combined) == block(combined)
    w = solver._w()
    assert w == Matrix.from_sparse(
        field, [r for row in solver.values for r in block(row)], w.cols)

    def off_the_span(g):
        return {s: x for s in range(tgt_dim)
                if (x := field.scalar(g * tgt_dim + s - 3))}

    ones = {u: field.one for u in range(solver.dim)}
    columns = [f.column for f in solver.maps] + [
        solver.matrix_of(ones).column, off_the_span]
    for column in columns:
        assert solver._coords_from(column) \
            == _old_coords_from(solver, column)
    for u, f in enumerate(solver.maps):
        assert solver.coords_of(f) == {u: field.one}


def test_relation_rows_and_readers_match_the_scans_across_corpus(
        monkeypatch, capsys):
    for args in _corpus_solves(monkeypatch, capsys):
        _assert_solver_matches_old_scans(args)


@settings(max_examples=15)
@given(st.sampled_from(STANDARD + EXTRAS), st.integers(0, 2 ** 16))
def test_relation_rows_and_readers_match_the_scans_on_twists(name, seed):
    for field in (QQ, Field(2), Field(3), Field(5)):
        m = conjugate(fixtures._build(name, field).bimodule, seed)
        for args in _twist_solves(m):
            _assert_solver_matches_old_scans(args)
