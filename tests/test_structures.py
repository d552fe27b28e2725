"""Structure constants, validation, ring maps, and the multiplication map."""

import pytest

from bimodcheck.errors import ShapeError
from bimodcheck.exactlin import (
    Matrix, QQ, Field, dense_vec, kernel_basis, rank, sparse_vec,
)
from bimodcheck.fixtures import (
    algebra_diagonal, algebra_dual_numbers, algebra_ground, algebra_matrix2,
    algebra_product, algebra_upper_triangular, diagonal_inclusion, fixture,
    ground_map,
)
from bimodcheck.structures import (
    Algebra, RingMap, identity_map, multiplication_map, validate_algebra,
    validate_ring_map,
)

ALGEBRA_BUILDERS = (
    algebra_ground, algebra_product, algebra_dual_numbers,
    algebra_upper_triangular, algebra_matrix2, algebra_diagonal,
)


@pytest.mark.parametrize("build", ALGEBRA_BUILDERS)
@pytest.mark.parametrize("field", [QQ, Field(2), Field(5)])
def test_standard_algebras_validate(build, field):
    a = build(field)
    v = validate_algebra(a)
    assert v.ok, v.message


def test_left_and_right_multiplication_agree_with_table():
    b = algebra_upper_triangular(QQ)
    for i in range(b.dim):
        for j in range(b.dim):
            prod = dense_vec(QQ, b._multiply(b.basis_vector(i),
                                             b.basis_vector(j)), b.dim)
            assert prod == dense_vec(QQ, b.mult[i][j], b.dim)
            assert dense_vec(QQ, b.left_mult[i].column(j), b.dim) == prod
            assert dense_vec(QQ, b.right_mult[j].column(i), b.dim) == prod


def test_corrupted_unit_row_is_caught():
    b = algebra_dual_numbers(QQ)
    # make 1 * x = 0 while x * 1 = x stays
    mult = [[dense_vec(QQ, c, 2) for c in row] for row in b.mult]
    mult[0][1] = [QQ.zero, QQ.zero]
    bad = Algebra(QQ, 2, tuple(tuple(sparse_vec(QQ, c) for c in row)
                               for row in mult),
                  b.unit, name="corrupted")
    v = validate_algebra(bad)
    assert not v.ok
    assert "unit" in v.message or "associativity" in v.message


def test_nonassociative_table_is_caught():
    # x * x = x alone breaks associativity against the unit row:
    # (x x) x = x x = x but x (x x) = x x = x holds, so corrupt deeper:
    # set x * x = 1; then (x x) x = x while 1 * x stays x, but
    # (1 + x)-style triples still pass, so also break x * 1.
    b = algebra_dual_numbers(QQ)
    mult = [[dense_vec(QQ, c, 2) for c in row] for row in b.mult]
    mult[1][1] = [QQ.one, QQ.zero]
    mult[1][0] = [QQ.zero, QQ.zero]
    bad = Algebra(QQ, 2, tuple(tuple(sparse_vec(QQ, c) for c in row)
                               for row in mult),
                  b.unit, name="corrupted")
    v = validate_algebra(bad)
    assert not v.ok


def test_wrong_unit_vector_is_caught():
    b = algebra_dual_numbers(QQ)
    bad = Algebra(QQ, 2, b.mult, sparse_vec(QQ, (QQ.zero, QQ.one)),
                  name="x-as-unit")
    v = validate_algebra(bad)
    assert not v.ok
    assert "unit" in v.message


def test_dense_lists_and_long_indices_fail_loudly():
    b = algebra_dual_numbers(QQ)
    f = ground_map(QQ, b)
    for bad in ([QQ.one, QQ.zero], {2: QQ.one}):
        with pytest.raises(ShapeError):
            Algebra(QQ, 2, b.mult, bad)
        mult = [list(row) for row in b.mult]
        mult[1][1] = bad
        with pytest.raises(ShapeError):
            Algebra(QQ, 2, tuple(map(tuple, mult)), b.unit)
    with pytest.raises(ShapeError):
        f.apply([QQ.one])
    with pytest.raises(ShapeError):
        f.apply({1: QQ.one})


def test_identity_map_validates():
    b = algebra_matrix2(QQ)
    assert validate_ring_map(identity_map(b)).ok


def test_unit_inclusions_validate():
    for build in (algebra_product, algebra_dual_numbers,
                  algebra_upper_triangular, algebra_matrix2):
        b = build(QQ)
        assert validate_ring_map(ground_map(QQ, b)).ok


def test_diagonal_inclusion_validates():
    diag = algebra_diagonal(QQ)
    m2 = algebra_matrix2(QQ)
    assert validate_ring_map(diagonal_inclusion(QQ, diag, m2)).ok


def test_projection_onto_first_factor_is_a_ring_map():
    prod = algebra_product(QQ)
    k = algebra_ground(QQ)
    proj = RingMap(prod, k, Matrix(QQ, [[QQ.one, QQ.zero]]), name="pr1")
    assert validate_ring_map(proj).ok


def test_nonmultiplicative_map_is_caught():
    # averaging the idempotents of k x k preserves the unit but squares wrong
    prod = algebra_product(QQ)
    k = algebra_ground(QQ)
    half = QQ.scalar("1/2")
    bad = RingMap(prod, k, Matrix(QQ, [[half, half]]), name="avg")
    v = validate_ring_map(bad)
    assert not v.ok
    assert "multiplicativity" in v.message


def test_nonunital_map_is_caught():
    k = algebra_ground(QQ)
    b = algebra_dual_numbers(QQ)
    bad = RingMap(k, b, Matrix(QQ, [[QQ.zero], [QQ.one]]), name="to-x")
    v = validate_ring_map(bad)
    assert not v.ok
    assert "unit" in v.message


def test_ring_map_shape_is_enforced():
    k = algebra_ground(QQ)
    b = algebra_dual_numbers(QQ)
    with pytest.raises(ShapeError):
        RingMap(k, b, Matrix.identity(QQ, 2))


def test_composition_of_ring_maps_validates():
    diag = algebra_diagonal(QQ)
    m2 = algebra_matrix2(QQ)
    unit = ground_map(QQ, diag)
    incl = diagonal_inclusion(QQ, diag, m2)
    comp = RingMap(unit.source, incl.target, incl.matrix @ unit.matrix,
                   name="incl after unit")
    assert validate_ring_map(comp).ok
    assert comp.matrix == ground_map(QQ, m2).matrix


def test_multiplication_map_ground_is_identity():
    k = algebra_ground(QQ)
    m = multiplication_map(k, identity_map(k))
    assert m.source.dim == 1
    assert m.matrix == Matrix.identity(QQ, 1)


def test_multiplication_map_dual_numbers_over_ground():
    b = algebra_dual_numbers(QQ)
    m = multiplication_map(b, ground_map(QQ, b))
    assert m.source.dim == 4
    assert rank(m.matrix) == 2
    assert kernel_basis(m.matrix).dim == 2
    v = m.validate()
    assert v.ok, v.message


def test_multiplication_map_matrix2_over_diagonal():
    diag = algebra_diagonal(QQ)
    m2 = algebra_matrix2(QQ)
    incl = diagonal_inclusion(QQ, diag, m2)
    m = multiplication_map(m2, incl)
    assert m.source.dim == 8
    assert rank(m.matrix) == 4
    assert kernel_basis(m.matrix).dim == 4
    v = m.validate()
    assert v.ok, v.message


@pytest.mark.parametrize("name", ["fx2", "fx3", "fx4", "fx6"])
def test_multiplication_map_is_a_surjective_bimodule_map(name):
    fx = fixture(name)
    b = fx.bimodule.left_algebra
    m = multiplication_map(b, fx.base_map)
    assert m.validate().ok
    assert rank(m.matrix) == b.dim


def test_multiplication_map_rejects_foreign_target():
    b = algebra_dual_numbers(QQ)
    k = algebra_ground(QQ)
    with pytest.raises(ShapeError):
        multiplication_map(k, ground_map(QQ, b))
