"""Structure constants, validation, ring maps, the multiplication map,
and the semantics of the package's record classes."""

import pytest

from bimodcheck import bimodule, cli, exactlin, homology
from bimodcheck.errors import ShapeError
from bimodcheck.exactlin import (
    Frozen, Matrix, QQ, Field, Subspace, dense_vec, kernel_basis, rank,
    sparse_vec,
)
from bimodcheck.fixtures import (
    algebra_diagonal, algebra_dual_numbers, algebra_ground, algebra_matrix2,
    algebra_product, algebra_upper_triangular, diagonal_inclusion, fixture,
    ground_map,
)
from bimodcheck.structures import (
    Algebra, RingMap, ValidationResult, identity_map, multiplication_map,
    validate_algebra, validate_ring_map,
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


# ---------------------------------------------------------------------------
# Record classes

_ONE_ROW = Matrix.from_sparse(QQ, [{0: 1}], 2)


def _summary(report):
    return "summary"


# (class, arguments, arguments differing in one field)
VALUE_RECORDS = [
    (Subspace, (2, _ONE_ROW, (0,)), (2, _ONE_ROW, (1,))),
    (exactlin.AffineSolution, ({0: 1}, Subspace(2, _ONE_ROW, (0,))),
     ({0: 2}, Subspace(2, _ONE_ROW, (0,)))),
    (ValidationResult, (False, "unit fails"), (False, "")),
    (bimodule.GeneratorResult, (True, (1, 0), None), (True, (0, 1), None)),
    (bimodule.ProjectivityResult, (True, (((1,), (1,)),), None),
     (False, None, (1,))),
    (bimodule.StaticResult, (True, True, True, 2, 2),
     (False, True, False, 3, 2)),
    (cli._Op, (("bimodule",), "nmax", len, ("verdict",), _summary),
     (("bimodule",), "depth", len, ("verdict",), _summary)),
    (homology.CohomologyDegree, (1, 1, 2, 1, ((0, 1),)),
     (1, 1, 2, 1, ((1, 0),))),
    (homology.ComparisonDegree, (2, 3, 3, True), (2, 3, 3, False)),
]


def test_every_value_record_is_listed():
    assert set(Frozen.__subclasses__()) == {c for c, _, _ in VALUE_RECORDS}


@pytest.mark.parametrize("cls, args, other", VALUE_RECORDS,
                         ids=[c.__name__ for c, _, _ in VALUE_RECORDS])
def test_value_records_compare_by_value_and_refuse_assignment(cls, args,
                                                               other):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    assert a != cls(*other)
    assert a != args
    try:
        hash(args)
    except TypeError:       # a field is unhashable, and so is the record
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    field = cls._fields[0]
    assert [getattr(a, f) for f in cls._fields] == list(args)
    with pytest.raises(AttributeError):
        setattr(a, field, args[0])
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def test_records_keep_their_keyword_defaults():
    k = algebra_ground(QQ)
    one = Matrix.identity(QQ, 1)
    a = Algebra(QQ, 1, k.mult, k.unit)
    assert a.name == "A" and a.cache == {}
    assert Algebra(QQ, 1, k.mult, k.unit).cache is not a.cache
    m = bimodule.Bimodule(k, k, 1, (one,), (one,))
    assert m.name == "M" and m.cache == {}
    n = bimodule.Bimodule(k, k, 1, (one,), (one,), name="N")
    assert n.name == "N" and n.cache is not m.cache
    assert bimodule.BimoduleMap(m, m, one).name == "f"
    assert RingMap(k, k, one).name == "f"
    assert RingMap(k, k, one, name="g").name == "g"
    assert ValidationResult(True).message == ""
    task = cli.Task("hdim", ("M",))
    assert (task.options, task.expect, task.repeated) == ({}, None, ())
    assert cli.Task("hdim", ("M",)).options is not task.options
    assert cli.Task(op="hdim", args=("M",), expect={}).expect == {}
    opts = cli.RunOptions()
    assert (opts.nmax, opts.dim_cap, opts.timings) == (2, None, False)
    assert cli.RunOptions(dim_cap=5).dim_cap == 5
