"""Exact linear algebra: elimination, kernels, affine solving, quotients.

Expected values in the worked examples are frozen from hand computation;
the property tests generate random small matrices over Q and small prime
fields and check the algebraic identities the rest of the package leans on.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from bimodcheck import exactlin
from bimodcheck.errors import (
    FieldMismatchError, ShapeError, SingularError, ValidationError,
)
from bimodcheck.exactlin import (
    Field, Matrix, QQ, SpanTracker, Subspace, apply_slot, check_vec,
    dense_vec, infeasibility_certificate, invert, kernel_and_right_inverse,
    kernel_basis, lincomb, quotient_space, rank, right_inverse, rref,
    solve_affine, solve_or_certify, sparse_vec,
)


def mat(field, rows, cols=None):
    return Matrix(field, [[field.scalar(x) for x in row] for row in rows],
                  cols=cols)


# 2^61 - 1: a modulus whose products do not fit a machine word
FIELDS = [QQ, Field(2), Field(3), Field(5), Field(7), Field(2 ** 61 - 1)]

fields_st = st.sampled_from(FIELDS)
entries_st = st.integers(min_value=-4, max_value=4)


@st.composite
def matrices(draw, max_dim=4):
    field = draw(fields_st)
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    data = draw(st.lists(
        st.lists(entries_st, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return mat(field, data, cols=cols)


@st.composite
def sparse_matrices(draw, field=None, rows=None, cols=None, max_dim=10):
    """Up to max_dim x max_dim, at most half of the entries nonzero;
    field and shape are drawn unless given."""
    field = draw(fields_st) if field is None else field
    if rows is None:
        rows = draw(st.integers(min_value=0, max_value=max_dim))
    if cols is None:
        cols = draw(st.integers(min_value=0, max_value=max_dim))
    data = [[0] * cols for _ in range(rows)]
    if rows and cols:
        count = draw(st.integers(0, rows * cols // 2))
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                          entries_st)
        for i, j, x in draw(st.lists(cells, min_size=count, max_size=count)):
            data[i][j] = x
    return mat(field, data, cols=cols)


# ---------------------------------------------------------------------------
# Field and scalar behaviour


def test_field_identity():
    assert QQ.is_rational
    assert Field() == QQ
    assert Field(3) == Field(3)
    assert Field(3) != Field(5)
    assert Field(3) != QQ


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1)


def test_primality_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(3000) if exactlin._is_prime(n)] \
        == [n for n in range(3000) if trial(n)]


def test_large_moduli_are_decided_quickly():
    start = time.process_time()
    mersenne = 2 ** 61 - 1
    assert Field(mersenne).p == mersenne
    with pytest.raises(ValueError):
        Field(mersenne * (2 ** 31 - 1))
    with pytest.raises(ValueError, match=str(exactlin.PRIME_LIMIT)):
        Field(exactlin.PRIME_LIMIT + 2)
    # strong pseudoprimes to the first 4, 11 and 12 prime bases
    for composite in (3215031751, 3825123056546413051,
                      318665857834031151167461):
        with pytest.raises(ValueError, match="not prime"):
            Field(composite)
    assert time.process_time() - start < 1.0


def test_rational_scalar_parsing():
    half = QQ.scalar("1/2")
    assert half + half == QQ.one
    assert QQ.scalar("-3") == QQ.scalar(-3)
    assert str(QQ.scalar("2/4")) == "1/2"


RATIONAL = type(QQ.scalar("1/2"))     # the backend's rational type


def test_integral_rationals_are_ints():
    for x in (4, " -6/3 ", Fraction(4, 2), exactlin._rational(4)):
        assert type(QQ.scalar(x)) is int, x
    assert QQ.scalar(" -6/3 ") == -2
    assert type(QQ.zero) is int and type(QQ.one) is int
    for x in ("1/2", " -6/4 ", Fraction(-3, 4), exactlin._rational(5, 3)):
        assert type(QQ.scalar(x)) is RATIONAL, x
    assert QQ.scalar(" -6/4 ") == Fraction(-3, 2)


def test_inverses_stay_exact():
    for x, want in ((1, 1), (-1, -1), (Fraction(1, 3), 3),
                    (Fraction(-1, 1), -1), (2, Fraction(1, 2)),
                    (Fraction(-2, 3), Fraction(-3, 2))):
        got = exactlin._inverse(QQ.scalar(x))
        assert got == want
        assert type(got) is (int if want.denominator == 1 else RATIONAL)
    # over F_p the modulus comes with the call
    assert exactlin._inverse(Field(5).scalar(2), 5) == Field(5).scalar(3)


def test_floats_are_rejected_over_q():
    for x in (0.1, 2.0, float("nan")):
        with pytest.raises(TypeError):
            QQ.scalar(x)
        with pytest.raises(TypeError):
            Field(3).scalar(x)


def test_modular_scalar_normalization():
    f3 = Field(3)
    assert f3.scalar(5) == f3.scalar(2)
    assert f3.scalar(-1) == f3.scalar(2)
    assert f3.scalar("-4") == 2
    assert type(f3.scalar(5)) is int and type(f3.one) is int
    two = f3.scalar(2)
    # scalars do not carry p, so the facts are stated through the kernels
    assert mat(f3, [[two]]) @ mat(f3, [[two]]) == Matrix.identity(f3, 1)
    assert exactlin._inverse(f3.one, 3) * two % 3 == two
    assert invert(mat(f3, [[two]])) == mat(f3, [[two]])


def test_modulus_mixing_rejected():
    a, b = mat(Field(3), [[1, 2]]), mat(Field(5), [[1, 2]])
    square3, square5 = mat(Field(3), [[1]]), mat(Field(5), [[1]])
    mixed = {
        "@": lambda: square3 @ b,
        "+": lambda: a + b,
        "-": lambda: a - b,
        "kron": lambda: a.kron(b),
        "lincomb": lambda: lincomb(Field(3), 1, 2, {0: 1, 1: 1}, [a, b]),
        "@ over Q": lambda: mat(QQ, [[1]]) @ square5,
    }
    for name, call in mixed.items():
        with pytest.raises(FieldMismatchError):
            call()
            pytest.fail(f"{name} mixed F_3 and F_5")
    assert square3 @ a == a        # equal fields built apart still meet
    assert mat(Field(3), [[1]]) @ mat(Field(3), [[2]]) == mat(Field(3), [[2]])


# ---------------------------------------------------------------------------
# Elimination: frozen examples


def test_rref_identity_is_fixed():
    m = Matrix.identity(QQ, 3)
    r, pivots = rref(m)
    assert r == m
    assert pivots == (0, 1, 2)


def test_rref_rank_one_square():
    m = mat(QQ, [[1, 1], [1, 1]])
    r, pivots = rref(m)
    assert r == mat(QQ, [[1, 1], [0, 0]])
    assert pivots == (0,)


def test_rref_normalizes_modular_pivot():
    f3 = Field(3)
    r, pivots = rref(mat(f3, [[2]]))
    assert r == mat(f3, [[1]])
    assert pivots == (0,)


def test_kernel_of_rank_one_square():
    ker = kernel_basis(mat(QQ, [[1, 1], [1, 1]]))
    assert ker.dim == 1
    assert ker.coords_of(sparse_vec(QQ, [QQ.scalar(1), QQ.scalar(-1)])) \
        == {0: QQ.scalar(-1)}


def test_kernel_of_identity_is_zero():
    assert kernel_basis(Matrix.identity(QQ, 3)).dim == 0


def test_kernel_of_dual_numbers_multiplication():
    # multiplication table of k[x]/(x^2) flattened as a map k^4 -> k^2
    m = mat(QQ, [[1, 0, 0, 0], [0, 1, 1, 0]])
    assert kernel_basis(m).dim == 2


def test_solve_affine_underdetermined():
    sol = solve_affine(mat(QQ, [[1, 1]]), sparse_vec(QQ, [QQ.one]))
    assert sol is not None
    assert dense_vec(QQ, sol.particular, 2) == [QQ.one, QQ.zero]
    assert sol.homogeneous.dim == 1
    assert sol.homogeneous.coords_of(
        sparse_vec(QQ, [QQ.scalar(1), QQ.scalar(-1)])) == {0: QQ.scalar(-1)}
    with pytest.raises(ValidationError):
        sol.homogeneous.coords_of(sparse_vec(QQ, [QQ.one, QQ.one]))


def test_solve_affine_infeasible_with_certificate():
    m = mat(QQ, [[1], [1]])
    rhs = [QQ.scalar(1), QQ.scalar(2)]
    assert solve_affine(m, sparse_vec(QQ, rhs)) is None
    sparse_cert = infeasibility_certificate(m, sparse_vec(QQ, rhs))
    assert sparse_cert is not None
    cert = dense_vec(QQ, sparse_cert, 2)
    # y m = 0 and y rhs = 1
    assert all(not x for x in dense_vec(
        QQ, m.transpose().apply(sparse_vec(QQ, cert)), 1))
    assert sum((y * r for y, r in zip(cert, rhs)), QQ.zero) == QQ.one
    assert solve_or_certify(m, sparse_vec(QQ, rhs)) == (None, sparse_cert)
    assert solve_or_certify(m, sparse_vec(QQ, [QQ.one, QQ.one])) \
        == (sparse_vec(QQ, [QQ.one]), None)


def test_quotient_by_zero_is_identity():
    q = quotient_space(2, Subspace.from_span(QQ, 2, []))
    assert q.dim == 2
    assert q.projection == Matrix.identity(QQ, 2)
    assert q.positions == (0, 1)


def test_quotient_by_diagonal_line():
    rel = Subspace.from_span(QQ, 2,
                             [sparse_vec(QQ, [QQ.scalar(1), QQ.scalar(-1)])])
    q = quotient_space(2, rel)
    assert q.dim == 1
    # both standard basis vectors land on the same class
    assert q.projection.column(0) == q.projection.column(1)


def test_quotient_by_multiplication_kernel():
    ker = kernel_basis(mat(QQ, [[1, 0, 0, 0], [0, 1, 1, 0]]))
    assert quotient_space(4, ker).dim == 2


def test_invert_and_singular():
    m = mat(QQ, [[1, 1], [0, 1]])
    inv = invert(m)
    assert m @ inv == Matrix.identity(QQ, 2)
    with pytest.raises(SingularError):
        invert(mat(QQ, [[1, 1], [1, 1]]))


def test_right_inverse_of_surjection():
    m = mat(QQ, [[1, 1, 0], [0, 1, 1]])
    r = right_inverse(m)
    assert m @ r == Matrix.identity(QQ, 2)
    with pytest.raises(SingularError):
        right_inverse(mat(QQ, [[1, 1], [1, 1]]))


def test_kron_vec_matches_matrix_kron():
    u = [QQ.scalar(1), QQ.scalar(2)]
    v = [QQ.scalar(3), QQ.scalar(5)]
    got = dense_vec(QQ, exactlin._kron_vec(sparse_vec(QQ, u),
                                           sparse_vec(QQ, v), 2), 4)
    assert got == [QQ.scalar(3), QQ.scalar(5), QQ.scalar(6), QQ.scalar(10)]


def test_dense_lists_and_long_indices_fail_loudly():
    m = mat(QQ, [[1, 1], [1, 1]])
    ker = kernel_basis(m)           # dimension 1
    entry_points = {
        "apply": m.apply,
        "span_add": SpanTracker(2).add,
        "from_span": lambda v: Subspace.from_span(QQ, 2, [v]),
        "coords_of": ker.coords_of,
        "solve_affine": lambda v: solve_affine(m, v),
        "infeasibility_certificate": lambda v: infeasibility_certificate(m, v),
        "solve_or_certify": lambda v: solve_or_certify(m, v),
        "lincomb": lambda v: lincomb(QQ, 2, 2, v, [m, m]),
        "apply_slot": lambda v: apply_slot(v, [1, 2], 1, m),
    }
    for name, call in entry_points.items():
        with pytest.raises(ShapeError):
            call([QQ.one, -QQ.one])
            pytest.fail(f"{name} took a dense list")
        with pytest.raises(ShapeError):
            call({2: QQ.one})
            pytest.fail(f"{name} took an index past its length")


def test_out_of_range_errors_name_the_bad_index():
    for vec, bad in (({-1: 1, 1: 1}, -1), ({0: 1, 3: 1}, 3),
                     ({-2: 1, 5: 1}, -2)):
        with pytest.raises(ShapeError,
                           match=f"index {bad} out of range for length 2"):
            check_vec(vec, 2)
    assert check_vec({0: 1, 1: 1}, 2) == {0: 1, 1: 1}


def test_ragged_rows_rejected():
    with pytest.raises(ShapeError):
        Matrix(QQ, [[QQ.one], [QQ.one, QQ.zero]])


def test_empty_matrix_shapes():
    m = Matrix(QQ, [], cols=3)
    assert m.rows == 0 and m.cols == 3
    assert rank(m) == 0
    assert kernel_basis(m).dim == 3


# ---------------------------------------------------------------------------
# Property tests


@given(matrices())
def test_rank_plus_nullity_is_column_count(m):
    assert rank(m) + kernel_basis(m).dim == m.cols


@given(matrices())
def test_rref_is_idempotent(m):
    r1, p1 = rref(m)
    r2, p2 = rref(r1)
    assert r1 == r2
    assert p1 == p2


@given(matrices())
def test_kernel_vectors_annihilate(m):
    ker = kernel_basis(m)
    for row in ker.basis.data:
        assert all(not x for x in dense_vec(
            m.field, m.apply(sparse_vec(m.field, row)), m.rows))


@given(sparse_matrices(max_dim=6), st.booleans())
def test_one_elimination_gives_the_kernel_and_the_right_inverse(m, pad):
    # [m | I] has full row rank, so padding makes both outcomes common
    if pad:
        m = Matrix.from_sparse(
            m.field, [{**row, m.cols + i: m.field.one}
                      for i, row in enumerate(m.nz)], m.cols + m.rows)
    try:
        want = (kernel_basis(m), right_inverse(m))
    except SingularError:
        with pytest.raises(SingularError):
            kernel_and_right_inverse(m)
        return
    got = kernel_and_right_inverse(m)
    assert got == want
    assert got[0].positions == want[0].positions
    assert got[1].nz == want[1].nz


@st.composite
def systems(draw, max_dim=4):
    """A matrix together with a right-hand side known to be consistent."""
    m = draw(matrices(max_dim))
    x = [m.field.scalar(draw(entries_st)) for _ in range(m.cols)]
    return m, m.apply(sparse_vec(m.field, x))


@given(systems())
def test_solve_affine_is_exact(m_rhs):
    m, rhs = m_rhs
    sol = solve_affine(m, rhs)
    assert sol is not None
    assert m.apply(sol.particular) == rhs
    for row in sol.homogeneous.basis.data:
        assert all(not x for x in dense_vec(
            m.field, m.apply(sparse_vec(m.field, row)), m.rows))
    assert sol.homogeneous.dim == kernel_basis(m).dim


@given(matrices(), st.lists(entries_st, min_size=0, max_size=4))
def test_infeasibility_certificates_are_complete(m, raw_rhs):
    rhs = [m.field.scalar(x) for x in (raw_rhs + [0] * m.rows)[:m.rows]]
    sol = solve_affine(m, sparse_vec(m.field, rhs))
    cert = infeasibility_certificate(m, sparse_vec(m.field, rhs))
    if sol is None:
        assert cert is not None
        cert = dense_vec(m.field, cert, m.rows)
        assert all(not x for x in dense_vec(
            m.field, m.transpose().apply(sparse_vec(m.field, cert)), m.cols))
        ops = _ops(m.field)
        total = ops.zero
        for y, r in zip(cert, rhs):
            total = ops.add(total, ops.mul(y, r))
        assert total == ops.one
    else:
        assert cert is None


def _assert_quotient_at_positions(q, rel):
    """q's positions are the coordinates rel's basis leaves free, the
    projection is the identity there, and it kills rel."""
    field = rel.field
    assert q.dim == rel.ambient_dim - rel.dim
    assert sorted(q.positions + rel.positions) == list(range(rel.ambient_dim))
    for k, p in enumerate(q.positions):
        assert q.projection.column(p) == {k: field.one}
    for row in rel.basis.data:
        assert all(not x for x in dense_vec(
            field, q.projection.apply(sparse_vec(field, row)), q.dim))


@given(matrices())
def test_quotient_of_a_kernel_basis_is_the_identity_at_its_positions(m):
    # a kernel basis is the identity at its free columns but is not in
    # reduced row echelon form: its entries sit left of its positions
    rel = kernel_basis(m)
    _assert_quotient_at_positions(quotient_space(m.cols, rel), rel)


@given(matrices())
def test_subspace_membership_roundtrip(m):
    field = m.field
    space = Subspace.from_span(field, m.cols,
                               [sparse_vec(field, r) for r in m.data])
    assert space.dim == rank(m)
    for row in m.data:
        coords = space.coords_of(sparse_vec(field, row))
        assert dense_vec(field, space._embed(coords), m.cols) == list(row)


@given(fields_st, st.integers(min_value=1, max_value=4), st.data())
def test_invert_roundtrip_on_constructed_invertibles(field, n, data):
    # unitriangular times permutation is always invertible
    upper = [[field.scalar(data.draw(entries_st)) if j > i
              else (field.one if j == i else field.zero)
              for j in range(n)] for i in range(n)]
    perm = data.draw(st.permutations(range(n)))
    p_rows = [[field.one if j == perm[i] else field.zero for j in range(n)]
              for i in range(n)]
    m = Matrix(field, upper) @ Matrix(field, p_rows)
    inv = invert(m)
    assert m @ inv == Matrix.identity(field, n)
    assert inv @ m == Matrix.identity(field, n)


def test_fraction_arithmetic_survives_scaling():
    m = mat(QQ, [[Fraction(1, 3), Fraction(1, 6)], [Fraction(1, 2), 1]])
    r, pivots = rref(m)
    assert pivots == (0, 1)
    assert invert(m) @ m == Matrix.identity(QQ, 2)


# ---------------------------------------------------------------------------
# Sparse kernels against dense references: plain loops over the dense
# view, and the independent eliminations of tests/oracles.py


def assert_stores_no_zero(m):
    assert len(m.nz) == m.rows
    for row in m.nz:
        assert all(row.values())
        assert all(0 <= j < m.cols for j in row)


def _ops(field):
    return oracles.RationalOps if field.is_rational else oracles.PrimeOps(field.p)


def _to_oracle(field, rows):
    if field.is_rational:
        return [[Fraction(str(x)) for x in row] for row in rows]
    return [list(row) for row in rows]


def _from_oracle(field, rows, cols):
    return mat(field, [[str(x) if field.is_rational else x for x in row]
                       for row in rows], cols=cols)


def _dot(field, u, v):
    """sum u_k v_k, by the oracles' ops: Python's operators would not
    reduce modulo p."""
    ops = _ops(field)
    total = ops.zero
    for x, y in zip(u, v):
        total = ops.add(total, ops.mul(x, y))
    return total


def _dense_product(a, b):
    return [[_dot(a.field, a.data[i], [row[j] for row in b.data])
             for j in range(b.cols)] for i in range(a.rows)]


@given(st.data())
def test_sparse_arithmetic_matches_dense_loops(data):
    a = data.draw(sparse_matrices())
    field, r, c = a.field, a.rows, a.cols
    b = data.draw(sparse_matrices(field, rows=r, cols=c))
    inner = data.draw(sparse_matrices(field, rows=c, max_dim=6))
    vec = [field.scalar(data.draw(entries_st)) for _ in range(c)]
    coeffs = [field.scalar(data.draw(entries_st)) for _ in range(2)]
    ops = _ops(field)
    results = {
        "@": (a @ inner, _dense_product(a, inner)),
        "+": (a + b, [[ops.add(x, y) for x, y in zip(u, v)]
                      for u, v in zip(a.data, b.data)]),
        "-": (a - b, [[ops.sub(x, y) for x, y in zip(u, v)]
                      for u, v in zip(a.data, b.data)]),
        "transpose": (a.transpose(), [list(col) for col in zip(*a.data)]
                      if r else [[] for _ in range(c)]),
        "kron": (a.kron(inner), [
            [ops.mul(a.data[i][j], inner.data[k][l]) for j in range(c)
             for l in range(inner.cols)]
            for i in range(r) for k in range(inner.rows)]),
        "lincomb": (lincomb(field, r, c, sparse_vec(field, coeffs), [a, b]), [
            [_dot(field, coeffs, [x, y]) for x, y in zip(u, v)]
            for u, v in zip(a.data, b.data)]),
    }
    for name, (got, want) in results.items():
        assert_stores_no_zero(got)
        assert got.data == want, name
        assert got == Matrix(field, want, cols=got.cols), name
    want_apply = [_dot(field, row, vec) for row in a.data]
    assert dense_vec(field, a.apply(sparse_vec(field, vec)), r) == want_apply
    assert [dense_vec(field, a.column(j), r) for j in range(c)] \
        == results["transpose"][1]
    assert Matrix._from_columns(field, a.columns(), r) == a


@given(sparse_matrices())
def test_sparse_eliminations_match_the_oracles(m):
    _eliminations_match_the_oracles(m)


def _eliminations_match_the_oracles(m) -> list:
    """rref, kernel_basis and quotient_space against the oracles; returns
    the matrices they built."""
    field, ops = m.field, _ops(m.field)
    rows = _to_oracle(field, m.data)
    red, pivots = oracles.echelon(rows, m.cols, ops)
    r, got_pivots = rref(m)
    assert_stores_no_zero(r)
    assert got_pivots == tuple(pivots)
    assert r.data[:len(pivots)] == _from_oracle(field, red, m.cols).data
    assert rank(m) == len(pivots)

    ker = kernel_basis(m)
    assert_stores_no_zero(ker.basis)
    assert ker.basis == _from_oracle(
        field, oracles.kernel_of(rows, m.cols, ops), m.cols)

    rel = Subspace.from_span(field, m.cols,
                             [sparse_vec(field, row) for row in m.data])
    q = quotient_space(m.cols, rel)
    assert_stores_no_zero(q.projection)
    if rel.dim:
        assert q.projection == _from_oracle(
            field, oracles.kernel_of(red, m.cols, ops), m.cols)
    assert q.positions == tuple(c for c in range(m.cols) if c not in pivots)
    _assert_quotient_at_positions(q, rel)
    return [r, ker.basis, q.projection]


@given(sparse_matrices(), st.data())
def test_sparse_solves_match_the_oracles(m, data):
    rhs = [m.field.scalar(data.draw(entries_st)) for _ in range(m.rows)]
    _solves_match_the_oracles(m, rhs)


def _solves_match_the_oracles(m, rhs: list) -> list:
    """solve_affine against the dense rhs and right_inverse against the
    oracles; returns what they built."""
    field, ops, n = m.field, _ops(m.field), m.cols
    out = []
    aug = _to_oracle(field, [row + [b] for row, b in zip(m.data, rhs)])
    red, pivots = oracles.echelon(aug, n + 1, ops)
    sol = solve_affine(m, sparse_vec(field, rhs))
    if n in pivots:
        assert sol is None
    else:
        want = [0] * n
        for row, pc in zip(red, pivots):
            want[pc] = row[n]
        assert dense_vec(field, sol.particular, n) \
            == _from_oracle(field, [want], n).data[0]
        assert_stores_no_zero(sol.homogeneous.basis)
        out += [sol.particular, sol.homogeneous.basis]

    eye = oracles.identity(m.rows, ops)
    aug = [row + e for row, e in zip(_to_oracle(field, m.data), eye)]
    red, pivots = oracles.echelon(aug, n + m.rows, ops)
    if any(pc >= n for pc in pivots):
        with pytest.raises(SingularError):
            right_inverse(m)
        return out
    x = right_inverse(m)
    assert_stores_no_zero(x)
    want = [[ops.zero] * m.rows for _ in range(n)]
    for row, pc in zip(red, pivots):
        want[pc] = row[n:]
    assert x == _from_oracle(field, want, m.rows)
    assert m @ x == Matrix.identity(field, m.rows)
    return out + [x]


# ---------------------------------------------------------------------------
# Sparse vectors against dense loops and the oracles


def assert_vec_stores_no_zero(vec, n):
    assert isinstance(vec, dict)
    assert all(vec.values())
    assert all(0 <= j < n for j in vec)


@st.composite
def sparse_vectors(draw, field, n):
    """A sparse vector of length n with at most half its entries nonzero."""
    dense = [0] * n
    if n:
        cells = st.tuples(st.integers(0, n - 1), entries_st)
        for j, x in draw(st.lists(cells, max_size=(n + 1) // 2)):
            dense[j] = x
    return sparse_vec(field, [field.scalar(x) for x in dense])


@given(st.data())
def test_sparse_vectors_match_dense_loops(data):
    m = data.draw(sparse_matrices())
    field, r, c = m.field, m.rows, m.cols
    vec = data.draw(sparse_vectors(field, c))
    dvec = dense_vec(field, vec, c)

    got = m.apply(vec)
    assert_vec_stores_no_zero(got, r)
    assert dense_vec(field, got, r) == [_dot(field, row, dvec) for row in m.data]
    for j in range(c):
        col = m.column(j)
        assert_vec_stores_no_zero(col, r)
        assert dense_vec(field, col, r) == [row[j] for row in m.data]

    space = Subspace.from_span(field, c, [sparse_vec(field, row)
                                          for row in m.data])
    coords = data.draw(sparse_vectors(field, space.dim))
    member = space._embed(coords)
    assert_vec_stores_no_zero(member, c)
    dcoords = dense_vec(field, coords, space.dim)
    assert dense_vec(field, member, c) == [
        _dot(field, dcoords, [row[j] for row in space.basis.data])
        for j in range(c)]
    assert space.coords_of(member) == coords

    u = data.draw(sparse_vectors(field, r))
    du = dense_vec(field, u, r)
    kv = exactlin._kron_vec(u, vec, c, field.p)
    assert_vec_stores_no_zero(kv, r * c)
    assert [dense_vec(field, kv, r * c)] \
        == oracles.kron([du], [dvec], _ops(field))

    left, right = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    w = data.draw(sparse_vectors(field, left * c * right))
    dw = dense_vec(field, w, left * c * right)
    got, dims = apply_slot(w, [left, c, right], 1, m)
    assert dims == [left, r, right]
    assert_vec_stores_no_zero(got, left * r * right)
    assert dense_vec(field, got, left * r * right) == [
        _dot(field, m.data[i], [dw[(l * c + j) * right + t] for j in range(c)])
        for l in range(left) for i in range(r) for t in range(right)]
    # two merged slots of sizes left and c act like one of size left * c
    big = data.draw(sparse_matrices(field, cols=left * c, max_dim=6))
    got, dims = apply_slot(w, [left, c, right], 0, big, 2)
    assert dims == [big.rows, right]
    assert_vec_stores_no_zero(got, big.rows * right)
    assert dense_vec(field, got, big.rows * right) == [
        _dot(field, big.data[i], dw[t::right])
        for i in range(big.rows) for t in range(right)]


@given(sparse_matrices(), st.data())
def test_sparse_solutions_and_certificates_match_the_oracles(m, data):
    field, ops = m.field, _ops(m.field)
    rhs = data.draw(sparse_vectors(field, m.rows))
    sol, cert = solve_or_certify(m, rhs)
    if sol is not None:
        assert cert is None
        assert_vec_stores_no_zero(sol, m.cols)
        assert m.apply(sol) == rhs
        return
    _certificate_matches_the_oracle(m, rhs, cert)


def _certificate_matches_the_oracle(m, rhs: dict, cert: dict) -> None:
    field, ops = m.field, _ops(m.field)
    assert_vec_stores_no_zero(cert, m.rows)
    # the first left-kernel vector that pairs nonzero with rhs, scaled
    drhs = _to_oracle(field, [dense_vec(field, rhs, m.rows)])[0]
    for y in oracles.kernel_of(_to_oracle(field, m.transpose().data),
                               m.rows, ops):
        pairing = ops.zero
        for a, b in zip(y, drhs):
            pairing = ops.add(pairing, ops.mul(a, b))
        if pairing != ops.zero:
            inv = ops.inv(pairing)
            want = [ops.mul(a, inv) for a in y]
            break
    assert dense_vec(field, cert, m.rows) \
        == _from_oracle(field, [want], m.rows).data[0]


# ---------------------------------------------------------------------------
# Exactness over Q: integral rationals are ints, and 1 / int is a float,
# so every pivot other than +-1 must be inverted exactly


@st.composite
def nonunit_systems(draw, max_dim=5):
    """An int-entry matrix over Q and a right-hand side, each nonzero
    entry 2, 3 or -4, so that no pivot starts out as +-1."""
    entry = st.sampled_from([0, 0, 2, 3, -4])
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    rhs = draw(st.lists(entry, min_size=rows, max_size=rows))
    return mat(QQ, data), [QQ.scalar(x) for x in rhs]


def _scalars(obj):
    """Every scalar stored in matrices and sparse vectors, or lists of
    them."""
    if isinstance(obj, Matrix):
        for row in obj.nz:
            yield from row.values()
    elif isinstance(obj, dict):
        yield from obj.values()
    else:
        for x in obj:
            yield from _scalars(x)


@given(nonunit_systems())
def test_nonunit_pivots_over_q_stay_exact(system):
    m, rhs = system
    out = _eliminations_match_the_oracles(m) + _solves_match_the_oracles(m, rhs)
    cert = infeasibility_certificate(m, sparse_vec(QQ, rhs))
    if cert is not None:
        _certificate_matches_the_oracle(m, sparse_vec(QQ, rhs), cert)
        out.append(cert)
    if m.rows == m.cols and rank(m) == m.rows:
        inv = invert(m)
        assert inv == right_inverse(m)      # which matched the oracle above
        assert inv @ m == Matrix.identity(QQ, m.rows)
        out.append(inv)
    for x in _scalars(out):
        assert type(x) in (int, RATIONAL), x
