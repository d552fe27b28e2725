"""The worked examples used across the test suite and the CLI corpus.

Six standard shapes (ground field, product field, dual numbers, upper
triangular, column module, matrix algebra over its diagonal) plus edge
cases and seeded basis-twisted copies.  Everything is exact over Q by
default; a prime field can be substituted.
"""

from __future__ import annotations

import random

from .bimodule import Bimodule, regular_bimodule, restrict_right, \
    validate_bimodule
from .errors import ValidationError
from .exactlin import QQ, Field, Matrix, rank
from .structures import Algebra, RingMap, identity_map, validate_algebra


_ALG_CACHE: dict[tuple, Algebra] = {}


def _alg(field: Field, dim: int, pairs: dict, unit_terms: list,
         name: str) -> Algebra:
    # one instance per (shape, field): the engine identifies algebras by
    # object identity, so fixtures must share instances to compose
    key = (name, field.p)
    cached = _ALG_CACHE.get(key)
    if cached is not None:
        return cached
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for (i, j), terms in pairs.items():
        mult[i][j] = {k: field.scalar(c) for k, c in terms}
    unit = {k: field.scalar(c) for k, c in unit_terms}
    a = Algebra(field, dim, tuple(tuple(r) for r in mult), unit, name=name)
    v = validate_algebra(a)
    if not v:
        raise ValidationError(f"{name}: {v.message}")
    _ALG_CACHE[key] = a
    return a


def algebra_ground(field: Field) -> Algebra:
    return _alg(field, 1, {(0, 0): [(0, 1)]}, [(0, 1)], "k")


def algebra_product(field: Field) -> Algebra:
    """k x k with componentwise multiplication."""
    return _alg(field, 2, {(0, 0): [(0, 1)], (1, 1): [(1, 1)]},
                [(0, 1), (1, 1)], "kxk")


def algebra_dual_numbers(field: Field) -> Algebra:
    """k[x]/(x^2), basis 1, x."""
    return _alg(field, 2, {(0, 0): [(0, 1)], (0, 1): [(1, 1)],
                           (1, 0): [(1, 1)], (1, 1): []},
                [(0, 1)], "dual_numbers")


def algebra_upper_triangular(field: Field) -> Algebra:
    """Upper triangular 2x2 matrices, basis e11, e22, e12."""
    return _alg(field, 3, {(0, 0): [(0, 1)], (1, 1): [(1, 1)],
                           (0, 2): [(2, 1)], (2, 1): [(2, 1)]},
                [(0, 1), (1, 1)], "upper_tri")


def algebra_matrix2(field: Field) -> Algebra:
    """Full 2x2 matrices, basis e11, e12, e21, e22."""
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    pairs = {}
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            pairs[(i, j)] = [(idx[(a, d)], 1)] if b == c else []
    return _alg(field, 4, pairs, [(0, 1), (3, 1)], "matrix2")


def algebra_diagonal(field: Field) -> Algebra:
    return _alg(field, 2, {(0, 0): [(0, 1)], (1, 1): [(1, 1)]},
                [(0, 1), (1, 1)], "diagonal")


def ground_map(field: Field, b: Algebra) -> RingMap:
    """The unit embedding of the ground field into an algebra."""
    k = algebra_ground(field)
    mat = Matrix._from_columns(field, [b.unit], b.dim)
    return RingMap(k, b, mat, name=f"k->{b.name}")


def over_ground(field: Field, b: Algebra, name: str | None = None) -> Bimodule:
    """B as a (B, k)-bimodule: the classical one-object setting."""
    reg = regular_bimodule(b)
    k = algebra_ground(field)
    return Bimodule(b, k, b.dim, reg.left_action,
                    (Matrix.identity(field, b.dim),),
                    name=name or f"{b.name} over k")


def column_module(field: Field, m2: Algebra) -> Bimodule:
    """The column space of the 2x2 matrix algebra, a (B, k)-bimodule."""
    zero, one = field.zero, field.one
    left = (
        Matrix(field, [[one, zero], [zero, zero]]),
        Matrix(field, [[zero, one], [zero, zero]]),
        Matrix(field, [[zero, zero], [one, zero]]),
        Matrix(field, [[zero, zero], [zero, one]]),
    )
    k = algebra_ground(field)
    return Bimodule(m2, k, 2, left, (Matrix.identity(field, 2),),
                    name="column")


def diagonal_inclusion(field: Field, diag: Algebra, m2: Algebra) -> RingMap:
    zero, one = field.zero, field.one
    mat = Matrix(field, [[one, zero], [zero, zero],
                         [zero, zero], [zero, one]])
    return RingMap(diag, m2, mat, name="diag->matrix2")


def conjugate(m: Bimodule, seed: int) -> Bimodule:
    """An isomorphic copy of m in a pseudorandom basis (deterministic)."""
    field = m.field
    rng = random.Random(seed)
    n = m.dim
    if n == 0:
        return m
    span = max(3, n)
    while True:
        rows = [[field.scalar(rng.randint(-span, span)) for _ in range(n)]
                for _ in range(n)]
        p = Matrix(field, rows, cols=n)
        if rank(p) == n:
            break
    from .exactlin import invert
    p_inv = invert(p)
    left = tuple(p_inv @ a @ p for a in m.left_action)
    right = tuple(p_inv @ a @ p for a in m.right_action)
    twisted = Bimodule(m.left_algebra, m.right_algebra, n, left, right,
                       name=f"{m.name} twisted#{seed}")
    v = validate_bimodule(twisted)
    if not v:
        raise ValidationError(f"twist broke the axioms: {v.message}")
    return twisted


class Fixture:
    def __init__(self, name: str, description: str, bimodule: Bimodule,
                 base_map: RingMap | None):
        self.name = name
        self.description = description
        self.bimodule = bimodule
        self.base_map = base_map    # A -> B when the module is B itself


def _build(name: str, field: Field) -> Fixture:
    if name == "fx1":
        k = algebra_ground(field)
        return Fixture(name, "the ground field over itself",
                       over_ground(field, k), identity_map(k))
    if name == "fx2":
        b = algebra_product(field)
        return Fixture(name, "the product field over the ground field",
                       over_ground(field, b), ground_map(field, b))
    if name == "fx3":
        b = algebra_dual_numbers(field)
        return Fixture(name, "dual numbers over the ground field",
                       over_ground(field, b), ground_map(field, b))
    if name == "fx4":
        b = algebra_upper_triangular(field)
        return Fixture(name, "upper triangular matrices over the ground field",
                       over_ground(field, b), ground_map(field, b))
    if name == "fx5":
        b = algebra_matrix2(field)
        return Fixture(name, "the column module of the 2x2 matrix algebra",
                       column_module(field, b), None)
    if name == "fx6":
        diag = algebra_diagonal(field)
        b = algebra_matrix2(field)
        incl = diagonal_inclusion(field, diag, b)
        m = restrict_right(regular_bimodule(b), incl)
        m.name = "matrix2 over diagonal"
        return Fixture(name, "the 2x2 matrix algebra over its diagonal",
                       m, incl)
    if name == "simple-over-dual":
        b = algebra_dual_numbers(field)
        k = algebra_ground(field)
        zero, one = field.zero, field.one
        m = Bimodule(b, k, 1,
                     (Matrix(field, [[one]]), Matrix(field, [[zero]])),
                     (Matrix.identity(field, 1),), name="k over dual_numbers")
        return Fixture(name, "the simple module of the dual numbers "
                             "(not a generator)", m, None)
    if name == "zero-over-dual":
        b = algebra_dual_numbers(field)
        k = algebra_ground(field)
        m = Bimodule(b, k, 0,
                     (Matrix(field, [], cols=0), Matrix(field, [], cols=0)),
                     (Matrix(field, [], cols=0),), name="zero")
        return Fixture(name, "the zero module (not a generator)", m, None)
    if name == "dual-self":
        b = algebra_dual_numbers(field)
        return Fixture(name, "dual numbers over themselves "
                             "(identity context)", regular_bimodule(b),
                       identity_map(b))
    if name.endswith("-twisted"):
        base = _build(name[:-len("-twisted")], field)
        seed = sum(ord(c) for c in name)
        return Fixture(name, base.description + ", in a twisted basis",
                       conjugate(base.bimodule, seed), None)
    raise KeyError(f"unknown fixture {name!r}")


_CACHE: dict[str, Fixture] = {}

STANDARD = ("fx1", "fx2", "fx3", "fx4", "fx5", "fx6")
EXTRAS = ("simple-over-dual", "zero-over-dual", "dual-self")
TWISTED = ("fx2-twisted", "fx3-twisted", "fx4-twisted", "fx5-twisted",
           "fx6-twisted")


def fixture(name: str, field: Field | None = None) -> Fixture:
    """Fixture by name; default-field instances are shared so caches of
    resolutions and solvers accumulate across callers."""
    if field is not None and field != QQ:
        return _build(name, field)
    if name not in _CACHE:
        _CACHE[name] = _build(name, QQ)
    return _CACHE[name]


def corpus() -> list:
    """Every fixture, standard plus edge cases plus twisted copies."""
    return [fixture(n) for n in STANDARD + EXTRAS + TWISTED]
