"""Finite-dimensional associative algebras presented by structure constants.

An algebra of dimension d over the ground field is stored as the d*d
table of coordinate vectors mult[i][j] = coordinates of basis_i * basis_j,
together with the coordinate vector of the unit, all sparse vectors as
in exactlin.  Algebra maps are plain matrices between coordinate spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, wraps

from .errors import ShapeError
from .exactlin import Field, Matrix, axpy, check_vec


@dataclass(eq=False)
class Algebra:
    field: Field
    dim: int
    mult: tuple            # mult[i][j]: coordinates of basis_i * basis_j
    unit: dict             # coordinates of 1
    name: str = "A"
    cache: dict = dc_field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if len(self.mult) != self.dim or any(len(r) != self.dim for r in self.mult):
            raise ShapeError("structure constant table must be dim x dim")
        for row in self.mult:
            for cell in row:
                check_vec(cell, self.dim)
        check_vec(self.unit, self.dim)

    def multiply(self, u: dict, v: dict) -> dict:
        return self._multiply(check_vec(u, self.dim), check_vec(v, self.dim))

    def _multiply(self, u: dict, v: dict) -> dict:
        """multiply without the checks, for vectors the package built."""
        out, p = {}, self.field.p
        for i, a in u.items():
            for j, b in v.items():
                axpy(out, a * b, self.mult[i][j], p)
        return out

    @cached_property
    def left_mult(self) -> tuple[Matrix, ...]:
        """left_mult[i] is the matrix of x -> basis_i * x."""
        mats = []
        for i in range(self.dim):
            cols = [self.mult[i][j] for j in range(self.dim)]
            mats.append(Matrix._from_columns(self.field, cols, self.dim))
        return tuple(mats)

    @cached_property
    def right_mult(self) -> tuple[Matrix, ...]:
        """right_mult[j] is the matrix of x -> x * basis_j."""
        mats = []
        for j in range(self.dim):
            cols = [self.mult[i][j] for i in range(self.dim)]
            mats.append(Matrix._from_columns(self.field, cols, self.dim))
        return tuple(mats)

    def basis_vector(self, i: int) -> dict:
        return {i: self.field.one}

    def __repr__(self):
        return f"Algebra({self.name}, dim={self.dim}, {self.field})"


def memoized(fn):
    """fn(owner, *args), computed once per owner and args and kept in
    owner.cache, so it lives exactly as long as owner.  Algebras and
    bimodules are eq=False, so as args they are told apart by identity."""

    @wraps(fn)
    def wrapper(owner, *args):
        key = (fn, *args)
        cache = owner.cache
        if key not in cache:
            cache[key] = fn(owner, *args)
        return cache[key]

    return wrapper


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    message: str = ""

    def __bool__(self):
        return self.ok


def validate_algebra(a: Algebra) -> ValidationResult:
    """Check associativity on all basis triples and both unit axioms."""
    for i in range(a.dim):
        for j in range(a.dim):
            left = a.mult[i][j]
            for k in range(a.dim):
                lhs = a._multiply(left, a.basis_vector(k))
                rhs = a._multiply(a.basis_vector(i), a.mult[j][k])
                if lhs != rhs:
                    return ValidationResult(
                        False,
                        f"associativity fails on basis triple ({i}, {j}, {k})")
    for i in range(a.dim):
        e = a.basis_vector(i)
        if a._multiply(a.unit, e) != e:
            return ValidationResult(False, f"unit fails on the left at basis {i}")
        if a._multiply(e, a.unit) != e:
            return ValidationResult(False, f"unit fails on the right at basis {i}")
    return ValidationResult(True)


@dataclass(eq=False)
class RingMap:
    """A unital algebra homomorphism source -> target, as a matrix."""

    source: Algebra
    target: Algebra
    matrix: Matrix
    name: str = "f"

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ShapeError("ring map matrix has wrong shape")

    def apply(self, coords: dict) -> dict:
        return self.matrix.apply(coords)

    def __repr__(self):
        return f"RingMap({self.name}: {self.source.name} -> {self.target.name})"


def identity_map(a: Algebra) -> RingMap:
    return RingMap(a, a, Matrix.identity(a.field, a.dim), name=f"id_{a.name}")


def validate_ring_map(f: RingMap) -> ValidationResult:
    """Check unitality and multiplicativity on all basis pairs."""
    if f.apply(f.source.unit) != f.target.unit:
        return ValidationResult(False, "map does not preserve the unit")
    images = f.matrix.columns()
    for i in range(f.source.dim):
        for j in range(f.source.dim):
            lhs = f.apply(f.source.mult[i][j])
            rhs = f.target._multiply(images[i], images[j])
            if lhs != rhs:
                return ValidationResult(
                    False, f"multiplicativity fails on basis pair ({i}, {j})")
    return ValidationResult(True)


def multiplication_map(b: Algebra, over: RingMap):
    """The multiplication B tensor_A B -> B induced along a ring map A -> B.

    A acts on both copies of B through the map.  Returns a BimoduleMap
    whose source is the constructed tensor square; surjectivity of the
    multiplication is equivalent to B being generated by products.
    """
    from . import bimodule as bm

    if over.target is not b and over.target != b:
        raise ShapeError("ring map must land in the algebra being squared")
    reg = bm.regular_bimodule(b)
    left_copy = bm.restrict_right(reg, over)    # (B, A)
    right_copy = bm.restrict_left(reg, over)    # (A, B)
    square = bm.tensor_over(left_copy, right_copy)
    # multiplication descends: on the plain tensor, (x, y) -> x * y
    mat = bm.descend_plain_map(b.field, [cell for row in b.mult
                                         for cell in row], b.dim, square)
    return bm.BimoduleMap(square.space, reg, mat, name="mult")
