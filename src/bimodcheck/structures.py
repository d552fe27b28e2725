"""Finite-dimensional associative algebras presented by structure constants.

An algebra of dimension d over the ground field is stored as the d*d
table of coordinate vectors mult[i][j] = coordinates of basis_i * basis_j,
together with the coordinate vector of the unit, all sparse vectors as
in exactlin.  Algebra maps are plain matrices between coordinate spaces.
"""

from __future__ import annotations

from functools import cached_property, wraps

from .errors import ShapeError, ValidationError
from .exactlin import Field, Frozen, Matrix, axpy, check_vec


class Algebra:
    def __init__(self, field: Field, dim: int, mult: tuple, unit: dict,
                 name: str = "A"):
        if len(mult) != dim or any(len(r) != dim for r in mult):
            raise ShapeError("structure constant table must be dim x dim")
        for row in mult:
            for cell in row:
                check_vec(cell, dim)
        check_vec(unit, dim)
        self.field = field
        self.dim = dim
        self.mult = mult       # mult[i][j]: coordinates of basis_i * basis_j
        self.unit = unit       # coordinates of 1
        self.name = name
        self.cache = {}        # memoized's, for this algebra's lifetime

    def _multiply(self, u: dict, v: dict) -> dict:
        """The product of coordinate vectors the package built."""
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
    owner.cache, so it lives exactly as long as owner.  Algebras,
    bimodules and ring maps define no __eq__, so as args they are told
    apart by identity."""

    @wraps(fn)
    def wrapper(owner, *args):
        key = (fn, *args)
        cache = owner.cache
        if key not in cache:
            cache[key] = fn(owner, *args)
        return cache[key]

    return wrapper


class Verdict:
    """A decision result, truthy exactly when its `verdict` is."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.verdict


class ValidationResult(Frozen):
    def __init__(self, ok: bool, message: str = ""):
        vars(self).update(ok=ok, message=message)

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


class RingMap:
    """A unital algebra homomorphism source -> target, as a matrix."""

    def __init__(self, source: Algebra, target: Algebra, matrix: Matrix,
                 name: str = "f"):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ShapeError("ring map matrix has wrong shape")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.name = name

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


def require_ring_map(f: RingMap) -> None:
    """Raise ValidationError unless f is a unital algebra map."""
    v = validate_ring_map(f)
    if not v:
        raise ValidationError(f"invalid ring map: {v.message}")


@memoized
def multiplication_map(b: Algebra, over: RingMap):
    """The multiplication B tensor_A B -> B induced along a ring map A -> B,
    once per map: separable_extension and smooth_extension share it.

    A acts on both copies of B through the map.  The BimoduleMap's
    source is the constructed tensor square."""
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
