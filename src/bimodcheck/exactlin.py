"""Exact dense linear algebra over the rationals and prime fields.

Scalars are ordinary Python objects supporting field arithmetic through
operators: rationals are gmpy2.mpq (fractions.Fraction when gmpy2 is
missing), elements of F_p are ModInt instances.  Matrices are dense
row-major lists; every elimination routine pivots on the leftmost
nonzero column, so all echelon forms, kernel bases, particular
solutions, and quotient splittings are reproducible bit for bit.

Zero-dimensional matrices and subspaces are legal everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FieldMismatchError, ShapeError, SingularError, ValidationError,
)

try:
    from gmpy2 import mpq as _rational
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    _rational = Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class ModInt:
    """An element of F_p.  Arithmetic normalizes into [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, ModInt):
            if other.p != self.p:
                raise FieldMismatchError(f"F_{self.p} vs F_{other.p}")
            return other.value
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        v = self._lift(other)
        return NotImplemented if v is NotImplemented else ModInt(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        return NotImplemented if v is NotImplemented else ModInt(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._lift(other)
        return NotImplemented if v is NotImplemented else ModInt(v - self.value, self.p)

    def __mul__(self, other):
        v = self._lift(other)
        return NotImplemented if v is NotImplemented else ModInt(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(self.value * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(v * pow(self.value, -1, self.p), self.p)

    def __neg__(self):
        return ModInt(-self.value, self.p)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"{self.value}"


class Field:
    """The ground field: Field() is Q, Field(p) is F_p for a prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def zero(self):
        return _rational(0) if self.p is None else ModInt(0, self.p)

    @property
    def one(self):
        return _rational(1) if self.p is None else ModInt(1, self.p)

    def scalar(self, x):
        """Coerce an int, string, Fraction, or existing scalar."""
        if self.p is not None:
            if isinstance(x, ModInt):
                if x.p != self.p:
                    raise FieldMismatchError(f"F_{x.p} element in F_{self.p}")
                return x
            if isinstance(x, str):
                x = int(x)
            if isinstance(x, int):
                return ModInt(x, self.p)
            raise TypeError(f"cannot coerce {x!r} into F_{self.p}")
        if isinstance(x, str):
            return _rational(x.strip())
        return _rational(x)

    def to_str(self, x) -> str:
        """Render a scalar exactly; rationals come out in lowest terms."""
        return str(x)

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"F_{self.p}"


QQ = Field()


class Matrix:
    """Dense matrix with exact entries; treat instances as immutable."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data, cols: int | None = None):
        self.field = field
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
            for row in self.data:
                if len(row) != self.cols:
                    raise ShapeError("ragged rows")
        else:
            if cols is None:
                cols = 0
            self.cols = cols

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        data = [[z] * n for _ in range(n)]
        for i in range(n):
            data[i][i] = o
        return cls(field, data, cols=n)

    @classmethod
    def from_columns(cls, field: Field, columns, rows: int) -> "Matrix":
        cols = list(columns)
        data = [[field.zero] * len(cols) for _ in range(rows)]
        for j, col in enumerate(cols):
            if len(col) != rows:
                raise ShapeError("column length mismatch")
            for i, x in enumerate(col):
                data[i][j] = x
        return cls(field, data, cols=len(cols))

    def column(self, j: int) -> list:
        return [row[j] for row in self.data]

    def columns(self) -> list[list]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [self.column(j) for j in range(self.cols)],
                      cols=self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = self.field.zero
        odata = other.data
        out = []
        for arow in self.data:
            acc = [zero] * other.cols
            for k, a in enumerate(arow):
                if a:
                    brow = odata[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] = acc[j] + a * b
            out.append(acc)
        return Matrix(self.field, out, cols=other.cols)

    def apply(self, vec: list) -> list:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ShapeError(f"{self.rows}x{self.cols} applied to length {len(vec)}")
        zero = self.field.zero
        support = [(j, x) for j, x in enumerate(vec) if x]
        out = []
        for row in self.data:
            acc = zero
            for j, x in support:
                a = row[j]
                if a:
                    acc = acc + a * x
            out.append(acc)
        return out

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in +")
        return Matrix(self.field,
                      [[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)],
                      cols=self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in -")
        return Matrix(self.field,
                      [[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)],
                      cols=self.cols)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, [[-a for a in row] for row in self.data],
                      cols=self.cols)

    def kron(self, other: "Matrix") -> "Matrix":
        zero = self.field.zero
        out_rows = self.rows * other.rows
        out_cols = self.cols * other.cols
        out = [[zero] * out_cols for _ in range(out_rows)]
        for i, arow in enumerate(self.data):
            for j, a in enumerate(arow):
                if a:
                    for k, brow in enumerate(other.data):
                        orow = out[i * other.rows + k]
                        base = j * other.cols
                        for l, b in enumerate(brow):
                            if b:
                                orow[base + l] = a * b
        return Matrix(self.field, out, cols=out_cols)

    def is_zero(self) -> bool:
        return all(not a for row in self.data for a in row)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.field == other.field
                and all(a == b for r1, r2 in zip(self.data, other.data)
                        for a, b in zip(r1, r2)))

    def __hash__(self):
        return hash((self.rows, self.cols))

    def __repr__(self):
        if self.rows * self.cols > 64:
            return f"Matrix({self.rows}x{self.cols} over {self.field})"
        body = "; ".join(" ".join(str(a) for a in row) for row in self.data)
        return f"Matrix[{body}]"


def lincomb(field: Field, rows: int, cols: int, coeffs, mats) -> Matrix:
    """The rows x cols matrix sum of c * mat over paired coeffs and mats,
    accumulated in place."""
    out = [[field.zero] * cols for _ in range(rows)]
    for c, mat in zip(coeffs, mats):
        if c:
            for orow, mrow in zip(out, mat.data):
                for j, a in enumerate(mrow):
                    if a:
                        orow[j] = orow[j] + c * a
    return Matrix(field, out, cols=cols)


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows:
        raise ShapeError("hstack row mismatch")
    return Matrix(a.field, [r1 + r2 for r1, r2 in zip(a.data, b.data)],
                  cols=a.cols + b.cols)


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.cols:
        raise ShapeError("vstack col mismatch")
    return Matrix(a.field, a.data + b.data, cols=a.cols)


def _reduce_into(piv: dict, row: list, ncols: int) -> bool:
    """Reduce row in place against the pivot rows; when an entry survives,
    store the row normalized at its leftmost nonzero column.  True when
    the row was new."""
    c = 0
    while c < ncols:
        x = row[c]
        if x:
            pr = piv.get(c)
            if pr is None:
                inv = 1 / x
                piv[c] = [v * inv if v else v for v in row]
                return True
            for j in range(c, ncols):
                v = pr[j]
                if v:
                    row[j] = row[j] - x * v
        c += 1
    return False


def _echelon(rows: list[list], ncols: int) -> dict:
    """Reduce rows into {pivot_col: normalized row}.

    Incremental: each incoming row is reduced against the rows already
    kept, which is fast when the input is sparse.
    """
    piv: dict[int, list] = {}
    for row in rows:
        _reduce_into(piv, list(row), ncols)
    return piv


def _back_substitute(piv: dict) -> None:
    """Clear entries above pivots, turning an echelon dict into RREF rows."""
    cols_sorted = sorted(piv)
    n = len(cols_sorted)
    for idx in range(n - 1, -1, -1):
        c = cols_sorted[idx]
        row = piv[c]
        for c2 in cols_sorted[idx + 1:]:
            x = row[c2]
            if x:
                pr = piv[c2]
                for j in range(c2, len(row)):
                    v = pr[j]
                    if v:
                        row[j] = row[j] - x * v


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with leftmost-nonzero pivoting.

    Returns (reduced matrix of the same shape, pivot column indices).
    Zero rows sink to the bottom.
    """
    piv = _echelon(m.data, m.cols)
    _back_substitute(piv)
    pivots = tuple(sorted(piv))
    out = [piv[c] for c in pivots]
    zero_row = [m.field.zero] * m.cols
    while len(out) < m.rows:
        out.append(list(zero_row))
    return Matrix(m.field, out, cols=m.cols), pivots


def rank(m: Matrix) -> int:
    piv = _echelon(m.data, m.cols)
    return len(piv)


class SpanTracker:
    """Incremental membership test for a growing span."""

    def __init__(self, field: Field, ambient: int):
        self.field = field
        self.ambient = ambient
        self.piv: dict[int, list] = {}

    def add(self, vec: list) -> bool:
        """Add a vector; True when it enlarged the span."""
        return _reduce_into(self.piv, list(vec), self.ambient)

    @property
    def dim(self) -> int:
        return len(self.piv)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of k^ambient_dim given by independent basis rows.

    The basis is normalized so that its restriction to `positions` is the
    identity; coordinates of a member vector are therefore read off by
    restriction, no solving required.
    """

    ambient_dim: int
    basis: Matrix
    positions: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def field(self) -> Field:
        return self.basis.field

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix(field, [], cols=ambient_dim), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(field, ambient_dim),
                   tuple(range(ambient_dim)))

    @classmethod
    def from_span(cls, field: Field, ambient_dim: int, vectors) -> "Subspace":
        rows = [list(v) for v in vectors if any(v)]
        piv = _echelon(rows, ambient_dim)
        _back_substitute(piv)
        pivots = tuple(sorted(piv))
        return cls(ambient_dim, Matrix(field, [piv[c] for c in pivots],
                                       cols=ambient_dim), pivots)

    def coords_of(self, vec: list, verify: bool = True) -> list:
        """Coordinates of vec in the basis; vec must lie in the subspace."""
        if len(vec) != self.ambient_dim:
            raise ShapeError("vector has wrong ambient dimension")
        coords = [vec[p] for p in self.positions]
        if verify and any(r != v for r, v in zip(self.embed(coords), vec)):
            raise ValidationError("vector is not in the subspace")
        return coords

    def contains(self, vec: list) -> bool:
        try:
            self.coords_of(vec, verify=True)
            return True
        except ValidationError:
            return False

    def embed(self, coords: list) -> list:
        """The ambient vector with the given basis coordinates."""
        zero = self.field.zero
        out = [zero] * self.ambient_dim
        for c, row in zip(coords, self.basis.data):
            if c:
                for j, b in enumerate(row):
                    if b:
                        out[j] = out[j] + c * b
        return out


def kernel_basis(m: Matrix) -> Subspace:
    """Right kernel {x : m x = 0} with the standard free-column basis.

    Each basis vector carries 1 at its own free column and 0 at the other
    free columns, so coordinates in this basis are read off by restriction.
    """
    piv = _echelon(m.data, m.cols)
    _back_substitute(piv)
    return _free_column_basis(m.field, piv, m.cols)


def _free_column_basis(field: Field, piv: dict, n: int) -> Subspace:
    """The kernel of reduced pivot rows over their first n columns: one
    vector per free column, 1 there and minus the pivot rows' entries at
    the pivot columns."""
    pivots = sorted(piv)
    free = [c for c in range(n) if c not in piv]
    zero, one = field.zero, field.one
    rows = []
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for pc in pivots:
            x = piv[pc][fc]
            if x:
                v[pc] = -x
        rows.append(v)
    return Subspace(n, Matrix(field, rows, cols=n), tuple(free))


@dataclass(frozen=True)
class AffineSolution:
    particular: list
    homogeneous: Subspace


def solve_affine(m: Matrix, rhs: list) -> AffineSolution | None:
    """Solve m x = rhs exactly; None when infeasible.

    The particular solution sets all free variables to zero.
    """
    if len(rhs) != m.rows:
        raise ShapeError(f"rhs length {len(rhs)} for {m.rows} rows")
    n = m.cols
    aug_rows = [row + [b] for row, b in zip(m.data, rhs)]
    piv = _echelon(aug_rows, n + 1)
    if n in piv:
        return None
    _back_substitute(piv)
    particular = [m.field.zero] * n
    for pc, row in piv.items():
        particular[pc] = row[n]
    return AffineSolution(particular, _free_column_basis(m.field, piv, n))


def infeasibility_certificate(m: Matrix, rhs: list) -> list | None:
    """A row functional y with y m = 0 and y . rhs = 1, if one exists.

    Such a y certifies that m x = rhs has no solution.
    """
    mt = m.transpose()
    left_null = kernel_basis(mt)
    for row in left_null.basis.data:
        acc = m.field.zero
        for a, b in zip(row, rhs):
            if a and b:
                acc = acc + a * b
        if acc:
            inv = 1 / acc
            return [a * inv for a in row]
    return None


def solve_or_certify(m: Matrix, rhs: list) -> tuple[list | None, list | None]:
    """(particular solution, None) when m x = rhs is solvable, else
    (None, y) for a functional y certifying that it is not."""
    sol = solve_affine(m, rhs)
    if sol is not None:
        return sol.particular, None
    cert = infeasibility_certificate(m, rhs)
    if cert is None:
        raise ValidationError("infeasible system without a certificate")
    return None, cert


def right_inverse(m: Matrix) -> Matrix:
    """X with m X = identity; requires full row rank."""
    n = m.cols
    aug_rows = [list(row) + [m.field.zero] * m.rows for row in m.data]
    for i in range(m.rows):
        aug_rows[i][n + i] = m.field.one
    piv = _echelon(aug_rows, n + m.rows)
    if any(c >= n for c in piv):
        raise SingularError("matrix does not have full row rank")
    _back_substitute(piv)
    zero = m.field.zero
    out = [[zero] * m.rows for _ in range(n)]
    for pc in sorted(piv):
        row = piv[pc]
        out[pc] = row[n:]
    return Matrix(m.field, out, cols=m.rows)


def invert(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ShapeError("only square matrices can be inverted")
    inv = right_inverse(m)
    return inv


@dataclass(frozen=True)
class Quotient:
    """k^ambient / relations with a fixed linear splitting.

    projection . section = identity on the quotient, and the kernel of
    the projection is exactly the relation subspace.  The section embeds
    quotient coordinates at the non-pivot coordinates of the relation
    space's reduced row echelon form: column q of the section is the
    unit vector at positions[q].
    """

    ambient_dim: int
    dim: int
    projection: Matrix
    section: Matrix
    positions: tuple[int, ...]


def quotient_space(ambient_dim: int, relations: Subspace) -> Quotient:
    if relations.ambient_dim != ambient_dim:
        raise ShapeError("relation subspace has wrong ambient dimension")
    field = relations.field
    if relations.dim == 0:
        ident = Matrix.identity(field, ambient_dim)
        return Quotient(ambient_dim, ambient_dim, ident, ident,
                        tuple(range(ambient_dim)))
    piv = _echelon(relations.basis.data, ambient_dim)
    _back_substitute(piv)
    complement = _free_column_basis(field, piv, ambient_dim)
    q = complement.dim
    sect = [[field.zero] * q for _ in range(ambient_dim)]
    for i, fc in enumerate(complement.positions):
        sect[fc][i] = field.one
    return Quotient(ambient_dim, q, complement.basis,
                    Matrix(field, sect, cols=q), complement.positions)


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def apply_slot(field: Field, vec: list, dims: list[int], k: int,
               mat: Matrix) -> tuple[list, list[int]]:
    """Apply mat to slot k of a vector indexed by mixed-radix dims.

    The vector is laid out row-major (leftmost slot slowest), matching
    Kronecker products.  Returns the new vector and the new dims list.
    """
    if mat.cols != dims[k]:
        raise ShapeError(f"slot {k} has dim {dims[k]}, matrix expects {mat.cols}")
    right = _prod(dims[k + 1:])
    mid = dims[k]
    r = mat.rows
    zero = field.zero
    out = [zero] * (len(vec) // mid * r) if mid else [zero] * 0
    if mid == 0 or not vec:
        new_dims = dims[:k] + [r] + dims[k + 1:]
        return [zero] * _prod(new_dims), new_dims
    # column-nonzero lists of mat
    colnz = [[] for _ in range(mat.cols)]
    for i, row in enumerate(mat.data):
        for j, a in enumerate(row):
            if a:
                colnz[j].append((i, a))
    stride_in = mid * right
    stride_out = r * right
    for idx, x in enumerate(vec):
        if x:
            t = idx % right
            rest = idx // right
            j = rest % mid
            l = rest // mid
            base = l * stride_out + t
            for i, a in colnz[j]:
                pos = base + i * right
                out[pos] = out[pos] + a * x
    return out, dims[:k] + [r] + dims[k + 1:]


def apply_slots(field: Field, vec: list, dims: list[int], start: int,
                count: int, mat: Matrix) -> tuple[list, list[int]]:
    """Apply mat to the merged adjacent slots dims[start:start+count]."""
    merged = _prod(dims[start:start + count])
    new_dims = dims[:start] + [merged] + dims[start + count:]
    return apply_slot(field, vec, new_dims, start, mat)


def kron_vec(u: list, v: list, field: Field) -> list:
    zero = field.zero
    out = [zero] * (len(u) * len(v))
    n = len(v)
    for i, a in enumerate(u):
        if a:
            base = i * n
            for j, b in enumerate(v):
                if b:
                    out[base + j] = a * b
    return out
