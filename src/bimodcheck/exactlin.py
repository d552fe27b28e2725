"""Exact sparse linear algebra over the rationals and prime fields.

Scalars are plain Python objects, and what they mean depends on the
field, which they do not carry:

- Over Q a scalar is an int when it is integral and a gmpy2.mpq
  (fractions.Fraction when gmpy2 is missing) when it has a denominator;
  ints and rationals mix through the operators, compare and hash alike
  and print alike.
- Over F_p a scalar is an int in [0, p), and a stored entry is never 0.
  Python's operators do not reduce, so every kernel reduces modulo p
  itself: it reads p once per call, from its matrix's field or from
  the p argument of SpanTracker and the free functions (axpy,
  _kron_vec, the elimination helpers; p=None means Q), and picks its
  Q loop or its F_p loop then, never per entry.  Field.scalar and
  sparse_vec reduce what comes in from outside.

Because a scalar does not know its field, fields are checked where
matrices meet: @, +, -, kron and lincomb raise FieldMismatchError on
operands over different fields.

A vector is a sparse {index: entry} dict that stores no zero, and a
matrix stores each row as such a dict, so every kernel visits only the
stored entries.  Dense lists appear only at the boundary: sparse_vec
reads one, dense_vec writes one.

A vector does not carry its length, so its shape is checked where it
enters.  Every public function or method that takes a vector checks it
against the length it expects (check_vec) and raises ShapeError on a
dense list or an index out of range.  Private helpers, such as
Matrix._from_columns, Subspace._embed and _kron_vec here, take only
vectors the package built and trust them; no operation has both a
checked and an unchecked version.

Every elimination routine pivots on the leftmost nonzero column, so all
echelon forms, kernel bases, particular solutions, and quotient
splittings are reproducible bit for bit.

Zero-dimensional matrices and subspaces are legal everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import prod

from .errors import (
    FieldMismatchError, ShapeError, SingularError, ValidationError,
)

try:
    from gmpy2 import mpq as _rational
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    _rational = Fraction

# the rational types Field.scalar accepts over Q, besides ints and strings
_RATIONAL = (Fraction, type(_rational(1)))


# Miller-Rabin with the first 13 primes as bases decides primality
# exactly below PRIME_LIMIT, the least odd composite that is a strong
# pseudoprime to all of them (OEIS A014233).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < PRIME_LIMIT."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The ground field: Field() is Q, Field(p) is F_p for a prime p.

    Over Q, scalar() returns an int for an integral value and a backend
    rational only when a denominator remains, so integral inputs run on
    int arithmetic.  Over F_p it returns an int in [0, p).  zero and
    one are built once and shared; every scalar type is immutable, so
    sharing them is safe."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int | None = None):
        if p is not None:
            if p >= PRIME_LIMIT:
                raise ValueError(f"primes must be below {PRIME_LIMIT}")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = self.scalar(0)
        self.one = self.scalar(1)

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def scalar(self, x):
        """Coerce an int, string, Fraction, or existing scalar; a float
        is a TypeError, since it is not exact.  Over F_p the result is
        the residue in [0, p)."""
        if self.p is not None:
            if isinstance(x, str):
                x = int(x)
            if isinstance(x, int):
                return int(x) % self.p
            raise TypeError(f"cannot coerce {x!r} into F_{self.p}")
        if isinstance(x, int):
            return int(x)
        if isinstance(x, str):
            x = x.strip()
            # an ASCII integer, -?[0-9]+, skips the rational parser.
            # int() alone would also take "1_0" and non-ASCII digits,
            # and "+" is left to the parser, whose reading of it is the
            # backend's
            digits = x[1:] if x[:1] == "-" else x
            if digits.isascii() and digits.isdigit():
                return int(x)
        elif not isinstance(x, _RATIONAL):
            raise TypeError(f"cannot coerce {x!r} into Q exactly")
        q = _rational(x)
        return int(q) if q.denominator == 1 else q

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"F_{self.p}"


QQ = Field()


def sparse_vec(field: Field, vec) -> dict:
    """The sparse vector of a dense one, over F_p reduced into [0, p).
    Most zeros are the shared field.zero, which an identity test skips."""
    zero, p = field.zero, field.p
    if p is not None:
        return {j: r for j, x in enumerate(vec) if x is not zero
                and (r := x % p)}
    return {j: x for j, x in enumerate(vec) if x is not zero and x}


def dense_vec(field: Field, vec: dict, n: int) -> list:
    """The dense length-n list of a sparse vector."""
    out = [field.zero] * n
    for j, x in vec.items():
        out[j] = x
    return out


def check_vec(vec, n: int) -> dict:
    """vec when it is a sparse vector of length n; ShapeError otherwise."""
    if not isinstance(vec, dict):
        raise ShapeError(f"expected a sparse vector {{index: entry}} of "
                         f"length {n}, got {type(vec).__name__}")
    if vec:
        lo, hi = min(vec), max(vec)
        if lo < 0 or hi >= n:
            raise ShapeError(f"vector index {lo if lo < 0 else hi} out of "
                             f"range for length {n}")
    return vec


def axpy(row: dict, c, other: dict, p: int | None = None) -> None:
    """row += c * other in place, on sparse vectors over Q (p None) or
    F_p; entries that cancel are deleted.  Over F_p, c may be any int."""
    if p is None:
        for j, v in other.items():
            y = row.get(j)
            if y is None:
                row[j] = c * v
            else:
                y = y + c * v
                if y:
                    row[j] = y
                else:
                    del row[j]
        return
    c %= p
    if not c:
        return
    for j, v in other.items():
        y = row.get(j)
        if y is None:
            row[j] = c * v % p       # nonzero: p is prime
        else:
            y = (y + c * v) % p
            if y:
                row[j] = y
            else:
                del row[j]


def _same_field(f: Field, g: Field, op: str) -> None:
    """Scalars do not carry their field, so operands are checked here."""
    if f is not g and f != g:
        raise FieldMismatchError(f"{f} {op} {g}")


class Matrix:
    """Exact matrix stored as sparse rows; treat instances as immutable.

    nz[i] is a dict {column: entry} holding the nonzero entries of row i
    and nothing else.  No row ever stores a zero, so two matrices are
    equal exactly when their rows are equal as dicts.  The dense view
    `data` and the column lists `colnz()` are built on first use and kept.
    """

    __slots__ = ("field", "rows", "cols", "nz", "_dense", "_colnz")

    def __init__(self, field: Field, data, cols: int | None = None):
        """From dense rows; cols is read only when there are no rows."""
        data = list(data)
        if data:
            cols = len(data[0])
            if any(len(row) != cols for row in data):
                raise ShapeError("ragged rows")
        elif cols is None:
            cols = 0
        self._adopt(field, [sparse_vec(field, row) for row in data], cols)

    def _adopt(self, field: Field, nz: list, cols: int) -> None:
        self.field, self.nz, self.rows, self.cols = field, nz, len(nz), cols
        self._dense = self._colnz = None

    @classmethod
    def from_sparse(cls, field: Field, nz: list, cols: int) -> "Matrix":
        """Adopt (without copying) sparse rows that store no zeros."""
        m = cls.__new__(cls)
        m._adopt(field, nz, cols)
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one = field.one
        return cls.from_sparse(field, [{i: one} for i in range(n)], n)

    @classmethod
    def _from_columns(cls, field: Field, columns, rows: int) -> "Matrix":
        """From sparse columns of length rows that the package built."""
        cols = list(columns)
        nz = [{} for _ in range(rows)]
        for j, col in enumerate(cols):
            for i, x in col.items():
                nz[i][j] = x
        return cls.from_sparse(field, nz, len(cols))

    @property
    def data(self) -> list:
        """Dense row-major view, built once; read it, never write it."""
        if self._dense is None:
            self._dense = [self.row(i) for i in range(self.rows)]
        return self._dense

    def row(self, i: int) -> list:
        """Row i as a dense list, for rendering."""
        return dense_vec(self.field, self.nz[i], self.cols)

    def colnz(self) -> list:
        """colnz()[j] lists (i, entry) over the nonzero entries of column
        j, by increasing i; built once."""
        if self._colnz is None:
            cols = [[] for _ in range(self.cols)]
            for i, row in enumerate(self.nz):
                for j, x in row.items():
                    cols[j].append((i, x))
            self._colnz = cols
        return self._colnz

    def column(self, j: int) -> dict:
        return dict(self.colnz()[j])

    def columns(self) -> list[dict]:
        return [dict(c) for c in self.colnz()]

    def transpose(self) -> "Matrix":
        return Matrix.from_sparse(self.field, [dict(c) for c in self.colnz()],
                                  self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        _same_field(self.field, other.field, "@")
        onz, p = other.nz, self.field.p
        out = []
        for arow in self.nz:
            acc = {}
            summed = False          # only sums can cancel to zero
            for k, a in arow.items():
                for j, b in onz[k].items():
                    y = acc.get(j)
                    if y is None:
                        acc[j] = a * b
                    else:
                        acc[j] = y + a * b
                        summed = True
            if p is not None:       # reduce each sum once, at the end
                out.append({j: r for j, v in acc.items() if (r := v % p)})
            else:
                out.append({j: v for j, v in acc.items() if v}
                           if summed else acc)
        return Matrix.from_sparse(self.field, out, other.cols)

    def apply(self, vec: dict) -> dict:
        """Matrix times a sparse column vector."""
        check_vec(vec, self.cols)
        return _sum_columns(self.colnz(), vec.items(), self.field.p)

    def _combine(self, other: "Matrix", c, op: str) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"shape mismatch in {op}")
        _same_field(self.field, other.field, op)
        p = self.field.p
        out = []
        for r1, r2 in zip(self.nz, other.nz):
            row = dict(r1)
            axpy(row, c, r2, p)
            out.append(row)
        return Matrix.from_sparse(self.field, out, self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, self.field.one, "+")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -self.field.one, "-")

    def kron(self, other: "Matrix") -> "Matrix":
        _same_field(self.field, other.field, "kron")
        oc = other.cols
        out = [_kron_vec(arow, brow, oc, self.field.p)
               for arow in self.nz for brow in other.nz]
        return Matrix.from_sparse(self.field, out, self.cols * oc)

    def is_zero(self) -> bool:
        return not any(self.nz)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.field == other.field
                and self.nz == other.nz)

    def __hash__(self):
        return hash((self.rows, self.cols))

    def __repr__(self):
        if self.rows * self.cols > 64:
            return f"Matrix({self.rows}x{self.cols} over {self.field})"
        body = "; ".join(" ".join(str(a) for a in self.row(i))
                         for i in range(self.rows))
        return f"Matrix[{body}]"


def _sum_columns(columns: list, pairs, p: int | None) -> dict:
    """The sum of c * columns[j] over the (j, c) pairs, each column a list
    of (i, entry) the package built, as colnz() is; over Q when p is None."""
    out = {}
    summed = False              # only sums can cancel to zero
    for j, c in pairs:
        for i, a in columns[j]:
            y = out.get(i)
            if y is None:
                out[i] = a * c
            else:
                out[i] = y + a * c
                summed = True
    if p is not None:           # reduce each sum once, at the end
        return {i: r for i, v in out.items() if (r := v % p)}
    return {i: v for i, v in out.items() if v} if summed else out


def lincomb(field: Field, rows: int, cols: int, coeffs: dict,
            mats) -> Matrix:
    """The rows x cols matrix sum of c * mats[k] over the entries k: c of
    the sparse vector coeffs, accumulated in place."""
    check_vec(coeffs, len(mats))
    out = [{} for _ in range(rows)]
    p = field.p
    for k, c in coeffs.items():
        _same_field(field, mats[k].field, "lincomb")
        for orow, mrow in zip(out, mats[k].nz):
            axpy(orow, c, mrow, p)
    return Matrix.from_sparse(field, out, cols)


def _inverse(x, p: int | None = None):
    """1 / x for a nonzero scalar, kept exact: over F_p (p given) the
    residue; over Q, 1 / int would be a float, so an int is inverted as a
    rational and an integral inverse comes back as an int."""
    if p is not None:
        return pow(x, -1, p)
    if x == 1 or x == -1:
        return int(x)
    q = _rational(1, x) if isinstance(x, int) else 1 / x
    return int(q) if q.denominator == 1 else q


def _reduce_into(piv: dict, row: dict, p: int | None) -> bool:
    """Reduce the sparse row in place against the pivot rows; when an
    entry survives, store the row normalized at its leftmost nonzero
    column.  True when the row was new."""
    while row:
        c = min(row)
        x = row[c]
        pr = piv.get(c)
        if pr is None:
            inv = _inverse(x, p)
            piv[c] = ({j: v * inv for j, v in row.items()} if p is None
                      else {j: v * inv % p for j, v in row.items()})
            return True
        axpy(row, -x, pr, p)
    return False


def _echelon(rows, p: int | None) -> dict:
    """Reduce copies of sparse rows into {pivot_col: normalized row}.

    Incremental: each incoming row is reduced against the rows already
    kept, touching only stored entries.
    """
    piv: dict[int, dict] = {}
    for row in rows:
        _reduce_into(piv, dict(row), p)
    return piv


def _back_substitute(piv: dict, p: int | None) -> None:
    """Clear entries above pivots, turning an echelon dict into RREF rows.

    Rows are cleared from the last pivot up, so every row subtracted is
    already reduced and adds no entry at another pivot column."""
    for c in sorted(piv, reverse=True):
        row = piv[c]
        for c2 in [c2 for c2 in row if c2 != c and c2 in piv]:
            axpy(row, -row[c2], piv[c2], p)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with leftmost-nonzero pivoting.

    Returns (reduced matrix of the same shape, pivot column indices).
    Zero rows sink to the bottom.
    """
    p = m.field.p
    piv = _echelon(m.nz, p)
    _back_substitute(piv, p)
    pivots = tuple(sorted(piv))
    out = [piv[c] for c in pivots] + [{} for _ in range(m.rows - len(piv))]
    return Matrix.from_sparse(m.field, out, m.cols), pivots


def rank(m: Matrix) -> int:
    return len(_echelon(m.nz, m.field.p))


class SpanTracker:
    """Incremental membership test for a growing span of sparse vectors
    of length ambient, over F_p when p is given and over Q otherwise."""

    def __init__(self, ambient: int, p: int | None = None):
        self.ambient, self.p = ambient, p
        self.piv: dict[int, dict] = {}

    def add(self, vec: dict) -> bool:
        """Add a sparse vector; True when it enlarged the span."""
        return _reduce_into(self.piv, dict(check_vec(vec, self.ambient)),
                            self.p)

    @property
    def dim(self) -> int:
        return len(self.piv)


class Frozen:
    """A value record.  Its __init__ stores each argument under the
    argument's own name; two records of one class are equal, and hash
    alike, when those values are, and a record refuses assignment once
    built.  Caches may still go into its __dict__ (cached_property)."""

    __slots__ = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self._fields]
                == [getattr(other, f) for f in self._fields])

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return "{}({})".format(type(self).__name__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields))


class Subspace(Frozen):
    """A linear subspace of k^ambient_dim given by independent basis rows.

    The basis is normalized so that its restriction to `positions` is the
    identity; coordinates of a member vector are therefore read off by
    restriction, no solving required.
    """

    def __init__(self, ambient_dim: int, basis: Matrix,
                 positions: tuple[int, ...]):
        vars(self).update(ambient_dim=ambient_dim, basis=basis,
                          positions=positions)

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def field(self) -> Field:
        return self.basis.field

    @classmethod
    def from_span(cls, field: Field, ambient_dim: int, vectors) -> "Subspace":
        """The span of sparse vectors of length ambient_dim."""
        piv = _echelon((check_vec(v, ambient_dim) for v in vectors), field.p)
        _back_substitute(piv, field.p)
        pivots = tuple(sorted(piv))
        return cls(ambient_dim, Matrix.from_sparse(
            field, [piv[c] for c in pivots], ambient_dim), pivots)

    @cached_property
    def _index(self) -> dict:
        """{position: coordinate}, so a read visits only vec's entries."""
        return {p: k for k, p in enumerate(self.positions)}

    def coords_of(self, vec: dict) -> dict:
        """Coordinates of vec in the basis; vec must lie in the subspace."""
        check_vec(vec, self.ambient_dim)
        index = self._index
        coords = {index[p]: x for p, x in vec.items() if p in index}
        if self._embed(coords) != vec:
            raise ValidationError("vector is not in the subspace")
        return coords

    def _embed(self, coords: dict) -> dict:
        """The ambient vector with basis coordinates the package built."""
        out: dict = {}
        basis, p = self.basis.nz, self.basis.field.p
        for k, c in coords.items():
            axpy(out, c, basis[k], p)
        return out


def kernel_basis(m: Matrix, pinned=()) -> Subspace:
    """Right kernel {x : m x = 0, x_c = 0 for c in pinned} with the
    standard free-column basis.

    Each basis vector carries 1 at its own free column and 0 at the other
    free columns, so coordinates in this basis are read off by restriction.
    A pinned column's entries are dropped from m's rows before the
    elimination, and it joins the reduced rows as a unit pivot row after:
    the reduced rows of m stacked with those unit rows, never built.
    """
    p = m.field.p
    piv = _echelon(({c: x for c, x in row.items() if c not in pinned}
                    for row in m.nz) if pinned else m.nz, p)
    _back_substitute(piv, p)
    return _free_column_basis(m.field, piv, m.cols, pinned)


def _free_column_basis(field: Field, piv: dict, n: int,
                       pinned=()) -> Subspace:
    """The kernel of reduced pivot rows over their first n columns, with
    a unit pivot row at each pinned column that holds no other entry:
    one vector per free column, 1 there and minus the pivot rows'
    entries at the pivot columns."""
    free = [c for c in range(n) if c not in piv and c not in pinned]
    one, p = field.one, field.p
    rows = [{fc: one} for fc in free]
    at = dict(zip(free, rows))
    for pc, prow in piv.items():
        for j, x in prow.items():
            row = at.get(j)
            if row is not None:
                row[pc] = -x if p is None else p - x
    return Subspace(n, Matrix.from_sparse(field, rows, n), tuple(free))


class AffineSolution(Frozen):
    def __init__(self, particular: dict, homogeneous: Subspace):
        vars(self).update(particular=particular, homogeneous=homogeneous)


def solve_affine(m: Matrix, rhs: dict) -> AffineSolution | None:
    """Solve m x = rhs exactly for a sparse rhs; None when infeasible.

    The particular solution sets all free variables to zero.
    """
    check_vec(rhs, m.rows)
    n, p = m.cols, m.field.p
    piv = _echelon(({**row, n: rhs[i]} if i in rhs else row
                    for i, row in enumerate(m.nz)), p)
    if n in piv:
        return None
    _back_substitute(piv, p)
    particular = {pc: row[n] for pc, row in piv.items() if n in row}
    return AffineSolution(particular, _free_column_basis(m.field, piv, n))


def infeasibility_certificate(m: Matrix, rhs: dict) -> dict | None:
    """A row functional y with y m = 0 and y . rhs = 1, if one exists.

    Such a y certifies that m x = rhs has no solution.
    """
    check_vec(rhs, m.rows)
    left_null = kernel_basis(m.transpose())
    p = m.field.p
    for row in left_null.basis.nz:
        acc = m.field.zero
        for j, a in row.items():
            if j in rhs:
                acc = acc + a * rhs[j]
        if p is not None:
            acc %= p
        if acc:
            inv = _inverse(acc, p)
            return ({j: a * inv for j, a in row.items()} if p is None
                    else {j: a * inv % p for j, a in row.items()})
    return None


def solve_or_certify(m: Matrix, rhs: dict) -> tuple[dict | None, dict | None]:
    """(particular solution, None) when m x = rhs is solvable, else
    (None, y) for a functional y certifying that it is not."""
    sol = solve_affine(m, rhs)
    if sol is not None:
        return sol.particular, None
    cert = infeasibility_certificate(m, rhs)
    if cert is None:
        raise ValidationError("infeasible system without a certificate")
    return None, cert


def _reduce_beside_identity(m: Matrix) -> dict:
    """The reduced pivot rows of [m | I]; SingularError unless every
    pivot lies in m's block, that is unless m has full row rank.  The
    left block of the rows is then RREF(m)."""
    n, p = m.cols, m.field.p
    one = m.field.one
    piv = _echelon(({**row, n + i: one} for i, row in enumerate(m.nz)), p)
    if any(c >= n for c in piv):
        raise SingularError("matrix does not have full row rank")
    _back_substitute(piv, p)
    return piv


def _right_block(m: Matrix, piv: dict) -> Matrix:
    """X with m X = identity, read off the right block of the reduced
    rows of [m | I]."""
    n = m.cols
    out = [{} for _ in range(n)]
    for pc, row in piv.items():
        out[pc] = {j - n: x for j, x in row.items() if j >= n}
    return Matrix.from_sparse(m.field, out, m.rows)


def right_inverse(m: Matrix) -> Matrix:
    """X with m X = identity; requires full row rank."""
    return _right_block(m, _reduce_beside_identity(m))


def kernel_and_right_inverse(m: Matrix) -> tuple[Subspace, Matrix]:
    """(kernel_basis(m), right_inverse(m)) from one elimination of
    [m | I], entry for entry what the two calls give, since its left
    block is RREF(m); requires full row rank."""
    piv = _reduce_beside_identity(m)
    return _free_column_basis(m.field, piv, m.cols), _right_block(m, piv)


def invert(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ShapeError("only square matrices can be inverted")
    return right_inverse(m)


def quotient_space(ambient_dim: int, relations: Subspace) -> Subspace:
    """k^ambient / relations as the complement Subspace whose basis,
    read as a matrix, is the projection onto the quotient coordinates.

    The relations' basis rows are the identity at relations.positions and
    so already serve as reduced pivot rows there; the complement's
    positions are the other coordinates.  The projection's kernel is
    exactly the relation subspace, and it is the identity at positions:
    quotient vector q lifts to the unit vector at positions[q], so a map
    off k^ambient that kills the relations descends by reading its
    columns there.
    """
    if relations.ambient_dim != ambient_dim:
        raise ShapeError("relation subspace has wrong ambient dimension")
    return _free_column_basis(
        relations.field, dict(zip(relations.positions, relations.basis.nz)),
        ambient_dim)


def apply_slot(sv: dict, dims: list[int], k: int, mat: Matrix,
               count: int = 1) -> tuple[dict, list[int]]:
    """Apply mat to the merged adjacent slots dims[k:k+count] of a sparse
    vector indexed by mixed-radix dims.

    The vector is laid out row-major (leftmost slot slowest), matching
    Kronecker products.  Returns the new sparse vector and dims list.
    """
    dims = dims[:k] + [prod(dims[k:k + count])] + dims[k + count:]
    if mat.cols != dims[k]:
        raise ShapeError(f"slot {k} has dim {dims[k]}, matrix expects {mat.cols}")
    check_vec(sv, prod(dims))
    right = prod(dims[k + 1:])
    mid, r = dims[k], mat.rows
    colnz = mat.colnz()
    out: dict = {}
    for idx, x in sv.items():
        rest, t = divmod(idx, right)
        l, j = divmod(rest, mid)
        base = l * r * right + t
        for i, a in colnz[j]:
            pos = base + i * right
            y = out.get(pos)
            out[pos] = a * x if y is None else y + a * x
    dims = dims[:k] + [r] + dims[k + 1:]
    p = mat.field.p
    if p is not None:
        return {pos: y for pos, v in out.items() if (y := v % p)}, dims
    return {pos: v for pos, v in out.items() if v}, dims


def _kron_vec(u: dict, v: dict, len_v: int, p: int | None = None) -> dict:
    """The Kronecker product of sparse vectors the package built, v of
    length len_v, over F_p when p is given and over Q otherwise."""
    if p is not None:           # a product of nonzero residues is nonzero
        return {i * len_v + j: a * b % p
                for i, a in u.items() for j, b in v.items()}
    return {i * len_v + j: a * b for i, a in u.items() for j, b in v.items()}
