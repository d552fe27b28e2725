"""Bimodules over pairs of finite-dimensional algebras.

A bimodule over (B, A) is a coordinate space with one matrix per basis
element of each algebra: left_action[i] represents b_i acting on the
left, right_action[j] represents a_j acting on the right.  Functions on
the left are written with the argument first, so composition in hom and
endomorphism spaces is "apply f, then g".

Hom spaces are solved through a module presentation: a greedy pass
collects basis vectors generating the source under the available
operators, linear relations among their operator translates cut out the
admissible values on the generators, and every intertwiner is rebuilt
from those values.  This keeps solves proportional to the small side of
the hom space instead of the product of both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import ShapeError, ValidationError
from .exactlin import (
    Field, Matrix, SpanTracker, Subspace, axpy, check_vec, dense_vec,
    kernel_and_right_inverse, kernel_basis, lincomb, quotient_space, rank,
    solve_or_certify,
)
from .structures import Algebra, RingMap, ValidationResult, memoized


@dataclass(eq=False)
class Bimodule:
    left_algebra: Algebra
    right_algebra: Algebra
    dim: int
    left_action: tuple       # one dim x dim Matrix per left-algebra basis element
    right_action: tuple      # one dim x dim Matrix per right-algebra basis element
    name: str = "M"
    cache: dict = dc_field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if len(self.left_action) != self.left_algebra.dim:
            raise ShapeError("need one left action matrix per left basis element")
        if len(self.right_action) != self.right_algebra.dim:
            raise ShapeError("need one right action matrix per right basis element")
        for mat in list(self.left_action) + list(self.right_action):
            if mat.rows != self.dim or mat.cols != self.dim:
                raise ShapeError("action matrices must be dim x dim")

    @property
    def field(self) -> Field:
        return self.left_algebra.field

    def left_act(self, coords: dict) -> Matrix:
        """Matrix of the left action of the algebra element with these coords."""
        return lincomb(self.field, self.dim, self.dim, coords, self.left_action)

    def right_act(self, coords: dict) -> Matrix:
        return lincomb(self.field, self.dim, self.dim, coords, self.right_action)

    def __repr__(self):
        return (f"Bimodule({self.name}: dim {self.dim} over "
                f"({self.left_algebra.name}, {self.right_algebra.name}))")


def validate_bimodule(m: Bimodule) -> ValidationResult:
    """Unitality, representation laws, and commutation of the two actions."""
    b, a = m.left_algebra, m.right_algebra
    ident = Matrix.identity(m.field, m.dim)
    if m.left_act(b.unit) != ident:
        return ValidationResult(False, "left unit does not act as identity")
    if m.right_act(a.unit) != ident:
        return ValidationResult(False, "right unit does not act as identity")
    for i in range(b.dim):
        for j in range(b.dim):
            # (b_i b_j) m = b_i (b_j m)
            if m.left_act(b.mult[i][j]) != m.left_action[i] @ m.left_action[j]:
                return ValidationResult(
                    False, f"left action is not multiplicative at pair ({i}, {j})")
    for i in range(a.dim):
        for j in range(a.dim):
            # m (a_i a_j) = (m a_i) a_j, i.e. apply a_i first
            if m.right_act(a.mult[i][j]) != m.right_action[j] @ m.right_action[i]:
                return ValidationResult(
                    False, f"right action is not multiplicative at pair ({i}, {j})")
    for i in range(b.dim):
        for j in range(a.dim):
            if m.left_action[i] @ m.right_action[j] != m.right_action[j] @ m.left_action[i]:
                return ValidationResult(
                    False, f"left/right actions do not commute at pair ({i}, {j})")
    return ValidationResult(True)


@dataclass(eq=False)
class BimoduleMap:
    source: Bimodule
    target: Bimodule
    matrix: Matrix
    name: str = "f"

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ShapeError(f"map {self.name}: matrix shape does not match modules")

    def validate(self) -> ValidationResult:
        if self.source.left_algebra is not self.target.left_algebra:
            return ValidationResult(False, "left algebras differ")
        if self.source.right_algebra is not self.target.right_algebra:
            return ValidationResult(False, "right algebras differ")
        f = self.matrix
        for i, (ls, lt) in enumerate(zip(self.source.left_action,
                                         self.target.left_action)):
            if f @ ls != lt @ f:
                return ValidationResult(
                    False, f"does not intertwine left action of basis {i}")
        for j, (rs, rt) in enumerate(zip(self.source.right_action,
                                         self.target.right_action)):
            if f @ rs != rt @ f:
                return ValidationResult(
                    False, f"does not intertwine right action of basis {j}")
        return ValidationResult(True)

    def __repr__(self):
        return f"BimoduleMap({self.name}: {self.source.name} -> {self.target.name})"


@memoized
def regular_bimodule(b: Algebra) -> Bimodule:
    """B as a bimodule over (B, B) by multiplication on both sides."""
    return Bimodule(b, b, b.dim, b.left_mult, b.right_mult, name=b.name)


def basis_orbit(m: Bimodule, acts: tuple, i: int) -> Matrix:
    """The matrix whose column k is acts[k] applied to basis vector i of m,
    for acts one of m's action families.  For f a map into the acting
    algebra, basis_orbit(m, acts, i) @ f is the endomorphism
    y -> ((y) f) . e_i."""
    return Matrix._from_columns(m.field, [a.column(i) for a in acts], m.dim)


def restrict_left(m: Bimodule, f: RingMap) -> Bimodule:
    """Pull the left action back along an algebra map into the left algebra."""
    if f.target is not m.left_algebra:
        raise ValidationError("ring map target must be the left algebra")
    acts = tuple(m.left_act(image) for image in f.matrix.columns())
    return Bimodule(f.source, m.right_algebra, m.dim, acts, m.right_action,
                    name=m.name)


def restrict_right(m: Bimodule, f: RingMap) -> Bimodule:
    """Pull the right action back along an algebra map into the right algebra."""
    if f.target is not m.right_algebra:
        raise ValidationError("ring map target must be the right algebra")
    acts = tuple(m.right_act(image) for image in f.matrix.columns())
    return Bimodule(m.left_algebra, f.source, m.dim, m.left_action, acts,
                    name=m.name)


def sub_bimodule(parent: Bimodule, space: Subspace, name: str = "sub"
                 ) -> tuple[Bimodule, Matrix]:
    """The sub-bimodule on an action-invariant subspace, with its inclusion."""
    if space.ambient_dim != parent.dim:
        raise ShapeError("subspace lives in the wrong ambient space")
    k = space.dim
    incl = space.basis.transpose()    # ambient x k

    def induce(mat: Matrix) -> Matrix:
        cols = [space.coords_of(mat.apply(row), verify=True)
                for row in space.basis.nz]
        return Matrix._from_columns(parent.field, cols, k)

    left = tuple(induce(mat) for mat in parent.left_action)
    right = tuple(induce(mat) for mat in parent.right_action)
    sub = Bimodule(parent.left_algebra, parent.right_algebra, k, left, right,
                   name=name)
    return sub, incl


# ---------------------------------------------------------------------------
# Equivariant map solver


class EquivariantBasis:
    """All linear maps F with F src_ops[k] = tgt_ops[k] F, for operator
    families with identical multiplication tables on both sides.

    A map is fixed by its values at `generators`.  The solve gives one
    sparse row per basis map, `values[u]`, holding the value of map u at
    generators[j] in block j (entries j * tgt_dim up to (j + 1) *
    tgt_dim); only these rows are kept when the basis is built.

    Every map is F = W_F @ lift_used.  lift_used takes a source vector
    to its coordinates on the presentation columns that matter (`used`,
    column c = j * n_ops + k being tgt_ops[k] applied to generator j),
    and W_F holds F's values there: entry s of tgt_ops[k] applied to the
    value of F at generators[j].  W stacks those blocks for the whole
    basis, map u at rows u * tgt_dim up to (u + 1) * tgt_dim, and is
    built on first need; the target operators are dropped then.

    - `images(v)` gives f_u(v) for every u at once from W, by two
      applies, and forms no map.
    - `maps` forms the basis matrices on its first read, as the one
      product W @ lift_used cut into tgt_dim-row blocks, and keeps them.
    - `matrix_of` combines W's blocks; before W exists it builds just
      the block of the combined values.
    - `coords_from` reads the columns of a map at the generators only,
      so a caller that needs nothing but coordinates computes just those
      columns, and looks each stored entry up in a position index.
    """

    def __init__(self, field: Field, src_dim: int, tgt_dim: int,
                 generators: tuple, positions: tuple, values: list,
                 tgt_ops: list, n_ops: int, used: list, lift_used: Matrix):
        self.field, self.src_dim, self.tgt_dim = field, src_dim, tgt_dim
        self.generators = generators    # source basis indices generating it
        self.positions = positions      # coordinate positions in a value row
        self.values = values
        # coordinate of each position, and the used presentation columns
        # of each generator j as (idx, k), used[idx] = j * n_ops + k
        self._index = {pos: k for k, pos in enumerate(positions)}
        self._tgt_ops, self._by_gen = tgt_ops, {}
        for idx, c in enumerate(used):
            j, k = divmod(c, n_ops)
            self._by_gen.setdefault(j, []).append((idx, k))
        self._n_used, self._lift_used = len(used), lift_used
        self._stack = None              # W
        self._maps = None

    @property
    def dim(self) -> int:
        return len(self.values)

    def generator_values(self, u: int) -> dict:
        """{j: value of basis map u at generators[j]} where it is nonzero."""
        return _blocks(self.values[u], self.tgt_dim)

    def _w_block(self, row: dict) -> list:
        """The tgt_dim rows of W for the map whose values are row."""
        out = [{} for _ in range(self.tgt_dim)]
        for j, value in _blocks(row, self.tgt_dim).items():
            for idx, k in self._by_gen.get(j, ()):
                for s, x in self._tgt_ops[k].apply(value).items():
                    out[s][idx] = x
        return out

    def _w(self) -> Matrix:
        if self._stack is None:
            self._stack = Matrix.from_sparse(
                self.field, [r for row in self.values
                             for r in self._w_block(row)], self._n_used)
            self._tgt_ops = None
        return self._stack

    def images(self, vec: dict) -> list:
        """[f_u(vec) for every basis map u], each a sparse vector, read
        from W without forming a map."""
        stacked = self._w().apply(self._lift_used.apply(vec))
        out = [{} for _ in range(self.dim)]
        for c, x in stacked.items():
            u, s = divmod(c, self.tgt_dim)
            out[u][s] = x
        return out

    @property
    def maps(self) -> tuple:
        """The basis, each a tgt_dim x src_dim Matrix; formed on first read."""
        if self._maps is None:
            formed = (self._w() @ self._lift_used).nz
            t = self.tgt_dim
            self._maps = tuple(
                Matrix.from_sparse(self.field, formed[u * t:(u + 1) * t],
                                   self.src_dim) for u in range(self.dim))
        return self._maps

    def coords_from(self, column) -> dict:
        """Coordinates of the map whose column g is column(g), a sparse
        vector; column is called at the generators only."""
        return self._coords_from(lambda g: check_vec(column(g), self.tgt_dim))

    def _coords_from(self, column) -> dict:
        """coords_from without the check, for columns the package built."""
        index, t, coords = self._index, self.tgt_dim, {}
        for r, g in enumerate(self.generators):
            base = r * t
            for s, x in column(g).items():
                k = index.get(base + s)
                if k is not None:
                    coords[k] = x
        return coords

    def coords_of(self, mat: Matrix, verify: bool = False) -> dict:
        if (mat.rows, mat.cols) != (self.tgt_dim, self.src_dim):
            raise ShapeError(f"{mat.rows}x{mat.cols} matrix for maps "
                             f"{self.src_dim} -> {self.tgt_dim}")
        coords = self._coords_from(mat.column)
        if verify and self.matrix_of(coords) != mat:
            raise ValidationError("matrix is not in the equivariant span")
        return coords

    def matrix_of(self, coords: dict) -> Matrix:
        check_vec(coords, self.dim)
        field, t = self.field, self.tgt_dim
        if self._stack is None:         # forming is linear in the values
            row: dict = {}
            for u, c in coords.items():
                axpy(row, c, self.values[u], field.p)
            block = self._w_block(row)
        else:
            block = [{} for _ in range(t)]
            stack = self._stack.nz
            for u, c in coords.items():
                for s in range(t):
                    axpy(block[s], c, stack[u * t + s], field.p)
        return Matrix.from_sparse(field, block, self._n_used) \
            @ self._lift_used


def _blocks(row: dict, size: int) -> dict:
    """Split a sparse vector into {j: block j} over consecutive blocks of
    the given size, keeping only the nonzero blocks."""
    blocks: dict[int, dict] = {}
    for c, x in row.items():
        j, s = divmod(c, size)
        blocks.setdefault(j, {})[s] = x
    return blocks


def orbit_generators(field: Field, dim: int, ops) -> tuple[tuple, list]:
    """Basis indices whose orbits under a unital operator family span the
    space, taken greedily in index order, with the orbit columns
    (op.column(i) for each generator i, then each op in order).

    An operator is read only through op.column(i), at the generators
    found, so any object with that method will do."""
    span = SpanTracker(dim, field.p)
    generators: list[int] = []
    g_cols: list[dict] = []
    for i in range(dim):
        if span.dim == dim:
            break
        # membership test without committing
        if not span.add({i: field.one}):
            continue
        # e_i was new; undo is not needed since e_i is in its own orbit
        generators.append(i)
        for op in ops:
            col = op.column(i)
            g_cols.append(col)
            span.add(col)
    if span.dim != dim and dim > 0:
        raise ValidationError("operator family does not span a unital action")
    return tuple(generators), g_cols


def equivariant_maps(field: Field, src_dim: int, tgt_dim: int,
                     src_ops: list, tgt_ops: list[Matrix]
                     ) -> EquivariantBasis:
    """Solve for all F with F src_ops[k] = ... = tgt_ops[k] F via a
    presentation of the source by operator orbits of basis vectors
    (orbit_generators, which reads the source operators)."""
    if len(src_ops) != len(tgt_ops):
        raise ShapeError(f"{len(src_ops)} source operators for "
                         f"{len(tgt_ops)} target operators")
    n_ops = len(src_ops)
    generators, g_cols = orbit_generators(field, src_dim, src_ops)
    r = len(generators)
    # the orbit columns span the source, so g has full row rank
    relations, lift = kernel_and_right_inverse(
        Matrix._from_columns(field, g_cols, src_dim))
    # lift is zero outside its pivot rows, so each map W_F @ lift needs
    # only the columns of W_F at those rows
    used = [k for k, row in enumerate(lift.nz) if row]
    lift_used = Matrix.from_sparse(field, [lift.nz[k] for k in used], src_dim)
    # unknowns: values v_j in target for each generator, stacked; a
    # relation says sum_{j,k} rel[j*n_ops+k] * tgt_ops[k] v_j = 0, and
    # only its stored entries (j, k) and the nonzero rows t of those
    # operators contribute: row t of the relation is the sum of
    # coeff * row t of tgt_ops[k], shifted to block j
    p, rels = field.p, relations.basis.nz
    op_rows = {k: [(t, row) for t, row in enumerate(tgt_ops[k].nz) if row]
               for k in {c % n_ops for rel in rels for c in rel}}
    rows = []
    for rel in rels:
        by_t: dict[int, dict] = {}
        for j, coeffs in _blocks(rel, n_ops).items():
            block: dict[int, dict] = {}
            for k, c in coeffs.items():
                for t, row in op_rows[k]:
                    axpy(block.setdefault(t, {}), c, row, p)
            base = j * tgt_dim
            for t, vec in block.items():
                if vec:
                    out = by_t.setdefault(t, {})
                    for s, x in vec.items():
                        out[base + s] = x
        rows.extend(by_t[t] for t in sorted(by_t))
    solutions = kernel_basis(Matrix.from_sparse(field, rows, r * tgt_dim))
    return EquivariantBasis(field, src_dim, tgt_dim, generators,
                            solutions.positions, solutions.basis.nz,
                            tgt_ops, n_ops, used, lift_used)


# ---------------------------------------------------------------------------
# Hom spaces


class _Columns:
    """An operator formed one column at a time by column(i), for readers
    that need only a few of its columns."""

    __slots__ = ("column",)

    def __init__(self, column):
        self.column = column


class HomSpace:
    """Left-linear maps source -> target as a bimodule over
    (right algebra of source, right algebra of target).

    a . f sends m to (m a) f, and f . t sends m to ((m) f) t.  The
    embedding realizing abstract coordinates as concrete matrices is
    matrix_of / coords_of.

    `space`, with both action families, is formed on its first read.
    The solver needs no space, and an action of the form f -> op @ f
    reads only generator values, so a hom space read through them forms
    no basis map.
    """

    def __init__(self, source: Bimodule, target: Bimodule,
                 solver: EquivariantBasis, left: tuple, right: tuple,
                 name: str):
        # left and right are (algebra, operators, before): each operator
        # acts on the maps by F -> F @ op when before is set, by
        # F -> op @ F otherwise
        self.source, self.target, self.solver = source, target, solver
        self._sides, self._name = (left, right), name
        self._space = None

    @property
    def space(self) -> Bimodule:
        if self._space is None:
            left, right = [
                tuple(composition_matrix(self.solver, op, before, self.solver)
                      for op in ops) for _, ops, before in self._sides]
            self._space = Bimodule(self._sides[0][0], self._sides[1][0],
                                   self.dim, left, right, name=self._name)
        return self._space

    @property
    def basis(self) -> tuple:
        return self.solver.maps

    @property
    def dim(self) -> int:
        return self.solver.dim

    def matrix_of(self, coords: dict) -> Matrix:
        return self.solver.matrix_of(coords)

    def coords_of(self, mat: Matrix, verify: bool = False) -> dict:
        return self.solver.coords_of(mat, verify=verify)


def composite_columns(solver: EquivariantBasis, op: Matrix, before: bool,
                      into: EquivariantBasis):
    """u -> the coordinates in the solver `into` of f_u @ op (before) or
    op @ f_u, for f_u the u-th basis map of solver.

    Only the columns of the composite at into.generators are computed,
    and no map is formed.  Column g of f_u @ op is f_u applied to column
    g of op, which solver.images gives for every u at once.  Column g of
    op @ f_u is op applied to column g of f_u, a generator value of f_u:
    op @ f requires into's generators among solver's, as they are for
    hom spaces out of one source under one operator family."""
    if before:
        images = {g: solver.images(op.column(g)) for g in into.generators}
        return lambda u: into._coords_from(lambda g: images[g][u])
    where = {g: j for j, g in enumerate(solver.generators)}
    if not all(g in where for g in into.generators):
        raise ValidationError(
            "op @ f needs the target solver's generators among the "
            "source solver's (one source, one operator family)")

    def column(u: int) -> dict:
        vals = solver.generator_values(u)
        return into._coords_from(
            lambda g: op.apply(vals[where[g]]) if where[g] in vals else {})
    return column


def composition_matrix(solver: EquivariantBasis, op: Matrix, before: bool,
                       into: EquivariantBasis) -> Matrix:
    """f -> f @ op (before) or op @ f on the basis maps of solver, one
    column of coordinates in the solver `into` per map; see
    composite_columns for what is computed."""
    column = composite_columns(solver, op, before, into)
    return Matrix._from_columns(into.field,
                                [column(u) for u in range(solver.dim)],
                                into.dim)


def _hom_space(m: Bimodule, n: Bimodule, src_ops, tgt_ops, left: tuple,
               right: tuple, name: str) -> HomSpace:
    """All maps F: m -> n with F src_ops[k] = tgt_ops[k] F, as a bimodule
    (see HomSpace for left and right)."""
    solver = equivariant_maps(m.field, m.dim, n.dim, list(src_ops),
                              list(tgt_ops))
    return HomSpace(m, n, solver, left, right, name)


def hom_left(m: Bimodule, n: Bimodule, name: str = "Hom") -> HomSpace:
    """All maps intertwining the left actions, with its (A, T) structure."""
    b = m.left_algebra
    if b is not n.left_algebra:
        raise ValidationError("hom_left requires a common left algebra")
    left = (m.right_algebra, m.right_action, True)
    right = (n.right_algebra, n.right_action, False)
    if n is regular_bimodule(b):
        return HomSpace(m, n, _maps_into_regular(b, m.left_action, m.dim),
                        left, right, name)
    return _hom_space(m, n, m.left_action, n.left_action, left, right, name)


@memoized
def _maps_into_regular(b: Algebra, left_action: tuple,
                       dim: int) -> EquivariantBasis:
    """The left-linear maps into B off a module with these left actions.
    Solved once per action family and kept with B: *M, the trace of M in
    B, evaluation over End(M), and M as a (B, End(M))-bimodule all share
    M's left actions, so they share this solve."""
    return equivariant_maps(b.field, dim, b.dim, list(left_action),
                            list(b.left_mult))


def hom_right(m: Bimodule, n: Bimodule, name: str = "Hom_r") -> HomSpace:
    """All maps intertwining the right actions, as a (B of n, B of m) space.

    (b . f)(m) = b ((m) f) and (f . c)(m) = (c m) f.
    """
    if m.right_algebra is not n.right_algebra:
        raise ValidationError("hom_right requires a common right algebra")
    return _hom_space(m, n, m.right_action, n.right_action,
                      (n.left_algebra, n.left_action, False),
                      (m.left_algebra, m.left_action, True), name)


def dual_module(m: Bimodule) -> HomSpace:
    """Left-linear maps into the regular bimodule; an (A, B) bimodule.
    It is cover_hom(m, B), so the evaluation, the bar complex and the
    dual basis test all read one solve."""
    return cover_hom(m, regular_bimodule(m.left_algebra))


def hom_bimodule(src: Bimodule, tgt: Bimodule) -> EquivariantBasis:
    """All maps intertwining both actions, for a shared algebra pair.

    The operator family handed to the solver is the full set of products
    (left basis action) . (right basis action); unlike the one-sided
    families, neither side alone is closed under composition.  The solver
    reads the source products only at its generator columns, so those are
    all that is formed of them.
    """
    if src.left_algebra is not tgt.left_algebra:
        raise ValidationError("hom_bimodule requires a common left algebra")
    if src.right_algebra is not tgt.right_algebra:
        raise ValidationError("hom_bimodule requires a common right algebra")
    tgt_ops = [l @ r for l in tgt.left_action for r in tgt.right_action]
    return equivariant_maps(src.field, src.dim, tgt.dim,
                            _two_sided_operators(src), tgt_ops)


def _two_sided_operators(m: Bimodule) -> list:
    # (left basis action) . (right basis action), formed column by column
    return [_Columns(lambda i, l=l, r=r: l.apply(r.column(i)))
            for l in m.left_action for r in m.right_action]


def two_sided_generators(m: Bimodule) -> tuple:
    """Basis indices generating m as a bimodule: the generators at which
    hom_bimodule(m, -) reads its maps, so a two-sided map off m is fixed
    by its values there."""
    return orbit_generators(m.field, m.dim, _two_sided_operators(m))[0]


def centralizer(m: Bimodule) -> Subspace:
    """Elements on which the left and right actions of a shared algebra
    agree: {x : b x = x b for all b}."""
    if m.left_algebra is not m.right_algebra:
        raise ValidationError("centralizer needs equal left and right algebras")
    field = m.field
    rows = [row for l, r in zip(m.left_action, m.right_action)
            for row in (l - r).nz if row]
    return kernel_basis(Matrix.from_sparse(field, rows, m.dim))


# ---------------------------------------------------------------------------
# Tensor products over the middle algebra


@dataclass(eq=False)
class TensorProduct:
    """A quotient of the plain tensor by its relations.  Basis vector q
    is the class of the plain unit vector at positions[q]; a map leaves
    the quotient only by descend_plain_map."""

    space: Bimodule
    projection: Matrix        # from the plain tensor square
    relations: Subspace
    left_factor: Bimodule
    right_factor: Bimodule
    positions: tuple          # plain index of each quotient basis vector

    @property
    def trivial(self) -> bool:
        return self.relations.dim == 0

    def lift_column(self, q: int) -> dict:
        """Plain-tensor representative of the q-th quotient basis vector."""
        return {self.positions[q]: self.space.field.one}

    def project_vec(self, plain_vec: dict) -> dict:
        """The class of a plain-tensor vector in the quotient."""
        return self._project_vec(check_vec(plain_vec, self.projection.cols))

    def _project_vec(self, plain_vec: dict) -> dict:
        """project_vec without the check, for vectors the package built."""
        return plain_vec if self.trivial else self.projection.apply(plain_vec)


def tensor_over(m: Bimodule, n: Bimodule, name: str | None = None
                ) -> TensorProduct:
    """m tensor n over the shared middle algebra.

    The plain tensor index (i, j) flattens to i * dim(n) + j.  Relations
    (x a) tensor y - x tensor (a y) are spanned over all basis triples;
    their reduced basis fixes the quotient's positions, the plain
    indices left free.
    """
    a = m.right_algebra
    if a is not n.left_algebra:
        raise ValidationError("tensor_over requires matching middle algebras")
    field = m.field
    dm, dn = m.dim, n.dim
    plain = dm * dn
    ident_m = Matrix.identity(field, dm)
    ident_n = Matrix.identity(field, dn)
    minus_one = -field.one
    rel_rows = []
    for t in range(a.dim):
        ra = m.right_action[t]
        la = n.left_action[t]
        if ra == ident_m and la == ident_n:
            continue
        ra_cols, la_cols = ra.colnz(), la.colnz()
        for i in range(dm):
            for j in range(dn):
                row = {k * dn + j: x for k, x in ra_cols[i]}
                axpy(row, minus_one, {i * dn + l: x for l, x in la_cols[j]},
                     field.p)
                if row:
                    rel_rows.append(row)
    relations = Subspace.from_span(field, plain, rel_rows)
    quot = quotient_space(plain, relations)
    proj = quot.projection

    def induced(slot: int, mat: Matrix) -> Matrix:
        if relations.dim == 0:
            return mat.kron(ident_n) if slot == 0 else ident_m.kron(mat)
        # proj @ kron read at quot.positions, where basis vector q lifts;
        # column (i, j) of the kron is mat[:, i] (x) e_j (slot 0) or
        # e_i (x) mat[:, j] (slot 1)
        mat_cols = mat.colnz()
        cols = []
        for p in quot.positions:
            i, j = divmod(p, dn)
            if slot == 0:
                v = {k * dn + j: x for k, x in mat_cols[i]}
            else:
                v = {i * dn + l: x for l, x in mat_cols[j]}
            cols.append(proj.apply(v))
        return Matrix._from_columns(field, cols, quot.dim)

    left = tuple(induced(0, mat) for mat in m.left_action)
    right = tuple(induced(1, mat) for mat in n.right_action)
    space = Bimodule(m.left_algebra, n.right_algebra, quot.dim, left, right,
                     name=name or f"{m.name}(x){n.name}")
    return TensorProduct(space, proj, relations, m, n, quot.positions)


# ---------------------------------------------------------------------------
# Evaluation, endomorphisms, and the module-theoretic predicates


def descend_plain_map(field: Field, plain_cols: list[dict], out_dim: int,
                       tensor: TensorProduct) -> Matrix:
    """Turn a map off the plain tensor into one off the quotient, checking
    that it kills the tensor relations: the one way a map leaves a
    tensor quotient."""
    plain = Matrix._from_columns(field, plain_cols, out_dim)
    if tensor.trivial:
        return plain
    relations = tensor.relations
    for row in relations.basis.nz:
        if plain.apply(row):
            raise ValidationError("map does not descend through tensor relations")
    # basis vector q lifts to the plain unit vector at positions[q]
    return Matrix._from_columns(
        field, [plain_cols[p] for p in tensor.positions], out_dim)


@memoized
def cover_hom(m: Bimodule, y: Bimodule) -> HomSpace:
    """Hom(M, Y), solved once per Y: F(Y) is built from it, and its dim
    sizes F(Y) before the tensor is formed."""
    return hom_left(m, y, name=f"Hom({m.name}, {y.name})")


@dataclass(eq=False)
class Cover:
    """F(Y) = M tensor_A Hom(M, Y) with its counit m tensor f -> (m) f."""
    hom: HomSpace
    tensor: TensorProduct
    map: BimoduleMap


@memoized
def comonad_apply(m: Bimodule, y: Bimodule) -> Cover:
    """F(Y) and its counit, formed once per (M, Y) and only here: the
    evaluation (Y = B), evaluation over End(M), relative projectivity
    and both resolutions of B read it."""
    hom = cover_hom(m, y)
    tensor = tensor_over(m, hom.space, name=f"F({y.name})")
    one = y.field.one
    # plain column i * hom.dim + u is f_u(e_i)
    plain_cols = [v for i in range(m.dim) for v in hom.solver.images({i: one})]
    mat = descend_plain_map(y.field, plain_cols, y.dim, tensor)
    return Cover(hom, tensor, BimoduleMap(tensor.space, y, mat, name="counit"))


def evaluation_data(m: Bimodule) -> Cover:
    """ev: M tensor_A *M -> B, m tensor f -> (m) f: the cover F(B)."""
    return comonad_apply(m, regular_bimodule(m.left_algebra))


@dataclass(eq=False)
class EndoData:
    algebra: Algebra          # S = left-linear endomorphisms, f*g = f then g
    to_endo: RingMap          # A -> S, a -> right action by a
    hom: HomSpace             # the underlying hom space of M -> M
    right_module: Bimodule    # M as a (B, S) bimodule


@memoized
def endomorphism_ring(m: Bimodule) -> EndoData:
    hom = hom_left(m, m, name=f"End({m.name})")
    field = m.field
    d = hom.dim
    mult = []
    for hu in hom.basis:
        # u * v = apply u, then v: column v of f -> f @ hu
        comp = composition_matrix(hom.solver, hu, True, hom.solver)
        mult.append(tuple(comp.columns()))
    unit = hom.coords_of(Matrix.identity(field, m.dim))
    s = Algebra(field, d, tuple(mult), unit, name=f"End({m.name})")
    a = m.right_algebra
    cols = [hom.coords_of(m.right_action[j]) for j in range(a.dim)]
    to_endo = RingMap(a, s, Matrix._from_columns(field, cols, d),
                      name="to_endo")
    right_module = Bimodule(m.left_algebra, s, m.dim, m.left_action,
                            tuple(hom.basis), name=m.name)
    return EndoData(s, to_endo, hom, right_module)


@dataclass(frozen=True)
class GeneratorResult:
    verdict: bool
    preimage_of_unit: tuple | None      # coordinates in M tensor_A *M
    cokernel_functional: tuple | None   # functional on B vanishing on the image


@memoized
def is_generator(m: Bimodule) -> GeneratorResult:
    """M generates B-Mod iff ev: M tensor_A *M -> B is surjective.

    The image of ev is a two-sided ideal, so surjectivity is equivalent
    to hitting the unit; the witness is a preimage of 1, the obstruction
    a functional killing the image but not 1.
    """
    ev = evaluation_data(m).map.matrix
    sol, cert = solve_or_certify(ev, m.left_algebra.unit)
    if sol is None:
        return GeneratorResult(False, None,
                               tuple(dense_vec(m.field, cert, ev.rows)))
    return GeneratorResult(True, tuple(dense_vec(m.field, sol, ev.cols)), None)


@dataclass(frozen=True)
class ProjectivityResult:
    verdict: bool
    dual_basis: tuple | None      # pairs (element coords, functional coords)
    certificate: tuple | None     # infeasibility functional on endomorphism space


@memoized
def _fg_projective(m: Bimodule, side: str) -> ProjectivityResult:
    field = m.field
    if side == "left":
        hom = dual_module(m)
        acts = m.left_action
    else:
        hom = hom_right(m, regular_bimodule(m.right_algebra), name=f"{m.name}^")
        acts = m.right_action
    d = m.dim
    hd = hom.dim
    # column c = i * hd + u of the system is the endomorphism
    # y -> ((y) f_u) . m_i on the relevant side, flattened row-major
    rows = [{} for _ in range(d * d)]
    c = 0
    for i in range(d):
        orbit = basis_orbit(m, acts, i)
        for f in hom.basis:
            for r, row in enumerate((orbit @ f).nz):
                for j, x in row.items():
                    rows[r * d + j][c] = x
            c += 1
    system = Matrix.from_sparse(field, rows, c)
    rhs = {i * (d + 1): field.one for i in range(d)}
    sol, cert = solve_or_certify(system, rhs)
    if sol is None:
        return ProjectivityResult(False, None,
                                  tuple(dense_vec(field, cert, d * d)))
    sol = dense_vec(field, sol, c)
    pairs = tuple((tuple(dense_vec(field, {i: field.one}, d)),
                   tuple(sol[i * hd:(i + 1) * hd]))
                  for i in range(d))
    return ProjectivityResult(True, pairs, None)


def is_fg_projective_left(m: Bimodule) -> ProjectivityResult:
    """Dual basis criterion for M as a left module over its left algebra."""
    return _fg_projective(m, "left")


def is_fg_projective_right(m: Bimodule) -> ProjectivityResult:
    return _fg_projective(m, "right")


def trace_in(m: Bimodule, n: Bimodule) -> Subspace:
    """The trace ideal-like subspace: images of all left-linear maps M -> N."""
    hom = hom_left(m, n, name="tr")
    one = m.field.one
    vectors = [y for i in range(m.dim) for y in hom.solver.images({i: one})]
    return Subspace.from_span(m.field, n.dim, vectors)


def ev_over_endo(m: Bimodule) -> BimoduleMap:
    """ev: M tensor_S *M -> B where S is the endomorphism ring of M."""
    return evaluation_data(endomorphism_ring(m).right_module).map


@dataclass(frozen=True)
class StaticResult:
    verdict: bool             # the comparison map is an isomorphism
    injective: bool
    surjective: bool
    source_dim: int
    target_dim: int


def static_check(m: Bimodule, n: Bimodule) -> tuple[StaticResult, BimoduleMap]:
    """Is ev: M tensor_S Hom(M, N) -> N an isomorphism?

    N must share the left algebra of M; S is the endomorphism ring.
    """
    ev = comonad_apply(endomorphism_ring(m).right_module, n).map
    r = rank(ev.matrix)
    inj = r == ev.source.dim
    surj = r == n.dim
    return StaticResult(inj and surj, inj, surj, ev.source.dim, n.dim), ev
