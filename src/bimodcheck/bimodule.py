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
from those values.  A translate that is zero enters no relation: it
says only that the target operator kills the generator's value, which
pins the unknowns of the operator's one-entry rows to 0 without
building a row for them.  This keeps solves proportional to the small
side of the hom space instead of the product of both sides.
"""

from __future__ import annotations

from .errors import ShapeError, ValidationError
from .exactlin import (
    Field, Frozen, Matrix, SpanTracker, Subspace, axpy, check_vec, dense_vec,
    infeasibility_certificate, kernel_and_right_inverse, kernel_basis,
    lincomb, quotient_space, rank, solve_affine, solve_or_certify,
)
from .structures import Algebra, RingMap, ValidationResult, Verdict, memoized


class Bimodule:
    def __init__(self, left_algebra: Algebra, right_algebra: Algebra,
                 dim: int, left_action: tuple, right_action: tuple,
                 name: str = "M"):
        if len(left_action) != left_algebra.dim:
            raise ShapeError("need one left action matrix per left basis element")
        if len(right_action) != right_algebra.dim:
            raise ShapeError("need one right action matrix per right basis element")
        for mat in list(left_action) + list(right_action):
            if mat.rows != dim or mat.cols != dim:
                raise ShapeError("action matrices must be dim x dim")
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = dim
        self.left_action = left_action      # a dim x dim Matrix per b_i
        self.right_action = right_action    # a dim x dim Matrix per a_j
        self.name = name
        self.cache = {}        # memoized's, for this bimodule's lifetime

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


class BimoduleMap:
    def __init__(self, source: Bimodule, target: Bimodule, matrix: Matrix,
                 name: str = "f"):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ShapeError(f"map {name}: matrix shape does not match modules")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.name = name

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
        cols = [space.coords_of(mat.apply(row)) for row in space.basis.nz]
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
    built on first need; the target operators are kept for matrix_of.

    - `images(v)` gives f_u(v) for every u at once from W, by two
      applies, and forms no map.
    - `maps` forms the basis matrices on its first read, as the one
      product W @ lift_used cut into tgt_dim-row blocks, and keeps them.
    - `matrix_of` forms one map, its combined generator values pushed
      through the target operators; it reads neither W nor `maps`.
    - `_coords_from` reads the columns of a map at the generators only,
      so a caller in the package that needs nothing but coordinates
      computes just those columns, and looks each stored entry up in a
      position index.
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

    def _coords_from(self, column) -> dict:
        """Coordinates of the map whose column g is column(g), a sparse
        vector the package built; column is called at the generators only."""
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
        row: dict = {}
        for u, c in coords.items():
            axpy(row, c, self.values[u], self.field.p)
        return Matrix.from_sparse(self.field, self._w_block(row),
                                  self._n_used) @ self._lift_used


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
    (op.column(i) for each generator i, then each op in order).  A zero
    column is listed, so column j * len(ops) + k stays op k at generator
    j, but it is not offered to the span.

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
            if col:
                span.add(col)
    if span.dim != dim and dim > 0:
        raise ValidationError("operator family does not span a unital action")
    return tuple(generators), g_cols


def equivariant_maps(field: Field, src_dim: int, tgt_dim: int,
                     src_ops: list, tgt_ops: list[Matrix]
                     ) -> EquivariantBasis:
    """Solve for all F with F src_ops[k] = ... = tgt_ops[k] F via a
    presentation of the source by operator orbits of basis vectors
    (orbit_generators, which reads the source operators).

    Only the nonzero orbit columns are eliminated for the relations and
    the lift; they span the source alike.  A zero column (j, k) is no
    relation: the rows of tgt_ops[k] at block j join the value system,
    except that a row with one entry only pins its unknown to 0, which
    kernel_basis takes without a row, so no one-entry row of a zero
    column is built or eliminated."""
    if len(src_ops) != len(tgt_ops):
        raise ShapeError(f"{len(src_ops)} source operators for "
                         f"{len(tgt_ops)} target operators")
    n_ops = len(src_ops)
    generators, g_cols = orbit_generators(field, src_dim, src_ops)
    r = len(generators)
    # the nonzero orbit columns span the source, so g has full row rank
    nonzero = [c for c, col in enumerate(g_cols) if col]
    relations, lift = kernel_and_right_inverse(
        Matrix._from_columns(field, [g_cols[c] for c in nonzero], src_dim))
    # lift is zero outside its pivot rows, so each map W_F @ lift needs
    # only the columns of W_F at those rows
    used = [nonzero[k] for k, row in enumerate(lift.nz) if row]
    lift_used = Matrix.from_sparse(field, [row for row in lift.nz if row],
                                   src_dim)
    # unknowns: values v_j in target for each generator, stacked; a
    # relation says sum_{j,k} rel[j*n_ops+k] * tgt_ops[k] v_j = 0, and
    # only its stored entries (j, k) and the nonzero rows t of those
    # operators contribute: row t of the relation is the sum of
    # coeff * row t of tgt_ops[k], shifted to block j
    p = field.p
    rels = [{nonzero[c]: x for c, x in rel.items()}
            for rel in relations.basis.nz]
    op_rows = {k: [(t, row) for t, row in enumerate(tgt_ops[k].nz) if row]
               for k in {c % n_ops for rel in rels for c in rel}}
    # a zero column (j, k) says tgt_ops[k] v_j = 0 alone: each one-entry
    # row of tgt_ops[k] pins an unknown of block j to 0, and the other
    # rows are shifted to block j
    zero = [c for c, col in enumerate(g_cols) if not col]
    split = {k: ([s for row in tgt_ops[k].nz if len(row) == 1 for s in row],
                 [row for row in tgt_ops[k].nz if len(row) > 1])
             for k in {c % n_ops for c in zero}}
    rows, pinned = [], set()
    for c in zero:
        j, k = divmod(c, n_ops)
        base = j * tgt_dim
        units, longer = split[k]
        pinned.update([base + s for s in units])
        rows.extend({base + s: x for s, x in row.items()} for row in longer)
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
    solutions = kernel_basis(Matrix.from_sparse(field, rows, r * tgt_dim),
                             pinned)
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


def composition_matrix(solver: EquivariantBasis, op: Matrix, before: bool,
                       into: EquivariantBasis) -> Matrix:
    """f -> f @ op (before) or op @ f on the basis maps of solver, one
    column of coordinates in the solver `into` per map.

    Only the columns of each composite at into.generators are computed,
    and no map is formed.  Column g of f_u @ op is f_u applied to column
    g of op, which solver.images gives for every u at once.  Column g of
    op @ f_u is op applied to column g of f_u, a generator value of f_u:
    op @ f requires into's generators among solver's, as they are for
    hom spaces out of one source under one operator family."""
    if before:
        images = {g: solver.images(op.column(g)) for g in into.generators}
        cols = [into._coords_from(lambda g: images[g][u])
                for u in range(solver.dim)]
    else:
        where = {g: j for j, g in enumerate(solver.generators)}
        if not all(g in where for g in into.generators):
            raise ValidationError(
                "op @ f needs the target solver's generators among the "
                "source solver's (one source, one operator family)")
        cols = []
        for u in range(solver.dim):
            vals = solver.generator_values(u)
            cols.append(into._coords_from(
                lambda g: op.apply(vals[where[g]]) if where[g] in vals else {}))
    return Matrix._from_columns(into.field, cols, into.dim)


def hom_left(m: Bimodule, n: Bimodule) -> EquivariantBasis:
    """All maps m -> n intertwining the left actions."""
    b = m.left_algebra
    if b is not n.left_algebra:
        raise ValidationError("hom_left requires a common left algebra")
    if n is regular_bimodule(b):
        return _maps_into_regular(b, m.left_action, m.dim)
    return equivariant_maps(m.field, m.dim, n.dim, list(m.left_action),
                            list(n.left_action))


@memoized
def _maps_into_regular(b: Algebra, left_action: tuple,
                       dim: int) -> EquivariantBasis:
    """The left-linear maps into B off a module with these left actions.
    Solved once per action family and kept with B: *M, the trace of M in
    B, evaluation over End(M), and M as a (B, End(M))-bimodule all share
    M's left actions, so they share this solve."""
    return equivariant_maps(b.field, dim, b.dim, list(left_action),
                            list(b.left_mult))


def hom_right(m: Bimodule, n: Bimodule) -> EquivariantBasis:
    """All maps m -> n intertwining the right actions."""
    if m.right_algebra is not n.right_algebra:
        raise ValidationError("hom_right requires a common right algebra")
    return equivariant_maps(m.field, m.dim, n.dim, list(m.right_action),
                            list(n.right_action))


def dual_module(m: Bimodule) -> EquivariantBasis:
    """Left-linear maps into the regular bimodule, the maps of *M.  It is
    cover_hom(m, B), so the evaluation, the bar complex and the dual
    basis test all read one solve; hom_module(m, B) is *M as an (A, B)
    bimodule."""
    return cover_hom(m, regular_bimodule(m.left_algebra))


def hom_bimodule(src: Bimodule, tgt: Bimodule) -> EquivariantBasis:
    """All maps intertwining both actions, for a shared algebra pair.

    The operator family handed to the solver is the full set of products
    (left basis action) . (right basis action); unlike the one-sided
    families, neither side alone is closed under composition.  The solver
    reads the source products only at its generator columns, so those are
    all that is formed of them, and a product whose right factor's column
    is zero there is read as zero without applying the left factor.
    """
    if src.left_algebra is not tgt.left_algebra:
        raise ValidationError("hom_bimodule requires a common left algebra")
    if src.right_algebra is not tgt.right_algebra:
        raise ValidationError("hom_bimodule requires a common right algebra")
    tgt_ops = [l @ r for l in tgt.left_action for r in tgt.right_action]
    return equivariant_maps(src.field, src.dim, tgt.dim,
                            _two_sided_operators(src), tgt_ops)


def _two_sided_operators(m: Bimodule) -> list:
    # (left basis action) . (right basis action), formed column by
    # column, and zero wherever the right action's column is
    return [_Columns(lambda i, l=l, r=r: l.apply(col)
                     if (col := r.column(i)) else {})
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


class TensorProduct:
    """A quotient of the plain tensor by its relations.  Basis vector q
    is the class of the plain unit vector at positions[q]; a map leaves
    the quotient only by descend_plain_map."""

    def __init__(self, space: Bimodule, projection: Matrix,
                 relations: Subspace, left_factor: Bimodule,
                 right_factor: Bimodule, positions: tuple):
        self.space = space
        self.projection = projection    # from the plain tensor square
        self.relations = relations
        self.left_factor = left_factor
        self.right_factor = right_factor
        self.positions = positions      # plain index of each basis vector

    @property
    def trivial(self) -> bool:
        return self.relations.dim == 0

    def lift_column(self, q: int) -> dict:
        """Plain-tensor representative of the q-th quotient basis vector."""
        return {self.positions[q]: self.space.field.one}

    def _project_vec(self, plain_vec: dict) -> dict:
        """The class of a plain-tensor vector the package built."""
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
def cover_hom(m: Bimodule, y: Bimodule) -> EquivariantBasis:
    """Hom(M, Y), solved once per Y: F(Y) is built from it, and its dim
    sizes F(Y) before the tensor is formed."""
    return hom_left(m, y)


@memoized
def hom_module(m: Bimodule, y: Bimodule) -> Bimodule:
    """Hom(M, Y) on cover_hom(m, y)'s coordinates as an (A, C)-bimodule,
    for M over (B, A) and Y over (B, C): a . f sends x to (x a) f, and
    f . c sends x to ((x) f) c.  The one place the actions on a hom
    space are formed; F(Y) tensors over A with it, and hom_module(m, B)
    is *M."""
    hom = cover_hom(m, y)
    left = tuple(composition_matrix(hom, a, True, hom)
                 for a in m.right_action)
    right = tuple(composition_matrix(hom, c, False, hom)
                  for c in y.right_action)
    return Bimodule(m.right_algebra, y.right_algebra, hom.dim, left, right,
                    name=f"Hom({m.name}, {y.name})")


class Cover:
    """F(Y) = M tensor_A Hom(M, Y) with its counit m tensor f -> (m) f."""

    def __init__(self, hom: EquivariantBasis, tensor: TensorProduct,
                 map: BimoduleMap):
        self.hom = hom
        self.tensor = tensor
        self.map = map


@memoized
def comonad_apply(m: Bimodule, y: Bimodule) -> Cover:
    """F(Y) and its counit, formed once per (M, Y) and only here: the
    evaluation (Y = B), evaluation over End(M), relative projectivity
    and both resolutions of B read it."""
    hom = cover_hom(m, y)
    tensor = tensor_over(m, hom_module(m, y), name=f"F({y.name})")
    one = y.field.one
    # plain column i * hom.dim + u is f_u(e_i)
    plain_cols = [v for i in range(m.dim) for v in hom.images({i: one})]
    mat = descend_plain_map(y.field, plain_cols, y.dim, tensor)
    return Cover(hom, tensor, BimoduleMap(tensor.space, y, mat, name="counit"))


def evaluation_data(m: Bimodule) -> Cover:
    """ev: M tensor_A *M -> B, m tensor f -> (m) f: the cover F(B)."""
    return comonad_apply(m, regular_bimodule(m.left_algebra))


class EndoData:
    def __init__(self, algebra: Algebra, to_endo: RingMap,
                 hom: EquivariantBasis, right_module: Bimodule):
        self.algebra = algebra            # S = left-linear endos, f*g = f then g
        self.to_endo = to_endo            # A -> S, a -> right action by a
        self.hom = hom                    # the left-linear maps M -> M
        self.right_module = right_module  # M as a (B, S) bimodule


@memoized
def endomorphism_ring(m: Bimodule) -> EndoData:
    hom = hom_left(m, m)
    field = m.field
    d = hom.dim
    mult = []
    for hu in hom.maps:
        # u * v = apply u, then v: column v of f -> f @ hu
        comp = composition_matrix(hom, hu, True, hom)
        mult.append(tuple(comp.columns()))
    unit = hom.coords_of(Matrix.identity(field, m.dim))
    s = Algebra(field, d, tuple(mult), unit, name=f"End({m.name})")
    a = m.right_algebra
    cols = [hom.coords_of(m.right_action[j]) for j in range(a.dim)]
    to_endo = RingMap(a, s, Matrix._from_columns(field, cols, d),
                      name="to_endo")
    right_module = Bimodule(m.left_algebra, s, m.dim, m.left_action,
                            hom.maps, name=m.name)
    return EndoData(s, to_endo, hom, right_module)


class GeneratorResult(Frozen, Verdict):
    # preimage_of_unit: coordinates in M tensor_A *M;
    # cokernel_functional: a functional on B vanishing on the image
    def __init__(self, verdict: bool, preimage_of_unit: tuple | None,
                 cokernel_functional: tuple | None):
        vars(self).update(verdict=verdict, preimage_of_unit=preimage_of_unit,
                          cokernel_functional=cokernel_functional)


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


def split_at_generators(field: Field, d: int, generators: tuple, n: int,
                        values, columns) -> tuple:
    """c with sum_u c_u X_u = 1 for n module maps X_u of a d-dimensional
    module, each fixed by its values at `generators`: (particular
    solution, None), else (None, certify).

    values yields {j: X_u(e_generators[j])} for each u, entry i in row
    j * d + i.  Every other entry of X_u and of 1 is a fixed combination
    of these r * d rows, so they reduce as the full d^2 rows do, to the
    same particular solution.  The certificate depends on the rows:
    certify() gives the full system's functional, a dense tuple, from
    columns(), each X_u flattened by the caller, (i, i) at i * (d + 1)."""
    rows = [{} for _ in range(len(generators) * d)]
    for u, vals in enumerate(values):
        for j, val in vals.items():
            for i, x in val.items():
                rows[j * d + i][u] = x
    rhs = {j * d + g: field.one for j, g in enumerate(generators)}
    sol = solve_affine(Matrix.from_sparse(field, rows, n), rhs)
    if sol is not None:
        return sol.particular, None

    def certify() -> tuple:
        cert = infeasibility_certificate(
            Matrix._from_columns(field, columns(), d * d),
            {i * (d + 1): field.one for i in range(d)})
        if cert is None:
            raise ValidationError("1 is a combination on all entries but "
                                  "not at the generators")
        return tuple(dense_vec(field, cert, d * d))

    return None, certify


class ProjectivityResult(Frozen, Verdict):
    # dual_basis: pairs (element coords, functional coords);
    # certificate: an infeasibility functional on the endomorphism space
    def __init__(self, verdict: bool, dual_basis: tuple | None,
                 certificate: tuple | None):
        vars(self).update(verdict=verdict, dual_basis=dual_basis,
                          certificate=certificate)


@memoized
def _fg_projective(m: Bimodule, side: str) -> ProjectivityResult:
    """The dual basis criterion: sum c_{i,u} X_{i,u} = 1, unknown
    i * hd + u, for the module maps X_{i,u}: y -> ((y) f_u) . m_i on the
    given side, solved at the generators of the maps f_u; the certificate
    flattens X_{i,u} row-major, entry (r, j) at r * d + j."""
    field, d = m.field, m.dim
    if side == "left":
        hom, acts = dual_module(m), m.left_action
    else:
        hom = hom_right(m, regular_bimodule(m.right_algebra))
        acts = m.right_action
    hd = hom.dim
    orbits = [basis_orbit(m, acts, i) for i in range(d)]
    gen_values = [hom.generator_values(u) for u in range(hd)]
    sol, certify = split_at_generators(
        field, d, hom.generators, d * hd,
        ({j: orbit.apply(v) for j, v in vals.items()}
         for orbit in orbits for vals in gen_values),
        lambda: [{r * d + j: x for r, row in enumerate((orbit @ f).nz)
                  for j, x in row.items()}
                 for orbit in orbits for f in hom.maps])
    if sol is None:
        return ProjectivityResult(False, None, certify())
    sol = dense_vec(field, sol, d * hd)
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
    hom = hom_left(m, n)
    one = m.field.one
    vectors = [y for i in range(m.dim) for y in hom.images({i: one})]
    return Subspace.from_span(m.field, n.dim, vectors)


class StaticResult(Frozen, Verdict):
    # verdict: the comparison map is an isomorphism
    def __init__(self, verdict: bool, injective: bool, surjective: bool,
                 source_dim: int, target_dim: int):
        vars(self).update(verdict=verdict, injective=injective,
                          surjective=surjective, source_dim=source_dim,
                          target_dim=target_dim)


def static_check(m: Bimodule, n: Bimodule) -> tuple[StaticResult, BimoduleMap]:
    """Is ev: M tensor_S Hom(M, N) -> N an isomorphism?

    N must share the left algebra of M; S is the endomorphism ring.
    """
    ev = comonad_apply(endomorphism_ring(m).right_module, n).map
    r = rank(ev.matrix)
    inj = r == ev.source.dim
    surj = r == n.dim
    return StaticResult(inj and surj, inj, surj, ev.source.dim, n.dim), ev
