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

from dataclasses import dataclass

from .errors import ShapeError, ValidationError
from .exactlin import (
    Field, Matrix, SpanTracker, Subspace, infeasibility_certificate,
    kernel_basis, quotient_space, rank, right_inverse, solve_affine,
)
from .structures import Algebra, RingMap, ValidationResult


@dataclass(eq=False)
class Bimodule:
    left_algebra: Algebra
    right_algebra: Algebra
    dim: int
    left_action: tuple       # one dim x dim Matrix per left-algebra basis element
    right_action: tuple      # one dim x dim Matrix per right-algebra basis element
    name: str = "M"

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

    def left_act(self, coords: list) -> Matrix:
        """Matrix of the left action of the algebra element with these coords."""
        out = Matrix.zeros(self.field, self.dim, self.dim)
        for i, a in enumerate(coords):
            if a:
                out = out + self.left_action[i].scale(a)
        return out

    def right_act(self, coords: list) -> Matrix:
        out = Matrix.zeros(self.field, self.dim, self.dim)
        for j, a in enumerate(coords):
            if a:
                out = out + self.right_action[j].scale(a)
        return out

    def basis_vector(self, i: int) -> list:
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    def __repr__(self):
        return (f"Bimodule({self.name}: dim {self.dim} over "
                f"({self.left_algebra.name}, {self.right_algebra.name}))")


def validate_bimodule(m: Bimodule) -> ValidationResult:
    """Unitality, representation laws, and commutation of the two actions."""
    b, a = m.left_algebra, m.right_algebra
    ident = Matrix.identity(m.field, m.dim)
    if m.left_act(list(b.unit)) != ident:
        return ValidationResult(False, "left unit does not act as identity")
    if m.right_act(list(a.unit)) != ident:
        return ValidationResult(False, "right unit does not act as identity")
    for i in range(b.dim):
        for j in range(b.dim):
            # (b_i b_j) m = b_i (b_j m)
            if m.left_act(list(b.mult[i][j])) != m.left_action[i] @ m.left_action[j]:
                return ValidationResult(
                    False, f"left action is not multiplicative at pair ({i}, {j})")
    for i in range(a.dim):
        for j in range(a.dim):
            # m (a_i a_j) = (m a_i) a_j, i.e. apply a_i first
            if m.right_act(list(a.mult[i][j])) != m.right_action[j] @ m.right_action[i]:
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


def regular_bimodule(b: Algebra) -> Bimodule:
    """B as a bimodule over (B, B) by multiplication on both sides."""
    cached = getattr(b, "_regular_bimodule", None)
    if cached is None:
        cached = Bimodule(b, b, b.dim, b.left_mult, b.right_mult, name=b.name)
        b._regular_bimodule = cached
    return cached


def restrict_left(m: Bimodule, f: RingMap) -> Bimodule:
    """Pull the left action back along an algebra map into the left algebra."""
    if f.target is not m.left_algebra:
        raise ValidationError("ring map target must be the left algebra")
    acts = tuple(m.left_act(f.apply(f.source.basis_vector(i)))
                 for i in range(f.source.dim))
    return Bimodule(f.source, m.right_algebra, m.dim, acts, m.right_action,
                    name=m.name)


def restrict_right(m: Bimodule, f: RingMap) -> Bimodule:
    """Pull the right action back along an algebra map into the right algebra."""
    if f.target is not m.right_algebra:
        raise ValidationError("ring map target must be the right algebra")
    acts = tuple(m.right_act(f.apply(f.source.basis_vector(j)))
                 for j in range(f.source.dim))
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
        cols = []
        for row in space.basis.data:
            cols.append(space.coords_of(mat.apply(list(row)), verify=True))
        return Matrix.from_columns(parent.field, cols, k)

    left = tuple(induce(mat) for mat in parent.left_action)
    right = tuple(induce(mat) for mat in parent.right_action)
    sub = Bimodule(parent.left_algebra, parent.right_algebra, k, left, right,
                   name=name)
    return sub, incl


# ---------------------------------------------------------------------------
# Equivariant map solver


@dataclass(eq=False)
class EquivariantBasis:
    """All linear maps F with F src_ops[k] = tgt_ops[k] F, for operator
    families with identical multiplication tables on both sides."""

    field: Field
    src_dim: int
    tgt_dim: int
    maps: tuple               # basis, each a tgt_dim x src_dim Matrix
    generators: tuple         # indices of source basis vectors generating it
    positions: tuple          # coordinate positions in the stacked value vector

    @property
    def dim(self) -> int:
        return len(self.maps)

    def value_vector(self, mat: Matrix) -> list:
        out = []
        for g in self.generators:
            out.extend(mat.column(g))
        return out

    def coords_of(self, mat: Matrix, verify: bool = False) -> list:
        vals = self.value_vector(mat)
        coords = [vals[p] for p in self.positions]
        if verify:
            recon = Matrix.zeros(self.field, self.tgt_dim, self.src_dim)
            for c, f in zip(coords, self.maps):
                if c:
                    recon = recon + f.scale(c)
            if recon != mat:
                raise ValueError("matrix is not in the equivariant span")
        return coords

    def matrix_of(self, coords: list) -> Matrix:
        out = Matrix.zeros(self.field, self.tgt_dim, self.src_dim)
        for c, f in zip(coords, self.maps):
            if c:
                out = out + f.scale(c)
        return out


def equivariant_maps(field: Field, src_dim: int, tgt_dim: int,
                     src_ops: list[Matrix], tgt_ops: list[Matrix]
                     ) -> EquivariantBasis:
    """Solve for all F with F src_ops[k] = ... = tgt_ops[k] F via a
    presentation of the source by operator orbits of basis vectors."""
    assert len(src_ops) == len(tgt_ops)
    n_ops = len(src_ops)
    span = SpanTracker(field, src_dim)
    generators: list[int] = []
    g_cols: list[list] = []
    for i in range(src_dim):
        probe = [field.zero] * src_dim
        probe[i] = field.one
        if span.dim == src_dim:
            break
        # membership test without committing
        if not span.add(probe):
            continue
        # e_i was new; undo is not needed since e_i is in its own orbit
        generators.append(i)
        for op in src_ops:
            col = op.column(i)
            g_cols.append(col)
            span.add(col)
    if span.dim != src_dim and src_dim > 0:
        raise ValidationError("operator family does not span a unital action")
    r = len(generators)
    g_mat = Matrix.from_columns(field, g_cols, src_dim)
    relations = kernel_basis(g_mat)
    lift = right_inverse(g_mat) if src_dim else Matrix(field, [], cols=0)
    # unknowns: values v_j in target for each generator, stacked
    unknowns = r * tgt_dim
    rows = []
    for rel in relations.basis.data:
        # sum_{j,k} rel[j*n_ops+k] * tgt_ops[k] applied to v_j must vanish
        blocks = []
        for j in range(r):
            acc = None
            for k in range(n_ops):
                c = rel[j * n_ops + k]
                if c:
                    term = tgt_ops[k].scale(c)
                    acc = term if acc is None else acc + term
            blocks.append(acc)
        for t in range(tgt_dim):
            row = [field.zero] * unknowns
            nonzero = False
            for j, blk in enumerate(blocks):
                if blk is not None:
                    base = j * tgt_dim
                    for s, x in enumerate(blk.data[t]):
                        if x:
                            row[base + s] = x
                            nonzero = True
            if nonzero:
                rows.append(row)
    solutions = kernel_basis(Matrix(field, rows, cols=unknowns))
    maps = []
    for sol in solutions.basis.data:
        w_cols = []
        for j in range(r):
            vj = sol[j * tgt_dim:(j + 1) * tgt_dim]
            for k in range(n_ops):
                w_cols.append(tgt_ops[k].apply(vj))
        w = Matrix.from_columns(field, w_cols, tgt_dim)
        maps.append(w @ lift)
    return EquivariantBasis(field, src_dim, tgt_dim, tuple(maps),
                            tuple(generators), solutions.positions)


# ---------------------------------------------------------------------------
# Hom spaces


@dataclass(eq=False)
class HomSpace:
    """Left-linear maps source -> target as a bimodule over
    (right algebra of source, right algebra of target).

    a . f sends m to (m a) f, and f . t sends m to ((m) f) t.  The
    embedding realizing abstract coordinates as concrete matrices is
    matrix_of / coords_of.
    """

    source: Bimodule
    target: Bimodule
    space: Bimodule
    basis: tuple
    solver: EquivariantBasis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix_of(self, coords: list) -> Matrix:
        return self.solver.matrix_of(coords)

    def coords_of(self, mat: Matrix, verify: bool = False) -> list:
        return self.solver.coords_of(mat, verify=verify)


def hom_left(m: Bimodule, n: Bimodule, name: str = "Hom") -> HomSpace:
    """All maps intertwining the left actions, with its (A, T) structure."""
    if m.left_algebra is not n.left_algebra:
        raise ValidationError("hom_left requires a common left algebra")
    solver = equivariant_maps(m.field, m.dim, n.dim,
                              list(m.left_action), list(n.left_action))
    a, t = m.right_algebra, n.right_algebra
    d = solver.dim
    left_acts = []
    for i in range(a.dim):
        ra = m.right_action[i]
        cols = [solver.coords_of(f @ ra) for f in solver.maps]
        left_acts.append(Matrix.from_columns(m.field, cols, d))
    right_acts = []
    for j in range(t.dim):
        rt = n.right_action[j]
        cols = [solver.coords_of(rt @ f) for f in solver.maps]
        right_acts.append(Matrix.from_columns(m.field, cols, d))
    space = Bimodule(a, t, d, tuple(left_acts), tuple(right_acts), name=name)
    return HomSpace(m, n, space, solver.maps, solver)


def hom_right(m: Bimodule, n: Bimodule, name: str = "Hom_r") -> HomSpace:
    """All maps intertwining the right actions, as a (B of n, B of m) space.

    (b . f)(m) = b ((m) f) and (f . c)(m) = (c m) f.
    """
    if m.right_algebra is not n.right_algebra:
        raise ValidationError("hom_right requires a common right algebra")
    solver = equivariant_maps(m.field, m.dim, n.dim,
                              list(m.right_action), list(n.right_action))
    bl, bm = n.left_algebra, m.left_algebra
    d = solver.dim
    left_acts = []
    for i in range(bl.dim):
        lt = n.left_action[i]
        cols = [solver.coords_of(lt @ f) for f in solver.maps]
        left_acts.append(Matrix.from_columns(m.field, cols, d))
    right_acts = []
    for j in range(bm.dim):
        lm = m.left_action[j]
        cols = [solver.coords_of(f @ lm) for f in solver.maps]
        right_acts.append(Matrix.from_columns(m.field, cols, d))
    space = Bimodule(bl, bm, d, tuple(left_acts), tuple(right_acts), name=name)
    return HomSpace(m, n, space, solver.maps, solver)


def dual_module(m: Bimodule) -> HomSpace:
    """Left-linear maps into the regular bimodule; an (A, B) bimodule."""
    return hom_left(m, regular_bimodule(m.left_algebra), name=f"*{m.name}")


def hom_bimodule(src: Bimodule, tgt: Bimodule) -> EquivariantBasis:
    """All maps intertwining both actions, for a shared algebra pair.

    The operator family handed to the solver is the full set of products
    (left basis action) . (right basis action); unlike the one-sided
    families, neither side alone is closed under composition.
    """
    if src.left_algebra is not tgt.left_algebra:
        raise ValidationError("hom_bimodule requires a common left algebra")
    if src.right_algebra is not tgt.right_algebra:
        raise ValidationError("hom_bimodule requires a common right algebra")
    src_ops = [l @ r for l in src.left_action for r in src.right_action]
    tgt_ops = [l @ r for l in tgt.left_action for r in tgt.right_action]
    return equivariant_maps(src.field, src.dim, tgt.dim, src_ops, tgt_ops)


def centralizer(m: Bimodule) -> Subspace:
    """Elements on which the left and right actions of a shared algebra
    agree: {x : b x = x b for all b}."""
    if m.left_algebra is not m.right_algebra:
        raise ValidationError("centralizer needs equal left and right algebras")
    field = m.field
    rows = []
    for l, r in zip(m.left_action, m.right_action):
        diff = l - r
        for row in diff.data:
            if any(row):
                rows.append(row)
    return kernel_basis(Matrix(field, rows, cols=m.dim))


# ---------------------------------------------------------------------------
# Tensor products over the middle algebra


@dataclass(eq=False)
class TensorProduct:
    space: Bimodule
    projection: Matrix        # from the plain tensor square
    section: Matrix           # splitting of the projection
    relations: Subspace
    left_factor: Bimodule
    right_factor: Bimodule

    @property
    def trivial(self) -> bool:
        return self.relations.dim == 0

    def lift_column(self, q: int) -> list:
        """Plain-tensor representative of the q-th quotient basis vector."""
        if self.trivial:
            field = self.space.field
            v = [field.zero] * self.projection.cols
            v[q] = field.one
            return v
        return self.section.column(q)

    def project_vec(self, plain_vec: list) -> list:
        if self.trivial:
            return plain_vec
        return self.projection.apply(plain_vec)


def tensor_over(m: Bimodule, n: Bimodule, name: str | None = None
                ) -> TensorProduct:
    """m tensor n over the shared middle algebra.

    The plain tensor index (i, j) flattens to i * dim(n) + j.  Relations
    (x a) tensor y - x tensor (a y) are spanned over all basis triples
    and quotiented with a deterministic splitting.
    """
    a = m.right_algebra
    if a is not n.left_algebra:
        raise ValidationError("tensor_over requires matching middle algebras")
    field = m.field
    dm, dn = m.dim, n.dim
    plain = dm * dn
    ident_m = Matrix.identity(field, dm)
    ident_n = Matrix.identity(field, dn)
    rel_rows = []
    for t in range(a.dim):
        ra = m.right_action[t]
        la = n.left_action[t]
        if ra == ident_m and la == ident_n:
            continue
        ra_cols = [ra.column(i) for i in range(dm)]
        la_cols = [la.column(j) for j in range(dn)]
        for i in range(dm):
            rci = ra_cols[i]
            for j in range(dn):
                row = [field.zero] * plain
                nonzero = False
                for k, x in enumerate(rci):
                    if x:
                        row[k * dn + j] = row[k * dn + j] + x
                        nonzero = True
                for l, x in enumerate(la_cols[j]):
                    if x:
                        row[i * dn + l] = row[i * dn + l] - x
                        nonzero = True
                if nonzero and any(row):
                    rel_rows.append(row)
    relations = Subspace.from_span(field, plain, rel_rows)
    quot = quotient_space(plain, relations)
    proj, sect = quot.projection, quot.section
    trivial = relations.dim == 0

    def induced(slot: int, mat: Matrix) -> Matrix:
        k = mat.kron(ident_n) if slot == 0 else ident_m.kron(mat)
        if trivial:
            return k
        return proj @ k @ sect

    left = tuple(induced(0, mat) for mat in m.left_action)
    right = tuple(induced(1, mat) for mat in n.right_action)
    space = Bimodule(m.left_algebra, n.right_algebra, quot.dim, left, right,
                     name=name or f"{m.name}(x){n.name}")
    return TensorProduct(space, proj, sect, relations, m, n)


# ---------------------------------------------------------------------------
# Evaluation, endomorphisms, and the module-theoretic predicates


@dataclass(eq=False)
class EvaluationData:
    dual: HomSpace
    tensor: TensorProduct
    map: BimoduleMap


def descend_plain_map(field: Field, plain_cols: list[list], out_dim: int,
                       tensor: TensorProduct) -> Matrix:
    """Turn a map off the plain tensor into one off the quotient, checking
    that it kills the tensor relations."""
    plain = Matrix.from_columns(field, plain_cols, out_dim)
    if tensor.trivial:
        return plain
    for rel in tensor.relations.basis.data:
        img = plain.apply(list(rel))
        if any(img):
            raise ValidationError("map does not descend through tensor relations")
    return plain @ tensor.section


def evaluation_data(m: Bimodule) -> EvaluationData:
    """ev: M tensor_A *M -> B, m tensor f -> (m) f, with its tensor square."""
    cached = getattr(m, "_evaluation_data", None)
    if cached is not None:
        return cached
    dual = dual_module(m)
    tensor = tensor_over(m, dual.space, name=f"{m.name}(x)*{m.name}")
    b = m.left_algebra
    plain_cols = []
    for i in range(m.dim):
        for u in range(dual.dim):
            plain_cols.append(dual.basis[u].column(i))
    mat = descend_plain_map(m.field, plain_cols, b.dim, tensor)
    ev = BimoduleMap(tensor.space, regular_bimodule(b), mat, name="ev")
    data = EvaluationData(dual, tensor, ev)
    m._evaluation_data = data
    return data


def evaluation_map(m: Bimodule) -> BimoduleMap:
    return evaluation_data(m).map


@dataclass(eq=False)
class EndoData:
    algebra: Algebra          # S = left-linear endomorphisms, f*g = f then g
    to_endo: RingMap          # A -> S, a -> right action by a
    hom: HomSpace             # the underlying hom space of M -> M
    right_module: Bimodule    # M as a (B, S) bimodule


def endomorphism_ring(m: Bimodule) -> EndoData:
    cached = getattr(m, "_endo_data", None)
    if cached is not None:
        return cached
    hom = hom_left(m, m, name=f"End({m.name})")
    field = m.field
    d = hom.dim
    mult = []
    for u in range(d):
        row = []
        for v in range(d):
            # u * v = apply u, then v
            row.append(tuple(hom.coords_of(hom.basis[v] @ hom.basis[u])))
        mult.append(tuple(row))
    unit = tuple(hom.coords_of(Matrix.identity(field, m.dim)))
    s = Algebra(field, d, tuple(mult), unit, name=f"End({m.name})")
    a = m.right_algebra
    cols = [hom.coords_of(m.right_action[j]) for j in range(a.dim)]
    to_endo = RingMap(a, s, Matrix.from_columns(field, cols, d), name="to_endo")
    right_module = Bimodule(m.left_algebra, s, m.dim, m.left_action,
                            tuple(hom.basis), name=m.name)
    data = EndoData(s, to_endo, hom, right_module)
    m._endo_data = data
    return data


@dataclass(frozen=True)
class GeneratorResult:
    verdict: bool
    preimage_of_unit: tuple | None      # coordinates in M tensor_A *M
    cokernel_functional: tuple | None   # functional on B vanishing on the image


def is_generator(m: Bimodule) -> GeneratorResult:
    """M generates B-Mod iff ev: M tensor_A *M -> B is surjective.

    The image of ev is a two-sided ideal, so surjectivity is equivalent
    to hitting the unit; the witness is a preimage of 1, the obstruction
    a functional killing the image but not 1.
    """
    data = evaluation_data(m)
    b = m.left_algebra
    unit = list(b.unit)
    sol = solve_affine(data.map.matrix, unit)
    if sol is not None:
        return GeneratorResult(True, tuple(sol.particular), None)
    cert = infeasibility_certificate(data.map.matrix, unit)
    assert cert is not None
    return GeneratorResult(False, None, tuple(cert))


@dataclass(frozen=True)
class ProjectivityResult:
    verdict: bool
    dual_basis: tuple | None      # pairs (element coords, functional coords)
    certificate: tuple | None     # infeasibility functional on endomorphism space


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
    cols = []
    for i in range(d):
        for u in range(hd):
            # endomorphism y -> ((y) f_u) . m_i  (action on the relevant side)
            fu = hom.basis[u]
            endo = Matrix.zeros(field, d, d)
            for k in range(len(acts)):
                col_i = acts[k].column(i)
                if any(col_i):
                    frow = fu.data[k]
                    add = Matrix(field,
                                 [[col_i[r] * frow[c] if (col_i[r] and frow[c])
                                   else field.zero for c in range(d)]
                                  for r in range(d)], cols=d)
                    endo = endo + add
            cols.append([endo.data[r][c] for r in range(d) for c in range(d)])
    system = Matrix.from_columns(field, cols, d * d)
    ident = Matrix.identity(field, d)
    rhs = [ident.data[r][c] for r in range(d) for c in range(d)]
    sol = solve_affine(system, rhs)
    if sol is None:
        cert = infeasibility_certificate(system, rhs)
        return ProjectivityResult(False, None,
                                  tuple(cert) if cert else None)
    pairs = []
    for i in range(d):
        f_coords = [sol.particular[i * hd + u] for u in range(hd)]
        pairs.append((tuple(m.basis_vector(i)), tuple(f_coords)))
    return ProjectivityResult(True, tuple(pairs), None)


def is_fg_projective_left(m: Bimodule) -> ProjectivityResult:
    """Dual basis criterion for M as a left module over its left algebra."""
    return _fg_projective(m, "left")


def is_fg_projective_right(m: Bimodule) -> ProjectivityResult:
    return _fg_projective(m, "right")


def trace_in(m: Bimodule, n: Bimodule) -> Subspace:
    """The trace ideal-like subspace: images of all left-linear maps M -> N."""
    hom = hom_left(m, n, name="tr")
    vectors = []
    for f in hom.basis:
        vectors.extend(f.column(i) for i in range(m.dim))
    return Subspace.from_span(m.field, n.dim, vectors)


def ev_over_endo(m: Bimodule) -> BimoduleMap:
    """ev: M tensor_S *M -> B where S is the endomorphism ring of M."""
    endo = endomorphism_ring(m)
    m_bs = endo.right_module
    dual_s = hom_left(m_bs, regular_bimodule(m.left_algebra), name=f"*{m.name}")
    tensor = tensor_over(m_bs, dual_s.space)
    plain_cols = []
    for i in range(m.dim):
        for u in range(dual_s.dim):
            plain_cols.append(dual_s.basis[u].column(i))
    mat = descend_plain_map(m.field, plain_cols, m.left_algebra.dim, tensor)
    return BimoduleMap(tensor.space, regular_bimodule(m.left_algebra), mat,
                       name="ev_S")


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
    endo = endomorphism_ring(m)
    m_bs = endo.right_module
    hom = hom_left(m_bs, n, name="H")
    tensor = tensor_over(m_bs, hom.space)
    plain_cols = []
    for i in range(m.dim):
        for u in range(hom.dim):
            plain_cols.append(hom.basis[u].column(i))
    mat = descend_plain_map(m.field, plain_cols, n.dim, tensor)
    r = rank(mat)
    inj = r == tensor.space.dim
    surj = r == n.dim
    res = StaticResult(inj and surj, inj, surj, tensor.space.dim, n.dim)
    ev = BimoduleMap(tensor.space, n, mat, name="ev_N")
    return res, ev
