"""Relative resolutions and the two Hochschild-style cohomologies.

The module-relative side resolves B with the comonad
F(Y) = M tensor_A Hom(M, Y), in two ways: the bar resolution iterates
F, and the syzygy resolution covers each syzygy by F of itself.  Both
read the one memoized cover bimodule.comonad_apply, and both check
the cap on F(Y) through _check_cover before it is formed.
Cochains are two-sided maps out of the resolving objects.  The
module-relative cohomology is read off the smaller syzygy resolution
alone, by `hochschild`, `hdim` and `morita`; `bar` and `homotopy`
report on the bar, and `morita`'s transport is written in its
coordinates up to degree nmax. The ring-relative side builds tensor
powers of S over A and the usual alternating coboundary. A transport
pipeline rewrites module-relative cochains as ring-relative ones degree
by degree, which is the comparison underlying the endomorphism-ring
theorem.

Everything is exact; complexes are verified (d after d vanishes) at
construction time. Intermediate tensor dimensions are capped so an
accidental blow-up surfaces as a resource error instead of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bimodule import (
    Bimodule, BimoduleMap, EquivariantBasis, HomSpace, TensorProduct,
    basis_orbit, centralizer, comonad_apply, composition_matrix, cover_hom,
    dual_module, endomorphism_ring, hom_bimodule, is_fg_projective_left,
    is_generator, regular_bimodule, restrict_left, restrict_right,
    sub_bimodule, tensor_over, two_sided_generators,
)
from .errors import DimensionCapError, PreconditionError, ValidationError
from .exactlin import (
    Field, Matrix, SpanTracker, apply_slot, axpy, dense_vec, _kron_vec,
    kernel_basis, rank, sparse_vec,
)
from .structures import (
    Algebra, RingMap, ValidationResult, memoized, validate_ring_map,
)

DEFAULT_DIM_CAP = 20000


def _cap(dim_cap: int | None) -> int:
    return DEFAULT_DIM_CAP if dim_cap is None else dim_cap


def _check_cap(requested: int, dim_cap: int | None, what: str) -> None:
    """Raise DimensionCapError when requested exceeds the cap; what names
    the layer and the sizes."""
    cap = _cap(dim_cap)
    if requested > cap:
        raise DimensionCapError(
            f"{what} needs dimension {requested}, above the cap {cap}",
            requested, cap)


def _check_cover(m: Bimodule, y: Bimodule, dim_cap: int | None,
                 what: str) -> None:
    """The cap on F(Y) = M tensor_A Hom(M, Y), checked on its plain dim
    m.dim x dim Hom(M, Y) before comonad_apply forms the tensor."""
    hom = cover_hom(m, y)
    _check_cap(m.dim * hom.dim, dim_cap, f"{what} ({m.dim} x {hom.dim})")


def check_bar_level0(m: Bimodule, dim_cap: int | None) -> None:
    """The cap on bar object 0 = F(B), checked from *M alone: every task
    that takes a cap calls this before evaluation_data(m) builds
    M tensor_A *M, so the cap stops the tensor square instead of only
    refusing to hand it on."""
    _check_cover(m, regular_bimodule(m.left_algebra), dim_cap,
                 "bar growth: bar object 0")


# ---------------------------------------------------------------------------
# Result containers


@dataclass(eq=False)
class ChainComplex:
    """P_0 <- P_1 <- ... with an augmentation P_0 -> B at index 0."""

    objects: tuple
    differentials: tuple       # differentials[n]: P_n -> P_{n-1} (P_{-1} = B)
    augmentation_target: Bimodule

    def validate(self) -> ValidationResult:
        for n, d in enumerate(self.differentials):
            v = d.validate()
            if not v:
                return ValidationResult(False, f"d_{n}: {v.message}")
        for n in range(len(self.differentials) - 1):
            comp = self.differentials[n].matrix @ self.differentials[n + 1].matrix
            if not comp.is_zero():
                return ValidationResult(False, f"d_{n} after d_{n + 1} is nonzero")
        return ValidationResult(True)


@dataclass(frozen=True)
class CohomologyDegree:
    degree: int
    dim: int
    cocycle_dim: int
    coboundary_dim: int
    representatives: tuple     # cocycle coordinates in the cochain basis


@dataclass(eq=False)
class CohomologyResult:
    degrees: tuple

    def dims(self) -> tuple:
        return tuple(d.dim for d in self.degrees)

    def degree(self, n: int) -> CohomologyDegree:
        return self.degrees[n]


def _cohomology(field: Field, space_dims: list, deltas: list,
                nmax: int) -> CohomologyResult:
    """Rank-nullity bookkeeping plus representative extraction."""
    out = []
    prev = None
    for n in range(nmax + 1):
        ker = kernel_basis(deltas[n])
        tracker = SpanTracker(space_dims[n], field.p)
        cob_dim = 0
        if prev is not None:
            for j in range(prev.cols):
                if tracker.add(prev.column(j)):
                    cob_dim += 1
        reps = []
        for row in ker.basis.nz:
            if tracker.add(row):
                reps.append(tuple(dense_vec(field, row, space_dims[n])))
        hdim = ker.dim - cob_dim
        if hdim != len(reps):
            raise ValidationError("coboundaries escape the cocycle space")
        out.append(CohomologyDegree(n, hdim, ker.dim, cob_dim, tuple(reps)))
        prev = deltas[n]
    return CohomologyResult(tuple(out))


# ---------------------------------------------------------------------------
# The two resolutions of B by the comonad


@memoized
def _cochains(obj: Bimodule, coefficients: Bimodule) -> EquivariantBasis:
    """The two-sided maps obj -> coefficients, solved once per pair."""
    return hom_bimodule(obj, coefficients)


class _SyzygyChain:
    """The relative syzygies of B for one generator M, grown on demand:
    Omega^0 = B and Omega^{n+1} = ker(eps_n) for the counit
    eps_n: P_n = F(Omega^n) -> Omega^n of comonad_apply, which
    is_rel_projective reads too; P_n is eps_n.source.

    Hom(M, eps_n) is split by the unit, so P_n with
    d_n = (Omega^n in P_{n-1}) eps_n is an allowable relatively
    projective resolution of B, smaller than the bar: by the comparison
    theorem its cochains have the bar's cohomology, and by relative
    Schanuel its Omega^n is relatively projective exactly when the
    bar's is.  Omega^1 = ker ev is the bar's first syzygy too.  The
    chain stops growing at the first Omega^n that is 0."""

    def __init__(self, m: Bimodule):
        self.m = m
        self.syzygies = [regular_bimodule(m.left_algebra)]
        self.inclusions = [None]      # inclusions[n]: Omega^n -> P_{n-1}

    def syzygy(self, n: int, dim_cap: int | None = None) -> Bimodule:
        """Omega^n; once some Omega^k is 0, the same zero object for
        every n > k."""
        while len(self.syzygies) <= n and self.syzygies[-1].dim:
            k = len(self.syzygies) - 1
            eps = self.cover(k, dim_cap)
            sub, incl = sub_bimodule(eps.source, kernel_basis(eps.matrix),
                                     name=f"syz{k + 1}({self.m.name})")
            # d_k d_{k+1} = incl_k (eps_k incl_{k+1}) eps_{k+1}
            if not (eps.matrix @ incl).is_zero():
                raise ValidationError(f"differential square nonzero at {k}")
            self.syzygies.append(sub)
            self.inclusions.append(incl)
        return self.syzygies[min(n, len(self.syzygies) - 1)]

    def cover(self, n: int, dim_cap: int | None = None) -> BimoduleMap:
        """eps_n, with the cap checked on P_n before it is formed."""
        y = self.syzygy(n, dim_cap)
        _check_cover(self.m, y, dim_cap,
                     f"syzygy resolution: P_{n} = F(Omega^{n})")
        return comonad_apply(self.m, y).map


@memoized
def _syzygy_chain(m: Bimodule) -> _SyzygyChain:
    return _SyzygyChain(m)


class _BarEngine:
    """Grow-on-demand bar data for one module: objects, differentials,
    unit sections and Hom(M, -) of the differentials.

    P_n = F(P_{n-1}) (P_{-1} = B) is read from comonad_apply, so P_0,
    d_0 and Hom(M, B) are the evaluation's, and the generator check,
    separability, smoothness and the bar complex share one solve, one
    tensor square and one counit."""

    def __init__(self, m: Bimodule):
        self.m = m
        self.field = m.field
        self.b = regular_bimodule(m.left_algebra)
        self.tensors: list[TensorProduct] = []
        self.objects: list[Bimodule] = []
        self.diffs: list[BimoduleMap] = []
        self._sections: dict[int, Matrix] = {}
        self._hom_diffs: dict[int, Matrix] = {}

    def hom_level(self, k: int) -> HomSpace:
        """Hom(M, P_{k-1}), with P_{-1} = B."""
        return cover_hom(self.m, self.object(k - 1) if k else self.b)

    def object(self, n: int, dim_cap: int | None = None) -> Bimodule:
        while len(self.objects) <= n:
            self._extend(dim_cap)
        return self.objects[n]

    def diff(self, n: int, dim_cap: int | None = None) -> BimoduleMap:
        self.object(n, dim_cap)
        return self.diffs[n]

    def _extend(self, dim_cap: int | None) -> None:
        n = len(self.objects)
        prev = self.objects[n - 1] if n else self.b
        _check_cover(self.m, prev, dim_cap, f"bar growth: bar object {n}")
        cover = comonad_apply(self.m, prev)
        tensor, d = cover.tensor, cover.map
        if n:
            # d_n = counit - F(d_{n-1}).  Basis vector q lifts to the unit
            # vector e_i (x) e_u at plain index positions[q], which
            # F(d_{n-1}) sends to e_i (x) push[:, u], projected.
            push = self.hom_diff(n - 1)
            push_cols = push.colnz()
            h, ph = cover.hom.dim, push.rows
            cols = []
            for p in tensor.positions:
                i, u = divmod(p, h)
                w = {i * ph + r: x for r, x in push_cols[u]}
                cols.append(self.tensors[n - 1]._project_vec(w))
            fmat = Matrix._from_columns(self.field, cols, prev.dim)
            d = BimoduleMap(tensor.space, prev, d.matrix - fmat, name=f"d{n}")
            comp = self.diffs[n - 1].matrix @ d.matrix
            if not comp.is_zero():
                raise ValidationError(f"differential square nonzero at {n}")
        self.tensors.append(tensor)
        self.objects.append(tensor.space)
        self.diffs.append(d)

    def unit_section(self, n: int) -> Matrix:
        """s_n: Hom(M,P_n) -> Hom(M,P_{n+1}), f -> (x -> x tensor f).
        n = -1 is allowed and lands in Hom(M, P_0)."""
        if n not in self._sections:
            src = self.hom_level(n + 1)
            self.object(n + 1)
            tgt = self.hom_level(n + 2)
            tensor = self.tensors[n + 1]
            h = src.dim
            # x -> x (x) f_u sends basis vector i to the class of (i, u),
            # column i * h + u of the projection (the identity when the
            # tensor is trivial)
            cols = [tgt.solver._coords_from(
                        lambda i: tensor.projection.column(i * h + u))
                    for u in range(h)]
            self._sections[n] = Matrix._from_columns(self.field, cols, tgt.dim)
        return self._sections[n]

    def hom_diff(self, n: int) -> Matrix:
        """Hom(M, d_n): Hom(M,P_n) -> Hom(M,P_{n-1}) in solver coordinates,
        read off generator values."""
        if n not in self._hom_diffs:
            self.object(n)
            self._hom_diffs[n] = composition_matrix(
                self.hom_level(n + 1).solver, self.diffs[n].matrix, False,
                self.hom_level(n).solver)
        return self._hom_diffs[n]


@memoized
def _engine(m: Bimodule) -> _BarEngine:
    return _BarEngine(m)


def _require_generator(m: Bimodule) -> None:
    if not is_generator(m).verdict:
        raise PreconditionError(
            f"{m.name} is not a generator; the bar complex is not a resolution")


def bar_resolution(m: Bimodule, depth: int,
                   dim_cap: int | None = None) -> ChainComplex:
    """The augmented complex P_0 .. P_{depth-1} with d_0 the evaluation."""
    if depth < 1:
        raise PreconditionError("depth must be at least 1")
    check_bar_level0(m, dim_cap)
    _require_generator(m)
    eng = _engine(m)
    eng.object(depth - 1, dim_cap)
    return ChainComplex(tuple(eng.objects[:depth]), tuple(eng.diffs[:depth]),
                        eng.b)


def homotopy_check(m: Bimodule, depth: int,
                   dim_cap: int | None = None) -> ValidationResult:
    """Exactness certificate: after Hom(M,-), the unit sections contract
    the augmented complex. Checks the base identity and degrees below
    `depth`."""
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    check_bar_level0(m, dim_cap)
    _require_generator(m)
    eng = _engine(m)
    eng.object(depth, dim_cap)
    ident0 = Matrix.identity(eng.field, eng.hom_level(0).dim)
    if eng.hom_diff(0) @ eng.unit_section(-1) != ident0:
        return ValidationResult(False, "base contraction identity fails")
    for n in range(depth):
        lhs = (eng.hom_diff(n + 1) @ eng.unit_section(n)
               + eng.unit_section(n - 1) @ eng.hom_diff(n))
        if lhs != Matrix.identity(eng.field, eng.hom_level(n + 1).dim):
            return ValidationResult(False, f"contraction identity fails at {n}")
    return ValidationResult(True)


def module_hochschild(m: Bimodule, coefficients: Bimodule, nmax: int,
                      dim_cap: int | None = None) -> CohomologyResult:
    """Cohomology of two-sided maps into the coefficients off the
    syzygy resolution (_SyzygyChain), with the coboundary precomposing
    the next differential; by the comparison theorem the bar complex has
    the same, and comparison_check reports this one.

    _cohomology reads the top coboundary only through its kernel, the
    top cocycles: g kills d_{nmax+1} iff it kills Omega^{nmax+1} =
    ker eps_nmax (eps_{nmax+1} is onto, M being a generator), iff
    g = h eps_nmax for a two-sided h: Omega^nmax -> N.  deltas[nmax] is
    the annihilator of those cocycles, so neither Omega^{nmax+1} nor
    P_{nmax+1} is formed.

    When B is relatively projective (M is separable), B resolves itself,
    P_0 = B with d_0 the identity: only degree 0 has cochains and no
    cover is formed.  B is generated by 1, so its split is one small
    solve, shared with hdim level 0; a higher Omega^n's split costs about
    what covering it does, so no later syzygy is tested."""
    _check_complex_args(m, coefficients, nmax)
    check_bar_level0(m, dim_cap)
    _require_generator(m)
    # diagnostics imports this module, so its split is imported here
    from .diagnostics import is_rel_projective
    field, chain = m.field, _syzygy_chain(m)
    covers = []                 # eps_n for each nonzero Omega^n, n <= nmax
    if is_rel_projective(chain.syzygy(0), m).verdict:
        objects = [chain.syzygy(0)]
    else:
        for n in range(nmax + 1):
            if not chain.syzygy(n, dim_cap).dim:
                break
            covers.append(chain.cover(n, dim_cap))
        objects = [eps.source for eps in covers]
    solvers = [_cochains(p, coefficients) for p in objects]
    top = len(solvers) - 1
    deltas = [composition_matrix(
                  solvers[n], chain.inclusions[n + 1] @ covers[n + 1].matrix,
                  True, solvers[n + 1])
              for n in range(top)]
    if len(covers) > nmax:
        eps = covers[top]
        cocycles = composition_matrix(_cochains(eps.target, coefficients),
                                      eps.matrix, True, solvers[top])
        deltas.append(kernel_basis(cocycles.transpose()).basis)
    else:
        # P_{top+1} = 0, so every cochain is a cocycle
        deltas.append(Matrix.from_sparse(field, [], solvers[top].dim))
        deltas += [Matrix.from_sparse(field, [], 0)] * (nmax - top)
    _check_coboundary_squares(deltas, nmax)
    dims = [s.dim for s in solvers] + [0] * (nmax - top)
    return _cohomology(field, dims, deltas, nmax)


def _check_complex_args(m: Bimodule, coefficients: Bimodule,
                        nmax: int) -> None:
    if nmax < 0:
        raise PreconditionError("nmax must be nonnegative")
    if coefficients.left_algebra is not m.left_algebra \
            or coefficients.right_algebra is not m.left_algebra:
        raise PreconditionError("coefficients must be two-sided over B")


def _check_coboundary_squares(deltas: list, nmax: int) -> None:
    for n in range(nmax):
        if not (deltas[n + 1] @ deltas[n]).is_zero():
            raise ValidationError(f"coboundary square nonzero at {n}")


def _stacked(field: Field, blocks: list, width: int, cols: int) -> Matrix:
    """The matrix with blocks[k][u], a sparse vector of length width, in
    column u at rows k * width on: one block per top generator of the
    ring side, each listing the cochains u."""
    rows = []
    for block in blocks:
        part = [{} for _ in range(width)]
        for u, y in enumerate(block):
            for s, x in y.items():
                part[s][u] = x
        rows += part
    return Matrix.from_sparse(field, rows, cols)


def _module_complex(m: Bimodule, coefficients: Bimodule, nmax: int,
                    dim_cap: int | None):
    """Cochain solvers of degrees 0..nmax on the bar complex and the
    coboundaries between them, deltas[n] into degree n + 1 for n < nmax:
    the coordinates that the transport of comparison_check reads; m must
    be a generator.  No top coboundary is formed: the cohomology is
    module_hochschild's, so P_nmax is the last object grown and
    Hom(M, P_nmax) is never solved."""
    eng = _engine(m)
    eng.object(nmax, dim_cap)
    solvers = [_cochains(eng.object(n), coefficients)
               for n in range(nmax + 1)]
    deltas = [composition_matrix(solvers[n], eng.diffs[n + 1].matrix,
                                 True, solvers[n + 1])
              for n in range(nmax)]
    _check_coboundary_squares(deltas, nmax - 1)
    return solvers, deltas


# ---------------------------------------------------------------------------
# Ring-relative side: tensor powers of S over A and the coboundary


@dataclass(eq=False)
class _RingChain:
    a: Algebra
    s: Algebra
    s_mid: Bimodule            # S restricted to an (A, A)-bimodule
    spaces: list               # spaces[k] = S^{tensor_A k}, spaces[0] = A
    to_plain: list             # columns of spaces[k] as plain s^k vectors
    from_plain: list           # projection plain s^k -> spaces[k]


def _ring_chain(extension: RingMap, upto: int,
                dim_cap: int | None) -> _RingChain:
    a, s_alg = extension.source, extension.target
    field = a.field
    s_mid = restrict_right(restrict_left(regular_bimodule(s_alg), extension),
                           extension)
    ident_s = Matrix.identity(field, s_alg.dim)
    chain = _RingChain(a, s_alg, s_mid, [regular_bimodule(a), s_mid],
                       [None, ident_s], [None, ident_s])
    s = s_alg.dim
    for k in range(2, upto + 1):
        prev = chain.spaces[k - 1]
        _check_cap(prev.dim * s, dim_cap,
                   f"ring complex: tensor power {k} ({prev.dim} x {s})")
        _check_cap(s ** k, dim_cap,
                   f"ring complex: tensor power {k} (flattened, {s}^{k})")
        t = tensor_over(prev, s_mid, name=f"T{k}")
        sigma_prev = chain.to_plain[k - 1]
        cols = [apply_slot(t.lift_column(q), [prev.dim, s], 0, sigma_prev)[0]
                for q in range(t.space.dim)]
        sigma = Matrix._from_columns(field, cols, s ** k)
        big = chain.from_plain[k - 1].kron(ident_s)
        pi = big if t.trivial else t.projection @ big
        chain.spaces.append(t.space)
        chain.to_plain.append(sigma)
        chain.from_plain.append(pi)
    return chain


def _ring_complex(extension: RingMap, w: Bimodule, nmax: int,
                  dim_cap: int | None):
    """Cochain solvers of degrees 0..nmax and the coboundaries out of them
    for the ring-relative side.

    As on the module side, deltas[nmax] is not in solver coordinates: it
    stacks the coboundary's columns at the bimodule generators of
    S^{tensor_A (nmax+1)}, which fix a two-sided map off it, so the top
    cochain space is never solved for."""
    v = validate_ring_map(extension)
    if not v:
        raise ValidationError(f"invalid ring map: {v.message}")
    if w.left_algebra is not extension.target \
            or w.right_algebra is not extension.target:
        raise ValidationError("coefficients must be two-sided over the target")
    a, s_alg = extension.source, extension.target
    field = a.field
    p = field.p
    s = s_alg.dim
    w_mid = restrict_right(restrict_left(w, extension), extension)
    chain = _ring_chain(extension, nmax + 1, dim_cap)
    top_gens = two_sided_generators(chain.spaces[nmax + 1])
    _check_cap(len(top_gens) * w.dim, dim_cap,
               f"ring complex: top coboundary embedding at degree {nmax} "
               f"({len(top_gens)} generators x {w.dim})")
    solvers = [hom_bimodule(chain.spaces[k], w_mid) for k in range(nmax + 1)]
    mu = Matrix._from_columns(field, [cell for row in s_alg.mult
                                      for cell in row], s)

    def coboundary_terms(n: int, q: int) -> list:
        # column q of the coboundary of a degree-n cochain g is the sum of
        # op(g(vec)) over these pairs (op None is the identity); no pair
        # depends on g, so each is built once per column, not per cochain
        if n == 0:
            return [(w.left_action[q] - w.right_action[q], a.unit)]
        pi_n = chain.from_plain[n]
        v_plain = chain.to_plain[n + 1].column(q)
        # split v_plain by its first slot (heads) and by its last (tails)
        blk = s ** n
        heads: dict[int, dict] = {}
        tails: dict[int, dict] = {}
        for idx, x in v_plain.items():
            j, rest = divmod(idx, blk)
            heads.setdefault(j, {})[rest] = x
            rest, l = divmod(idx, s)
            tails.setdefault(l, {})[rest] = x
        # the inner faces, signed and summed before pi_n
        inner: dict = {}
        sign = field.one
        dims = [s] * (n + 1)
        for i in range(1, n + 1):
            sign = -sign
            axpy(inner, sign, apply_slot(v_plain, dims, i - 1, mu, 2)[0], p)
        sign = -sign
        terms = [(w.left_action[j], pi_n.apply(chunk))
                 for j, chunk in heads.items()]
        terms.append((None, pi_n.apply(inner)))
        for l, sub in tails.items():
            tail: dict = {}
            axpy(tail, sign, pi_n.apply(sub), p)
            terms.append((w.right_action[l], tail))
        return [(op, vec) for op, vec in terms if vec]

    def coboundary_columns(n: int, q: int) -> list:
        # column q of the coboundary of every degree-n basis cochain g_u:
        # each term's vector goes through all g_u at once (images), so no
        # cochain is formed
        acc = [{} for _ in range(solvers[n].dim)]
        for op, vec in coboundary_terms(n, q):
            for col, y in zip(acc, solvers[n].images(vec)):
                if y:
                    axpy(col, field.one, y if op is None else op.apply(y), p)
        return acc

    # the coordinates of a coboundary read only its generator columns
    deltas = []
    for n in range(nmax):
        into = solvers[n + 1]
        at = {q: coboundary_columns(n, q) for q in into.generators}
        cols = [into._coords_from(lambda q: at[q][u])
                for u in range(solvers[n].dim)]
        deltas.append(Matrix._from_columns(field, cols, into.dim))
    deltas.append(_stacked(field, [coboundary_columns(nmax, q)
                                   for q in top_gens],
                           w.dim, solvers[nmax].dim))
    for n in range(nmax):
        if not (deltas[n + 1] @ deltas[n]).is_zero():
            raise ValidationError(f"ring coboundary square nonzero at {n}")
    return solvers, deltas, chain, w_mid


def ring_hochschild(extension: RingMap, w: Bimodule, nmax: int,
                    dim_cap: int | None = None) -> CohomologyResult:
    """Relative Hochschild cohomology of the target over the source, with
    two-sided coefficients w."""
    if nmax < 0:
        raise PreconditionError("nmax must be nonnegative")
    solvers, deltas, _, _ = _ring_complex(extension, w, nmax, dim_cap)
    return _cohomology(extension.source.field, [s.dim for s in solvers],
                       deltas, nmax)


# ---------------------------------------------------------------------------
# Transport between the two theories (the endomorphism-ring comparison)


@dataclass(eq=False)
class MoritaData:
    """M's dual as a module over the endomorphism ring S, and psi: S ->
    plain dual tensor M, the inverse of the iso *M tensor_B M -> S read
    off the dual basis {f_i, e_i} of M: psi(s) = sum f_i tensor (e_i) s."""

    endo: object
    dual: HomSpace
    dual_endo: Bimodule
    psi_plain: Matrix          # endomorphism coords -> plain dual tensor M
    psi_unit: dict             # sparse image of the unit, slots (dual, M)


@memoized
def morita_data(m: Bimodule) -> MoritaData:
    field = m.field
    projective = is_fg_projective_left(m)
    if not projective.verdict:
        raise PreconditionError(
            f"{m.name} is not finitely generated projective; "
            "it has no dual basis")
    endo = endomorphism_ring(m)
    dual = dual_module(m)
    s_alg = endo.algebra
    left = tuple(composition_matrix(dual.solver, hu, True, dual.solver)
                 for hu in endo.hom.basis)
    dual_endo = Bimodule(s_alg, m.left_algebra, dual.dim, left,
                         dual.space.right_action, name=f"*{m.name}")
    # column i of u is the functional paired with e_i; psi(s_k) is
    # u @ s_k^T and psi(1) is u, each flattened row-major to (dual, M)
    u = Matrix._from_columns(field, [sparse_vec(field, f) for _, f
                                     in projective.dual_basis], dual.dim)

    def flat(mat: Matrix) -> dict:
        return {d * m.dim + i: x for d, row in enumerate(mat.nz)
                for i, x in row.items()}

    psi_plain = Matrix._from_columns(
        field, [flat(u @ hu.transpose()) for hu in endo.hom.basis],
        dual.dim * m.dim)
    return MoritaData(endo, dual, dual_endo, psi_plain, flat(u))


@dataclass(eq=False)
class TransportedCoefficients:
    w: Bimodule                # dual tensor_B N tensor_B M, an (S,S)-bimodule
    t1: TensorProduct
    t2: TensorProduct


@memoized
def coefficient_transport(m: Bimodule, n: Bimodule) -> TransportedCoefficients:
    """The coefficient bimodule on the endomorphism-ring side."""
    md = morita_data(m)
    t1 = tensor_over(md.dual_endo, n)
    t2 = tensor_over(t1.space, md.endo.right_module)
    return TransportedCoefficients(t2.space, t1, t2)


@dataclass(frozen=True)
class ComparisonDegree:
    degree: int
    module_cochain_dim: int
    ring_cochain_dim: int
    iso: bool


@dataclass(eq=False)
class ComparisonReport:
    """`phis` are in bar cochain coordinates, `module` in those of
    module_hochschild's resolution: only module.dims() may be set beside
    `phis` or `ring`."""

    degrees: tuple
    base_square: bool          # degree-0 edge square
    step_squares: tuple        # coboundary squares, degrees 1..nmax
    module: CohomologyResult   # module_hochschild's
    ring: CohomologyResult     # of the ring-relative complex compared
    phis: tuple                # the rewrite in each degree, in solver coords

    @property
    def ok(self) -> bool:
        return (self.base_square and all(self.step_squares)
                and all(d.iso for d in self.degrees))


def comparison_check(m: Bimodule, coefficients: Bimodule, nmax: int,
                     dim_cap: int | None = None) -> ComparisonReport:
    """Rewrite module-relative cochains on the bar complex as
    ring-relative ones and verify the identification is a degreewise
    isomorphism commuting with both coboundaries and the degree-0 edge
    maps.  The report carries the module-relative cohomology from
    module_hochschild, computed first so that its caps fire before any
    transport work, and the ring-relative cohomology of the complex
    compared; each complex is built once."""
    _check_complex_args(m, coefficients, nmax)
    check_bar_level0(m, dim_cap)
    if not is_generator(m).verdict or not is_fg_projective_left(m).verdict:
        raise PreconditionError("comparison requires a progenerator")
    module = module_hochschild(m, coefficients, nmax, dim_cap)
    field = m.field
    p = field.p
    k_solvers, mod_deltas = _module_complex(m, coefficients, nmax, dim_cap)
    md = morita_data(m)
    eng = _engine(m)
    wd = coefficient_transport(m, coefficients)
    rel_solvers, rel_deltas, chain, w_mid = _ring_complex(
        md.endo.to_endo, wd.w, nmax, dim_cap)
    dm, dd, dn = m.dim, md.dual.dim, coefficients.dim
    s = md.endo.algebra.dim
    ddm = dd * dm

    iso_mats: dict[int, Matrix] = {}

    def iso_mat(k: int) -> Matrix:
        # plain (dual, P_{k-1}) -> Hom(M, P_{k-1}) solver coordinates
        if k not in iso_mats:
            prev = eng.objects[k - 1]
            hom = eng.hom_level(k)
            orbits = [basis_orbit(prev, prev.left_action, y)
                      for y in range(prev.dim)]
            cols = [hom.solver._coords_from(
                        lambda g: orbit.apply(fd.column(g)))
                    for fd in md.dual.basis for orbit in orbits]
            iso_mats[k] = Matrix._from_columns(field, cols, hom.dim)
        return iso_mats[k]

    def collapse(k: int, sv: dict, dims: list, lo: int):
        # dims[lo : lo + 2k + 2] = (M, dual) pairs; contract to bar object k
        if k == 0:
            return apply_slot(sv, dims, lo, eng.tensors[0].projection, 2)
        sv, dims = collapse(k - 1, sv, dims, lo + 2)
        sv, dims = apply_slot(sv, dims, lo + 1, iso_mat(k), 2)
        return apply_slot(sv, dims, lo, eng.tensors[k].projection, 2)

    def to_w(sv: dict, dims: list) -> dict:
        # dims = [dd, dn, dm] down to coefficient coordinates on the ring side
        sv, dims = apply_slot(sv, dims, 0, wd.t1.projection, 2)
        sv, dims = apply_slot(sv, dims, 0, wd.t2.projection, 2)
        return sv

    def feeds(n: int) -> list:
        # the vectors and slot dims that a degree-n cochain is applied to
        # in slot 1, one per column of its image (degree 0: one, at the
        # unit); none depends on the cochain
        if n == 0:
            sv = _kron_vec(md.psi_unit, md.psi_unit, ddm, p)
            return [collapse(0, sv, [dd, dm, dd, dm], 1)]
        out = []
        for q in range(chain.spaces[n].dim):
            sv = chain.to_plain[n].column(q)
            dims = [s] * n
            for j in range(n):
                sv, dims = apply_slot(sv, dims, j, md.psi_plain)
            mid_len = ddm ** n
            sv = _kron_vec(md.psi_unit, _kron_vec(sv, md.psi_unit, ddm, p),
                           mid_len * ddm, p)
            out.append(collapse(n, sv, [dd, dm] * (n + 2), 1))
        return out

    fed = [feeds(n) for n in range(nmax + 1)]

    def image_cochain(gmat: Matrix, n: int) -> Matrix:
        cols = [to_w(*apply_slot(sv, dims, 1, gmat)) for sv, dims in fed[n]]
        if n == 0:
            cols = [w_mid.left_action[q].apply(cols[0])
                    for q in range(chain.a.dim)]
        return Matrix._from_columns(field, cols, wd.w.dim)

    phis = []
    degrees = []
    for n in range(nmax + 1):
        cols = [rel_solvers[n].coords_of(image_cochain(g, n), verify=True)
                for g in k_solvers[n].maps]
        phi = Matrix._from_columns(field, cols, rel_solvers[n].dim)
        phis.append(phi)
        iso = (k_solvers[n].dim == rel_solvers[n].dim
               and rank(phi) == phi.cols)
        degrees.append(ComparisonDegree(n, k_solvers[n].dim,
                                        rel_solvers[n].dim, iso))

    # degree-0 edge square: central coefficients map equally through both edges
    base_ok = True
    cz = centralizer(coefficients)
    for row in cz.basis.nz:
        g_cols = [act.apply(row) for act in coefficients.left_action]
        g_edge = Matrix._from_columns(field, g_cols, dn)
        lhs = image_cochain(g_edge @ eng.diffs[0].matrix, 0)
        psv = md.psi_unit
        ins: dict = {}
        for idx, val in psv.items():
            d, i = divmod(idx, dm)
            for j, njv in row.items():
                ins[(d * dn + j) * dm + i] = \
                    val * njv if p is None else val * njv % p
        w_n = to_w(ins, [dd, dn, dm])
        rhs_cols = [w_mid.left_action[q].apply(w_n)
                    for q in range(chain.a.dim)]
        rhs = Matrix._from_columns(field, rhs_cols, wd.w.dim)
        if lhs != rhs:
            base_ok = False
            break

    step_ok = []
    for n in range(1, nmax + 1):
        lhs = phis[n] @ mod_deltas[n - 1]
        rhs = rel_deltas[n - 1] @ phis[n - 1]
        step_ok.append(lhs == rhs)

    return ComparisonReport(
        tuple(degrees), base_ok, tuple(step_ok), module,
        _cohomology(field, [r.dim for r in rel_solvers], rel_deltas, nmax),
        tuple(phis))
