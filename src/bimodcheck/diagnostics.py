"""Decision procedures with witnesses: separability, relative projectivity,
formal smoothness, homological dimension bounds, and the cross-check
reports tying the bimodule-side and extension-side theories together.

Every true verdict carries a witness that re-validates by direct
substitution (a Casimir element, a section, a dual basis); every false
verdict carries a finite obstruction (an infeasibility functional).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bimodule import (
    Bimodule, BimoduleMap, centralizer, comonad_apply, descend_plain_map,
    dual_module, endomorphism_ring, evaluation_data, hom_bimodule,
    is_fg_projective_left, is_fg_projective_right, is_generator,
    regular_bimodule, restrict_left, restrict_right, static_check,
    sub_bimodule, tensor_over, trace_in,
)
from .errors import PreconditionError, ValidationError
from .exactlin import (
    Matrix, dense_vec, infeasibility_certificate, kernel_basis, rank,
    solve_affine, solve_or_certify,
)
from .homology import _syzygy_chain, check_bar_level0, comparison_check
from .structures import (
    RingMap, memoized, multiplication_map, validate_ring_map,
)


def _central_solve(t_space: Bimodule, target_mat: Matrix, unit: dict):
    """Solve target_mat(s) = unit over the centralizer of t_space.

    Returns (element coords in t_space, None, centralizer), the element
    re-checked by substitution, or (None, obstruction functional on the
    target, centralizer); both as dense tuples.
    """
    field = t_space.field
    cz = centralizer(t_space)
    sol, cert = solve_or_certify(target_mat @ cz.basis.transpose(), unit)
    if sol is None:
        return None, tuple(dense_vec(field, cert, target_mat.rows)), cz
    element = cz._embed(sol)
    for i in range(t_space.left_algebra.dim):
        delta = t_space.left_action[i] - t_space.right_action[i]
        if delta.apply(element):
            raise ValidationError("witness is not central")
    if target_mat.apply(element) != unit:
        raise ValidationError("witness does not evaluate to the unit")
    return tuple(dense_vec(field, element, t_space.dim)), None, cz


def _split(counit: BimoduleMap, dims: dict):
    """A two-sided section of counit: F -> P, re-checked by substitution,
    as (section, None); else (None, certify), where certify() returns an
    infeasibility functional on the coordinates of End(P).

    counit @ g is a two-sided map P -> P for every basis map g of the
    solver, so it is fixed by its values at the solver's generators, and
    those are counit applied to the generator values of g.  The system
    is built on those r * d rows instead of d^2, with no basis map
    formed.  It has the same solution set as the full system, hence the
    same reduced form and the same section.  The certificate does depend
    on the rows, so certify() builds the full d^2-row system; it runs
    only when a report reads the obstruction (_Obstructed).
    """
    p, fp = counit.target, counit.source
    field, d = p.field, p.dim
    solver = hom_bimodule(p, fp)
    dims["map_space"] = solver.dim
    # row j * d + i, column u: entry i of (counit @ g_u) at generators[j]
    rows = [{} for _ in range(len(solver.generators) * d)]
    for u in range(solver.dim):
        for j, val in solver.generator_values(u).items():
            for i, x in counit.matrix.apply(val).items():
                rows[j * d + i][u] = x
    rhs = {j * d + g: field.one for j, g in enumerate(solver.generators)}
    sol = solve_affine(Matrix.from_sparse(field, rows, solver.dim), rhs)
    if sol is None:
        return None, lambda: _full_certificate(counit, solver)
    sec_mat = solver.matrix_of(sol.particular)
    if counit.matrix @ sec_mat != Matrix.identity(field, d):
        raise ValidationError(f"section does not split {counit.name}")
    return BimoduleMap(p, fp, sec_mat, name="section"), None


def _full_certificate(counit: BimoduleMap, solver) -> tuple:
    """The infeasibility functional of counit @ sum_u c_u g_u = 1 on all
    d^2 entries: column u is counit @ g_u flattened column-major, entry
    (i, j) at row j * d + i.  Forms every basis map of the solver."""
    field, d = counit.target.field, counit.target.dim
    rows = [{} for _ in range(d * d)]
    for u, g in enumerate(solver.maps):
        for i, prow in enumerate((counit.matrix @ g).nz):
            for j, x in prow.items():
                rows[j * d + i][u] = x
    rhs = {i * (d + 1): field.one for i in range(d)}
    cert = infeasibility_certificate(
        Matrix.from_sparse(field, rows, solver.dim), rhs)
    if cert is None:
        raise ValidationError(f"{counit.name} splits on all entries but "
                              f"not at the generators")
    return tuple(dense_vec(field, cert, d * d))


class _Obstructed:
    """A result that splits a counit; `certify` is None when it splits,
    else what forms the obstruction (from _split)."""

    _obstruction = None

    @property
    def obstruction(self) -> tuple | None:
        """The infeasibility functional, None when the counit splits.

        It is formed on the first read and kept: rel_projective and
        smooth_extension reports render it; smooth and hdim verdicts
        never read it, so they never form it."""
        if self.certify is not None:
            self._obstruction, self.certify = self.certify(), None
        return self._obstruction


@dataclass(eq=False)
class SeparabilityResult:
    verdict: bool
    casimir: tuple | None          # coords in M tensor_A *M
    obstruction: tuple | None      # functional on B infeasible against 1
    dimensions: dict

    def __bool__(self) -> bool:
        return self.verdict


def is_separable_bimodule(m: Bimodule) -> SeparabilityResult:
    """A central element of M tensor_A *M evaluating to 1, if one exists."""
    ev = evaluation_data(m)
    t_space = ev.tensor.space
    b = m.left_algebra
    element, cert, cz = _central_solve(t_space, ev.map.matrix, b.unit)
    dims = {"tensor_square": t_space.dim, "centralizer": cz.dim}
    return SeparabilityResult(element is not None, element, cert, dims)


@dataclass(eq=False)
class RelProjectivityResult(_Obstructed):
    verdict: bool
    section: BimoduleMap | None    # splits the counit F(P) -> P
    counit: BimoduleMap            # the map the section must split
    certify: object                # forms the functional on End-coordinates
    dimensions: dict

    def __bool__(self) -> bool:
        return self.verdict


def is_rel_projective(p: Bimodule, m: Bimodule) -> RelProjectivityResult:
    """Does the counit M tensor_A Hom(M, P) -> P split as two-sided maps?

    Splitting the counit is equivalent to relative projectivity for the
    class of maps that split after Hom(M, -).  Decided once per (P, M):
    hdim level 1 and smoothness ask it of the same Omega^1.
    """
    return _rel_projective(m, p)


@memoized
def _rel_projective(m: Bimodule, p: Bimodule) -> RelProjectivityResult:
    # kept in m.cache, so a split lives as long as M, even when P is the
    # regular bimodule that the algebra keeps
    if p.left_algebra is not m.left_algebra \
            or p.right_algebra is not m.left_algebra:
        raise PreconditionError("p must be two-sided over M's left algebra")
    cover = comonad_apply(m, p)
    fp, counit = cover.tensor.space, cover.map
    dims = {"object": p.dim, "expansion": fp.dim}
    if p.dim == 0:
        zero_sec = BimoduleMap(p, fp,
                               Matrix(m.field, [[] for _ in range(fp.dim)],
                                      cols=0), name="section")
        return RelProjectivityResult(True, zero_sec, counit, None, dims)
    section, certify = _split(counit, dims)
    return RelProjectivityResult(section is not None, section, counit,
                                 certify, dims)


@dataclass(eq=False)
class SmoothnessResult:
    verdict: bool
    route: str                     # ev-injective | separable | kernel-splitting
    kernel_dim: int | None
    detail: object                 # the underlying result used for the verdict
    dimensions: dict

    def __bool__(self) -> bool:
        return self.verdict


def is_formally_smooth_bimodule(
        m: Bimodule, dim_cap: int | None = None) -> SmoothnessResult:
    """Is the kernel of the evaluation map relatively projective?

    Short-circuits: an injective evaluation has zero kernel, and a
    separable bimodule splits the whole evaluation, which restricts to
    the kernel.  The kernel is Omega^1 = ker ev of the syzygy chain,
    which is also the bar's first syzygy, so hdim level 1 reads the same
    object and split; dim_cap bounds P_0 = M tensor_A *M, checked before
    it is built.
    """
    check_bar_level0(m, dim_cap)
    ev = evaluation_data(m)
    t_dim = ev.tensor.space.dim
    dims = {"tensor_square": t_dim, "evaluation_rank": rank(ev.map.matrix)}
    if dims["evaluation_rank"] == t_dim:
        return SmoothnessResult(True, "ev-injective", 0, None, dims)
    sep = is_separable_bimodule(m)
    if sep.verdict:
        return SmoothnessResult(True, "separable", None, sep, dims)
    l = _syzygy_chain(m).syzygy(1, dim_cap)
    dims["kernel"] = l.dim
    rp = is_rel_projective(l, m)
    return SmoothnessResult(rp.verdict, "kernel-splitting", l.dim, rp, dims)


@dataclass(eq=False)
class ExtensionSeparabilityResult:
    verdict: bool
    idempotent: tuple | None       # coords in B tensor_A B
    obstruction: tuple | None
    dimensions: dict

    def __bool__(self) -> bool:
        return self.verdict


def _validated(f: RingMap) -> None:
    v = validate_ring_map(f)
    if not v:
        raise ValidationError(f"invalid ring map: {v.message}")


def is_separable_extension(f: RingMap) -> ExtensionSeparabilityResult:
    """A central element of B tensor_A B multiplying to 1, if one exists."""
    _validated(f)
    b = f.target
    mult = multiplication_map(b, f)
    t_space = mult.source
    element, cert, cz = _central_solve(t_space, mult.matrix, b.unit)
    dims = {"tensor_square": t_space.dim, "centralizer": cz.dim}
    return ExtensionSeparabilityResult(element is not None, element, cert,
                                       dims)


@dataclass(eq=False)
class ExtensionSmoothnessResult(_Obstructed):
    verdict: bool
    kernel_dim: int
    section: BimoduleMap | None    # splits B (x) L (x) B -> L
    counit: BimoduleMap | None     # two-sided multiplication, None when L = 0
    certify: object                # forms the obstruction
    dimensions: dict

    def __bool__(self) -> bool:
        return self.verdict


def is_formally_smooth_extension(f: RingMap) -> ExtensionSmoothnessResult:
    """Is the kernel of multiplication projective relative to the base?

    The relevant counit is two-sided multiplication B (x)_A L (x)_A B -> L;
    a two-sided section witnesses smoothness of the extension.
    """
    _validated(f)
    b = f.target
    field = b.field
    mult = multiplication_map(b, f)
    l, _ = sub_bimodule(mult.source, kernel_basis(mult.matrix),
                        name="ker-mult")
    dims = {"tensor_square": mult.source.dim, "kernel": l.dim}
    if l.dim == 0:
        zero_sec = BimoduleMap(l, l, Matrix(field, [], cols=0), name="section")
        return ExtensionSmoothnessResult(True, 0, zero_sec, None, None,
                                         dims)
    b_reg = regular_bimodule(b)
    t1 = tensor_over(restrict_right(b_reg, f), restrict_left(l, f))
    t2 = tensor_over(restrict_right(t1.space, f), restrict_left(b_reg, f))
    dims["expansion"] = t2.space.dim
    # two-sided multiplication in two descents: b (x) l -> b l off t1,
    # then x (x) b' -> c1(x) b' off t2
    c1 = descend_plain_map(
        field, [l.left_action[i].column(q) for i in range(b.dim)
                for q in range(l.dim)], l.dim, t1)
    c1_cols = c1.columns()
    mat = descend_plain_map(
        field, [l.right_action[j].apply(c1_cols[x])
                for x in range(t1.space.dim) for j in range(b.dim)],
        l.dim, t2)
    counit = BimoduleMap(t2.space, l, mat, name="two-sided-mult")
    section, certify = _split(counit, dims)
    return ExtensionSmoothnessResult(section is not None, l.dim, section,
                                     counit, certify, dims)


@dataclass(eq=False)
class HdimResult:
    value: int | None              # None means every level up to nmax failed
    nmax: int
    witness: RelProjectivityResult | None
    shift_inferred: bool           # verdict used syzygy shifting beyond level 1

    @property
    def bounded(self) -> bool:
        return self.value is not None

    def render(self) -> str:
        return str(self.value) if self.bounded else f"> {self.nmax}"


def hdim_upto(m: Bimodule, nmax: int,
              dim_cap: int | None = None) -> HdimResult:
    """Least n <= nmax with the n-th syzygy relatively projective.

    Levels 0 and 1 are the separability and smoothness characterizations;
    higher levels shift dimension along the syzygy resolution, which is
    the standard argument but goes past the two characterized degrees, so
    the result is flagged.  By relative Schanuel any allowable relatively
    projective resolution gives the same verdicts; each cover of the
    syzygy chain resolves only Omega^n, so its syzygies grow more slowly
    than the bar's.
    The cap is checked on each cover F(Omega^n) before the split forms it.
    """
    if nmax < 0:
        raise PreconditionError("nmax must be nonnegative")
    check_bar_level0(m, dim_cap)
    if not is_generator(m).verdict:
        raise PreconditionError("homological dimension needs a generator")
    chain = _syzygy_chain(m)
    for n in range(nmax + 1):
        r = is_rel_projective(chain.cover(n, dim_cap).target, m)
        if r.verdict:
            return HdimResult(n, nmax, r, n >= 2)
    return HdimResult(None, nmax, None, nmax >= 1)


@dataclass(eq=False)
class MoritaReport:
    module_dims: tuple
    ring_dims: tuple
    dims_agree: bool
    comparison: object             # degreewise rewrite report

    @property
    def ok(self) -> bool:
        return self.dims_agree and self.comparison.ok


def morita_check(m: Bimodule, coefficients: Bimodule, nmax: int,
                 dim_cap: int | None = None) -> MoritaReport:
    """Both cohomology theories on a progenerator, with the degreewise
    rewrite between them; comparison_check checks the cap on P_0 and
    that M is a progenerator.  The module side is module_hochschild's,
    off the syzygy resolution, and the ring side is computed apart, so
    dims_agree compares two independent computations."""
    comp = comparison_check(m, coefficients, nmax, dim_cap)
    mod_dims, ring_dims = comp.module.dims(), comp.ring.dims()
    return MoritaReport(mod_dims, ring_dims, mod_dims == ring_dims, comp)


@dataclass(eq=False)
class SuganoReport:
    separable_bimodule: bool
    generator: bool
    extension_separable: bool      # base -> endomorphism ring

    @property
    def agree(self) -> bool:
        return self.separable_bimodule == (self.generator
                                           and self.extension_separable)


def sugano_check(m: Bimodule) -> SuganoReport:
    """Separability of the bimodule against generation plus separability
    of the base-to-endomorphisms extension, evaluated independently."""
    if not is_fg_projective_left(m).verdict:
        raise PreconditionError("the equivalence needs a projective module")
    endo = endomorphism_ring(m)
    report = SuganoReport(
        is_separable_bimodule(m).verdict,
        is_generator(m).verdict,
        is_separable_extension(endo.to_endo).verdict,
    )
    if not report.agree:
        raise ValidationError("separability transfer equivalence violated")
    return report


@dataclass(eq=False)
class StaticReport:
    ev_endo_injective: bool
    trace_static: bool
    generator: bool
    ev_endo_iso: bool
    endo_separable: bool           # M as a bimodule over (B, End(M))
    dimensions: dict

    @property
    def injectivity_cluster(self) -> bool:
        return self.ev_endo_injective == self.trace_static

    @property
    def generator_cluster(self) -> bool:
        return self.generator == self.ev_endo_iso == self.endo_separable


def static_criteria(m: Bimodule) -> StaticReport:
    """The two equivalence clusters around evaluation over endomorphisms:
    injectivity matches staticness of the trace, and surjectivity onto an
    isomorphism matches generation and separability over (B, End(M))."""
    endo = endomorphism_ring(m)
    b_reg = regular_bimodule(m.left_algebra)
    ev_b, _ = static_check(m, b_reg)     # ev_over_endo's cover
    tr = trace_in(m, b_reg)
    tr_sub, _ = sub_bimodule(b_reg, tr, name="trace")
    static_res, _ = static_check(m, tr_sub)
    report = StaticReport(
        ev_b.injective, static_res.verdict, is_generator(m).verdict,
        ev_b.verdict, is_separable_bimodule(endo.right_module).verdict,
        {"tensor_over_endo": ev_b.source_dim, "trace": tr.dim},
    )
    if not (report.injectivity_cluster and report.generator_cluster):
        raise ValidationError("evaluation-over-endomorphisms criteria violated")
    return report


@dataclass(eq=False)
class SmoothProductReport:
    product: Bimodule
    mode: int
    hypotheses: dict               # name -> bool
    smooth: SmoothnessResult

    @property
    def hypotheses_hold(self) -> bool:
        return all(self.hypotheses.values())


def smooth_product(x: Bimodule, y: Bimodule, mode: int) -> SmoothProductReport:
    """Formal smoothness of X tensor_T Y from properties of the factors.

    Mode 1 asks the right factor to be separable; mode 2 asks the dual of
    X to be projective over the middle algebra and the right factor to be
    projective and formally smooth.  Failed hypotheses are reported, not
    raised, and the product's smoothness is computed either way.
    """
    if mode not in (1, 2):
        raise PreconditionError("mode must be 1 or 2")
    if x.right_algebra is not y.left_algebra:
        raise PreconditionError("factors must share the middle algebra")
    ev = evaluation_data(x)
    hyps = {
        "evaluation_injective": rank(ev.map.matrix) == ev.tensor.space.dim,
        "right_projective": is_fg_projective_right(x).verdict,
    }
    if mode == 1:
        hyps["partner_separable"] = is_separable_bimodule(y).verdict
    else:
        dual = dual_module(x)
        hyps["dual_left_projective"] = is_fg_projective_left(dual.space).verdict
        hyps["partner_left_projective"] = is_fg_projective_left(y).verdict
        hyps["partner_smooth"] = is_formally_smooth_bimodule(y).verdict
    t = tensor_over(x, y, name=f"{x.name}(x){y.name}")
    smooth = is_formally_smooth_bimodule(t.space)
    report = SmoothProductReport(t.space, mode, hyps, smooth)
    if report.hypotheses_hold and not smooth.verdict:
        raise ValidationError("product smoothness violated under hypotheses")
    return report
