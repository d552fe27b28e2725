"""Decision procedures with witnesses: separability, relative projectivity,
formal smoothness, homological dimension bounds, and the cross-check
reports tying the bimodule-side and extension-side theories together.

Every true verdict carries a witness that re-validates by direct
substitution (a Casimir element, a section, a dual basis); every false
verdict carries a finite obstruction (an infeasibility functional).
"""

from __future__ import annotations

from .bimodule import (
    Bimodule, BimoduleMap, centralizer, comonad_apply, descend_plain_map,
    endomorphism_ring, evaluation_data, hom_bimodule, hom_module,
    is_fg_projective_left, is_fg_projective_right, is_generator,
    regular_bimodule, restrict_left, restrict_right, split_at_generators,
    static_check, sub_bimodule, tensor_over, trace_in,
)
from .errors import PreconditionError, ValidationError
from .exactlin import (
    Matrix, dense_vec, kernel_basis, rank, solve_or_certify,
)
from .homology import _syzygy_chain, check_bar_level0, comparison_check
from .structures import (
    RingMap, Verdict, memoized, multiplication_map, require_ring_map,
)


class SeparabilityResult(Verdict):
    def __init__(self, verdict: bool, casimir: tuple | None,
                 obstruction: tuple | None, dimensions: dict):
        self.verdict = verdict
        self.casimir = casimir            # coords in the tensor square
        self.obstruction = obstruction    # functional on B infeasible against 1
        self.dimensions = dimensions


def _central_solve(square: BimoduleMap, unit: dict) -> SeparabilityResult:
    """The Casimir element of square, a central element of its source
    that square sends to unit, re-checked by substitution; else an
    obstruction functional on B.  Both are dense tuples.

    square is the evaluation M tensor_A *M -> B of a bimodule or the
    multiplication B tensor_A B -> B of an extension, whose Casimir
    element is its separability idempotent.
    """
    t_space, target_mat = square.source, square.matrix
    field = t_space.field
    cz = centralizer(t_space)
    dims = {"tensor_square": t_space.dim, "centralizer": cz.dim}
    sol, cert = solve_or_certify(target_mat @ cz.basis.transpose(), unit)
    if sol is None:
        return SeparabilityResult(
            False, None, tuple(dense_vec(field, cert, target_mat.rows)), dims)
    element = cz._embed(sol)
    for i in range(t_space.left_algebra.dim):
        delta = t_space.left_action[i] - t_space.right_action[i]
        if delta.apply(element):
            raise ValidationError("witness is not central")
    if target_mat.apply(element) != unit:
        raise ValidationError("witness does not evaluate to the unit")
    return SeparabilityResult(
        True, tuple(dense_vec(field, element, t_space.dim)), None, dims)


class RelProjectivityResult(Verdict):
    """A split of a counit F -> P: `section` when it splits, else
    `certify`, which forms the obstruction when it is first read."""

    _obstruction = None

    def __init__(self, verdict: bool, section: BimoduleMap | None,
                 counit: BimoduleMap | None, certify, dimensions: dict):
        self.verdict = verdict
        self.section = section      # splits the counit F(P) -> P
        self.counit = counit        # the split map; None when L = 0
        self.certify = certify      # forms the functional on End-coordinates
        self.dimensions = dimensions

    @property
    def obstruction(self) -> tuple | None:
        """The infeasibility functional, None when the counit splits.

        It is formed on the first read and kept: rel_projective and
        smooth_extension reports render it; smooth and hdim verdicts
        never read it, so they never form it."""
        if self.certify is not None:
            self._obstruction, self.certify = self.certify(), None
        return self._obstruction


def _split(counit: BimoduleMap, dims: dict) -> RelProjectivityResult:
    """Does counit: F -> P split as two-sided maps?  The result holds a
    section re-checked by substitution, or a certify() that forms an
    infeasibility functional on the coordinates of End(P).

    counit @ g is a two-sided map fixed by counit applied to g's values
    at the solver's generators, so split_at_generators solves with no
    basis map formed.  certify() forms them all and flattens counit @ g
    column-major, (i, j) at j * d + i; only a report that reads the
    obstruction runs it.
    """
    p, fp = counit.target, counit.source
    field, d, eps = p.field, p.dim, counit.matrix
    solver = hom_bimodule(p, fp)
    dims["map_space"] = solver.dim
    sol, certify = split_at_generators(
        field, d, solver.generators, solver.dim,
        ({j: eps.apply(v) for j, v in solver.generator_values(u).items()}
         for u in range(solver.dim)),
        lambda: [{j * d + i: x for i, row in enumerate((eps @ g).nz)
                  for j, x in row.items()} for g in solver.maps])
    if sol is None:
        return RelProjectivityResult(False, None, counit, certify, dims)
    sec_mat = solver.matrix_of(sol)
    if eps @ sec_mat != Matrix.identity(field, d):
        raise ValidationError(f"section does not split {counit.name}")
    return RelProjectivityResult(
        True, BimoduleMap(p, fp, sec_mat, name="section"), counit, None, dims)


@memoized
def is_separable_bimodule(m: Bimodule) -> SeparabilityResult:
    """A central element of M tensor_A *M evaluating to 1, if one exists;
    decided once per M, for separable and smooth's separable route."""
    return _central_solve(evaluation_data(m).map, m.left_algebra.unit)


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
    return _split(counit, dims)


class SmoothnessResult(Verdict):
    def __init__(self, verdict: bool, route: str, kernel_dim: int | None,
                 detail, dimensions: dict):
        self.verdict = verdict
        self.route = route          # ev-injective | separable | kernel-splitting
        self.kernel_dim = kernel_dim
        self.detail = detail        # the underlying result used for the verdict
        self.dimensions = dimensions


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


def is_separable_extension(f: RingMap) -> SeparabilityResult:
    """A separability idempotent: a central element of B tensor_A B
    multiplying to 1, if one exists.  It is the Casimir element of the
    multiplication, so the result is a bimodule's SeparabilityResult."""
    require_ring_map(f)
    return _central_solve(multiplication_map(f.target, f), f.target.unit)


def is_formally_smooth_extension(f: RingMap) -> RelProjectivityResult:
    """Is the kernel L of multiplication projective relative to the base?

    The relevant counit is two-sided multiplication B (x)_A L (x)_A B -> L,
    so smoothness of the extension is relative projectivity of L, and the
    result is _split's, with L's dimension at dimensions["kernel"]; a
    zero L splits with no counit formed.
    """
    require_ring_map(f)
    b = f.target
    field = b.field
    mult = multiplication_map(b, f)
    l, _ = sub_bimodule(mult.source, kernel_basis(mult.matrix),
                        name="ker-mult")
    dims = {"tensor_square": mult.source.dim, "kernel": l.dim}
    if l.dim == 0:
        zero_sec = BimoduleMap(l, l, Matrix(field, [], cols=0), name="section")
        return RelProjectivityResult(True, zero_sec, None, None, dims)
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
    return _split(BimoduleMap(t2.space, l, mat, name="two-sided-mult"), dims)


class HdimResult:
    def __init__(self, value: int | None, nmax: int,
                 witness: RelProjectivityResult | None,
                 shift_inferred: bool):
        self.value = value          # None means every level up to nmax failed
        self.nmax = nmax
        self.witness = witness
        self.shift_inferred = shift_inferred    # syzygy shifting beyond level 1

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


class MoritaReport:
    def __init__(self, module_dims: tuple, ring_dims: tuple,
                 dims_agree: bool, comparison):
        self.module_dims = module_dims
        self.ring_dims = ring_dims
        self.dims_agree = dims_agree
        self.comparison = comparison    # degreewise rewrite report

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


class SuganoReport:
    def __init__(self, separable_bimodule: bool, generator: bool,
                 extension_separable: bool):
        self.separable_bimodule = separable_bimodule
        self.generator = generator
        self.extension_separable = extension_separable  # base -> End(M)

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


class StaticReport:
    def __init__(self, ev_endo_injective: bool, trace_static: bool,
                 generator: bool, ev_endo_iso: bool, endo_separable: bool,
                 dimensions: dict):
        self.ev_endo_injective = ev_endo_injective
        self.trace_static = trace_static
        self.generator = generator
        self.ev_endo_iso = ev_endo_iso
        self.endo_separable = endo_separable    # M over (B, End(M))
        self.dimensions = dimensions

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
    ev_b, _ = static_check(m, b_reg)     # ev: M tensor_End(M) *M -> B
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


class SmoothProductReport:
    def __init__(self, product: Bimodule, mode: int, hypotheses: dict,
                 smooth: SmoothnessResult):
        self.product = product
        self.mode = mode
        self.hypotheses = hypotheses    # name -> bool
        self.smooth = smooth

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
        dual = hom_module(x, regular_bimodule(x.left_algebra))
        hyps["dual_left_projective"] = is_fg_projective_left(dual).verdict
        hyps["partner_left_projective"] = is_fg_projective_left(y).verdict
        hyps["partner_smooth"] = is_formally_smooth_bimodule(y).verdict
    t = tensor_over(x, y, name=f"{x.name}(x){y.name}")
    smooth = is_formally_smooth_bimodule(t.space)
    report = SmoothProductReport(t.space, mode, hyps, smooth)
    if report.hypotheses_hold and not smooth.verdict:
        raise ValidationError("product smoothness violated under hypotheses")
    return report
