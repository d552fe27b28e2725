"""Closed-form families through the CLI, and a Morita metamorphic check.

The documents come from the benchmark's generators in bench/docs.py,
imported rather than copied, so tier-1 and the `families` workload check
the same instances.  Each answer is a closed form, never a recorded
output:

* Maschke: F_p[C_3] has HH^0 of dim 3; for p = 3 every HH^i has dim 3,
  and for p = 2 every HH^i with i > 0 vanishes.
* F_p[C_n] with p | n: F_p[C_n] = F_p[x]/(x^n - 1), and the derivative
  n x^(n-1) of x^n - 1 vanishes, so every HH^i is F_p[C_n] itself, of
  dim n.
* Loday: Q[x]/(x^n) has Hochschild dims (n, n - 1, n - 1, ...).
* Morita: M_2(Q) over its diagonal has dims (1, 0, 0, ...) on both
  sides.
* Radical square zero: kQ/J^2 for the linear quiver A_n has global
  dimension n - 1, the longest path, and so Hochschild dimension n - 1,
  since its radical quotient k^n is separable (Cartan-Eilenberg, IX).
  So B over k is smooth iff n <= 2 (the paper's theorem, B a
  generator), B is not separable, and HH^* = (1, 0, 0, ...) (Cibils,
  1998: no path of A_n is parallel to a vertex or an arrow).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from bimodcheck import cli, fixtures
from bimodcheck.bimodule import Bimodule, is_generator, regular_bimodule
from bimodcheck.diagnostics import (
    hdim_upto, is_formally_smooth_bimodule, is_separable_bimodule,
)
from bimodcheck.exactlin import QQ, Field, Matrix
from bimodcheck.fixtures import fixture
from bimodcheck.homology import _engine, module_hochschild

DOCS = Path(__file__).resolve().parent.parent / "bench" / "docs.py"


def _docs():
    spec = importlib.util.spec_from_file_location("bench_docs", DOCS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


docs = _docs()


def _loday_hochschild(n: int, nmax: int):
    tasks = [f"hochschild M BB nmax={nmax}"]

    def build(twist):
        return docs.over_ground_document(None, docs.truncated_polynomials(n),
                                         tasks, twist)

    dims = [n] + [n - 1] * nmax
    return (f"Q[x]/(x^{n})", build,
            {"hochschild": {"nmax": nmax, "dims": dims}})


def _modular_group_hochschild(p: int, n: int, nmax: int):
    # the closed form lives here: docs._maschke says p in positive
    # degrees, which is n only at n = p
    assert n % p == 0
    tasks = [f"hochschild M BB nmax={nmax}"]

    def build(twist):
        return docs.over_ground_document(p, docs.cyclic_group_algebra(n),
                                         tasks, twist)

    return (f"F{p}[C{n}]", build,
            {"hochschild": {"nmax": nmax, "dims": [n] * (nmax + 1)}})


def _radical_square_zero(p, n: int, nmax: int):
    # the linear quiver 0 -> 1 -> ... -> n - 1; path_algebra sets every
    # product of two arrows to 0, so it builds kQ/J^2
    hdim = n - 1
    tasks = ["smooth M", f"hdim M nmax={nmax}",
             f"hochschild M BB nmax={nmax}", "separable M"]
    alg = docs.path_algebra(n, [(i, i + 1) for i in range(n - 1)])

    def build(twist):
        return docs.over_ground_document(p, alg, tasks, twist)

    return (f"A{n}/J^2-{'Q' if p is None else f'F{p}'}", build,
            {"smooth": {"verdict": hdim <= 1},
             "hdim": {"nmax": nmax, "hdim": str(hdim)},
             "hochschild": {"nmax": nmax, "dims": [1] + [0] * nmax},
             "separable": {"verdict": False}})


FAMILIES = [
    docs._maschke(3, 3, 3),
    docs._maschke(2, 3, 3),
    _loday_hochschild(3, 2),
    docs._morita(3),
    # the sizes at which the bar complex took seconds and hundreds of MB
    _loday_hochschild(4, 4),
    _modular_group_hochschild(3, 6, 3),
    # exact Hochschild dimensions 1 and 2, over Q and F_3
    *(_radical_square_zero(p, n, 3) for p in (None, 3) for n in (2, 3)),
]


@pytest.mark.parametrize("family", FAMILIES, ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("seed", [1, 2])
def test_family_meets_its_closed_form(family, seed, tmp_path, capsys):
    _, build, oracle = family
    doc = build(docs.Twist(seed))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["check", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert docs.check_report(oracle, payload, doc["field"]) == []


def test_family_closed_forms_are_the_expected_ones():
    oracles = {name: oracle for name, _, oracle in FAMILIES}
    assert oracles["F3[C3]"]["hochschild"]["dims"] == [3, 3, 3, 3]
    assert oracles["F2[C3]"]["hochschild"]["dims"] == [3, 0, 0, 0]
    assert oracles["Q[x]/(x^3)"]["hochschild"]["dims"] == [3, 2, 2]
    assert oracles["Q[x]/(x^4)"]["hochschild"]["dims"] == [4, 3, 3, 3, 3]
    assert oracles["F3[C6]"]["hochschild"]["dims"] == [6, 6, 6, 6]
    assert oracles["M2(Q)/diag"]["morita"]["module_dims"] == [1, 0, 0, 0]
    assert oracles["M2(Q)/diag"]["morita"]["ring_dims"] == [1, 0, 0, 0]
    for field in ("Q", "F3"):
        assert oracles[f"A2/J^2-{field}"]["hdim"]["hdim"] == "1"
        assert oracles[f"A2/J^2-{field}"]["smooth"]["verdict"] is True
        assert oracles[f"A3/J^2-{field}"]["hdim"]["hdim"] == "2"
        assert oracles[f"A3/J^2-{field}"]["smooth"]["verdict"] is False


def _doubled(m: Bimodule) -> Bimodule:
    """M (+) M, with block-diagonal actions."""
    n = m.dim

    def twice(a: Matrix) -> Matrix:
        shifted = [{c + n: x for c, x in row.items()} for row in a.nz]
        return Matrix.from_sparse(m.field, list(a.nz) + shifted, 2 * n)

    return Bimodule(m.left_algebra, m.right_algebra, 2 * n,
                    tuple(twice(a) for a in m.left_action),
                    tuple(twice(a) for a in m.right_action),
                    name=f"{m.name}+{m.name}")


@pytest.mark.parametrize("name, nmax", [("fx3", 1), ("fx5", 2), ("fx6", 1)])
def test_doubling_the_module_keeps_the_hochschild_dims(name, nmax):
    # M and M (+) M generate the same subcategory, so the relative
    # cohomology agrees; M (+) M has twice as many left generators, so
    # the top coboundary reads more generator pairs
    m = fixture(name).bimodule
    mm = _doubled(m)
    b_reg = regular_bimodule(m.left_algebra)
    gens = len(_engine(m).hom_level(0).generators)
    assert len(_engine(mm).hom_level(0).generators) == 2 * gens
    assert module_hochschild(mm, b_reg, nmax).dims() \
        == module_hochschild(m, b_reg, nmax).dims()


@pytest.mark.parametrize("name", ["fx1", "fx2", "fx3", "fx4", "fx5", "fx6",
                                  "dual-self"])
def test_doubling_the_module_keeps_the_verdicts_and_hdim(name):
    # add(M) = add(M (+) M): the same modules are relatively projective
    # and the evaluations differ by a sum of copies, so every verdict and
    # the M-Hochschild dimension agree
    m = fixture(name).bimodule
    mm = _doubled(m)
    generator = is_generator(m).verdict
    assert is_generator(mm).verdict == generator
    assert is_separable_bimodule(mm).verdict \
        == is_separable_bimodule(m).verdict
    assert is_formally_smooth_bimodule(mm).verdict \
        == is_formally_smooth_bimodule(m).verdict
    assert generator
    one, two = hdim_upto(m, 2), hdim_upto(mm, 2)
    assert (two.value, two.shift_inferred) == (one.value, one.shift_inferred)


# A prime far above every structure constant and every entry the
# computation reaches: reduction modulo it keeps each rank, so Q and F_p
# must give the same answers on these integral fixtures.
LARGE_PRIME = 2 ** 61 - 1


@pytest.mark.parametrize("name", ["fx1", "fx2", "fx3", "fx4", "fx5", "fx6",
                                  "dual-self"])
def test_reduction_modulo_a_large_prime_keeps_the_answers(name):
    answers = {}
    for field in (QQ, Field(LARGE_PRIME)):
        m = fixtures._build(name, field).bimodule
        b_reg = regular_bimodule(m.left_algebra)
        answers[field] = (module_hochschild(m, b_reg, 2).dims(),
                          is_formally_smooth_bimodule(m).verdict,
                          hdim_upto(m, 2).render())
    assert answers[QQ] == answers[Field(LARGE_PRIME)], answers
    # and every F_p entry the bar complex stores is a reduced residue
    eng = _engine(m)
    mats = [d.matrix for d in eng.diffs] + [
        a for obj in eng.objects for a in obj.left_action + obj.right_action]
    for mat in mats:
        for row in mat.nz:
            assert all(type(x) is int and 0 < x < LARGE_PRIME
                       for x in row.values())
