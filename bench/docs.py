"""Seeded input documents for the family workloads, and their oracles.

Every document is a plain CLI input (the JSON layout `bimodcheck check`
reads).  Algebras are written in their standard bases; each bimodule is
then moved to a pseudorandom basis (a basis twist P^-1 . action . P,
see Twist), which changes every matrix the engine sees but none of the
answers.  The expected answers come from closed forms, never from
the program:

* Maschke: F_p[C_n] is separable over F_p iff p does not divide n.  It is
  commutative, so HH^0 = F_p[C_n] has dimension n; for p | n = p every
  HH^i has dimension p, and for p not dividing n, HH^i = 0 for i > 0.
* Happel: a hereditary, non-semisimple algebra (a path algebra of a
  quiver without relations, e.g. A2 plus a point) is
  formally smooth through its kernel, has Hochschild dimension 1, and is
  not separable.
* Loday: k[x]/(x^n), n >= 2, in characteristic 0 has infinite Hochschild
  dimension, so it is neither smooth nor of dimension <= nmax.
* Morita: M_2(Q) over its diagonal is a progenerator whose cohomology
  with coefficients in M_2(Q) is (1, 0, 0, ...) on both sides.

This module does not import bimodcheck.
"""

from __future__ import annotations

import random
from fractions import Fraction


class _Scalars:
    """Exact arithmetic on the benchmark side: Fraction over Q, ints mod p."""

    def __init__(self, p: int | None):
        self.p = p

    def norm(self, x):
        return Fraction(x) if self.p is None else x % self.p

    def render(self, x):
        return str(Fraction(x)) if self.p is None else int(x % self.p)

    def field(self):
        return "Q" if self.p is None else {"prime": self.p}


def _matmul(s: _Scalars, a: list, b: list) -> list:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[s.norm(sum(a[i][t] * b[t][j] for t in range(k)))
             for j in range(m)] for i in range(n)]


class Twist:
    """Basis changes P = D . Pi, drawn afresh for every bimodule.

    D changes the sign of each basis vector and comes from the seed.  Pi
    permutes the basis and comes from a fixed stream, the same for every
    seed: the permutation sets the pivot order of every elimination and
    moved the cost of one document by up to 2x (Q[x]/(x^3): 0.73 s to
    1.72 s), more than a run of seconds can average out.  Scales of +-2
    (coefficient growth over Q) still moved a pass by 15% with the seed,
    and dense twists moved one M_2(Q)-over-diagonal document from 6 s to
    39 s.
    """

    def __init__(self, seed: int):
        self.order = random.Random("order")
        self.sign = random.Random(seed)

    def basis_change(self, s: _Scalars, n: int):
        """(P, P^-1) for a fresh n x n signed permutation matrix P, whose
        inverse is its transpose."""
        perm = list(range(n))
        self.order.shuffle(perm)
        p = [[s.norm(0)] * n for _ in range(n)]
        for i, j in enumerate(perm):
            p[i][j] = s.norm(self.sign.choice((1, -1)))
        return p, [list(col) for col in zip(*p)]


# ------------------------------------------------------------- algebras
# An algebra is (dim, mult, unit) with mult[i][j] the coordinates of
# basis_i * basis_j, all small integers.

def cyclic_group_algebra(n: int):
    """k[C_n], basis g^0 .. g^(n-1)."""
    mult = [[[int(k == (i + j) % n) for k in range(n)] for j in range(n)]
            for i in range(n)]
    return n, mult, [int(k == 0) for k in range(n)]


def truncated_polynomials(n: int):
    """k[x]/(x^n), basis 1, x, .., x^(n-1)."""
    mult = [[[int(k == i + j) for k in range(n)] for j in range(n)]
            for i in range(n)]
    return n, mult, [int(k == 0) for k in range(n)]


def path_algebra(vertices: int, arrows: list):
    """Path algebra of a quiver with no paths of length 2: basis
    e_1 .. e_v, then one element per arrow (s, t), with e_s a = a = a e_t."""
    dim = vertices + len(arrows)
    mult = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for v in range(vertices):
        mult[v][v][v] = 1
    for k, (src, tgt) in enumerate(arrows):
        a = vertices + k
        mult[src][a][a] = 1
        mult[a][tgt][a] = 1
    return dim, mult, [int(k < vertices) for k in range(dim)]


def matrix_algebra_2():
    """M_2(k), basis e11, e12, e21, e22."""
    idx = [(1, 1), (1, 2), (2, 1), (2, 2)]
    mult = [[[int(b == c and idx[k] == (a, d)) for k in range(4)]
             for (c, d) in idx] for (a, b) in idx]
    return 4, mult, [1, 0, 0, 1]


def diagonal_algebra_2():
    mult = [[[int(i == j == k) for k in range(2)] for j in range(2)]
            for i in range(2)]
    return 2, mult, [1, 1]


GROUND = (1, [[[1]]], [1])


def _left_mult(alg) -> list:
    dim, mult, _ = alg
    return [[[mult[i][j][k] for j in range(dim)] for k in range(dim)]
            for i in range(dim)]


def _right_mult(alg) -> list:
    dim, mult, _ = alg
    return [[[mult[i][j][k] for i in range(dim)] for k in range(dim)]
            for j in range(dim)]


def _identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


# ------------------------------------------------------------ documents

def _render_algebra(s: _Scalars, alg) -> dict:
    dim, mult, unit = alg
    return {"dim": dim,
            "mult": [[[s.render(c) for c in cell] for cell in row]
                     for row in mult],
            "unit": [s.render(c) for c in unit]}


def _twisted_bimodule(s: _Scalars, left: str, right: str, lacts: list,
                      racts: list, twist: Twist) -> dict:
    dim = len(lacts[0])
    p, p_inv = twist.basis_change(s, dim)

    def conjugate(act):
        return [[s.render(x) for x in row]
                for row in _matmul(s, _matmul(s, p_inv, act), p)]

    return {"left": left, "right": right, "dim": dim,
            "left_action": [conjugate(a) for a in lacts],
            "right_action": [conjugate(a) for a in racts]}


def over_ground_document(p: int | None, alg, tasks: list,
                         twist: Twist) -> dict:
    """B as a (B, k)-bimodule M plus the regular (B, B)-bimodule BB."""
    s = _Scalars(p)
    dim = alg[0]
    m = _twisted_bimodule(s, "B", "k", _left_mult(alg), [_identity(dim)],
                          twist)
    bb = _twisted_bimodule(s, "B", "B", _left_mult(alg), _right_mult(alg),
                           twist)
    return {"field": s.field(),
            "algebras": {"k": _render_algebra(s, GROUND),
                         "B": _render_algebra(s, alg)},
            "bimodules": {"M": m, "BB": bb},
            "tasks": tasks}


def matrix_over_diagonal_document(tasks: list, twist: Twist) -> dict:
    """M_2(Q) as a (M_2, diagonal)-bimodule M, plus M_2 as BB."""
    s = _Scalars(None)
    m2 = matrix_algebra_2()
    right = _right_mult(m2)
    m = _twisted_bimodule(s, "matrix2", "diagonal", _left_mult(m2),
                          [right[0], right[3]], twist)
    bb = _twisted_bimodule(s, "matrix2", "matrix2", _left_mult(m2), right,
                           twist)
    return {"field": "Q",
            "algebras": {"diagonal": _render_algebra(s, diagonal_algebra_2()),
                         "matrix2": _render_algebra(s, m2)},
            "bimodules": {"M": m, "BB": bb},
            "tasks": tasks}


# -------------------------------------------------------------- families
# Each instance: (name, build(twist) -> document, oracle), where the
# oracle maps the op of a report to the fields it must carry.

def _maschke(p: int, n: int, nmax: int):
    separable = n % p != 0
    dims = [n] + [0 if separable else p] * nmax
    name = f"F{p}[C{n}]"
    tasks = [f"hochschild M BB nmax={nmax}", "separable M"]

    def build(twist):
        return over_ground_document(p, cyclic_group_algebra(n), tasks, twist)

    oracle = {"hochschild": {"nmax": nmax, "dims": dims},
              "separable": {"verdict": separable}}
    return name, build, oracle


def _happel(name: str, alg, nmax: int):
    tasks = ["smooth M", f"hdim M nmax={nmax}", "separable M"]

    def build(twist):
        return over_ground_document(None, alg, tasks, twist)

    oracle = {"smooth": {"verdict": True, "route": "kernel-splitting"},
              "hdim": {"nmax": nmax, "hdim": "1"},
              "separable": {"verdict": False}}
    return name, build, oracle


def _loday(n: int, nmax: int):
    tasks = ["smooth M", f"hdim M nmax={nmax}", "separable M"]

    def build(twist):
        return over_ground_document(None, truncated_polynomials(n), tasks,
                                    twist)

    oracle = {"smooth": {"verdict": False},
              "hdim": {"nmax": nmax, "hdim": f"> {nmax}"},
              "separable": {"verdict": False}}
    return f"Q[x]/(x^{n})", build, oracle


def _morita(nmax: int):
    tasks = [f"morita M BB nmax={nmax}"]
    dims = [1] + [0] * nmax

    def build(twist):
        return matrix_over_diagonal_document(tasks, twist)

    oracle = {"morita": {"nmax": nmax, "module_dims": dims,
                         "ring_dims": dims, "dims_agree": True,
                         "comparison_ok": True}}
    return "M2(Q)/diag", build, oracle


FAMILIES = [
    _maschke(3, 3, 2),
    _maschke(2, 3, 2),
    _happel("A2+pt", path_algebra(3, [(0, 1)]), 2),
    _loday(3, 2),
    _morita(3),
]


def check_report(oracle: dict, payload: dict, field) -> list:
    """Mismatches between one document's JSON report and its oracle."""
    problems = []
    if payload.get("field") != field:
        problems.append(f"field {payload.get('field')!r} != {field!r}")
    reports = payload.get("reports", [])
    if [r.get("op") for r in reports] != list(oracle):
        problems.append(f"ops {[r.get('op') for r in reports]}")
        return problems
    for r in reports:
        if "error" in r:
            problems.append(f"{r['op']}: error {r['error']}")
            continue
        for key, want in oracle[r["op"]].items():
            got = r.get(key)
            if type(got) is not type(want) or got != want:
                problems.append(f"{r['op']}.{key}: {got!r} != {want!r}")
    return problems
