"""Independent reference computations backing the test expectations.

Nothing here imports the package: scalars are Fractions or plain
residues, elimination is a from-scratch Gaussian sweep, and complexes
are assembled directly from raw structure constants.  Test files call
these to derive expected values, then assert the package agrees.
"""

from fractions import Fraction


class RationalOps:
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        return Fraction(1) / a

    @staticmethod
    def lift(x):
        return Fraction(x)


class PrimeOps:
    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def lift(self, x):
        return x % self.p


def echelon(rows, ncols, ops):
    """Row-reduce a copy; returns (reduced rows, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != ops.zero),
                  None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = ops.inv(mat[r][c])
        mat[r] = [ops.mul(x, inv) for x in mat[r]]
        # only the pivot row's nonzero entries change another row
        nonzero = [(j, y) for j, y in enumerate(mat[r]) if y != ops.zero]
        for i in range(len(mat)):
            if i != r and mat[i][c] != ops.zero:
                f, row = mat[i][c], mat[i]
                for j, y in nonzero:
                    row[j] = ops.sub(row[j], ops.mul(f, y))
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank_of(rows, ncols, ops) -> int:
    return len(echelon(rows, ncols, ops)[1])


def kernel_of(rows, ncols, ops):
    """Basis of the right kernel, one vector per free column."""
    red, pivots = echelon(rows, ncols, ops)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    out = []
    for fc in free:
        v = [ops.zero] * ncols
        v[fc] = ops.one
        for row, pc in zip(red, pivots):
            if row[fc] != ops.zero:
                v[pc] = ops.sub(ops.zero, row[fc])
        out.append(v)
    return out


def solvable(rows, rhs, ncols, ops) -> bool:
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    return rank_of(rows, ncols, ops) == rank_of(aug, ncols + 1, ops)


def mat_vec(rows, vec, ops):
    return [
        _dot(row, vec, ops)
        for row in rows
    ]


def _dot(row, vec, ops):
    acc = ops.zero
    for a, b in zip(row, vec):
        if a != ops.zero and b != ops.zero:
            acc = ops.add(acc, ops.mul(a, b))
    return acc


def kron(a, b, ops):
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    out = [[ops.zero] * (ca * cb) for _ in range(ra * rb)]
    for i1 in range(ra):
        for j1 in range(ca):
            x = a[i1][j1]
            if x == ops.zero:
                continue
            for i2 in range(rb):
                for j2 in range(cb):
                    out[i1 * rb + i2][j1 * cb + j2] = ops.mul(x, b[i2][j2])
    return out


def mat_mul(a, b, ops):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = [[ops.zero] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            x = a[i][k]
            if x == ops.zero:
                continue
            for j in range(cols):
                if b[k][j] != ops.zero:
                    out[i][j] = ops.add(out[i][j], ops.mul(x, b[k][j]))
    return out


def identity(n, ops):
    out = [[ops.zero] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = ops.one
    return out


# ------------------------------------------------- raw fixture tables

def lift_mult(mult, ops):
    return [[[ops.lift(c) for c in cell] for cell in row] for row in mult]


def regular_actions(mult, ops):
    """Left and right multiplication matrices from structure constants."""
    d = len(mult)
    left = [[[mult[i][j][k] for j in range(d)] for k in range(d)]
            for i in range(d)]
    left = [[[ops.lift(x) for x in row] for row in m] for m in left]
    right = [[[mult[i][j][k] for i in range(d)] for k in range(d)]
             for j in range(d)]
    right = [[[ops.lift(x) for x in row] for row in m] for m in right]
    return left, right


RAW_PRODUCT = {
    "mult": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    "unit": [1, 1],
}

RAW_DUAL = {
    "mult": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
    "unit": [1, 0],
}

# basis e11, e22, e12
RAW_UPPER = {
    "mult": [
        [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    ],
    "unit": [1, 1, 0],
}

# basis e11, e12, e21, e22
RAW_MATRIX2 = {
    "mult": [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    ],
    "unit": [1, 0, 0, 1],
}

# the column space of the 2x2 matrix algebra
RAW_COLUMN_ACTIONS = [
    [[1, 0], [0, 0]],
    [[0, 1], [0, 0]],
    [[0, 0], [1, 0]],
    [[0, 0], [0, 1]],
]


# -------------------------------------- classical Hochschild complex

def _tuples(d, n):
    if n == 0:
        yield ()
        return
    for t in _tuples(d, n - 1):
        for j in range(d):
            yield t + (j,)


def _tindex(t, d):
    idx = 0
    for j in t:
        idx = idx * d + j
    return idx


def hochschild_delta(mult, n, coeff_left, coeff_right, ops):
    """Matrix of the classical coboundary C^n -> C^{n+1} for cochains
    Hom(B^{tensor n}, N); column (t, r) is delta of the basis cochain
    sending the basis tuple t to the r-th basis vector of N."""
    d = len(mult)
    dn = len(coeff_left[0]) if coeff_left else 0
    rows = dn * d ** (n + 1)
    cols = []
    for t in _tuples(d, n):
        for r in range(dn):
            vec = [ops.zero] * rows
            # face 0: left action on the value
            for j in range(d):
                base = _tindex((j,) + t, d) * dn
                for s in range(dn):
                    x = coeff_left[j][s][r]
                    if x != ops.zero:
                        vec[base + s] = ops.add(vec[base + s], x)
            # inner faces: contract adjacent arguments
            for i in range(1, n + 1):
                sign = -1 if i % 2 else 1
                for a in range(d):
                    for b in range(d):
                        c = mult[a][b][t[i - 1]]
                        if c == ops.zero:
                            continue
                        tp = t[:i - 1] + (a, b) + t[i:]
                        base = _tindex(tp, d) * dn
                        val = c if sign > 0 else ops.sub(ops.zero, c)
                        vec[base + r] = ops.add(vec[base + r], val)
            # last face: right action on the value
            sign = -1 if (n + 1) % 2 else 1
            for j in range(d):
                base = _tindex(t + (j,), d) * dn
                for s in range(dn):
                    x = coeff_right[j][s][r]
                    if x != ops.zero:
                        val = x if sign > 0 else ops.sub(ops.zero, x)
                        vec[base + s] = ops.add(vec[base + s], val)
            cols.append(vec)
    out = [[cols[c][r] for c in range(len(cols))] for r in range(rows)]
    return out


def hochschild_dims(raw, nmax, ops=RationalOps):
    """dim H^n(B, B) for n = 0..nmax, coefficients the regular bimodule."""
    mult = lift_mult(raw["mult"], ops)
    left, right = regular_actions(raw["mult"], ops)
    deltas = [hochschild_delta(mult, n, left, right, ops)
              for n in range(nmax + 1)]
    # delta(n+1) . delta(n) = 0 sanity on the oracle itself
    for n in range(nmax):
        prod = mat_mul(deltas[n + 1], deltas[n], ops)
        assert all(x == ops.zero for row in prod for x in row)
    dims = []
    d = len(mult)
    dn = d
    for n in range(nmax + 1):
        ncols = dn * d ** n
        ker = ncols - rank_of(deltas[n], ncols, ops)
        im = 0 if n == 0 else rank_of(deltas[n - 1], dn * d ** (n - 1), ops)
        dims.append(ker - im)
    return tuple(dims)


# ------------------------------------------------ grid verdict oracles

def separable_over_ground(raw, ops=RationalOps) -> bool:
    """Casimir search in B tensor B by a single affine solve."""
    mult = lift_mult(raw["mult"], ops)
    left, right = regular_actions(raw["mult"], ops)
    d = len(mult)
    eye = identity(d, ops)
    rows = []
    # centrality: (L_a tensor I - I tensor R_a) w = 0 for every basis a
    for a in range(d):
        la = kron(left[a], eye, ops)
        ra = kron(eye, right[a], ops)
        for i in range(d * d):
            rows.append([ops.sub(x, y) for x, y in zip(la[i], ra[i])])
    # evaluation: m(w) = 1
    for k in range(d):
        rows.append([mult[i][j][k] for i in range(d) for j in range(d)])
    rhs = [ops.zero] * (d * d * d) + [ops.lift(x) for x in raw["unit"]]
    return solvable(rows, rhs, d * d, ops)


def smooth_over_ground(raw, ops=RationalOps) -> bool:
    """Does multiplication's kernel admit a two-sided linear section
    from its free two-sided expansion?  Decided by one affine solve."""
    mult = lift_mult(raw["mult"], ops)
    left, right = regular_actions(raw["mult"], ops)
    d = len(mult)
    eye = identity(d, ops)
    mrows = [[mult[i][j][k] for i in range(d) for j in range(d)]
             for k in range(d)]
    ker = kernel_of(mrows, d * d, ops)
    dl = len(ker)
    if dl == 0:
        return True
    # actions of B on the kernel, in kernel coordinates: the kernel basis
    # from kernel_of is the identity on its free positions
    red, pivots = echelon(mrows, d * d, ops)
    free = [c for c in range(d * d) if c not in set(pivots)]

    def to_coords(vec):
        return [vec[c] for c in free]

    lk = []
    rk = []
    for a in range(d):
        la = kron(left[a], eye, ops)
        ra = kron(eye, right[a], ops)
        lk.append([to_coords(mat_vec(la, kv, ops)) for kv in ker])
        rk.append([to_coords(mat_vec(ra, kv, ops)) for kv in ker])
    # column-of-images layout: action matrix columns are images of basis
    lk = [[[m[q][s] for q in range(dl)] for s in range(dl)] for m in lk]
    rk = [[[m[q][s] for q in range(dl)] for s in range(dl)] for m in rk]
    # expansion B tensor L tensor B with plain actions on outer slots
    big = d * dl * d
    lbig = [kron(left[a], identity(dl * d, ops), ops) for a in range(d)]
    rbig = [kron(identity(d * dl, ops), right[a], ops) for a in range(d)]
    # counit: e_i tensor l_q tensor e_j -> i . l_q . j in kernel coords
    counit = [[ops.zero] * big for _ in range(dl)]
    for i in range(d):
        for q in range(dl):
            la = kron(left[i], eye, ops)
            moved = mat_vec(la, ker[q], ops)
            for j in range(d):
                ra = kron(eye, right[j], ops)
                val = to_coords(mat_vec(ra, moved, ops))
                col = (i * dl + q) * d + j
                for s in range(dl):
                    counit[s][col] = val[s]
    # unknown section S: big x dl entries, flattened column-major by
    # source basis: x[(q_src, row)] = S[row][q_src]
    nunk = big * dl
    rows = []
    rhs = []

    def entry(q_src, row):
        return q_src * big + row

    # counit . S = identity
    for q_src in range(dl):
        for s in range(dl):
            row = [ops.zero] * nunk
            for r in range(big):
                if counit[s][r] != ops.zero:
                    row[entry(q_src, r)] = counit[s][r]
            rows.append(row)
            rhs.append(ops.one if q_src == s else ops.zero)
    # two-sided linearity: S . act_L = act_big . S for each basis element
    for a in range(d):
        for small, bigm in ((lk[a], lbig[a]), (rk[a], rbig[a])):
            for q_src in range(dl):
                for r in range(big):
                    row = [ops.zero] * nunk
                    for q2 in range(dl):
                        c = small[q2][q_src]
                        if c != ops.zero:
                            row[entry(q2, r)] = ops.add(
                                row[entry(q2, r)], c)
                    for r2 in range(big):
                        c = bigm[r][r2]
                        if c != ops.zero:
                            row[entry(q_src, r2)] = ops.sub(
                                row[entry(q_src, r2)], c)
                    rows.append(row)
                    rhs.append(ops.zero)
    return solvable(rows, rhs, nunk, ops)


def column_module_oracles(ops=RationalOps):
    """Generator/separable/smooth verdicts for the column module of the
    2x2 matrix algebra, from scratch."""
    raw = RAW_MATRIX2
    mult = lift_mult(raw["mult"], ops)
    left_reg, right_reg = regular_actions(raw["mult"], ops)
    d = 4
    acts = [[[ops.lift(x) for x in row] for row in m]
            for m in RAW_COLUMN_ACTIONS]
    # dual module: matrices F (4x2) with F . act_a = leftreg_a . F
    nunk = d * 2
    rows = []
    for a in range(d):
        # (F . act - leftreg . F)[r][c] = 0
        for r in range(d):
            for c in range(2):
                row = [ops.zero] * nunk
                for k in range(2):
                    if acts[a][k][c] != ops.zero:
                        row[r * 2 + k] = ops.add(row[r * 2 + k],
                                                 acts[a][k][c])
                for k in range(d):
                    if left_reg[a][r][k] != ops.zero:
                        row[k * 2 + c] = ops.sub(row[k * 2 + c],
                                                 left_reg[a][r][k])
                rows.append(row)
    duals = kernel_of(rows, nunk, ops)
    sdim = len(duals)
    # evaluation M tensor dual -> B: e_v tensor F ↦ column v of F
    ev = [[ops.zero] * (2 * sdim) for _ in range(d)]
    for v in range(2):
        for t, fvec in enumerate(duals):
            for r in range(d):
                ev[r][v * sdim + t] = fvec[r * 2 + v]
    gen = rank_of(ev, 2 * sdim, ops) == d
    injective = len(kernel_of(ev, 2 * sdim, ops)) == 0
    # separable: central w with ev(w) = 1
    # dual basis vectors are kernel_of output: identity on the free
    # positions, so coordinates there read off by restriction
    frees = _free_positions(duals, nunk, ops)
    rows = []
    for a in range(d):
        # left action on the M slot
        lmat = kron(acts[a], identity(sdim, ops), ops)
        # right action on the dual slot: postcompose with right
        # multiplication, expressed in dual coordinates
        rsmall = [[ops.zero] * sdim for _ in range(sdim)]
        for t, fvec in enumerate(duals):
            fm = [[fvec[r * 2 + c] for c in range(2)] for r in range(d)]
            moved = mat_mul(right_reg[a], fm, ops)
            flat = [moved[r][c] for r in range(d) for c in range(2)]
            for s, fp in enumerate(frees):
                rsmall[s][t] = flat[fp]
        rmat = kron(identity(2, ops), rsmall, ops)
        for i in range(2 * sdim):
            rows.append([ops.sub(x, y) for x, y in zip(lmat[i], rmat[i])])
    for r in range(d):
        rows.append(ev[r])
    rhs = [ops.zero] * (d * 2 * sdim) + [ops.lift(x)
                                         for x in raw["unit"]]
    sep = solvable(rows, rhs, 2 * sdim, ops)
    return {"dual_dim": sdim, "generator": gen, "ev_injective": injective,
            "separable": sep}


def _free_positions(basis_vectors, ncols, ops):
    """Positions where the given kernel-style basis reads off coords."""
    frees = []
    for vec in basis_vectors:
        for c in range(ncols):
            if vec[c] == ops.one and all(
                    other[c] == ops.zero
                    for other in basis_vectors if other is not vec):
                frees.append(c)
                break
        else:
            raise AssertionError("basis is not in read-off form")
    return frees
