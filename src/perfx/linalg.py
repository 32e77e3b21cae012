"""Exact linear algebra over the coefficient fields.

Every fiber-dimension query, scan and strand computation bottoms out
here.  Matrices are lists of row lists.  GF(p) entries are ints in
[0, p).  The ranks of the differentials of a complex come from
`complex_ranks`: over QQ each matrix is reduced modulo one fixed prime,
whose rank is a lower bound for the rational rank (reduction mod p is a
specialization, and rank can only drop under it), and d o d = 0 turns
the neighbouring lower bounds into upper bounds.  Where the bounds
meet the modular rank is exact; the rest are ranked by fraction-free
Bareiss elimination over Python bignums after clearing denominators row
by row (row scaling changes neither rank nor right kernel), so nothing
is rounded.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

# Read by perfbench/run.py into every run's environment record.
BACKEND = "python"

# The prime (2^31 - 1) whose ranks bound rational ranks from below.
CERT_PRIME = 2**31 - 1


def rref_modp(rows, p):
    """Row-reduce over GF(p).  Returns (rref_rows, pivot_columns)."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot = -1
        for i in range(r, m):
            if a[i][c] % p:
                pivot = i
                break
        if pivot < 0:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], p - 2, p)
        row_r = a[r]
        for j in range(c, n):
            row_r[j] = (row_r[j] * inv) % p
        for i in range(m):
            if i != r and a[i][c] % p:
                f = a[i][c] % p
                row_i = a[i]
                for j in range(c, n):
                    row_i[j] = (row_i[j] - f * row_r[j]) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def rank_modp(rows, p):
    """Rank over GF(p) by forward elimination only."""
    a = [[x % p for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c]), -1)
        if pivot < 0:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        row_r = a[r]
        inv = pow(row_r[c], p - 2, p)
        for i in range(r + 1, m):
            f = a[i][c]
            if f:
                f = f * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], row_r)]
        r += 1
        if r == m:
            break
    return r


def nullspace_modp(rows, p):
    """Right-kernel basis over GF(p), one vector per free column."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    red, pivots = rref_modp(rows, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [0] * n
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = (-red[r][free]) % p
        basis.append(v)
    return basis


def rank_int(rows):
    """Rank of an integer matrix by fraction-free Bareiss elimination."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0 or n == 0:
        return 0
    prev = 1
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c]), -1)
        if pivot < 0:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        row_r = a[r]
        arc = row_r[c]
        tail = row_r[c + 1:]
        # Columns up to c are never read again below row r.
        for i in range(r + 1, m):
            row_i = a[i]
            aic = row_i[c]
            if aic:
                row_i[c + 1:] = [(arc * x - aic * y) // prev for x, y in zip(row_i[c + 1:], tail)]
            elif arc != prev:
                row_i[c + 1:] = [arc * x // prev for x in row_i[c + 1:]]
        prev = arc
        r += 1
        if r == m:
            break
    return r


def _clear_denominators(rows):
    out = []
    for row in rows:
        denom = 1
        for x in row:
            if isinstance(x, Fraction):
                denom = lcm(denom, x.denominator)
        out.append([int(x * denom) if isinstance(x, Fraction) else x * denom for x in row])
    return out


def rank(rows, field):
    """Rank of a matrix with entries in the given field."""
    if not rows or not rows[0]:
        return 0
    if field.char == 0:
        return rank_int(_clear_denominators(rows))
    return rank_modp(rows, field.p)


def _reduce_mod(rows, p):
    """The rational matrix modulo p, or None if p divides a denominator."""
    inverses = {1: 1}
    out = []
    for row in rows:
        reduced = []
        for x in row:
            d = x.denominator
            inv = inverses.get(d)
            if inv is None:
                if d % p == 0:
                    return None
                inv = inverses[d] = pow(d, -1, p)
            reduced.append(x.numerator * inv % p)
        out.append(reduced)
    return out


def complex_ranks(mats, dims, field):
    """Exact ranks of the differentials of a complex of vector spaces.

    mats[i] holds the rows of d_i : k^dims[i] -> k^dims[i+1]; a degree
    missing from dims has dimension 0.  Returns {i: rank d_i} for every
    i in mats.  Over QQ the result is exact only because the matrices
    form a complex: d_(i+1) o d_i = 0 gives
    rank d_i + rank d_(i+1) <= dims[i+1].

    Over QQ each matrix is ranked modulo CERT_PRIME, which gives a lower
    bound l_i (0 if the prime divides a denominator).  By the inequality
    above, dims[i+1] - l_(i+1) and dims[i] - l_(i-1) bound rank d_i from
    above, so l_i is the rank if l_i + l_(i+1) = dims[i+1] or
    l_(i-1) + l_i = dims[i].  An absent neighbour counts as l = 0, so a
    full-rank l_i is always certified.  The remaining matrices go
    through `rank`, in increasing degree, and each exact rank found that
    way is a bound for the next.
    """
    if field.char:
        return {i: rank(rows, field) for i, rows in mats.items()}
    low = {}
    for i, rows in mats.items():
        reduced = _reduce_mod(rows, CERT_PRIME)
        low[i] = 0 if reduced is None else rank_modp(reduced, CERT_PRIME)
    out = {}
    for i in sorted(mats):
        ell = low[i]
        if (ell + low.get(i + 1, 0) != dims.get(i + 1, 0)
                and low.get(i - 1, 0) + ell != dims.get(i, 0)):
            ell = low[i] = rank(mats[i], field)
        out[i] = ell
    return out


def nullspace(rows, field):
    """Right-kernel basis; deterministic (one vector per free column)."""
    if field.char != 0:
        return [
            [v % field.p for v in vec]
            for vec in nullspace_modp([[x % field.p for x in row] for row in rows], field.p)
        ]
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [[Fraction(1) if i == j else Fraction(0) for i in range(n)] for j in range(n)]
    red, pivots = rref_frac(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][free]
        basis.append(v)
    return basis


def rref_frac(rows):
    """Gauss-Jordan over QQ.  Returns (rref_rows, pivot_columns)."""
    a = [[Fraction(x) for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def rref(rows, field):
    if field.char == 0:
        return rref_frac(rows)
    red, pivots = rref_modp([[x % field.p for x in row] for row in rows], field.p)
    return red, pivots


def solve(rows, rhs, field):
    """One solution x of A x = b, or None.  A is rows, b a column list."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    red, pivots = rref(aug, field)
    if n in pivots:
        return None
    x = [field.zero] * n
    for r, c in enumerate(pivots):
        x[c] = red[r][n]
    return x
