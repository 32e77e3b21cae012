"""Exact linear algebra over the coefficient fields.

Every fiber-dimension query, scan and strand computation bottoms out
here.  Matrices are lists of row lists.  GF(p) entries are ints in
[0, p); rational matrices are handled by clearing denominators row by
row (row scaling changes neither rank nor right kernel) and taking the
fraction-free Bareiss rank over Python bignums, so nothing is rounded.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

# Read by perfbench/run.py into every run's environment record.
BACKEND = "python"


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
    if not rows or not rows[0]:
        return 0
    return len(rref_modp(rows, p)[1])


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
    rank = 0
    prev = 1
    r = 0
    for c in range(n):
        pivot = -1
        for i in range(r, m):
            if a[i][c]:
                pivot = i
                break
        if pivot < 0:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        arc = a[r][c]
        for i in range(r + 1, m):
            row_i = a[i]
            aic = row_i[c]
            row_r = a[r]
            for j in range(c, n):
                row_i[j] = (arc * row_i[j] - aic * row_r[j]) // prev
        prev = arc
        rank += 1
        r += 1
        if r == m:
            break
    return rank


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
    return rank_modp([[x % field.p for x in row] for row in rows], field.p)


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
