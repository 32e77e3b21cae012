"""Exact ranks of matrices over the coefficient fields.

Every fiber dimension, scan and Grauert check takes its ranks from here.
A row is a sparse {col: value} dict of its nonzero entries (what
`Mat.evaluate` and `Mat.residues` return) or a dense list; GF(p)
entries are ints, QQ entries ints when integral and else Fractions.
One elimination, `_eliminate`, ranks sparse integer rows modulo a prime
or over QQ.

`complex_ranks` ranks the differentials of a complex from their
residues modulo one prime.  Over QQ such a rank is a lower bound
(reduction mod p is a specialization, and rank can only drop under it),
and d o d = 0 turns the neighbouring lower bounds into upper bounds.
Where they meet (`certified`), the modular rank is exact.  A third
certificate is a cap: the rank of a differential at any point is at
most its rank over the fraction field of the ring (evaluation is a
specialization too), so once an elimination holds that many pivots the
rank is exact and it stops.  Only the degrees left open are evaluated
over QQ and ranked on primitive integer rows, so nothing is rounded.
`FreeComplex.generic_dim` applies the d o d = 0 certificate to the
ranks over the fraction field of a polynomial ring, and
`FreeComplex.fiber_ranks` passes those ranks as the caps.  Both work on
a complex's minimal model, so the ranks, the caps and the certificates
are those of the model's differentials.
"""

from __future__ import annotations

from math import gcd, lcm

# Read by perfbench/run.py into every run's environment record.
BACKEND = "python"

# The prime (2^31 - 1) whose ranks bound rational ranks from below.
CERT_PRIME = 2**31 - 1


def _entries(row):
    """(col, value) pairs of a sparse dict row or a dense list row."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _primitive(row):
    """A rational row as a sparse integer row with content 1.  Scaling a
    row changes no rank."""
    row = {j: x for j, x in _entries(row) if x}
    denom = lcm(*(x.denominator for x in row.values()))
    row = {j: x.numerator * (denom // x.denominator) for j, x in row.items()}
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _eliminate(rows, p, cap=None):
    """Rank of sparse integer rows: modulo the prime p, or over QQ if p
    is 0.  The rows are consumed, sparsest first: the rank does not
    depend on their order, and sparse pivots cause less fill-in.  With a
    cap, known to bound the rank from above, it returns as soon as it
    holds cap pivots.

    Each row is reduced against the pivot rows kept so far.  While its
    first nonzero column c is a pivot's, the row becomes a*row - b*pivot,
    where a and b are the pivot's and the row's entries at c; otherwise
    it is kept as the pivot of c.  Modulo p the pivots are scaled to a = 1
    and entries are reduced mod p.  Over QQ a and b are first divided by
    their gcd, and each new row by the gcd of its entries, which keeps it
    primitive, so its entries divide minors of the matrix, as Bareiss's
    do.
    """
    pivots = {}
    for row in sorted(rows, key=len):
        if len(pivots) == cap:
            break
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                if p and row[c] != 1:
                    inv = pow(row[c], -1, p)
                    for j in row:
                        row[j] = row[j] * inv % p
                pivots[c] = row
                break
            a, b = pivot[c], row[c]
            if not p:
                g = gcd(a, b)
                a, b = a // g, b // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, y in pivot.items():
                x = row.get(j, 0) - b * y
                if p:
                    x %= p
                if x:
                    row[j] = x
                else:
                    del row[j]
            if not p:
                g = gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
    return len(pivots)


def rank(rows, field):
    """Rank of a matrix with entries in the given field."""
    if p := field.char:
        return _eliminate([{j: x % p for j, x in _entries(row) if x % p} for row in rows], p)
    return _eliminate([_primitive(row) for row in rows], 0)


def modulus(field):
    """The prime that `complex_ranks` takes residues modulo: the
    characteristic of GF(p), CERT_PRIME for QQ."""
    return field.char or CERT_PRIME


def residue_ranks(residues, p, caps=None):
    """{i: rank of residues[i] modulo the prime p} (the rows are
    consumed); 0 where residues[i] is None.  caps[i], where given,
    bounds the rank of residues[i] from above (see `_eliminate`)."""
    caps = caps or {}
    return {i: 0 if rows is None else _eliminate(rows, p, caps.get(i))
            for i, rows in residues.items()}


def certified(low, dims, i):
    """Whether low[i], a lower bound on the rank of d_i, is that rank.

    low holds lower bounds on the ranks of the differentials of a
    complex, d_i : k^dims[i] -> k^dims[i+1]; a degree missing from low
    or dims counts as 0.  d_(i+1) o d_i = 0 gives rank d_i +
    rank d_(i+1) <= dims[i+1], so dims[i+1] - low[i+1] and
    dims[i] - low[i-1] bound rank d_i from above, and low[i] is the rank
    if low[i] + low[i+1] = dims[i+1] or low[i-1] + low[i] = dims[i].  A
    full-rank low[i] is always certified.
    """
    ell = low[i]
    return (ell + low.get(i + 1, 0) == dims.get(i + 1, 0)
            or low.get(i - 1, 0) + ell == dims.get(i, 0))


def complex_ranks(residues, exact, dims, field, caps=None):
    """Exact ranks of the differentials of a complex of vector spaces.

    residues[i] holds the sparse rows of d_i : k^dims[i] -> k^dims[i+1]
    modulo `modulus(field)` (consumed), or None if that prime divides a
    denominator; a degree missing from dims has dimension 0.  caps[i],
    where given, bounds rank d_i from above: the complex is the fiber of
    a complex over a polynomial ring, and caps[i] is the rank of its
    differential over the fraction field.  Returns {i: rank d_i} for
    every i in residues.  Over GF(p) the residues are the matrices
    themselves.  Over QQ, exact(i) returns the rows of d_i over QQ, and
    is called only for the degrees the residues leave open.

    Over QQ each rank modulo CERT_PRIME is a lower bound (0 where the
    residues are None).  It is exact where it reaches caps[i], or where
    `certified` says that d o d = 0 makes it so.  The remaining matrices
    go through `rank` over QQ, in increasing degree, and each exact rank
    found that way is a bound for the next.
    """
    caps = caps or {}
    low = residue_ranks(residues, modulus(field), caps)
    if not field.char:
        for i in sorted(low):
            if low[i] != caps.get(i) and not certified(low, dims, i):
                low[i] = rank(exact(i), field)
    return low
