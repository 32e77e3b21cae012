"""Correctness of the exact linear algebra kernels."""

import random
from fractions import Fraction

import pytest

from perfx import linalg
from perfx.complexes import koszul
from perfx.fields import GF, QQ
from perfx.rings import PolyRing, RationalPoint

P = linalg.CERT_PRIME


def random_matrix(rng, m, n, p=None):
    if p is None:
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]


def frac_rank(rows):
    red, pivots = linalg.rref_frac([[Fraction(x) for x in r] for r in rows])
    return len(pivots)


def reference_rank_int(rows):
    """Fraction-free Bareiss elimination updating one entry at a time."""
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


def reference_rank_qq(rows):
    """Per-matrix Bareiss over QQ, no modular shortcut."""
    return reference_rank_int(linalg._clear_denominators(rows))


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Record the matrices that complex_ranks sends to exact elimination."""
    calls = []
    real = linalg.rank

    def counting(rows, field):
        out = real(rows, field)
        calls.append(out)
        return out

    monkeypatch.setattr(linalg, "rank", counting)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_rank_int_matches_fraction_rank(seed):
    rng = random.Random(seed)
    a = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
    assert linalg.rank_int(a) == frac_rank(a)


@pytest.mark.parametrize("seed", range(20))
def test_rank_int_matches_reference(seed):
    rng = random.Random(200 + seed)
    m, n = rng.randint(0, 9), rng.randint(1, 9)
    # sparse, rank-deficient and large-height rows all occur
    entries = [0, 0, 0, 1, -1, 2, 10**12 + 7, -(3**40)]
    a = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
    if m > 2:
        a[-1] = [x - 5 * y for x, y in zip(a[0], a[1])]
    assert linalg.rank_int(a) == reference_rank_int(a)


@pytest.mark.parametrize("seed", range(6))
def test_rank_modp_by_nullity(seed):
    rng = random.Random(100 + seed)
    p = 10007
    a = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), p)
    rank = linalg.rank_modp(a, p)
    kernel = linalg.nullspace_modp(a, p)
    assert rank + len(kernel) == len(a[0])
    for vec in kernel:
        for row in a:
            assert sum(x * v for x, v in zip(row, vec)) % p == 0


@pytest.mark.parametrize("p", [2, 7, 32003, P])
@pytest.mark.parametrize("seed", range(8))
def test_rank_modp_matches_rref_pivots(p, seed):
    rng = random.Random(300 + seed)
    m, n = rng.randint(0, 9), rng.randint(1, 9)
    a = [[rng.choice([0, 0, rng.randrange(p)]) for _ in range(n)] for _ in range(m)]
    if m > 2:
        a[-1] = [(x + 3 * y) % p for x, y in zip(a[0], a[1])]
    assert linalg.rank_modp(a, p) == len(linalg.rref_modp(a, p)[1])


def test_field_dispatch():
    rows_q = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(1)]]
    assert linalg.rank(rows_q, QQ) == 2
    assert linalg.rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], QQ) == 1
    f5 = GF(5)
    assert linalg.rank([[1, 2], [2, 4]], f5) == 1
    ns = linalg.nullspace([[1, 2], [2, 4]], f5)
    assert len(ns) == 1 and (ns[0][0] + 2 * ns[0][1]) % 5 == 0


def test_solve():
    f5 = GF(5)
    x = linalg.solve([[1, 1], [0, 1]], [3, 2], f5)
    assert x == [1, 2]
    assert linalg.solve([[1, 0], [1, 0]], [0, 1], f5) is None


# -- ranks of a complex -------------------------------------------------------


def evaluated(complex_, point):
    """The differentials of a complex evaluated at a point, and its term dims."""
    mats = {i: complex_.diff(i).evaluate(point) for i in range(complex_.lo - 1, complex_.hi + 1)}
    return mats, dict(complex_.ranks)


def large_height_point(ring, rng):
    coords = tuple(Fraction(rng.randint(10**4, 10**6), rng.randint(1, 97))
                   for _ in range(ring.nvars))
    return RationalPoint(ring, coords)


@pytest.mark.parametrize("seed", range(4))
def test_complex_ranks_koszul_match_bareiss(seed):
    rng = random.Random(seed)
    ring = PolyRing(QQ, ["x", "y", "z"])
    elems = [ring.parse(e) for e in ("x", "y*z - x^2", "z + 2*y", "x*y")]
    k = koszul(ring, elems[: 2 + seed % 3])
    for point in (large_height_point(ring, rng), RationalPoint(ring, (0, 0, 0)),
                  RationalPoint(ring, (0, Fraction(rng.randint(1, 9), 7), 1))):
        mats, dims = evaluated(k, point)
        ranks = linalg.complex_ranks(mats, dims, QQ)
        assert ranks == {i: reference_rank_qq(rows) for i, rows in mats.items()}


def test_complex_ranks_gfp_match_rank():
    f = GF(32003)
    ring = PolyRing(f, ["x", "y"])
    k = koszul(ring, ["x", "y", "x*y"])
    point = RationalPoint(ring, (5, 0))
    mats, dims = evaluated(k, point)
    assert linalg.complex_ranks(mats, dims, f) == {
        i: linalg.rank_modp(rows, f.p) for i, rows in mats.items()
    }


def test_complex_ranks_generic_point_needs_no_bareiss(bareiss_calls):
    ring = PolyRing(QQ, ["x", "y", "z"])
    k = koszul(ring, ["x", "y", "z"])
    mats, dims = evaluated(k, large_height_point(ring, random.Random(5)))
    assert linalg.complex_ranks(mats, dims, QQ) == {-4: 0, -3: 1, -2: 2, -1: 1, 0: 0}
    assert bareiss_calls == []


def test_complex_ranks_each_certificate_alone(bareiss_calls):
    # Koszul on x, y, z: dims 1, 3, 3, 1 in degrees -3..0, ranks 1, 2, 1.
    ring = PolyRing(QQ, ["x", "y", "z"])
    k = koszul(ring, ["x", "y", "z"])
    mats, dims = evaluated(k, RationalPoint(ring, (2, Fraction(-3, 5), 7)))
    # rank d_-2 = 2 < min(3, 3): only the rank of d_-1 after it bounds it
    assert linalg.complex_ranks({-2: mats[-2], -1: mats[-1]}, dims, QQ) == {-2: 2, -1: 1}
    # ... and here only the rank of d_-3 before it
    assert linalg.complex_ranks({-3: mats[-3], -2: mats[-2]}, dims, QQ) == {-3: 1, -2: 2}
    # a lone full-rank matrix is certified by its shape
    assert linalg.complex_ranks({0: [[1, 2, 3], [0, 1, P]]}, {0: 3, 1: 2}, QQ) == {0: 2}
    assert bareiss_calls == []


def test_complex_ranks_prime_in_denominator_falls_back(bareiss_calls):
    ring = PolyRing(QQ, ["x", "y"])
    k = koszul(ring, ["x", "y"])
    mats, dims = evaluated(k, RationalPoint(ring, (Fraction(1, P), 3)))
    assert linalg.complex_ranks(mats, dims, QQ) == {-3: 0, -2: 1, -1: 1, 0: 0}
    assert bareiss_calls == [1, 1]


def test_complex_ranks_vanishing_mod_prime_falls_back(bareiss_calls):
    ring = PolyRing(QQ, ["x", "y"])
    k = koszul(ring, ["x", "y"])
    mats, dims = evaluated(k, RationalPoint(ring, (P, 0)))
    assert linalg.rank_modp(mats[-2], P) == 0
    assert linalg.complex_ranks(mats, dims, QQ) == {-3: 0, -2: 1, -1: 1, 0: 0}
    assert bareiss_calls == [1, 1]


def test_complex_ranks_exact_fallback_bounds_the_next(bareiss_calls):
    # d_0 has no modular bound; its exact rank 1 certifies rank d_1 = 1
    mats = {0: [[Fraction(1, P)], [0]], 1: [[0, 1], [0, 0]]}
    assert linalg.complex_ranks(mats, {0: 1, 1: 2, 2: 2}, QQ) == {0: 1, 1: 1}
    assert bareiss_calls == [1]
