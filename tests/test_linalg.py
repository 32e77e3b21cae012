"""Correctness of the exact rank computations."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from perfx import linalg
from perfx.complexes import koszul
from perfx.fields import GF, QQ
from perfx.rings import PolyRing, RationalPoint

P = linalg.CERT_PRIME


def random_matrix(rng, m, n, p=None):
    if p is None:
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]


def dense(rows):
    """Sparse {col: value} rows as dense lists, as wide as the widest."""
    n = 1 + max((j for row in rows for j in row), default=-1)
    return [[row.get(j, 0) for j in range(n)] for row in rows]


def gauss(rows, field):
    """Reference Gauss-Jordan on dense rows, over QQ in Fractions or
    over GF(p) in residues.  Returns (reduced rows, pivot columns)."""
    p = field.char
    norm = (lambda x: x % p) if p else Fraction
    a = [[norm(x) for x in row] for row in rows]
    n = len(a[0]) if a else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], -1, p) if p else 1 / a[r][c]
        a[r] = [norm(x * inv) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [norm(x - f * y) for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def frac_rank(rows):
    return len(gauss(rows, QQ)[1])


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
    """Bareiss over QQ on dense rows with denominators cleared row by
    row, no modular shortcut."""
    rows = dense(rows) if rows and isinstance(rows[0], dict) else rows
    cleared = []
    for row in rows:
        denom = lcm(*(Fraction(x).denominator for x in row))
        cleared.append([int(x * denom) for x in row])
    return reference_rank_int(cleared)


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Record the ranks that complex_ranks takes by exact elimination."""
    calls = []
    real = linalg.rank

    def counting(rows, field):
        out = real(rows, field)
        calls.append(out)
        return out

    monkeypatch.setattr(linalg, "rank", counting)
    return calls


def as_dicts(rows):
    """Dense rows as sparse {col: value} rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@pytest.mark.parametrize("seed", range(6))
def test_rank_int_matches_fraction_rank(seed):
    rng = random.Random(seed)
    a = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
    assert linalg.rank(a, QQ) == frac_rank(a)


@pytest.mark.parametrize("seed", range(20))
def test_rank_int_matches_reference(seed):
    rng = random.Random(200 + seed)
    m, n = rng.randint(0, 9), rng.randint(1, 9)
    # sparse, rank-deficient and large-height rows all occur
    entries = [0, 0, 0, 1, -1, 2, 10**12 + 7, -(3**40)]
    a = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
    if m > 2:
        a[-1] = [x - 5 * y for x, y in zip(a[0], a[1])]
    assert linalg.rank(a, QQ) == reference_rank_int(a)
    assert linalg.rank(as_dicts(a), QQ) == reference_rank_int(a)


@pytest.mark.parametrize("seed", range(6))
def test_rank_modp_by_nullity(seed):
    rng = random.Random(100 + seed)
    f = GF(10007)
    a = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), f.p)
    n = len(a[0])
    red, pivots = gauss(a, f)
    kernel = []
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = -red[r][free] % f.p
        kernel.append(v)
    assert linalg.rank(a, f) + len(kernel) == n
    for vec in kernel:
        for row in a:
            assert sum(x * v for x, v in zip(row, vec)) % f.p == 0


@pytest.mark.parametrize("p", [2, 7, 32003, P])
@pytest.mark.parametrize("seed", range(8))
def test_rank_modp_matches_rref_pivots(p, seed):
    rng = random.Random(300 + seed)
    m, n = rng.randint(0, 9), rng.randint(1, 9)
    a = [[rng.choice([0, 0, rng.randrange(p)]) for _ in range(n)] for _ in range(m)]
    if m > 2:
        a[-1] = [(x + 3 * y) % p for x, y in zip(a[0], a[1])]
    assert linalg.rank(a, GF(p)) == len(gauss(a, GF(p))[1])
    assert linalg.rank(as_dicts(a), GF(p)) == len(gauss(a, GF(p))[1])


def test_field_dispatch():
    rows_q = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(1)]]
    assert linalg.rank(rows_q, QQ) == 2
    assert linalg.rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], QQ) == 1
    f5 = GF(5)
    assert linalg.rank([[1, 2], [2, 4]], f5) == 1
    assert linalg.rank([[1, 2], [2, 9]], f5) == 1
    assert linalg.rank([[1, 2], [2, 9]], QQ) == 2
    # entries are reduced mod p first: 5 and 10 are zero in GF(5)
    assert linalg.rank([{0: 5, 3: 10}, {1: -4}], f5) == 1


def test_rank_of_empty_and_zero_rows():
    for field in (QQ, GF(32003)):
        assert linalg.rank([], field) == 0
        assert linalg.rank([{}], field) == 0
        assert linalg.rank([[]], field) == 0
        assert linalg.rank([[0, 0, 0], {}, [0, 0, 0]], field) == 0
        assert linalg.rank([{}, {2: 3}, [0, 0, 0], {2: -6}], field) == 1


def test_rank_leaves_its_input_unchanged():
    rows = [{0: 2, 1: 4}, {0: 3, 1: 5}, {1: Fraction(1, 3)}]
    copy = [dict(row) for row in rows]
    assert linalg.rank(rows, QQ) == 2
    assert linalg.rank(rows[:2], GF(7)) == 2
    assert certified_ranks({0: rows}, {0: 2, 1: 3}) == {0: 2}
    assert rows == copy


@st.composite
def rational_matrices(draw):
    """Dense rows of rationals: sparse or dense, of small or large
    height, with rows that are combinations of earlier rows."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    height = draw(st.sampled_from([1, 9, 10**6, 10**30]))
    zero_share = draw(st.sampled_from([0.0, 0.5, 0.9]))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entry():
        if rng.random() < zero_share:
            return Fraction(0)
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    for _ in range(draw(st.integers(0, 3)) if m else 0):
        a, b = rng.choice(rows), rng.choice(rows)
        s, t = Fraction(rng.randint(-height, height)), Fraction(rng.randint(1, 9), 7)
        rows.insert(rng.randrange(len(rows) + 1), [s * x + t * y for x, y in zip(a, b)])
    return rows


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_rank_matches_references_over_qq(rows):
    expected = reference_rank_qq(rows)
    assert linalg.rank(rows, QQ) == expected
    assert linalg.rank(as_dicts(rows), QQ) == expected


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_rank_matches_references_over_gfp(rows):
    f = GF(32003)
    residues = [[x.numerator * pow(x.denominator, -1, f.p) % f.p for x in row]
                for row in rows if all(x.denominator % f.p for x in row)]
    expected = len(gauss(residues, f)[1])
    assert linalg.rank(residues, f) == expected
    assert linalg.rank(as_dicts(residues), f) == expected
    # the integer matrices reduced mod p against the integer reference
    ints = [[x.numerator for x in row] for row in rows]
    assert linalg.rank(ints, QQ) == reference_rank_int(ints)
    assert linalg.rank(ints, f) == len(gauss(ints, f)[1])


@settings(max_examples=150, deadline=None)
@given(rational_matrices(), st.data())
def test_eliminate_rank_ignores_row_order(rows, data):
    """_eliminate takes its rows sparsest first; any order of the same
    rows gives the same rank, modulo p and over QQ."""
    order = data.draw(st.permutations(range(len(rows))))
    expected = reference_rank_qq(rows)
    ints = [linalg._primitive(row) for row in rows]
    assert linalg._eliminate([dict(ints[k]) for k in order], 0) == expected
    assert linalg._eliminate([dict(row) for row in ints], 0) == expected
    p = 32003
    residues = residues_of(rows, p)
    if residues is not None:
        expected = len(gauss(dense(residues), GF(p))[1])
        assert linalg._eliminate([dict(residues[k]) for k in order], p) == expected
        assert linalg._eliminate(residues, p) == expected


# -- ranks of a complex -------------------------------------------------------


def residues_of(rows, p):
    """Rational rows modulo p as sparse rows, or None if p divides a
    denominator (reference for `Mat.residues`)."""
    values = [[(j, Fraction(x)) for j, x in linalg._entries(row)] for row in rows]
    if any(x.denominator % p == 0 for row in values for _j, x in row):
        return None
    return [{j: v for j, x in row if (v := x.numerator * pow(x.denominator, -1, p) % p)}
            for row in values]


def certified_ranks(mats, dims, field=QQ):
    """complex_ranks on exact rows: their residues give the modular
    ranks, and the rows themselves are the exact fallback."""
    p = linalg.modulus(field)
    residues = {i: residues_of(rows, p) for i, rows in mats.items()}
    return linalg.complex_ranks(residues, mats.__getitem__, dims, field)


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
        ranks = certified_ranks(mats, dims)
        assert ranks == {i: reference_rank_qq(rows) for i, rows in mats.items()}


def test_complex_ranks_gfp_match_rank():
    f = GF(32003)
    ring = PolyRing(f, ["x", "y"])
    k = koszul(ring, ["x", "y", "x*y"])
    point = RationalPoint(ring, (5, 0))
    mats, dims = evaluated(k, point)
    assert certified_ranks(mats, dims, f) == {
        i: len(gauss(dense(rows), f)[1]) for i, rows in mats.items()
    }


def test_complex_ranks_generic_point_needs_no_bareiss(bareiss_calls):
    ring = PolyRing(QQ, ["x", "y", "z"])
    k = koszul(ring, ["x", "y", "z"])
    mats, dims = evaluated(k, large_height_point(ring, random.Random(5)))
    assert certified_ranks(mats, dims) == {-4: 0, -3: 1, -2: 2, -1: 1, 0: 0}
    assert bareiss_calls == []

    def no_exact_rows(i):
        raise AssertionError(f"d_{i} evaluated over QQ")

    residues = {i: residues_of(rows, P) for i, rows in mats.items()}
    ranks = linalg.complex_ranks(residues, no_exact_rows, dims, QQ)
    assert ranks == {-4: 0, -3: 1, -2: 2, -1: 1, 0: 0}


def test_complex_ranks_each_certificate_alone(bareiss_calls):
    # Koszul on x, y, z: dims 1, 3, 3, 1 in degrees -3..0, ranks 1, 2, 1.
    ring = PolyRing(QQ, ["x", "y", "z"])
    k = koszul(ring, ["x", "y", "z"])
    mats, dims = evaluated(k, RationalPoint(ring, (2, Fraction(-3, 5), 7)))
    # rank d_-2 = 2 < min(3, 3): only the rank of d_-1 after it bounds it
    assert certified_ranks({-2: mats[-2], -1: mats[-1]}, dims) == {-2: 2, -1: 1}
    # ... and here only the rank of d_-3 before it
    assert certified_ranks({-3: mats[-3], -2: mats[-2]}, dims) == {-3: 1, -2: 2}
    # a lone full-rank matrix is certified by its shape
    assert certified_ranks({0: [[1, 2, 3], [0, 1, P]]}, {0: 3, 1: 2}) == {0: 2}
    assert bareiss_calls == []


def test_complex_ranks_prime_in_denominator_falls_back(bareiss_calls):
    ring = PolyRing(QQ, ["x", "y"])
    k = koszul(ring, ["x", "y"])
    mats, dims = evaluated(k, RationalPoint(ring, (Fraction(1, P), 3)))
    assert certified_ranks(mats, dims) == {-3: 0, -2: 1, -1: 1, 0: 0}
    assert bareiss_calls == [1, 1]


def test_complex_ranks_vanishing_mod_prime_falls_back(bareiss_calls):
    ring = PolyRing(QQ, ["x", "y"])
    k = koszul(ring, ["x", "y"])
    mats, dims = evaluated(k, RationalPoint(ring, (P, 0)))
    assert all(x % P == 0 for row in mats[-2] for x in row.values())
    assert certified_ranks(mats, dims) == {-3: 0, -2: 1, -1: 1, 0: 0}
    assert bareiss_calls == [1, 1]


def test_complex_ranks_exact_fallback_bounds_the_next(bareiss_calls):
    # d_0 has no modular bound; its exact rank 1 certifies rank d_1 = 1
    mats = {0: [[Fraction(1, P)], [0]], 1: [[0, 1], [0, 0]]}
    assert certified_ranks(mats, {0: 1, 1: 2, 2: 2}) == {0: 1, 1: 1}
    assert bareiss_calls == [1]
