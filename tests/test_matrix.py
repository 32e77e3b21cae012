"""Sparse `Mat` against the dense matrix and dense `minimize` it replaced.

`DenseMat` and `dense_minimize` keep the earlier dense-row code as
reference implementations.  Results are compared entry by entry,
including the order of each entry's terms, since later computations
iterate those dicts.
"""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from perfx import geometry, linalg
from perfx.complexes import (
    ComplexMap,
    FreeComplex,
    cone,
    hom_complex,
    koszul,
    minimize,
    tensor,
    unit_complex,
)
from perfx.fields import GF, QQ
from perfx.rings import Mat, PolyRing, RationalPoint


class DenseMat:
    """Reference: the dense matrix, rows of Polynomials."""

    def __init__(self, ring, rows, ncols):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = ncols

    @classmethod
    def of(cls, mat):
        return cls(mat.ring, mat.rows, mat.ncols)

    def __mul__(self, other):
        z = self.ring.zero
        rows = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = z
                for k in range(self.ncols):
                    a, b = self.rows[i][k], other.rows[k][j]
                    if a.terms and b.terms:
                        acc = acc + a * b
                row.append(acc)
            rows.append(row)
        return DenseMat(self.ring, rows, other.ncols)

    def __add__(self, other):
        rows = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        return DenseMat(self.ring, rows, self.ncols)

    def hstack(self, other):
        rows = [list(r1) + list(r2) for r1, r2 in zip(self.rows, other.rows)]
        return DenseMat(self.ring, rows, self.ncols + other.ncols)

    def vstack(self, other):
        return DenseMat(self.ring, self.rows + other.rows, self.ncols)

    def select_columns(self, idxs):
        return DenseMat(self.ring, [[row[j] for j in idxs] for row in self.rows], len(idxs))

    def select_rows(self, idxs):
        return DenseMat(self.ring, [self.rows[i] for i in idxs], self.ncols)

    def kron(self, other):
        rows = [[self.ring.zero] * (self.ncols * other.ncols)
                for _ in range(self.nrows * other.nrows)]
        one = self.ring.one
        for i in range(self.nrows):
            for j in range(self.ncols):
                for k in range(other.nrows):
                    for m in range(other.ncols):
                        a, b = self.rows[i][j], other.rows[k][m]
                        if a.terms and b.terms:
                            v = b if a == one else a if b == one else a * b
                            rows[i * other.nrows + k][j * other.ncols + m] = v
        return DenseMat(self.ring, rows, self.ncols * other.ncols)

    def evaluate(self, coords):
        return [[x.evaluate(coords) for x in row] for row in self.rows]


def densify(sparse_rows, ncols, zero):
    """Sparse {col: value} rows as dense lists of ncols entries."""
    return [[row.get(j, zero) for j in range(ncols)] for row in sparse_rows]


def layout(rows):
    """Every entry as its ordered list of terms."""
    return [[list(p.terms.items()) for p in row] for row in rows]


def same(mat, dense):
    assert (mat.nrows, mat.ncols) == (dense.nrows, dense.ncols)
    assert mat.rows == dense.rows
    assert layout(mat.rows) == layout(dense.rows)


RINGS = {
    "QQ": PolyRing(QQ, ["x", "y"]),
    "GF32003": PolyRing(GF(32003), ["x", "y"]),
    "QQ/(x^2-y,xy)": PolyRing(QQ, ["x", "y"], quotient=["x^2 - y", "x*y"]),
}


def random_entry(ring, rng):
    roll = rng.random()
    if roll < 0.5:
        return ring.zero
    if roll < 0.6:
        return ring.const(rng.choice([1, -1, 2, 3]))
    return ring.random_poly(rng, max_degree=2, nterms=rng.randint(1, 3))


def random_mat(ring, rng, nrows, ncols):
    rows = [[random_entry(ring, rng) for _ in range(ncols)] for _ in range(nrows)]
    return Mat(ring, rows, ncols=ncols)


@pytest.mark.parametrize("name", list(RINGS))
@pytest.mark.parametrize("seed", range(4))
def test_mat_operations_match_dense(name, seed):
    ring = RINGS[name]
    rng = random.Random(seed)
    n, k, m = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
    a, a2 = random_mat(ring, rng, n, k), random_mat(ring, rng, n, k)
    b = random_mat(ring, rng, k, m)
    c = random_mat(ring, rng, rng.randint(1, 3), k)
    da, da2, db, dc = (DenseMat.of(x) for x in (a, a2, b, c))
    same(a * b, da * db)
    same(a + a2, da + da2)
    same(a.hstack(a2), da.hstack(da2))
    same(a.vstack(c), da.vstack(dc))
    same(b.kron(c), db.kron(dc))
    same(Mat.identity(ring, 2).kron(a), DenseMat.of(Mat.identity(ring, 2)).kron(da))
    same(a.kron(Mat.identity(ring, 3)), da.kron(DenseMat.of(Mat.identity(ring, 3))))
    cols = [j for j in range(k) if rng.random() < 0.6]
    rows = sorted(rng.sample(range(n), rng.randint(0, n)))
    same(a.select_columns(cols), da.select_columns(cols))
    same(a.select_rows(rows), da.select_rows(rows))
    same(a.select_rows(range(n)), da)
    same(a.direct_sum(c), da.hstack(DenseMat.of(Mat.zero(ring, n, c.ncols))).vstack(
        DenseMat.of(Mat.zero(ring, c.nrows, k)).hstack(dc)))
    coords = (ring.field.from_int(rng.randint(-5, 5)), ring.field.from_int(rng.randint(-5, 5)))
    values = a.evaluate(coords)
    assert densify(values, k, ring.field.zero) == da.evaluate(coords)
    assert all(x != ring.field.zero for row in values for x in row.values())
    assert a.is_zero == all(not p.terms for row in da.rows for p in row)
    assert [a.column(j) for j in range(k)] == [[row[j] for row in da.rows] for j in range(k)]


@pytest.mark.parametrize("name", list(RINGS))
def test_mat_equality_hash_and_rows_view(name):
    ring = RINGS[name]
    rng = random.Random(11)
    a = random_mat(ring, rng, 3, 4)
    triples = [(i, j, p) for i, row in enumerate(a.rows) for j, p in enumerate(row)]
    rebuilt = Mat.from_entries(ring, 3, 4, reversed(triples))
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert Mat.from_columns(ring, [a.column(j) for j in range(4)], 3) == a
    # a repeated position sums; a zero sum is not stored
    x = ring.var("x")
    assert Mat.from_entries(ring, 1, 1, [(0, 0, x), (0, 0, -x)]) == Mat.zero(ring, 1, 1)
    assert Mat.from_entries(ring, 1, 1, [(0, 0, x), (0, 0, x)]) == Mat(ring, [[x + x]])
    other = Mat(ring, [list(r) for r in a.rows], ncols=4)
    assert other == a and hash(other) == hash(a)
    changed = [list(r) for r in a.rows]
    changed[2][3] = changed[2][3] + ring.one
    assert Mat(ring, changed, ncols=4) != a
    assert Mat.zero(ring, 3, 4) != Mat.zero(ring, 4, 3)
    view = a.rows
    assert isinstance(view, tuple) and all(isinstance(r, tuple) for r in view)
    with pytest.raises(TypeError):
        view[0][0] = ring.one
    assert a.rows == view
    with pytest.raises(ValueError):
        Mat.from_entries(ring, 2, 1, [(2, 0, x)])
    with pytest.raises(ValueError):
        Mat(ring, [[x], [x, x]])


def test_evaluate_matrix_sparse_rows():
    ring = RINGS["QQ"]
    m = Mat(ring, [["x", 0], [0, "y - 1"]], ncols=2)
    rows = m.evaluate(RationalPoint(ring, (2, 1)))
    assert rows == [{0: 2}, {}]
    assert densify(rows, 2, ring.field.zero) == [[2, 0], [0, 0]]


# -- residues ------------------------------------------------------------------


def exact_rows(mat, coords):
    """Entry-wise Polynomial.evaluate, as sparse rows (the reference)."""
    return [{j: v for j, q in enumerate(mat.row(i)) if (v := q.evaluate(coords))}
            for i in range(mat.nrows)]


def residue(x, p):
    return x.numerator * pow(x.denominator, -1, p) % p


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3, 5, 7, 32003, linalg.CERT_PRIME]),
       st.booleans())
def test_residues_are_the_exact_values_mod_p(seed, p, over_gfp):
    """Mat.residues(point, p) is Mat.evaluate reduced entrywise mod p,
    or None where p divides a denominator of a coordinate or of a
    coefficient; over GF(p) the residues are the values themselves."""
    rng = random.Random(seed)
    field = GF(32003) if over_gfp else QQ
    p = field.char or p
    ring = PolyRing(field, ["x", "y", "z"])
    height = rng.choice([1, 9, 10**12])
    spoil = 0 if field.char else rng.choice([0, 0.05, 0.2])  # share of denominators p*k

    def number():
        num = rng.randint(-height, height)
        if field.char:
            return num % p
        if rng.random() < spoil:
            return Fraction(num, p * rng.randint(1, 3))
        return Fraction(num, rng.choice([1, 1, 11, 13, 10**9 + 7]))

    def entry():
        if rng.random() < 0.4:
            return ring.zero
        terms = {tuple(rng.randint(0, 3) for _ in range(3)): number()
                 for _ in range(rng.randint(1, 3))}
        return ring.from_exponents(terms)

    nrows, ncols = rng.randint(0, 5), rng.randint(0, 5)
    mat = Mat(ring, [[entry() for _ in range(ncols)] for _ in range(nrows)], ncols=ncols)
    point = RationalPoint(ring, tuple(number() for _ in range(3)))
    exact = mat.evaluate(point)
    assert exact == exact_rows(mat, point.coords)
    denominators = [c.denominator for c in point.coords] + [
        c.denominator for _i, _j, q in mat.entries() for c in q.terms.values()]
    got = mat.residues(point, p)
    if any(d % p == 0 for d in denominators):
        assert got is None
    else:
        assert got == [{j: r for j, x in row.items() if (r := residue(x, p))} for row in exact]
    if field.char:
        assert got == exact


def test_residues_none_where_p_divides_a_denominator():
    ring = PolyRing(QQ, ["x", "y"])
    p = linalg.CERT_PRIME
    for mat in (Mat(ring, [["x + y", 1]]), Mat(ring, [["y"]]), Mat.zero(ring, 2, 0)):
        assert mat.residues(RationalPoint(ring, (Fraction(1, 3 * p), 1)), p) is None
        assert mat.residues(RationalPoint(ring, (Fraction(1, 3), 1)), p) is not None
    # a coefficient's denominator counts even where its entry vanishes
    assert Mat(ring, [["x/7", "y"]]).residues(RationalPoint(ring, (0, 2)), 7) is None
    assert Mat(ring, [["x/7", "y"]]).residues(RationalPoint(ring, (0, 2)), 5) == [{1: 2}]


# -- minimize ------------------------------------------------------------------


def dense_minimize(complex_):
    """Reference: the dense-row minimize, which rescans after every pivot."""
    ring = complex_.ring
    field = ring.field
    ranks = dict(complex_.ranks)
    diffs = {i: [list(row) for row in complex_.diff(i).rows] for i in complex_.diffs}
    degrees = (
        {i: list(d) for i, d in complex_.degrees.items()}
        if complex_.degrees is not None
        else None
    )

    def find_pivot():
        for i in sorted(diffs):
            m = diffs[i]
            for r in range(len(m)):
                for c in range(len(m[0]) if m else 0):
                    v = m[r][c].constant_value()
                    if v is not None and v != field.zero:
                        return i, r, c, v
        return None

    while True:
        hit = find_pivot()
        if hit is None:
            break
        i, r, c, u = hit
        m = diffs[i]
        inv = field.inv(u)
        new = []
        for a in range(len(m)):
            if a == r:
                continue
            new.append([m[a][b] - m[a][c].scale(inv) * m[r][b]
                        for b in range(len(m[0])) if b != c])
        if new and new[0]:
            diffs[i] = new
        else:
            diffs.pop(i, None)
        ranks[i] = ranks.get(i, 0) - 1
        ranks[i + 1] = ranks.get(i + 1, 0) - 1
        if degrees is not None:
            degrees[i].pop(c)
            degrees[i + 1].pop(r)
        prev = diffs.get(i - 1)
        if prev is not None:
            prev.pop(c)
            if not prev:
                diffs.pop(i - 1, None)
        nxt = diffs.get(i + 1)
        if nxt is not None:
            for row in nxt:
                row.pop(r)
            if nxt and not nxt[0]:
                diffs.pop(i + 1, None)
    mat_diffs = {i: Mat(ring, m, ncols=len(m[0])) for i, m in diffs.items() if m and m[0]}
    final_ranks = {i: r for i, r in ranks.items() if r > 0}
    final_degrees = None
    if degrees is not None:
        final_degrees = {i: tuple(degrees[i]) for i in final_ranks}
    return FreeComplex(ring, final_ranks, mat_diffs, final_degrees, complex_.floor)


def assert_minimize_matches(c):
    got, want = minimize(c), dense_minimize(c)
    assert got == want
    for i in want.diffs:
        assert layout(got.diffs[i].rows) == layout(want.diffs[i].rows)
    return got


def random_elements(ring, rng, count):
    return [ring.random_poly(rng, max_degree=2, nterms=2) for _ in range(count)]


def base_change(ring, rng, n):
    """A product of elementary matrices I + p e_ab and its inverse."""
    g, g_inv = Mat.identity(ring, n), Mat.identity(ring, n)
    for _ in range(n if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        p = ring.random_poly(rng, max_degree=1, nterms=2)
        diag = [(i, i, ring.one) for i in range(n)]
        g = Mat.from_entries(ring, n, n, diag + [(a, b, p)]) * g
        g_inv = g_inv * Mat.from_entries(ring, n, n, diag + [(a, b, -p)])
    return g, g_inv


def scrambled(c, rng):
    """c plus two contractible pieces [R --1--> R], in new coordinates:
    the homology is c's, and units sit among polynomial entries."""
    ring = c.ring
    trivial = cone(ComplexMap.identity(unit_complex(ring)))  # degrees -1, 0
    for _ in range(2):
        c = c.direct_sum(trivial.shift(-1 - rng.randint(c.lo - 1, c.hi)))
    changes = {i: base_change(ring, rng, r) for i, r in c.ranks.items()}
    diffs = {i: changes[i + 1][0] * m * changes[i][1] for i, m in c.diffs.items()}
    return FreeComplex(ring, c.ranks, diffs, None, c.floor)


@pytest.mark.parametrize("name", list(RINGS))
@pytest.mark.parametrize("seed", range(3))
def test_minimize_matches_dense_reference(name, seed):
    ring = RINGS[name]
    rng = random.Random(100 + seed)
    k1 = koszul(ring, random_elements(ring, rng, 3))
    k2 = koszul(ring, random_elements(ring, rng, 2))
    phi = ComplexMap(k2, k2, {i: Mat.identity(ring, r).kron(Mat(ring, [["x"]]))
                              for i, r in k2.ranks.items()})
    sizes = []
    for c in (
        koszul(ring, random_elements(ring, rng, 2) + [ring.const(2)]),
        scrambled(k1, rng),
        scrambled(tensor(k1, k2), rng),
        scrambled(cone(phi), rng),
        scrambled(hom_complex(k1, k2), rng),
    ):
        sizes.append((c.total_rank(), assert_minimize_matches(c).total_rank()))
    assert sizes[0] == (8, 0)
    assert any(0 < after < before for before, after in sizes[1:])


@pytest.mark.parametrize("n", [2, 3])
def test_minimize_matches_dense_reference_on_blowup_pushforward(n):
    fam = geometry.blowup_family(QQ, n)
    pushed, _report = geometry.pushforward_projective(fam, fam.twist(1), minimal=False)
    slim = assert_minimize_matches(pushed)
    assert slim.total_rank() < pushed.total_rank()


# -- the matrix layout stays inside rings.py -------------------------------------

DENSE_PATTERNS = [
    re.compile(r"\.rows\b"),                   # the dense view
    re.compile(r"\[\s*\[[^\[\]]*\.zero\s*\]\s*\*"),  # [[ring.zero] * n for ...]
]


def test_only_rings_knows_the_matrix_layout():
    src = Path(__file__).resolve().parents[1] / "src" / "perfx"
    hits = []
    for path in sorted(src.glob("*.py")):
        if path.name == "rings.py":
            continue
        for no, line in enumerate(path.read_text().splitlines(), 1):
            if any(p.search(line) for p in DENSE_PATTERNS):
                hits.append(f"{path.name}:{no}: {line.strip()}")
    assert not hits, "dense matrix code outside rings.py:\n" + "\n".join(hits)
