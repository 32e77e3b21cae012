"""Finitely presented modules: dimensions, gradings, constructions."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from perfx.fields import GF, QQ
from perfx.groebner import mono_divides
from perfx.modules import ModulePresentation, prune_redundant_columns, syzygies
from perfx.orders import LEX
from perfx.rings import (
    Mat,
    PolyRing,
    RationalPoint,
    hilbert_numerator,
    hilbert_value,
    syzygy_matrix,
)


@pytest.fixture
def rxy():
    return PolyRing(QQ, ["x", "y"])


def test_graded_dim_matches_monomial_count(rxy):
    free = ModulePresentation.free(rxy, 1, degrees=(0,))
    for d in range(5):
        assert free.graded_dim(d) == d + 1
    twisted = free.twist(-2)
    assert twisted.graded_dim(0) == 3  # generator now in degree -2


def test_graded_dim_of_quotient(rxy):
    m = ModulePresentation.cyclic(rxy, ["x^2", "y^2"], degrees=(0,))
    assert [m.graded_dim(d) for d in range(4)] == [1, 2, 1, 0]


def test_graded_dim_respects_ring_quotient():
    ring = PolyRing(QQ, ["x", "y"], quotient=["x*y"])
    m = ModulePresentation.free(ring, 1, degrees=(0,))
    # monomials of degree d avoiding xy: x^d and y^d only
    assert [m.graded_dim(d) for d in range(1, 4)] == [2, 2, 2]


def hilbert_polynomial(ring):
    """The Hilbert polynomial of a weight-1 (quotient) ring as a function
    of d, read from the leading monomials of its Gröbner basis."""
    leading = [ring.exponents(g.leading_monomial()) for g in ring.quotient_gb]
    q = hilbert_numerator(leading, ring.nvars)
    return lambda d: hilbert_value(q, ring.nvars, d, polynomial=True)


@pytest.mark.parametrize(
    "variables, ideal, expected",
    [
        (["x0", "x1", "x2", "x3"], ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"],
         lambda d: 3 * d + 1),  # the twisted cubic
        (["x", "y", "z"], ["x*z - y^2"], lambda d: 2 * d + 1),  # a plane conic
        (["x", "y", "z"], ["x^2 + y^2 - z^2"], lambda d: 2 * d + 1),
        (["x", "y", "z"], [], lambda d: Fraction((d + 2) * (d + 1), 2)),  # zero ideal
        (["x", "y", "z", "w"], [], lambda d: Fraction((d + 3) * (d + 2) * (d + 1), 6)),
        (["x", "y"], ["x - y", "x + y"], lambda d: 0),  # (x, y): empty Proj
        (["x", "y"], ["x - 1", "x"], lambda d: 0),  # the unit ideal
    ],
    ids=["twisted_cubic", "conic", "conic2", "zero3", "zero4", "empty", "unit"],
)
def test_hilbert_numerator_gives_known_hilbert_polynomials(variables, ideal, expected):
    """Leading monomials of a Gröbner basis give the Hilbert polynomial,
    read at negative d too."""
    ring = PolyRing(QQ, variables, quotient=ideal) if ideal else PolyRing(QQ, variables)
    value = hilbert_polynomial(ring)
    assert [value(d) for d in range(-4, 8)] == [expected(d) for d in range(-4, 8)]


def test_hilbert_numerator_small_cases():
    assert hilbert_numerator([], 3) == {0: 1}
    assert hilbert_numerator([(0, 0, 0)], 3) == {}  # the unit ideal
    assert hilbert_numerator([(2, 0), (0, 2)], 2) == {0: 1, 2: -2, 4: 1}
    assert hilbert_numerator([(1, 1)], 2) == {0: 1, 2: -1}
    # zero variables: k itself, or 0
    assert hilbert_numerator([], 0) == {0: 1}
    assert hilbert_numerator([()], 0) == {}
    with pytest.raises(ValueError):
        hilbert_numerator([(1, 0)], 3)


def test_hilbert_value_function_and_polynomial():
    """k[x, y]/(x^2): HF is 1, 2, 2, ... and P(d) = 2 for every d; the
    binomial of P at d = -1 is C(-1 + 1, 1) - C(-3 + 1, 1) = 0 + 2."""
    q = hilbert_numerator([(2, 0)], 2)
    assert [hilbert_value(q, 2, e) for e in range(-3, 4)] == [0, 0, 0, 1, 2, 2, 2]
    assert [hilbert_value(q, 2, e, polynomial=True) for e in range(-3, 4)] == [2] * 7
    # the twisted cubic's series, (1 + 2t) / (1 - t)^2: P(d) = 3d + 1
    cubic = {0: 1, 1: 2}
    assert [hilbert_value(cubic, 2, e, polynomial=True) for e in range(-3, 3)] == [
        3 * e + 1 for e in range(-3, 3)
    ]
    assert [hilbert_value(cubic, 2, e) for e in range(-3, 3)] == [0, 0, 0, 1, 4, 7]
    # no variables: HF is the numerator itself, P is 0
    assert [hilbert_value({0: 1, 2: 3}, 0, e) for e in range(-1, 4)] == [0, 1, 0, 3, 0]
    assert hilbert_value({0: 1, 2: 3}, 0, 2, polynomial=True) == 0


def test_hilbert_numerator_ignores_redundant_and_repeated_generators():
    minimal = hilbert_numerator([(2, 0, 0), (0, 1, 1), (0, 0, 3)], 3)
    padded = [(0, 0, 3), (2, 0, 0), (2, 1, 0), (0, 1, 1), (2, 0, 0), (1, 2, 2), (0, 0, 3)]
    assert hilbert_numerator(padded, 3) == minimal
    assert hilbert_numerator(padded[::-1], 3) == minimal


def graded_dim_by_enumeration(pres, d):
    """graded_dim by its former route: count the basis elements (i, mono)
    of the free cover that no leading term of the relation module
    (quotient ideal included) divides."""
    lt_by_pos = {}
    for pos, mono in pres.gb.leading_terms():
        lt_by_pos.setdefault(pos, []).append(mono)
    return sum(
        1
        for i in range(pres.ambient_rank)
        for mono in pres.ring.monomials_of_degree(d - pres.degrees[i])
        if not any(mono_divides(lt, mono) for lt in lt_by_pos.get(i, ()))
    )


def random_graded_presentation(ring, rng):
    """A seeded homogeneous presentation: generator degrees in 0..2 and
    columns of degree up to 3, each entry of the degree its row needs."""
    rank = rng.randint(1, 3)
    degrees = tuple(rng.randint(0, 2) for _ in range(rank))
    cols = []
    for _ in range(rng.randint(0, 4)):
        c = rng.randint(max(degrees), 3)
        cols.append([
            ring.random_poly(rng, nterms=2, homogeneous=c - deg) if rng.random() < 0.7 else ring.zero
            for deg in degrees
        ])
    return ModulePresentation(ring, rank, Mat.from_columns(ring, cols, rank), degrees)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "variables, quotient",
    [(["x", "y"], []), (["x", "y", "z"], []), (["x", "y", "z", "w"], []),
     (["x", "y", "z"], ["x*y - z^2"])],
    ids=["n2", "n3", "n4", "n3_quotient"],
)
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_graded_dim_matches_enumeration(field, variables, quotient, seed):
    ring = PolyRing(field, variables, quotient=quotient)
    rng = random.Random(f"graded-dim-{field!r}-{len(variables)}-{bool(quotient)}-{seed}")
    pres = random_graded_presentation(ring, rng)
    assert [pres.graded_dim(d) for d in range(-1, 7)] == [
        graded_dim_by_enumeration(pres, d) for d in range(-1, 7)
    ]


def test_graded_dim_over_no_variables():
    k = PolyRing(QQ, ())
    m = ModulePresentation.free(k, 3, degrees=(0, 2, 2))
    assert [m.graded_dim(d) for d in range(-1, 4)] == [0, 1, 0, 2, 0]
    assert ModulePresentation.cyclic(k, ["1"], degrees=(0,)).graded_dim(0) == 0


def test_graded_dim_rejects_weighted_rings():
    ring = PolyRing(QQ, ["x", "y"], weights=(1, 2))
    m = ModulePresentation.free(ring, 1, degrees=(0,))
    with pytest.raises(ValueError, match="weights"):
        m.graded_dim(2)
    # without generators there is nothing to count, on any grading
    assert ModulePresentation.free(ring, 0, degrees=()).graded_dim(2) == 0


def test_homogeneity_validation(rxy):
    with pytest.raises(ValueError, match="homogeneous"):
        ModulePresentation(
            rxy, 1, Mat(rxy, [["x + x^2"]], ncols=1), degrees=(0,)
        )


def test_negative_rank_is_refused(rxy):
    with pytest.raises(ValueError, match="rank must be at least 0, got -1"):
        ModulePresentation.free(rxy, -1)
    with pytest.raises(ValueError, match="rank must be at least 0, got -2"):
        ModulePresentation(rxy, -2)
    assert ModulePresentation.free(rxy, 0).is_zero()


def test_fiber_dim_and_zero(rxy):
    m = ModulePresentation.cyclic(rxy, ["x", "y"])
    assert m.fiber_dim(RationalPoint(rxy, (0, 0))) == 1
    assert m.fiber_dim(RationalPoint(rxy, (1, 0))) == 0
    assert not m.is_zero()
    unit = ModulePresentation.cyclic(rxy, ["x", "x - 1"])
    assert unit.is_zero()


def test_direct_sum_and_syzygy_module(rxy):
    a = ModulePresentation.cyclic(rxy, ["x"], degrees=(0,))
    b = ModulePresentation.cyclic(rxy, ["y"], degrees=(1,))
    s = a.direct_sum(b)
    assert s.ambient_rank == 2
    assert s.degrees == (0, 1)
    assert s.graded_dim(0) == 1
    relations = ModulePresentation.cyclic(rxy, ["x", "y"]).relations
    syz = ModulePresentation(rxy, relations.ncols, syzygy_matrix(relations))
    assert syz.ambient_rank == 2
    assert syz.relations.ncols == 1


def test_residue_field_presentation(rxy):
    k = ModulePresentation.residue_field(rxy, RationalPoint(rxy, (1, 2)))
    assert k.fiber_dim(RationalPoint(rxy, (1, 2))) == 1
    assert k.fiber_dim(RationalPoint(rxy, (0, 0))) == 0


def test_prune_redundant_columns(rxy):
    mat = Mat(rxy, [["x", "x^2", "y", "x + y"]], ncols=4)
    pruned = prune_redundant_columns(mat)
    assert pruned.ncols == 2


def test_syzygies_of_vectors(rxy):
    # columns (x, y) and (y, x) in R^2: relations only in the singular locus
    gens = [[rxy.var("x"), rxy.var("y")], [rxy.var("y"), rxy.var("x")]]
    pres = syzygies(gens, rxy)
    assert pres.ambient_rank == 2
    # (x^2 - y^2) kernel: x*(x,y) - y*(y,x) = (x^2-y^2, 0)... the kernel
    # of the 2x2 matrix [[x, y], [y, x]] is zero (determinant nonzero)
    assert pres.relations.ncols == 0


IS_ZERO_RINGS = {
    "QQ": PolyRing(QQ, ["x", "y"]),
    "GF7": PolyRing(GF(7), ["x", "y"]),
    "QQ/(x*y-1)": PolyRing(QQ, ["x", "y"], quotient=["x*y - 1"]),
    "GF7/(x^2-y)": PolyRing(GF(7), ["x", "y"], quotient=["x^2 - y"]),
    "QQ-lex": PolyRing(QQ, ["x", "y"], order=LEX),
    "GF7-lex": PolyRing(GF(7), ["x", "y"], order=LEX),
}


def is_zero_by_membership(m):
    """The oracle: M = 0 when every unit vector lies in the relation
    module."""
    one, zero = m.ring.one, m.ring.zero
    return all(m.contains([one if j == i else zero for j in range(m.ambient_rank)])
               for i in range(m.ambient_rank))


@pytest.mark.parametrize("name", list(IS_ZERO_RINGS))
def test_is_zero_matches_the_membership_oracle(name):
    """`is_zero` reads a unit leading term at every position; random
    presentations, about half of them zero, agree with the oracle."""
    ring = IS_ZERO_RINGS[name]
    rng = random.Random(61)
    verdicts = []
    for _ in range(40):
        rank, ncols = rng.randint(0, 3), rng.randint(0, 4)
        relations = Mat.from_entries(ring, rank, ncols, [
            (i, j, ring.random_poly(rng, max_degree=1, nterms=2))
            for i in range(rank) for j in range(ncols) if rng.random() < 0.6
        ])
        m = ModulePresentation(ring, rank, relations)
        verdicts.append(m.is_zero())
        assert verdicts[-1] == is_zero_by_membership(m)
    assert 10 < sum(verdicts) < 30


# -- split_at: the module near a point as a submatrix ------------------------


def is_submatrix(small, big):
    """small is big with some rows and columns left out, order kept, and
    zero columns dropped."""
    cols = [j for j in range(big.ncols) if big.column_entries(j)]
    return any(
        big.select_rows(rows).select_columns(kept) == small
        for rows in combinations(range(big.nrows), small.nrows)
        for kept in combinations(cols, small.ncols)
    )


SPLIT_FIELDS = [QQ, GF(32003), GF(7)]


@pytest.mark.parametrize("field", SPLIT_FIELDS, ids=[f.name for f in SPLIT_FIELDS])
def test_split_at_keeps_input_entries(field):
    """On seeded sparse presentations every kept entry is the input's
    entry at its kept row and column, and no kept entry is a unit alone
    in its row or column."""
    ring = PolyRing(field, ["x", "y"])
    rng = random.Random(42)
    split = 0
    for _ in range(40):
        rank, ncols = rng.randint(1, 4), rng.randint(1, 4)
        relations = Mat.from_entries(ring, rank, ncols, [
            (i, j, ring.random_poly(rng, max_degree=2, nterms=2))
            for i in range(rank) for j in range(ncols) if rng.random() < 0.6
        ])
        m = ModulePresentation(ring, rank, relations)
        for coords in ((0, 0), (1, -2)):
            point = RationalPoint(ring, coords)
            n = m.split_at(point)
            if n is m:
                continue
            split += 1
            assert n.ambient_rank < m.ambient_rank
            assert is_submatrix(n.relations, relations)
            rel = n.relations
            values = rel.evaluate(point)
            for i, j, _ in rel.entries():
                if j in values[i]:
                    assert sum(1 for x in rel.row(i) if x.terms) > 1
                    assert len(rel.column_entries(j)) > 1
    assert split >= 10


def test_split_at_keeps_the_degrees_of_the_kept_generators(rxy):
    """Generators of degrees (0, 2, 1); the unit 1 of column (x, 0, 1) is
    alone in row 2, so generator 2 and that column go."""
    m = ModulePresentation(
        rxy, 3, Mat(rxy, [["x", "x^2*y"], ["0", "y"], ["1", "0"]]), degrees=(0, 2, 1))
    n = m.split_at(RationalPoint(rxy, (0, 0)))
    assert n.degrees == (0, 2)
    assert n.relations == Mat(rxy, [["x^2*y"], ["y"]])
    assert ModulePresentation(rxy, 3, m.relations).split_at((0, 0)).degrees is None


def test_split_at_refuses_a_foreign_or_off_locus_point(rxy, monkeypatch):
    """Checked by `point_of` before any entry is evaluated."""

    def boom(*_args):
        raise AssertionError("evaluated before the point was checked")

    monkeypatch.setattr(Mat, "evaluate", boom)
    m = ModulePresentation(rxy, 1, Mat(rxy, [["1"]]))
    other = PolyRing(QQ, ["s", "t"])
    with pytest.raises(ValueError, match="different ring"):
        m.split_at(RationalPoint(other, (0, 0)))
    with pytest.raises(ValueError, match="expected 2 coordinates"):
        m.split_at((0,))
    quotient = PolyRing(QQ, ["x", "y"], quotient=["x*y"])
    q = ModulePresentation(quotient, 1, Mat(quotient, [["1"]]))
    with pytest.raises(ValueError, match="not on the vanishing locus"):
        q.split_at((1, 1))
