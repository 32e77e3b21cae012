"""Complex engine: Koszul complexes, towers, tensor/hom/dual/shift/cone,
homology presentations and fiber dimensions."""

import random
from fractions import Fraction

import pytest

from perfx import geometry, linalg
from perfx.fields import GF, QQ
from perfx.complexes import (
    ComplexMap,
    FreeComplex,
    cone,
    dual,
    hom_complex,
    koszul,
    koszul_dual_stage,
    koszul_dual_transition,
    koszul_resolution_of_point,
    minimize,
    strand_homology_dims,
    tensor,
    two_term,
    unit_complex,
)
from perfx.modules import ModulePresentation
from perfx.resolutions import free_resolution
from perfx.rings import Mat, PolyRing, RationalPoint


@pytest.fixture
def rxy():
    return PolyRing(QQ, ["x", "y"])


@pytest.fixture
def quotient_xy():
    return PolyRing(QQ, ["x", "y"], quotient=["x*y"])


def random_points(ring, rng, count=5):
    pts = []
    while len(pts) < count:
        coords = tuple(ring.field.random(rng) for _ in range(ring.nvars))
        try:
            pts.append(RationalPoint(ring, coords))
        except ValueError:
            continue
    return pts


def test_koszul_regular_sequence(rxy):
    k = koszul(rxy, ["x", "y"])
    assert {i: k.rank(i) for i in range(-2, 1)} == {-2: 1, -1: 2, 0: 1}
    h0 = k.homology(0)
    assert not h0.is_zero()
    assert h0.fiber_dim(RationalPoint(rxy, (0, 0))) == 1
    assert k.homology(-1).is_zero()
    assert k.homology(-2).is_zero()


def test_koszul_single_nonzerodivisor():
    r1 = PolyRing(QQ, ["x"])
    k = koszul(r1, ["x"])
    assert not k.homology(0).is_zero()
    assert k.homology(-1).is_zero()


def test_koszul_on_quotient_detects_torsion(quotient_xy):
    k = koszul(quotient_xy, ["x", "y"])
    assert not k.homology(-1).is_zero()


def test_koszul_ranks_are_binomials():
    r3 = PolyRing(QQ, ["x", "y", "z"])
    k = koszul(r3, ["x", "y", "z"])
    assert [k.rank(-i) for i in range(4)] == [1, 3, 3, 1]


def test_tensor_of_koszuls_is_koszul(rxy):
    t = tensor(koszul(rxy, ["x"]), koszul(rxy, ["y"]))
    k = koszul(rxy, ["x", "y"])
    assert dict(t.ranks) == dict(k.ranks)
    pt = RationalPoint(rxy, (0, 0))
    assert t.fiber_dims(pt) == k.fiber_dims(pt)


def test_dual_stage_definition():
    r1 = PolyRing(QQ, ["x"])
    stage = koszul_dual_stage(r1, ["x"], 1)
    transition = koszul_dual_transition(r1, ["x"], 1)
    assert dict(stage.ranks) == {0: 1, 1: 1}
    assert stage.diff(0).rows[0][0] == r1.var("x")
    assert transition.target.diff(0).rows[0][0] == r1.parse("x^2")
    # transition: identity in degree 0, multiplication by x in degree 1
    assert transition.component(0).rows[0][0] == r1.one
    assert transition.component(1).rows[0][0] == r1.var("x")


def test_dual_stage_matches_dual_of_koszul_power(rxy):
    rng = random.Random(5)
    stage = koszul_dual_stage(rxy, ["x", "y"], 2)
    d = dual(koszul(rxy, ["x^2", "y^2"]))
    for pt in random_points(rxy, rng, 3):
        assert stage.fiber_dims(pt) == d.fiber_dims(pt)


def test_dual_stage_socle_dimensions(rxy):
    # stage 2 on (x, y): top homology is R/(x^2, y^2) on a generator of
    # degree -4; total dimension 4, socle 1-dimensional two steps up
    stage = koszul_dual_stage(rxy, ["x", "y"], 2)
    h2 = stage.homology(2)
    dims = {d: h2.graded_dim(d) for d in range(-4, 0)}
    assert dims == {-4: 1, -3: 2, -2: 1, -1: 0}
    assert sum(dims.values()) == 4


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_koszul_self_duality_fiber_dims(field):
    rng = random.Random(17)
    ring = PolyRing(field, ["x", "y", "z"])
    for _ in range(6):
        r = rng.randint(1, 3)
        seq = [ring.random_poly(rng, max_degree=2, nterms=2) for _ in range(r)]
        if any(t.is_zero for t in seq):
            continue
        k = koszul(ring, seq)
        d = dual(k)
        s = k.shift(-r)
        for pt in random_points(ring, rng, 3):
            assert d.fiber_dims(pt) == s.fiber_dims(pt)


def test_hom_unit_identity(rxy):
    k = koszul(rxy, ["x", "y"])
    h = hom_complex(unit_complex(rxy), k)
    assert dict(h.ranks) == dict(k.ranks)
    pt = RationalPoint(rxy, (1, 2))
    assert h.fiber_dims(pt) == k.fiber_dims(pt)


def test_double_dual(rxy):
    k = koszul(rxy, ["x", "y"])
    dd = dual(dual(k))
    assert dict(dd.ranks) == dict(k.ranks)
    pt = RationalPoint(rxy, (0, 0))
    assert dd.fiber_dims(pt) == k.fiber_dims(pt)


def test_cone_of_identity_is_exact(rxy):
    rng = random.Random(23)
    k = koszul(rxy, ["x", "y"])
    c = cone(ComplexMap.identity(k))
    for i in range(c.lo, c.hi + 1):
        assert c.homology(i).is_zero()
    for pt in random_points(rxy, rng, 5):
        assert all(v == 0 for v in c.fiber_dims(pt).values())


def test_cone_rank_bookkeeping(rxy):
    """Euler characteristics are additive on cones at sampled points."""
    rng = random.Random(29)
    k = koszul(rxy, ["x", "y"])
    phi = ComplexMap(k, k, {i: Mat(rxy, [[rxy.var("x") if a == b else rxy.zero
                                          for b in range(k.rank(i))]
                                         for a in range(k.rank(i))], ncols=k.rank(i))
                            for i in k.ranks})
    c = cone(phi)
    for pt in random_points(rxy, rng, 5):
        chi_k = sum((-1 if i % 2 else 1) * v for i, v in k.fiber_dims(pt).items())
        chi_c = sum((-1 if i % 2 else 1) * v for i, v in c.fiber_dims(pt).items())
        assert chi_c == 0 * chi_k  # chi(cone) = chi(target) - chi(source) = 0


def test_shift_homology(rxy):
    r1 = PolyRing(QQ, ["x"])
    s = koszul(r1, ["x"]).shift(1)
    assert not s.homology(-1).is_zero()
    assert s.rank(-1) == 1 and s.rank(0) == 0 or s.rank(-1) == 1


def test_tensor_associativity_and_commutativity(rxy):
    rng = random.Random(31)
    c = koszul(rxy, ["x"])
    d = koszul(rxy, ["y"])
    e = two_term(rxy, "x + y")
    left = tensor(tensor(c, d), e)
    right = tensor(c, tensor(d, e))
    swap = tensor(d, c)
    for pt in random_points(rxy, rng, 4):
        assert left.fiber_dims(pt) == right.fiber_dims(pt)
        assert tensor(c, d).fiber_dims(pt) == swap.fiber_dims(pt)


def test_fiber_dims_koszul_examples():
    r1 = PolyRing(QQ, ["x"])
    k = koszul(r1, ["x"])
    assert k.fiber_dims(RationalPoint(r1, (0,))) == {0: 1, -1: 1}
    assert k.fiber_dims(RationalPoint(r1, (1,))) == {0: 0, -1: 0}
    q = PolyRing(QQ, ["x", "y"], quotient=["x*y"])
    kq = koszul(q, ["x", "y"])
    dims = kq.fiber_dims(RationalPoint(q, (0, 0)))
    assert all(dims[i] > 0 for i in (-2, -1, 0))


def test_fiber_dims_match_koszul_resolution_route(rxy):
    """Evaluation and tensoring with the point's Koszul resolution agree."""
    rng = random.Random(41)
    c = tensor(koszul(rxy, ["x + y"]), two_term(rxy, "x - y"))
    for pt in random_points(rxy, rng, 3):
        k = koszul_resolution_of_point(rxy, pt)
        t = tensor(c, k)
        direct = c.fiber_dims(pt)
        via_tensor = {}
        for i in range(c.lo, c.hi + 1):
            h = t.homology(i)
            via_tensor[i] = h.fiber_dim(pt) if h.ambient_rank else 0
        assert direct == via_tensor


# -- fiber dims against per-matrix Bareiss ----------------------------------------


@pytest.fixture(scope="module")
def blowup3_pushed():
    """The pushforward of O(1) on the blow-up of A^3 at the origin, unminimized."""
    fam = geometry.blowup_family(QQ, 3)
    pushed, _report = geometry.pushforward_projective(fam, fam.twist(1), minimal=False)
    return pushed


def bareiss_fiber_dims(c, point, lo=None, hi=None):
    """fiber_dims with every differential ranked by Bareiss on its own."""
    lo = c.homology_floor() if lo is None else max(lo, c.homology_floor())
    hi = c.hi if hi is None else hi
    rk = {i: linalg.rank(c.diff(i).evaluate(point), QQ) for i in range(lo - 1, hi + 1)}
    return {i: c.rank(i) - rk[i] - rk[i - 1] for i in range(lo, hi + 1)}


def large_height_points(ring, rng, count):
    return [
        RationalPoint(ring, tuple(Fraction(rng.randint(10**4, 10**6), rng.randint(1, 97))
                                  for _ in range(ring.nvars)))
        for _ in range(count)
    ]


@pytest.fixture
def bareiss_degrees(monkeypatch):
    """Record the shapes of the matrices ranked by exact elimination."""
    shapes = []
    real = linalg.rank

    def counting(rows, field):
        shapes.append((len(rows), len(rows[0]) if rows else 0))
        return real(rows, field)

    monkeypatch.setattr(linalg, "rank", counting)
    return shapes


@pytest.mark.parametrize("seed", range(3))
def test_fiber_dims_koszul_and_resolutions_match_bareiss(seed):
    rng = random.Random(70 + seed)
    rxyz = PolyRing(QQ, ["x", "y", "z"])
    q = PolyRing(QQ, ["x", "y"], quotient=["x*y"])
    cases = [
        (koszul(rxyz, ["x", "y - z^2", "x*z"]),
         [RationalPoint(rxyz, (0, 0, 0)), RationalPoint(rxyz, (0, 4, 2))]
         + large_height_points(rxyz, rng, 2)),
        (free_resolution(ModulePresentation.cyclic(rxyz, ["x^2", "x*y", "z^3"]), 5),
         [RationalPoint(rxyz, (0, 0, 0)), RationalPoint(rxyz, (0, 3, 0))]
         + large_height_points(rxyz, rng, 2)),
        (free_resolution(ModulePresentation.cyclic(q, ["x", "y"]), 4),
         [RationalPoint(q, (0, 0)),
          RationalPoint(q, (0, Fraction(rng.randint(10**4, 10**6), 89)))]),
    ]
    for c, points in cases:
        for point in points:
            assert c.fiber_dims(point) == bareiss_fiber_dims(c, point)
            assert c.fiber_dims(point, lo=-1, hi=-1) == bareiss_fiber_dims(c, point, -1, -1)


def test_fiber_dims_blowup_large_height_points(blowup3_pushed, bareiss_degrees):
    for point in large_height_points(blowup3_pushed.ring, random.Random(11), 2):
        dims = blowup3_pushed.fiber_dims(point)
        assert dims == {-3: 0, -2: 0, -1: 0, 0: 1, 1: 0, 2: 0}
        assert blowup3_pushed.fiber_dims(point, lo=0, hi=0) == {0: 1}
        assert bareiss_degrees == []
        assert dims == bareiss_fiber_dims(blowup3_pushed, point)
        bareiss_degrees.clear()


def test_fiber_dims_blowup_origin_falls_back(blowup3_pushed, bareiss_degrees):
    origin = RationalPoint(blowup3_pushed.ring, (0, 0, 0))
    dims = blowup3_pushed.fiber_dims(origin)
    # only d_-2 (60 x 16) and d_-1 (91 x 60) keep homology on both sides
    assert bareiss_degrees == [(60, 16), (91, 60)]
    bareiss_degrees.clear()
    assert dims == {-3: 0, -2: 1, -1: 3, 0: 3, 1: 0, 2: 0}
    assert dims == bareiss_fiber_dims(blowup3_pushed, origin)
    assert blowup3_pushed.fiber_dims(origin, lo=0, hi=0) == {0: 3}


def test_homology_of_multiplication(rxy):
    c = two_term(rxy, "x*y")
    h = c.homology(1)
    assert h.fiber_dim(RationalPoint(rxy, (0, 0))) == 1
    assert h.fiber_dim(RationalPoint(rxy, (1, 1))) == 0


def test_stage_tower_composition():
    r1 = PolyRing(QQ, ["x"])
    for s in (1, 2):
        trans = koszul_dual_transition(r1, ["x"], s)
        assert trans.source == koszul_dual_stage(r1, ["x"], s)
        # composite transition agrees with the two-step degree pattern
        comp = trans.target
        assert comp == koszul_dual_stage(r1, ["x"], s + 1)
        assert comp.diff(0).rows[0][0] == r1.parse("x^" + str(s + 1))


def test_dual_transition_chain_map_on_plane(rxy):
    # each factor map is the identity in factor-degree 0 and t in
    # factor-degree 1, so the top component multiplies by x*y
    trans = koszul_dual_transition(rxy, ["x", "y"], 2)
    assert trans.source == koszul_dual_stage(rxy, ["x", "y"], 2)
    assert trans.target == koszul_dual_stage(rxy, ["x", "y"], 3)
    assert trans.component(0).rows[0][0] == rxy.one
    assert trans.component(2).rows[0][0] == rxy.parse("x*y")


def test_minimize_preserves_invariants(rxy):
    rng = random.Random(53)
    k = koszul(rxy, ["x", "y"])
    padded = k.direct_sum(cone(ComplexMap.identity(unit_complex(rxy))))
    slim = minimize(padded)
    assert slim.total_rank() < padded.total_rank()
    for pt in random_points(rxy, rng, 3):
        assert slim.fiber_dims(pt) == k.fiber_dims(pt)


def test_strand_dims(rxy):
    u = unit_complex(rxy)
    assert strand_homology_dims(u, 3) == {0: 4}
    q = PolyRing(QQ, ["x", "y"], quotient=["x^2", "y^2"])
    uq = unit_complex(q)
    assert strand_homology_dims(uq, 0) == {0: 1}
    assert strand_homology_dims(uq, 2) == {0: 1}
    assert strand_homology_dims(uq, 3) == {0: 0}


def test_dd_zero_enforced(rxy):
    bad = Mat(rxy, [["x"]], ncols=1)
    with pytest.raises(ValueError, match="d o d"):
        FreeComplex(
            rxy,
            {0: 1, 1: 1, 2: 1},
            {0: bad, 1: bad},
        )


def test_rank_cap(rxy):
    with pytest.raises(ValueError, match="cap"):
        FreeComplex(rxy, {0: 30000}, {})


def test_homology_guard_below_window(rxy):
    res_like = FreeComplex(
        rxy, {-1: 1, 0: 1}, {-1: Mat(rxy, [["x"]], ncols=1)}, tail="exact"
    )
    with pytest.raises(ValueError, match="not determined"):
        res_like.homology(-1)
    res_like.homology(0)
