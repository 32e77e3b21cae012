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
    cech_cone,
    cone,
    dual,
    hom_complex,
    koszul,
    koszul_dual_stage,
    koszul_dual_transition,
    koszul_resolution_of_point,
    minimize,
    tensor,
    tensor_map,
    two_term,
    unit_complex,
)
from perfx.ktheory import regression_suite
from perfx.maps import RingMap
from perfx.modules import ModulePresentation
from perfx.resolutions import (
    derived_tensor,
    fp_homology,
    free_resolution,
    homology_data,
    module_tensor_complex,
    truncate_le,
)
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


def test_negative_rank_is_refused(rxy):
    with pytest.raises(ValueError, match="rank at degree 0 must be at least 0, got -2"):
        FreeComplex.single(rxy, -2)
    with pytest.raises(ValueError, match="rank at degree 3 must be at least 0, got -1"):
        FreeComplex(rxy, {2: 1, 3: -1}, {})
    assert FreeComplex.single(rxy, 0) == FreeComplex.zero_complex(rxy)


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
    """Record the matrices ranked by exact elimination over QQ."""
    ranked = []
    real = linalg.rank

    def counting(rows, field):
        ranked.append(rows)
        return real(rows, field)

    monkeypatch.setattr(linalg, "rank", counting)
    return ranked


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
            assert c.fiber_dims(point).get(-1, 0) == bareiss_fiber_dims(c, point, -1, -1).get(-1, 0)


def test_fiber_dims_blowup_large_height_points(blowup3_pushed, bareiss_degrees):
    for point in large_height_points(blowup3_pushed.ring, random.Random(11), 3):
        dims = blowup3_pushed.fiber_dims(point)
        assert dims == {-3: 0, -2: 0, -1: 0, 0: 1, 1: 0, 2: 0}
        assert blowup3_pushed.fiber_dims(point)[0] == 1
        assert bareiss_degrees == []
        assert dims == bareiss_fiber_dims(blowup3_pushed, point)
        bareiss_degrees.clear()


@pytest.fixture
def exact_evaluations(monkeypatch):
    """Record the shape of every nonempty matrix evaluated exactly."""
    shapes = []
    real = Mat.evaluate

    def counting(mat, point):
        if mat.nrows and mat.ncols:
            shapes.append((mat.nrows, mat.ncols))
        return real(mat, point)

    monkeypatch.setattr(Mat, "evaluate", counting)
    return shapes


def test_fiber_dims_blowup_large_height_points_take_residues_only(
        blowup3_pushed, exact_evaluations):
    for point in large_height_points(blowup3_pushed.ring, random.Random(11), 3):
        assert blowup3_pushed.fiber_dims(point) == {-3: 0, -2: 0, -1: 0, 0: 1, 1: 0, 2: 0}
        assert blowup3_pushed.fiber_dims(point)[0] == 1
    assert exact_evaluations == []


def test_fiber_dims_blowup_prime_in_denominator_evaluates_exactly(
        blowup3_pushed, exact_evaluations):
    # no residues modulo CERT_PRIME exist at this point: every nonempty
    # differential is evaluated over QQ, with the same dims as before
    P = linalg.CERT_PRIME
    point = RationalPoint(blowup3_pushed.ring, (Fraction(1, P), 2, Fraction(-3, 7)))
    dims = blowup3_pushed.fiber_dims(point)
    d = blowup3_pushed.diff
    assert exact_evaluations == [(d(i).nrows, d(i).ncols) for i in range(-3, 2)]
    assert dims == {-3: 0, -2: 0, -1: 0, 0: 1, 1: 0, 2: 0}
    assert dims == bareiss_fiber_dims(blowup3_pushed, point)
    assert blowup3_pushed.fiber_euler_characteristic(point) == 1


def test_fiber_dims_blowup_origin_falls_back(blowup3_pushed, bareiss_degrees):
    origin = RationalPoint(blowup3_pushed.ring, (0, 0, 0))
    dims = blowup3_pushed.fiber_dims(origin)
    # only d_-2 (60 x 16) and d_-1 (91 x 60) keep homology on both sides
    d = blowup3_pushed.diff
    assert [(d(i).nrows, d(i).ncols) for i in (-2, -1)] == [(60, 16), (91, 60)]
    assert bareiss_degrees == [d(-2).evaluate(origin), d(-1).evaluate(origin)]
    bareiss_degrees.clear()
    assert dims == {-3: 0, -2: 1, -1: 3, 0: 3, 1: 0, 2: 0}
    assert dims == bareiss_fiber_dims(blowup3_pushed, origin)
    assert blowup3_pushed.fiber_dims(origin)[0] == 3


def _alternating_fiber_dims(c, point):
    return sum((-1 if i % 2 else 1) * d for i, d in c.fiber_dims(point).items())


def _in_field(field, q):
    return field.div(field.from_int(q.numerator), field.from_int(q.denominator))


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("n", [2, 3])
def test_euler_characteristic_is_the_alternating_fiber_dims_blowup(
        n, field, blowup3_pushed):
    """chi from the term ranks agrees with the fiber dims at the origin and
    at the pinned large-height points."""
    if (n, field) == (3, QQ):
        pushed = blowup3_pushed
    else:
        fam = geometry.blowup_family(field, n)
        pushed, _report = geometry.pushforward_projective(fam, fam.twist(1), minimal=False)
    ring = pushed.ring
    points = [RationalPoint(ring, (0,) * n)] + [
        RationalPoint(ring, tuple(_in_field(field, q) for q in pt.coords))
        for pt in large_height_points(PolyRing(QQ, ring.variables), random.Random(11), 3)
    ]
    for point in points:
        assert pushed.fiber_euler_characteristic(point) == _alternating_fiber_dims(pushed, point)


def test_euler_characteristic_is_the_alternating_fiber_dims_k0_classes():
    checked = 0
    for entry in regression_suite(seed=0):
        points = [pt for pts in entry["points"].values() for pt in pts]
        for cls in entry["classes"].values():
            for _coeff, c in cls.terms:
                for point in (pt for pt in points if pt.ring == c.ring):
                    assert c.fiber_euler_characteristic(point) == _alternating_fiber_dims(c, point)
                    checked += 1
    assert checked


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
    """The degree-d strand of the unit complex is the degree-d piece of
    the ring."""
    assert ModulePresentation.free(rxy, 1, degrees=(0,)).graded_dim(3) == 4
    q = PolyRing(QQ, ["x", "y"], quotient=["x^2", "y^2"])
    unit = ModulePresentation.free(q, 1, degrees=(0,))
    assert [unit.graded_dim(d) for d in (0, 2, 3)] == [1, 1, 0]


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
    # the trusted constructors keep the cap: 150 * 151 > RANK_CAP
    with pytest.raises(ValueError, match="cap"):
        tensor(FreeComplex.single(rxy, 150), FreeComplex.single(rxy, 151))


def test_caller_maps_and_gradings_are_checked(rxy):
    k = koszul(rxy, ["x", "y"])
    u = unit_complex(rxy)
    # multiplication by x in degree 0 only: the square at degree -1 fails
    with pytest.raises(ValueError, match="does not commute"):
        ComplexMap(k, u, {0: Mat(rxy, [["x"]], ncols=1)})
    with pytest.raises(ValueError, match="wrong shape"):
        ComplexMap(k, u, {0: Mat(rxy, [["x", "y"]], ncols=2)})
    with pytest.raises(ValueError, match="wrong shape"):
        FreeComplex(rxy, {0: 1, 1: 2}, {0: Mat(rxy, [["x"]], ncols=1)})
    with pytest.raises(ValueError, match="not homogeneous"):
        FreeComplex(
            rxy, {0: 1, 1: 1}, {0: Mat(rxy, [["x + 1"]], ncols=1)},
            degrees={0: (0,), 1: (-1,)},
        )


# -- builders that skip the checks ---------------------------------------------

TRUSTED_RINGS = {
    "QQ": PolyRing(QQ, ["x", "y"]),
    "GF32003": PolyRing(GF(32003), ["x", "y"]),
    "QQ/(x^2-y,xy)": PolyRing(QQ, ["x", "y"], quotient=["x^2 - y", "x*y"]),
}


def revalidate(built):
    """Pass a trusted builder's output through the public constructor,
    which checks shapes, grading, d o d = 0 and commuting squares."""
    if isinstance(built, ComplexMap):
        revalidate(built.source)
        revalidate(built.target)
        ComplexMap(built.source, built.target, built.components)
    else:
        FreeComplex(built.ring, built.ranks, built.diffs, built.degrees, built.floor)


def scalar_map(c, p):
    """Multiplication by p on every term: a chain map c -> c."""
    return ComplexMap(c, c, {i: Mat.identity(c.ring, r).kron(Mat(c.ring, [[p]]))
                             for i, r in c.ranks.items()})


@pytest.mark.parametrize("name", list(TRUSTED_RINGS))
@pytest.mark.parametrize("seed", range(3))
def test_trusted_builders_pass_the_public_checks(name, seed):
    ring = TRUSTED_RINGS[name]
    rng = random.Random(300 + seed)

    def polys(count):
        return [ring.random_poly(rng, max_degree=2, nterms=2) for _ in range(count)]

    k2 = koszul(ring, polys(2))
    k3 = koszul(ring, polys(3))
    t = two_term(ring, polys(1)[0])
    phi = scalar_map(k2, polys(1)[0])
    psi = scalar_map(t, polys(1)[0])
    phi_t = tensor_map(phi, psi)
    built = [
        tensor(k2, k3),
        tensor(k3, t),
        hom_complex(k2, k3),
        hom_complex(k3, t),
        cone(phi),
        cone(phi_t),
        phi_t,
        ComplexMap.identity(k3),
        k3.shift(1),
        k2.direct_sum(t.shift(-1)),
        minimize(tensor(k2, k3)),
        tensor(k2, FreeComplex(ring, k3.ranks, k3.diffs, k3.degrees, floor=-2)),
        koszul_dual_transition(ring, ["x", "y"], 1 + seed),
        cech_cone(koszul_dual_stage(ring, ["x", "y"], 1 + seed)),
        RingMap(ring, ring, ["2*x", "4*y"]).apply_complex(koszul(ring, ["x", "y"])),
        RingMap(ring, ring, ["2*x", "4*y"]).apply_complex(k3),
    ]
    for b in built:
        revalidate(b)


@pytest.mark.parametrize("n", [2, 3])
def test_relative_strand_passes_the_public_checks(n):
    """minimal=False returns relative_strand's output as it is."""
    fam = geometry.blowup_family(QQ, n)
    pushed, _report = geometry.pushforward_projective(fam, fam.twist(1), minimal=False)
    assert pushed.diffs
    revalidate(pushed)


def test_homology_guard_below_window(rxy):
    res_like = FreeComplex(
        rxy, {-1: 1, 0: 1}, {-1: Mat(rxy, [["x"]], ncols=1)}, floor=0
    )
    with pytest.raises(ValueError, match="not determined"):
        res_like.homology(-1)
    res_like.homology(0)
    with pytest.raises(ValueError, match="below the homology floor 0 of a truncated complex"):
        res_like.generic_dim((2, 3), -1)
    assert res_like.generic_dim((2, 3), 0) == (0, True)


# -- the homology floor rule ------------------------------------------------------


def _floor_builds():
    """Each builder applied to a resolution C of coker [x] over
    QQ[x,y]/(x*y), with its floor as an offset from C's: the rule of
    complexes.floor_of, carried by shift, direct_sum, cone, tensor, Hom
    into C, minimize, module_tensor_complex, truncate_le, derived_tensor
    and restriction of scalars."""
    def unit_at_4(c):
        return unit_complex(c.ring).shift(4)

    def koszul_xy(c):
        return koszul(c.ring, ["x", "y"])

    def coker_y(c):
        return ModulePresentation(c.ring, 1, Mat(c.ring, [["y"]]), (0,))

    return {
        "shift": (lambda c, d: c.shift(1), -1),
        "direct_sum": (lambda c, d: c.direct_sum(unit_at_4(c)), 0),
        "cone": (lambda c, d: cone(ComplexMap(c, unit_at_4(c), {})), -1),
        "tensor": (lambda c, d: tensor(c, koszul_xy(c)), 0),
        "hom_complex": (lambda c, d: hom_complex(koszul_xy(c), c), 2),
        "minimize": (lambda c, d: minimize(tensor(koszul_xy(c), c)), 0),
        "module_tensor_complex": (lambda c, d: module_tensor_complex(coker_y(c), c), 0),
        "truncate_le": (lambda c, d: truncate_le(c, -1), 0),
        "derived_tensor": (lambda c, d: derived_tensor(c, coker_y(c), depth=d), 0),
        "restrict_scalars": (
            lambda c, d: geometry.restrict_scalars(RingMap.identity(c.ring), c), 0),
    }


def _origin_dims(obj, lo, hi):
    """dim H^i(obj (x) kappa(0)) for a free complex, dim H^i(obj) (x)
    kappa(0) for a presented one, over lo..hi."""
    origin = RationalPoint(obj.ring, (0, 0))
    if isinstance(obj, FreeComplex):
        dims = obj.fiber_dims(origin)
        return [dims.get(i, 0) for i in range(lo, hi + 1)]
    return [h.fiber_dim(origin) if h.ambient_rank else 0
            for h in (fp_homology(obj, i) for i in range(lo, hi + 1))]


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("name", list(_floor_builds()))
def test_the_floor_rule_against_a_deep_resolution(quotient_xy, name, depth):
    """From the claimed floor up, a build from a truncated resolution reads
    the fiber dims the same build reads from a depth-9 resolution, and one
    degree below the floor its homology is refused."""
    build, offset = _floor_builds()[name]
    coker_x = ModulePresentation(quotient_xy, 1, Mat(quotient_xy, [["x"]]), (0,))
    c = free_resolution(coker_x, depth)
    got = build(c, depth)
    deep = build(free_resolution(coker_x, 9), 9)
    assert c.floor == 1 - depth and got.floor == c.floor + offset
    assert deep.is_determined(got.floor)
    hi = max(got.hi, deep.hi) + 1
    assert _origin_dims(got, got.floor, hi) == _origin_dims(deep, got.floor, hi)
    with pytest.raises(ValueError, match="below the homology floor"):
        homology_data(got, got.floor - 1)
