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
    floor_of,
    hom_complex,
    koszul,
    koszul_dual_stage,
    koszul_dual_transition,
    koszul_resolution_of_point,
    minimize,
    tensor,
    two_term,
    unit_complex,
)
from perfx.derived import _transition_matrices
from perfx.ktheory import regression_suite
from perfx.maps import RingMap
from perfx.modules import ModulePresentation
from perfx.resolutions import (
    derived_tensor,
    free_replacement,
    free_resolution,
    homology,
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
    h0 = homology(k, 0)
    assert not h0.is_zero()
    assert h0.fiber_dim(RationalPoint(rxy, (0, 0))) == 1
    assert homology(k, -1).is_zero()
    assert homology(k, -2).is_zero()


def test_koszul_single_nonzerodivisor():
    r1 = PolyRing(QQ, ["x"])
    k = koszul(r1, ["x"])
    assert not homology(k, 0).is_zero()
    assert homology(k, -1).is_zero()


def test_koszul_on_quotient_detects_torsion(quotient_xy):
    k = koszul(quotient_xy, ["x", "y"])
    assert not homology(k, -1).is_zero()


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
    h2 = homology(stage, 2)
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
        assert homology(c, i).is_zero()
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
    assert not homology(s, -1).is_zero()
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
            h = homology(t, i)
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
    # differential of the minimal model is evaluated over QQ, with the
    # same dims as before
    P = linalg.CERT_PRIME
    point = RationalPoint(blowup3_pushed.ring, (Fraction(1, P), 2, Fraction(-3, 7)))
    dims = blowup3_pushed.fiber_dims(point)
    model, _pairs = blowup3_pushed._minimal_model()
    d = model.diff
    assert exact_evaluations == [(d(i).nrows, d(i).ncols) for i in sorted(model.diffs)]
    assert exact_evaluations == [(3, 1), (3, 3)]
    assert dims == {-3: 0, -2: 0, -1: 0, 0: 1, 1: 0, 2: 0}
    assert dims == bareiss_fiber_dims(blowup3_pushed, point)
    assert blowup3_pushed.fiber_euler_characteristic(point) == 1


def test_fiber_dims_blowup_origin_falls_back(blowup3_pushed, bareiss_degrees):
    origin = RationalPoint(blowup3_pushed.ring, (0, 0, 0))
    dims = blowup3_pushed.fiber_dims(origin)
    # only the minimal model's d_-2 (3 x 1) and d_-1 (3 x 3) are ranked;
    # both vanish at the origin, where no certificate closes a rank
    model, _pairs = blowup3_pushed._minimal_model()
    d = model.diff
    assert [(d(i).nrows, d(i).ncols) for i in (-2, -1)] == [(3, 1), (3, 3)]
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
    h = homology(c, 1)
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
    gens, rels = rng.randint(1, 2), rng.randint(1, 3)
    rows = [polys(rels) for _ in range(gens)]
    seeded = ModulePresentation(ring, gens, Mat(ring, rows, ncols=rels))
    resolutions = [free_resolution(m, 3)
                   for m in (seeded, ModulePresentation.cyclic(ring, ["x", "y"]))]
    # over the quotient ring the residue field's resolution is cut at depth 3
    assert (resolutions[1].floor is not None) == ring.is_quotient
    # B = A[t]/(t^2 - x - 1) is free over A, so restricting a free complex
    # gives free terms, and free_replacement takes its all-free short-circuit
    cover = PolyRing(ring.field, ["x", "y", "t"],
                     quotient=[str(q) for q in ring.quotient_gb] + ["t^2 - x - 1"])
    lifted = koszul(cover, [cover.random_poly(rng, max_degree=2, nterms=2) for _ in range(3)])
    restricted = geometry.restrict_scalars(RingMap(ring, cover, ["x", "y"]), lifted)
    assert all(not t.relations.ncols for t in restricted.terms.values())
    FreeComplex(ring, {i: t.ambient_rank for i, t in restricted.terms.items()},
                restricted.maps, floor=restricted.floor)
    built = [
        k2,
        k3,
        *resolutions,
        tensor(k2, k3),
        tensor(k3, t),
        hom_complex(k2, k3),
        hom_complex(k3, t),
        cone(phi),
        ComplexMap.identity(k3),
        k3.shift(1),
        k2.direct_sum(t.shift(-1)),
        minimize(tensor(k2, k3)),
        tensor(k2, FreeComplex(ring, k3.ranks, k3.diffs, k3.degrees, floor=-2)),
        koszul_dual_transition(ring, ["x", "y"], 1 + seed),
        cech_cone(koszul_dual_stage(ring, ["x", "y"], 1 + seed)),
        RingMap(ring, ring, ["2*x", "4*y"]).apply_complex(koszul(ring, ["x", "y"])),
        RingMap(ring, ring, ["2*x", "4*y"]).apply_complex(k3),
        free_replacement(restricted, restricted.lo - 1),
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
        homology(res_like, -1)
    homology(res_like, 0)
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
            for h in (homology(obj, i) for i in range(lo, hi + 1))]


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


# -- the retired double-complex layouts, kept as references ---------------------


def old_hom_complex(c, d):
    """Hom(C, D) in its own (q, i, j) layout, the builder that `dual` and
    `hom_complex` replaced: basis element (q, i, j) sends generator i of
    C^q to generator j of D^(q+n), and d(f) = d_D o f - (-1)^n f o d_C."""
    ring = c.ring
    if not c.ranks or not d.ranks:
        return FreeComplex.zero_complex(ring)
    lo, hi = d.lo - c.hi, d.hi - c.lo
    layouts = {
        n: [(q, i, j) for q in range(c.lo, c.hi + 1)
            for i in range(c.rank(q)) for j in range(d.rank(q + n))]
        for n in range(lo, hi + 2)
    }
    offsets = {n: {key: k for k, key in enumerate(layout)} for n, layout in layouts.items()}
    diffs = {}
    for n in range(lo, hi + 1):
        entries = []
        for col, (q, i, j) in enumerate(layouts[n]):
            for s, x in d.diff(q + n).column_entries(j):
                entries.append((offsets[n + 1][(q, i, s)], col, x))
            for ip, x in enumerate(c.diff(q - 1).row(i)):
                if x.terms:
                    entries.append((offsets[n + 1][(q - 1, ip, j)], col, x if n % 2 else -x))
        diffs[n] = Mat.from_entries(ring, len(layouts[n + 1]), len(layouts[n]), entries)
    degrees = None
    if c.degrees is not None and d.degrees is not None:
        degrees = {n: tuple(d.degrees[q + n][j] - c.degrees[q][i] for q, i, j in layout)
                   for n, layout in layouts.items() if layout}
    floor = floor_of((d.floor, -c.lo), (None if c.floor is None else lo, 1))
    ranks = {n: len(layout) for n, layout in layouts.items()}
    return FreeComplex._make(ring, ranks, diffs, degrees, floor)


def old_tensor_map(phi, psi):
    """phi (x) psi for degree-0 chain maps, folded entry by entry over the
    tensor's (p, q, i, j) layout: the fold the dual-tower transitions and
    their coefficients used."""
    def layout(c, d, n):
        return [(p, n - p, i, j) for p in range(c.lo, c.hi + 1)
                for i in range(c.rank(p)) for j in range(d.rank(n - p))]

    cs, ds, ct, dt = phi.source, psi.source, phi.target, psi.target
    src = tensor(cs, ds)
    comps = {}
    for n in range(src.lo, src.hi + 1):
        rows = {key: k for k, key in enumerate(layout(ct, dt, n))}
        cols = layout(cs, ds, n)
        comps[n] = Mat.from_entries(cs.ring, len(rows), len(cols), (
            (rows[(p, q, r, s)], col, a * b)
            for col, (p, q, i, j) in enumerate(cols)
            for r, a in phi.component(p).column_entries(i)
            for s, b in psi.component(q).column_entries(j)
        ))
    return ComplexMap._make(src, tensor(ct, dt), comps)


def old_transition(ring, elements, s):
    trans = None
    for t in elements:
        t = ring.parse(t) if isinstance(t, str) else t
        factor = ComplexMap(two_term(ring, t**s), two_term(ring, t ** (s + 1)),
                            {0: Mat.identity(ring, 1), 1: Mat(ring, [[t]], ncols=1)})
        trans = factor if trans is None else old_tensor_map(trans, factor)
    return trans


def old_transition_matrices(ring, transition, n, indices):
    if isinstance(n, ModulePresentation):
        eye = Mat.identity(ring, n.ambient_rank)
        return {i: transition.component(i).kron(eye) for i in indices}
    transition = old_tensor_map(transition, ComplexMap.identity(n))
    return {i: transition.component(i) for i in indices}


LAYOUT_RINGS = {
    "QQ": PolyRing(QQ, ["x", "y", "z"]),
    "GF32003": PolyRing(GF(32003), ["x", "y", "z"]),
    "QQ/(x*y)": PolyRing(QQ, ["x", "y", "z"], quotient=["x*y"]),
}


def random_layout_complex(ring, rng):
    """Random ranks, sparse random differentials, degrees and floor: the
    layouts are bookkeeping, so the differentials need not compose to 0."""
    lo = rng.randint(-3, 2)
    ranks = {i: rng.randint(0, 3) for i in range(lo, lo + rng.randint(1, 4))}
    diffs = {
        i: Mat.from_entries(ring, ranks.get(i + 1, 0), r, [
            (a, b, ring.random_poly(rng, max_degree=2, nterms=2))
            for a in range(ranks.get(i + 1, 0)) for b in range(r) if rng.random() < 0.6
        ])
        for i, r in ranks.items()
    }
    degrees = None
    if rng.random() < 0.6:
        degrees = {i: tuple(rng.randint(-3, 3) for _ in range(r)) for i, r in ranks.items()}
    floor = None if rng.random() < 0.5 else lo + rng.randint(0, 2)
    return FreeComplex._make(ring, ranks, diffs, degrees, floor)


def layout_complexes(ring, rng):
    """Koszul, tensor and resolution complexes, graded and not, truncated
    and not, and the zero complex, over the ring."""
    x, y, z = (ring.var(i) for i in range(3))
    homogeneous = koszul(ring, [x * x, y - z])
    plain = koszul(ring, [x + ring.one, y * z - ring.const(2)])
    resolution = free_resolution(ModulePresentation.cyclic(ring, [x, y * z], degrees=(0,)), 2)
    return [
        homogeneous, plain, resolution, tensor(homogeneous, resolution),
        tensor(plain, two_term(ring, z)), resolution.shift(-1), unit_complex(ring),
        FreeComplex.zero_complex(ring), FreeComplex._make(ring, {}, {}, {}, 3),
    ]


@pytest.mark.parametrize("name", list(LAYOUT_RINGS))
def test_dual_is_the_old_hom_into_the_unit(name):
    """`dual` transposes with signs; it builds exactly the complex the
    (q, i, j) Hom builder gives with the unit as target."""
    ring = LAYOUT_RINGS[name]
    rng = random.Random(41)
    complexes = layout_complexes(ring, rng) + [random_layout_complex(ring, rng) for _ in range(40)]
    for c in complexes:
        assert dual(c) == old_hom_complex(c, unit_complex(ring)), c


@pytest.mark.parametrize("name", ["QQ", "GF32003"])
def test_hom_complex_keeps_the_old_ranks_degrees_floor_and_fibers(name):
    """Hom(C, D) = dual(C) (x) D is the old Hom up to the order of its
    basis: the same ranks, degrees and fiber dims, and the same floor for
    a truncated D.  For a truncated C the tensor carries the dual's claim
    up by D's top degree, which moves it only for a D spanning more than
    one degree."""
    ring = LAYOUT_RINGS[name]
    rng = random.Random(43)
    pool = layout_complexes(ring, rng)[:7]
    points = random_points(ring, rng, 2)
    for c in pool:
        for d in pool:
            new, old = hom_complex(c, d), old_hom_complex(c, d)
            assert new.ranks == old.ranks
            if new.degrees is not None or old.degrees is not None:
                assert {i: sorted(g) for i, g in new.degrees.items()} == {
                    i: sorted(g) for i, g in old.degrees.items()}
            claim = None if c.floor is None else 1 - c.hi
            assert new.floor == floor_of((d.floor, -c.lo), (claim, d.hi))
            if c.floor is None or d.lo == d.hi:
                assert new.floor == old.floor
            else:
                assert new.floor >= old.floor
            for pt in points:
                dims = new.fiber_dims(pt)
                assert dims == {i: v for i, v in old.fiber_dims(pt).items() if i in dims}


TOWER_SEQUENCES = [["x"], ["x", "y"], ["x", "y", "z"], ["x^2 + y", "y*z", "z - 1"]]


@pytest.mark.parametrize("name", list(LAYOUT_RINGS))
@pytest.mark.parametrize("seq", TOWER_SEQUENCES, ids=["x", "xy", "xyz", "mixed"])
def test_transitions_are_the_old_tensor_map_fold(name, seq):
    """The diagonal transition components, their source and target, and
    the transition matrices against unit, Koszul, truncated and module
    coefficients equal those of the tensor_map fold."""
    ring = LAYOUT_RINGS[name]
    coefficients = [
        unit_complex(ring), koszul(ring, ["x", "y + 1"]),
        free_resolution(ModulePresentation.cyclic(ring, ["x", "z"]), 1),
        ModulePresentation(ring, 2, Mat(ring, [["x", "y"], ["z", "0"]])),
    ]
    for s in (1, 2, 3):
        new, old = koszul_dual_transition(ring, seq, s), old_transition(ring, seq, s)
        assert (new.source, new.target) == (old.source, old.target)
        assert new.source == koszul_dual_stage(ring, seq, s)
        assert new.target == koszul_dual_stage(ring, seq, s + 1)
        assert new.components == old.components
        for n in coefficients:
            indices = range(-4, len(seq) + 3)
            assert _transition_matrices(ring, new, n, indices) == old_transition_matrices(
                ring, old, n, indices)


def test_the_dual_tower_refuses_an_empty_sequence(rxy):
    for build in (koszul_dual_stage, koszul_dual_transition):
        with pytest.raises(ValueError, match="nonempty sequence"):
            build(rxy, [], 1)
