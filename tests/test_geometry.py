"""Families, pushforwards, fibers, Euler characteristics and scans."""

import random

import pytest

from perfx import linalg
from perfx.fields import QQ
from perfx.complexes import FreeComplex, koszul, two_term
from perfx.derived import is_relatively_perfect
from perfx.geometry import (
    ProjectiveFamily,
    blowup_family,
    chi,
    chi_direct,
    classical_chi,
    classical_fiber,
    derived_pullback,
    grauert_check,
    hp_scan,
    nice_fiber,
    push,
    pushforward_affine,
    pushforward_projective,
    tor_independent,
)
from perfx.maps import RingMap
from perfx.modules import ModulePresentation
from perfx.rings import Mat, PolyRing, RationalPoint


@pytest.fixture
def line():
    return PolyRing(QQ, ["t"])


@pytest.fixture
def double_cover(line):
    b = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    return RingMap(line, b, ["t"])


@pytest.fixture
def tx_family(line):
    b = PolyRing(QQ, ["t", "x"], quotient=["t*x"])
    return RingMap(line, b, ["t"])


def base_points(ring, values):
    return [RationalPoint(ring, (v,) if ring.nvars == 1 else v) for v in values]


# -- derived pullback ---------------------------------------------------------


def test_pullback_of_free_complex_is_entrywise(double_cover):
    e = koszul(double_cover.source, ["t"])
    pulled = derived_pullback(double_cover, e)
    assert dict(pulled.ranks) == dict(e.ranks)
    assert pulled.diff(-1).rows[0][0] == double_cover.target.var("t")


def test_pullback_detects_torsion(tx_family, line):
    m = ModulePresentation.cyclic(line, ["t"])
    pulled = derived_pullback(tx_family, m, 4)
    assert not pulled.homology(0).is_zero()
    assert not pulled.homology(-1).is_zero()  # ann of t is (x) != 0


def test_flat_pullback_no_higher_homology(line):
    flat = PolyRing(QQ, ["t", "u"])
    f = RingMap(line, flat, ["t"])
    m = ModulePresentation.cyclic(line, ["t"])
    pulled = derived_pullback(f, m, 4)
    assert not pulled.homology(0).is_zero()
    for i in range(pulled.homology_floor(), 0):
        assert pulled.homology(i).is_zero()


# -- affine pushforward ---------------------------------------------------------


def test_pushforward_free_cover(double_cover):
    pushed = pushforward_affine(double_cover, ModulePresentation.free(double_cover.target, 1))
    assert dict(pushed.ranks) == {0: 2}
    assert pushed.tail == "zero"


def test_pushforward_structure_quotient(double_cover, line):
    # B/(x) over A = QQ[t] is A/(t): Tor dims (1, 1) at the origin
    e = ModulePresentation.cyclic(double_cover.target, ["x"])
    pushed = pushforward_affine(double_cover, e)
    origin = RationalPoint(line, (0,))
    away = RationalPoint(line, (1,))
    assert pushed.fiber_dims(origin) == {0: 1, -1: 1}
    assert pushed.fiber_dims(away) == {0: 0, -1: 0}
    assert not pushed.homology(0).is_zero()
    assert pushed.homology(-1).is_zero()


def test_pushforward_identity(line):
    f = RingMap.identity(line)
    e = koszul(line, ["t"])
    assert pushforward_affine(f, e) is e


# -- projective pushforward ------------------------------------------------------


def test_projective_line_twists():
    p1 = ProjectiveFamily(PolyRing(QQ, ()), ["x0", "x1"], [], name="P1")
    empty = RationalPoint(p1.base, ())
    for d in (0, 1, 3):
        pushed, report = pushforward_projective(p1, p1.twist(d))
        assert report["bounded"]
        assert pushed.fiber_dims(empty) == ({0: d + 1} if d + 1 else {})
    pushed, _ = pushforward_projective(p1, p1.twist(-2))
    assert pushed.fiber_dims(empty) == {1: 1}
    pushed, _ = pushforward_projective(p1, p1.twist(-1))
    assert all(v == 0 for v in pushed.fiber_dims(empty).values())


def test_projective_pushforward_zero():
    p1 = ProjectiveFamily(PolyRing(QQ, ()), ["x0", "x1"], [], name="P1")
    zero = FreeComplex.zero_complex(p1.total)
    pushed, report = pushforward_projective(p1, zero)
    assert not pushed.ranks
    # the same five keys as any other call, floor at lo = 0
    assert report == {
        "stage_used": 0,
        "exact_bound": True,
        "stages_agree": None,
        "floor": -p1.fiber_count - 2,
        "bounded": True,
    }
    assert report.keys() == pushforward_projective(p1, p1.twist(1))[1].keys()


def test_blowup_pushforward_is_ideal():
    fam = blowup_family(QQ, 2)
    pushed, report = pushforward_projective(fam, fam.twist(1))
    assert report["exact_bound"] and report["bounded"]
    a = fam.base
    # H^0 is the ideal (y1, y2): fiber dimension 2 at the origin, 1 away
    h0 = pushed.homology(0)
    assert h0.fiber_dim(RationalPoint(a, (0, 0))) == 2
    assert h0.fiber_dim(RationalPoint(a, (1, 1))) == 1
    assert pushed.homology(-1).is_zero()


# -- fibers ----------------------------------------------------------------------


def test_nice_fiber_flat_family(double_cover, line):
    e = ModulePresentation.free(double_cover.target, 1)
    pushed = pushforward_affine(double_cover, e)
    at_one = RationalPoint(line, (1,))
    assert pushed.fiber_dims(at_one) == {0: 2}
    fiber = nice_fiber(double_cover, e, at_one)
    via_fiber = pushforward_affine(double_cover, fiber.complex)
    assert via_fiber.homology(0).fiber_dim(at_one) == 2
    assert via_fiber.homology(-1).is_zero()


def test_nice_fiber_identity_point(line):
    f = RingMap.identity(line)
    e = ModulePresentation.residue_field(line)
    fiber = nice_fiber(f, e, RationalPoint(line, (0,)))
    origin = RationalPoint(line, (0,))
    dims = {
        i: fiber.complex.homology(i).fiber_dim(origin)
        for i in range(fiber.complex.homology_floor(), fiber.complex.hi + 1)
    }
    assert {i: d for i, d in dims.items() if d} == {0: 1, -1: 1}


def test_classical_fiber_rings(double_cover, line):
    e = ModulePresentation.free(double_cover.target, 1)
    restricted = classical_fiber(double_cover, e, RationalPoint(line, (1,)))
    assert restricted.ring.is_quotient
    # the fiber ring QQ[t,x]/(x^2-t, t-1) is 2-dimensional over QQ
    from perfx.complexes import standard_monomials

    assert len(standard_monomials(restricted.ring, 0)) == 1
    assert len(standard_monomials(restricted.ring, 1)) == 1


def test_blowup_chi_table_n2():
    fam = blowup_family(QQ, 2)
    sheaf = fam.twist(1)
    pushed, _ = pushforward_projective(fam, sheaf)
    pts = base_points(fam.base, [(0, 0), (1, 0), (0, 1), (1, 1), (2, -1)])
    nice = [chi(fam, sheaf, p, pushed=pushed) for p in pts]
    classical = [classical_chi(fam, sheaf, p) for p in pts]
    assert nice == [1, 1, 1, 1, 1]
    assert classical == [2, 1, 1, 1, 1]


def test_chi_two_paths_agree(double_cover, line):
    e = ModulePresentation.free(double_cover.target, 1)
    pushed = pushforward_affine(double_cover, e)
    for value in (0, 1, 2):
        point = RationalPoint(line, (value,))
        assert chi(double_cover, e, point, pushed=pushed) == 2
        assert chi_direct(double_cover, e, point) == 2


def test_chi_blowup_two_paths():
    fam = blowup_family(QQ, 2)
    sheaf = fam.twist(1)
    origin = RationalPoint(fam.base, (0, 0))
    assert chi(fam, sheaf, origin) == 1
    assert chi_direct(fam, sheaf, origin) == 1


def test_chi_zero_complex(double_cover, line):
    zero = FreeComplex.zero_complex(double_cover.target)
    pushed = pushforward_affine(double_cover, zero)
    assert chi(double_cover, zero, RationalPoint(line, (1,)), pushed=pushed) == 0


def test_chi_constant_on_certified_family(double_cover, line):
    e = ModulePresentation.free(double_cover.target, 1)
    points = base_points(line, [0, 1, 2, -1, 5])
    report = is_relatively_perfect(e, double_cover, points)
    assert report.is_relatively_perfect
    pushed = pushforward_affine(double_cover, e)
    values = {chi(double_cover, e, p, pushed=pushed) for p in points}
    assert len(values) == 1


# -- scans -----------------------------------------------------------------------


def test_hp_scan_skyscraper(line):
    f = RingMap.identity(line)
    m = ModulePresentation.cyclic(line, ["t"])
    points = base_points(line, [0, 1, 2, -1, 7])
    result = hp_scan(f, m, 0, points)
    assert [v for _, v in result["values"]] == [1, 0, 0, 0, 0]
    assert result["generic_value"] == 0
    assert result["audit_pass"]


def test_hp_scan_blowup_jumps_at_origin():
    fam = blowup_family(QQ, 2)
    sheaf = fam.twist(1)
    points = base_points(fam.base, [(0, 0), (1, 0), (0, 1), (2, 3), (-1, 1)])
    result = hp_scan(fam, sheaf, 0, points)
    assert [v for _, v in result["values"]] == [2, 1, 1, 1, 1]
    assert result["audit_pass"]


def test_hp_scan_free_pushforward_constant(double_cover, line):
    e = ModulePresentation.free(double_cover.target, 1)
    result = hp_scan(double_cover, e, 0, base_points(line, [0, 1, -2]))
    assert {v for _, v in result["values"]} == {2}
    assert result["audit_pass"]


def test_grauert_flat_family(double_cover, line):
    e = ModulePresentation.free(double_cover.target, 1)
    report = grauert_check(double_cover, e, 0, base_points(line, [0, 1, 2, -1, 3]))
    assert report["constant"] and report["value"] == 2
    assert report["rank_dp_constant"] and report["rank_dprev_constant"]
    assert report["base_change_pass"]


def test_grauert_nonflat_witness(line):
    f = RingMap.identity(line)
    m = ModulePresentation.cyclic(line, ["t"])
    report = grauert_check(f, m, 0, base_points(line, [0, 1, 2, -1, 3]))
    assert not report["constant"]
    assert [str(w) for w in report["witnesses"]] == ["(0)"]


def test_grauert_free_always_passes(line):
    f = RingMap.identity(line)
    e = FreeComplex.single(line, 3, at=0)
    report = grauert_check(f, e, 0, base_points(line, [0, 5]))
    assert report["constant"] and report["base_change_pass"]


# -- rank semicontinuity substrate ------------------------------------------------


def test_rank_lower_semicontinuous(line):
    rng = random.Random(4)
    mat = Mat(
        line,
        [[line.random_poly(rng, 2, 2) for _ in range(3)] for _ in range(3)],
        ncols=3,
    )
    special = RationalPoint(line, (0,))
    generic = RationalPoint(line, (QQ.parse("355/113"),))
    r_special = linalg.rank(mat.evaluate(special), QQ)
    r_generic = linalg.rank(mat.evaluate(generic), QQ)
    assert r_generic >= r_special


# -- tor independence ---------------------------------------------------------------


def test_tor_independent_flat(double_cover, line):
    aq = PolyRing(QQ, ["t"], quotient=["t"])
    g = RingMap(line, aq, ["t"])
    pair = (RationalPoint(double_cover.target, (0, 0)), RationalPoint(aq, (0,)))
    report = tor_independent(
        double_cover, g, [pair], depth=4,
        test_complex=ModulePresentation.free(double_cover.target, 1),
    )
    assert report["transverse"]
    assert report["base_change"]["verified"]


def test_tor_independent_self_intersection(line):
    aq = PolyRing(QQ, ["t"], quotient=["t"])
    f = RingMap(line, aq, ["t"])
    g = RingMap(line, aq, ["t"])
    pair = (RationalPoint(aq, (0,)), RationalPoint(aq, (0,)))
    report = tor_independent(f, g, [pair], depth=4)
    assert not report["transverse"]
    assert report["per_point"][0]["nonzero_tor"].get(1)


def test_tor_independent_identity_square(line):
    f = RingMap.identity(line)
    g = RingMap.identity(line)
    pair = (RationalPoint(line, (0,)), RationalPoint(line, (0,)))
    report = tor_independent(f, g, [pair], depth=3)
    assert report["transverse"]


def test_tor_independent_rejects_incompatible(double_cover, line):
    aq = PolyRing(QQ, ["t"], quotient=["t"])
    g = RingMap(line, aq, ["t"])
    bad_pair = (RationalPoint(double_cover.target, (1, 1)), RationalPoint(aq, (0,)))
    with pytest.raises(ValueError, match="common base point"):
        tor_independent(double_cover, g, [bad_pair], depth=3)


# -- projection formula ---------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_projection_formula_rank_identity(seed, line):
    rng = random.Random(seed)
    c = rng.randint(-2, 2)
    b = PolyRing(QQ, ["t", "x"], quotient=[f"x^2 - t - ({c})"])
    f = RingMap(line, b, ["t"])
    e = two_term(b, b.parse("x") - b.const(rng.randint(-1, 1)))
    m = two_term(line, line.parse("t") - line.const(rng.randint(-1, 1)))
    from perfx.complexes import tensor

    left = pushforward_affine(f, tensor(e, derived_pullback(f, m, 4)))
    right = tensor(pushforward_affine(f, e), m)
    for value in (0, 1, 2, -1, 3):
        point = RationalPoint(line, (value,))
        assert left.fiber_dims(point) == right.fiber_dims(point)


def test_flat_family_nice_equals_classical_dims(double_cover, line):
    """Flat comparison: both fibers have the same homology dimensions."""
    e = ModulePresentation.free(double_cover.target, 1)
    pushed = pushforward_affine(double_cover, e)
    for value in (0, 1, 4):
        point = RationalPoint(line, (value,))
        nice_dims = pushed.fiber_dims(point)
        restricted = classical_fiber(double_cover, e, point)
        from perfx.complexes import standard_monomials

        classical_dim = sum(
            len(standard_monomials(restricted.ring, d)) for d in range(0, 3)
        )
        assert nice_dims == {0: 2}
        assert classical_dim == 2


def test_blowup_chi_profile_preserved_under_base_change():
    fam = blowup_family(QQ, 2)
    sheaf = fam.twist(1)
    pushed, _ = pushforward_projective(fam, sheaf)
    line_ring = PolyRing(QQ, ["s"])
    restrict = RingMap(fam.base, line_ring, ["s", "0"])
    pulled = restrict.apply_complex(pushed)
    for v in (0, 1, 2, -1, 7):
        point = RationalPoint(line_ring, (v,))
        assert pulled.fiber_euler_characteristic(point) == 1
