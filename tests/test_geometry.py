"""Families, pushforwards, fibers, Euler characteristics and scans."""

import random
import sys
from fractions import Fraction
from math import factorial, prod

import pytest

from perfx import complexes, geometry, linalg, resolutions, rings
from perfx.fields import GF, QQ
from perfx.complexes import FreeComplex, koszul, two_term
from perfx.derived import is_relatively_perfect
from perfx.geometry import (
    ProjectiveFamily,
    blowup_family,
    chi,
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
from perfx.orders import LEX
from perfx.resolutions import free_resolution
from perfx.groebner import mono_divides
from perfx.rings import Mat, PolyRing, RationalPoint


def standard_monomials(ring, degree):
    """Monomial basis of the degree-d piece of the (quotient) ring."""
    lts = [ring.exponents(q.leading_monomial()) for q in ring.quotient_gb]
    return [
        m
        for m in ring.monomials_of_degree(degree)
        if not any(mono_divides(lt, m) for lt in lts)
    ]


def chi_direct(fam, e, point):
    """chi computed the other way from `chi`: push the derived fiber
    itself and measure its homology modules (already vector spaces over
    the residue field of the point)."""
    fiber = nice_fiber(fam, e, point)
    if isinstance(fam, ProjectiveFamily):
        pushed, _ = pushforward_projective(fam, fiber.complex)
    else:
        pushed = pushforward_affine(fam, fiber.complex)
    total = 0
    for i in range(pushed.homology_floor(), pushed.hi + 1):
        h = pushed.homology(i)
        if h.ambient_rank:
            total += (-1 if i % 2 else 1) * h.fiber_dim(point)
    return total


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
    """A point per value: a coordinate tuple, or a bare coordinate of a line."""
    return [RationalPoint(ring, v if isinstance(v, tuple) else (v,)) for v in values]


def test_rational_point_maps_coordinates_into_the_field():
    assert RationalPoint(PolyRing(QQ, ["y", "z"]), (Fraction(1, 2), 3)).coords == (
        Fraction(1, 2), Fraction(3)
    )
    # over GF(5), 1/2 is 3 and 7 is 2
    assert RationalPoint(PolyRing(GF(5), ["y", "z"]), (Fraction(1, 2), 7)).coords == (3, 2)


@pytest.mark.parametrize("field, coord, message", [
    (QQ, (0,), r"not a rational number: \(0,\)"),
    (QQ, "a", "not a rational number: 'a'"),
    (QQ, 0.5, "not a rational number: 0.5"),
    (GF(5), Fraction(1, 5), r"denominator of '1/5' is 0 in GF\(5\)"),
    (GF(5), "a", r"not an element of GF\(5\)"),
])
def test_rational_point_rejects_what_is_not_in_the_field(field, coord, message):
    with pytest.raises(ValueError, match=message):
        RationalPoint(PolyRing(field, ["y"]), (coord,))


def test_field_parse_rejects_a_zero_denominator():
    assert GF(5).parse("3/2") == 4
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        QQ.parse("1/0")
    for text in ("1/0", "1/5", "2/10"):
        with pytest.raises(ValueError, match=f"denominator of '{text}' is 0 in GF"):
            GF(5).parse(text)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("text, value", [
    ("3", 3), ("-3", -3), (" 7 ", 7), ("1/2", Fraction(1, 2)), ("-4/6", Fraction(-2, 3)),
    ("0.5", Fraction(1, 2)), ("1e3", 1000), ("10/5", 2),
    ("1/2/3", None), ("abc", None), ("", None), ("1 / 2", None), ("1/0.5", None),
])
def test_field_parse_reads_the_same_texts_in_every_field(field, text, value):
    """Each field reads a text as Fraction does and maps it in; a
    malformed text is one ValueError that names it."""
    if value is None:
        with pytest.raises(ValueError) as info:
            field.parse(text)
        assert str(info.value) == f"not an integer, fraction or decimal: {text!r}"
    else:
        assert field.parse(text) == field.coerce(value)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_field_parse_bounds_the_decimal_exponent(field):
    """A decimal exponent up to the int-string limit (4300 digits) in
    magnitude parses; a larger one raises before 10^exponent is built.
    So does a value whose numerator or denominator has more digits than
    the limit, which could not be printed."""
    assert field.parse("1e4299") == field.coerce(10**4299)
    assert field.parse("1.0000e4299") == field.coerce(10**4299)
    for text in ("1e4301", "1e-5000", "1e999999999"):
        with pytest.raises(ValueError, match=f"decimal exponent of '{text}' is past 4300"):
            field.parse(text)
    for text in ("1e4300", "12345e4299", "1e-4300"):
        with pytest.raises(ValueError, match=f"'{text}' has a numerator or denominator of more "
                                             "than 4300 digits"):
            field.parse(text)


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
    assert pushed.floor is None


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


def test_pushforward_of_a_module_with_dependent_relations(line):
    """M = coker [[u, u]] over B = QQ[t,u]/(u^2 - t) is B/(u), so f_*M is
    A/(t): chi 0 everywhere, h^-1 = 0 and h^0 = 1 at the origin.  Its
    relations are not injective, so they are not a two-term resolution."""
    b = PolyRing(QQ, ["t", "u"], quotient=["u^2 - t"])
    f = RingMap(line, b, ["t"])
    m = ModulePresentation(b, 1, Mat(b, [["u", "u"]]))
    points = [RationalPoint(line, (0,)), RationalPoint(line, (1,))]
    pushed = pushforward_affine(f, m)
    assert pushed.floor is None
    assert [chi(f, m, y) for y in points] == [0, 0]
    assert [pushed.fiber_dims(y).get(0, 0) for y in points] == [1, 0]
    scan = hp_scan(f, m, -1, points)
    assert scan["values"] == [(points[0], 1), (points[1], 0)]
    assert scan["generic_value"] == 0


def test_finite_relative_perfection_decides_over_the_base(line):
    """Q = coker [[u]] over B2 = QQ[t,u]/(t^2, u^2 - t) is A2/(t) over
    A2 = QQ[t]/(t^2), which has no finite resolution; P = coker [[u]] over
    C = QQ[t,u]/(u^2) is A itself over A = QQ[t], although its resolution
    over C is infinite."""
    a2 = PolyRing(QQ, ["t"], quotient=["t^2"])
    b2 = PolyRing(QQ, ["t", "u"], quotient=["t^2", "u^2 - t"])
    q = ModulePresentation(b2, 1, Mat(b2, [["u"]]))
    origin = RationalPoint(a2, (0,))
    report = is_relatively_perfect(q, RingMap(a2, b2, ["t"]), [origin])
    assert report.verdict == "not_relatively_perfect_within_depth"
    assert report.witness_points() == [origin]
    c = PolyRing(QQ, ["t", "u"], quotient=["u^2"])
    p = ModulePresentation(c, 1, Mat(c, [["u"]]))
    report = is_relatively_perfect(p, RingMap(line, c, ["t"]), [RationalPoint(line, (0,))])
    assert report.verdict == "relatively_perfect" and report.global_scope


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


def test_projective_family_needs_a_fiber_variable():
    with pytest.raises(ValueError, match="at least one fiber variable"):
        ProjectiveFamily(PolyRing(QQ, ["s"]), [])


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


QUOTIENT_BASES = {"ts": (["t", "s"], ["t*s"]), "t2": (["t"], ["t^2"])}

# family name -> (twists, the twists whose minimal pushforward takes the
# strand of the free replacement alone).  The (t*x1) families have a
# truncated free replacement; the others go to the Cech cone where a
# generator degree passes m = fiber_count - 1.
ROUTES = {
    **{f"blowup-{field}-{n}": (range(-1, 4), range(0, 4))
       for field in ("QQ", "GF") for n in (2, 3, 4)},
    "ts:x0*x1": (range(-2, 3), (1, 2)),
    "ts:t*x1 - s*x0": (range(-2, 3), (0, 1, 2)),
    "ts:t*x1": (range(-2, 3), ()),
    "t2:t*x1": (range(-2, 3), ()),
    "t2:x0^2 - t*x1^2": (range(-2, 3), (1, 2)),
}


def route_family(name):
    if name.startswith("blowup"):
        _, field, n = name.split("-")
        return blowup_family(QQ if field == "QQ" else GF(32003), int(n))
    base, relation = name.split(":")
    variables, quotient = QUOTIENT_BASES[base]
    return ProjectiveFamily(PolyRing(QQ, variables, quotient=quotient), ["x0", "x1"], [relation])


@pytest.mark.parametrize("name, d", [(name, d) for name, (twists, _) in ROUTES.items()
                                     for d in twists])
def test_minimal_pushforward_is_the_minimized_cech_route(monkeypatch, name, d):
    """Where the free replacement is bounded with generator degrees at
    most m, the Cech part of the strand is exact (Hartshorne III.5.1) and
    no Cech cone is built; either way the answer is the minimized Cech
    route, entry for entry, with the same report."""
    fam = route_family(name)
    cech, cech_report = pushforward_projective(fam, fam.twist(d), minimal=False)
    built = _count_calls(monkeypatch, {"cech_cone": complexes.cech_cone})
    pushed, report = pushforward_projective(fam, fam.twist(d))
    assert built == {"cech_cone": 0 if d in ROUTES[name][1] else 1}
    assert report == cech_report
    assert pushed == complexes.minimize(cech)


def test_relative_strand_counts_its_ranks_before_listing_a_monomial(monkeypatch):
    """O(-4) on the blow-up of 6-space takes the Cech route to a strand of
    total rank 22436665: relative_strand refuses it from the generator
    degrees alone."""
    def refuse(*args):
        raise AssertionError("monomials listed before the rank cap")

    monkeypatch.setattr(geometry, "monomials_of_degree", refuse)
    fam = blowup_family(QQ, 6)
    with pytest.raises(ValueError) as raised:
        pushforward_projective(fam, fam.twist(-4))
    assert str(raised.value) == "complex too large: total rank 22436665 exceeds cap 20000"
    assert raised.traceback[-2].name == "relative_strand"


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


def kappa_family(fam, point):
    """The fiber over a base point as a family over kappa(point): its
    relations are the family's under y -> point, nonzero ones kept.
    Returns the family and the restriction from fam.total to its total
    ring."""
    kappa = PolyRing(fam.base.field, (), fam.base.order)
    plain = PolyRing(fam.base.field, fam.fiber_variables, fam.base.order)
    at_point = RingMap(fam.ambient, plain, [plain.const(c) for c in point.coords] + plain.gens())
    rels = [r for r in map(at_point.apply, fam.relations) if not r.is_zero]
    fiber_fam = ProjectiveFamily(kappa, fam.fiber_variables, rels)
    total = fiber_fam.total
    restriction = RingMap(fam.total, total, [total.const(c) for c in point.coords] + total.gens())
    return fiber_fam, restriction


def classical_chi_by_strand(fam, e, point, minimal=False):
    """classical_chi by its former route: the Euler characteristic of the
    pushforward of the restricted complex over the residue field, read
    from the degree-0 strand (minimized or not)."""
    fiber_fam, restriction = kappa_family(fam, point)
    restricted = restriction.apply_complex(free_resolution(e, 8), True)
    pushed, _ = pushforward_projective(fiber_fam, restricted, minimal=minimal)
    return pushed.fiber_euler_characteristic(RationalPoint(fiber_fam.base, ()))


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [-1, 0, 1, 2])
def test_classical_chi_blowup_closed_form(field, n, d):
    """chi(O(d)) on the fiber of the blow-up: P^(n-1) over the origin,
    where it is C(n-1+d, n-1), and a point elsewhere."""
    fam = blowup_family(field, n)
    sheaf = fam.twist(d)
    pts = base_points(fam.base, [(0,) * n, (1,) * n, tuple(range(2, n + 2))])
    classical = [classical_chi(fam, sheaf, p) for p in pts]
    at_origin = prod(d + k for k in range(1, n)) // factorial(n - 1)
    assert classical == [at_origin, 1, 1]
    assert classical == [classical_chi_by_strand(fam, sheaf, p, minimal=True) for p in pts]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("n", [2, 3])
def test_classical_fiber_of_a_family_is_the_kappa_family_restriction(field, n):
    """fiber_ring is the kappa-family's total ring, and classical_fiber
    is the kappa-family's restriction of the free model, degrees kept."""
    fam = blowup_family(field, n)
    pts = base_points(fam.base, [(0,) * n, (1,) * n, tuple(range(2, n + 2))])
    for e in (fam.twist(1), koszul(fam.total, ["x1", "x2"]), _line_map(fam.total, "y1*x1 + x2")):
        for p in pts:
            fiber_fam, restriction = kappa_family(fam, p)
            assert fam.fiber_ring(p) == fiber_fam.total
            got = classical_fiber(fam, e, p)
            want = restriction.apply_complex(free_resolution(e, 8), keep_degrees=True)
            assert got.ring == want.ring == fiber_fam.total
            assert (got.ranks, got.degrees, got.floor) == (want.ranks, want.degrees, want.floor)
            assert got.diffs == want.diffs


def _line_map(ring, element):
    """O(-1) --element--> O in degrees -1, 0, for an element of degree 1."""
    entry = ring.parse(element)
    return FreeComplex(ring, {-1: 1, 0: 1}, {-1: Mat(ring, [[entry]], ncols=1)}, {-1: (1,), 0: (0,)})


NON_FREE = {
    "x1": lambda ring: _line_map(ring, "x1"),
    "koszul_x1_x2": lambda ring: koszul(ring, ["x1", "x2"]),
    "y1x1_plus_x2": lambda ring: _line_map(ring, "y1*x1 + x2"),
}


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", sorted(NON_FREE))
def test_classical_chi_matches_strand_on_non_free_complexes(field, n, name):
    """The Hilbert-polynomial chi against the unminimized strand on
    complexes with more than one term, at the origin and off it."""
    fam = blowup_family(field, n)
    e = NON_FREE[name](fam.total)
    coords = [(0,) * n, (1,) * n, tuple(range(2, n + 2)), (0,) + (1,) * (n - 1)]
    pts = base_points(fam.base, coords)
    classical = [classical_chi(fam, e, p) for p in pts]
    assert classical == [classical_chi_by_strand(fam, e, p) for p in pts]
    # off the origin the fiber is a point, where chi alternates the ranks
    assert classical[1:] == [0, 0, 0]


def _count_calls(monkeypatch, functions):
    """Wrap each named function wherever a perfx module binds it; return
    the {name: call count} dict the wrappers fill."""
    counts = dict.fromkeys(functions, 0)
    for name, original in functions.items():

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("perfx") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def _count_method_calls(monkeypatch, methods):
    """Wrap each (class, method name); return the {"Class.name": call
    count} dict the wrappers fill."""
    counts = {}
    for cls, name in methods:
        key = f"{cls.__name__}.{name}"
        counts[key] = 0

        def counted(*args, _key=key, _original=getattr(cls, name), **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return counts


def test_classical_chi_skips_minimize(monkeypatch):
    """classical_chi reads the Hilbert polynomial of the fiber ring: it
    builds no pushforward, strand, free replacement, minimization, ring
    map, restricted complex or family.  The pushforward itself meets
    every function counter, and minimizes once more when minimal=True;
    classical_fiber and blowup_family meet the build counters."""
    fam = blowup_family(QQ, 2)
    builds = _count_method_calls(
        monkeypatch,
        [(RingMap, "__init__"), (RingMap, "apply_complex"), (ProjectiveFamily, "__init__")],
    )
    counts = _count_calls(
        monkeypatch,
        {
            "pushforward_projective": geometry.pushforward_projective,
            "relative_strand": geometry.relative_strand,
            "free_replacement": resolutions.free_replacement,
            "minimize": complexes.minimize,
        },
    )
    pts = base_points(fam.base, [(0, 0), (1, 2)])
    assert [classical_chi(fam, fam.twist(1), p) for p in pts] == [2, 1]
    assert [classical_chi(fam, koszul(fam.total, ["x1", "x2"]), p) for p in pts] == [0, 0]
    assert counts == dict.fromkeys(counts, 0)
    assert builds == dict.fromkeys(builds, 0)
    classical_fiber(fam, fam.twist(1), pts[1])
    blowup_family(QQ, 2)  # its structure map is a RingMap
    assert builds == {
        "RingMap.__init__": 2, "RingMap.apply_complex": 1, "ProjectiveFamily.__init__": 1
    }
    # one minimization inside free_replacement, one for minimal=True
    geometry.pushforward_projective(fam, fam.twist(1), minimal=True)
    assert counts == {
        "pushforward_projective": 1, "relative_strand": 1, "free_replacement": 1, "minimize": 2
    }
    geometry.pushforward_projective(fam, fam.twist(1), minimal=False)
    assert counts == {
        "pushforward_projective": 2, "relative_strand": 2, "free_replacement": 2, "minimize": 3
    }


def test_classical_chi_rejects_an_unbounded_complex():
    """A restricted complex that does not stop below has no chi."""
    fam = blowup_family(QQ, 2)
    e = FreeComplex(fam.total, {0: 1}, {}, {0: (0,)}, floor=1)
    with pytest.raises(ValueError, match="chi needs a bounded complex"):
        classical_chi(fam, e, RationalPoint(fam.base, (0, 0)))


def test_fiber_ring_refuses_a_point_of_another_ring():
    """A point of QQ[t] or of QQ[a,b] is not a point of Bl0(A^2)'s base,
    whatever its number of coordinates."""
    fam = blowup_family(QQ, 2)
    for point in (RationalPoint(PolyRing(QQ, ["t"]), (1,)),
                  RationalPoint(PolyRing(QQ, ["a", "b"]), (0, 0))):
        with pytest.raises(ValueError, match="from a different ring"):
            fam.fiber_ring(point)
        with pytest.raises(ValueError, match="from a different ring"):
            classical_chi(fam, fam.twist(0), point)
        with pytest.raises(ValueError, match="from a different ring"):
            classical_fiber(fam, fam.twist(0), point)


def test_classical_chi_needs_a_graded_complex():
    fam = blowup_family(QQ, 2)
    e = FreeComplex(fam.total, {0: 1}, {})
    with pytest.raises(ValueError, match="graded"):
        classical_chi(fam, e, RationalPoint(fam.base, (0, 0)))


def test_pushforwards_and_classical_chi_check_the_ring_of_their_input(double_cover, line):
    """A module or complex on another ring is refused with both rings
    named; an equal ring built apart is accepted."""
    with pytest.raises(ValueError, match=r"input is over QQ\[t\], not over QQ\[t,x\]/"):
        pushforward_affine(double_cover, ModulePresentation.free(line, 1))
    twin = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    assert dict(pushforward_affine(double_cover, ModulePresentation.free(twin, 1)).ranks) == {0: 2}
    fam = blowup_family(QQ, 2)
    with pytest.raises(ValueError, match="needs a free complex, not a ModulePresentation"):
        pushforward_projective(fam, ModulePresentation.free(fam.total, 1))
    on_base = FreeComplex.single(fam.base, 1, degrees=(0,))
    with pytest.raises(ValueError, match=r"input is over QQ\[y1,y2\], not over QQ\[y1,y2,x1,x2\]/"):
        pushforward_projective(fam, on_base)
    with pytest.raises(ValueError, match=r"input is over QQ\[y1,y2\], not over QQ\[y1,y2,x1,x2\]/"):
        classical_chi(fam, on_base, RationalPoint(fam.base, (0, 0)))


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


def test_hp_scan_quotient_base_is_not_certified():
    """Spec GF(2)[t]/(t^2 + t) is two points with different h^0, so it
    has no one generic value: each probe reports its own, uncertified."""
    ring = PolyRing(GF(2), ["t"], quotient=["t^2 + t"])
    m = ModulePresentation.cyclic(ring, ["t"])
    scans = [
        hp_scan(RingMap.identity(ring), m, 0, base_points(ring, [0, 1]), seed=seed)
        for seed in range(4)
    ]
    assert {scan["generic_value"] for scan in scans} == {0, 1}
    assert not any(scan["generic_certified"] for scan in scans)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("variables, d, points", [
    (["y"], [["y", 0], [0, 0]], [0, 1, 5]),
    (["x", "y"], [["x", "y"], [0, 0]], [(0, 0), (1, 0), (5, 2)]),
], ids=["diag(y,0)", "[x,y;0,0]"])
def test_generic_value_from_the_gb_fallback(monkeypatch, field, variables, d, points):
    """d : A^2 -> A^2 has rank 1 at every probe, which d o d = 0 cannot
    certify (1 + 0 < 2), so the rank comes from a Gröbner basis: one
    position carries its leading terms, (y) or (x, y)."""
    ring = PolyRing(field, variables)
    c = FreeComplex(ring, {0: 2, 1: 2}, {0: Mat(ring, d)})
    builds = []
    build = rings.MatrixGB.__init__

    def counted(self, mat):
        builds.append(mat)
        build(self, mat)

    monkeypatch.setattr(rings.MatrixGB, "__init__", counted)
    for p in (0, 1):
        result = hp_scan(RingMap.identity(ring), c, p, base_points(ring, points))
        assert [v for _, v in result["values"]] == [2, 1, 1]
        assert result["generic_value"] == 1 and result["generic_certified"]
        assert result["audit_pass"]
        # The origin, where d vanishes, still gives the generic value; a
        # fresh complex has no generic ranks kept, so it ranks there.
        fresh = FreeComplex(ring, {0: 2, 1: 2}, {0: Mat(ring, d)})
        calls = len(builds)
        assert fresh.generic_dim(base_points(ring, points[:1])[0], p) == (1, True)
        assert len(builds) == calls + 1


def test_generic_value_under_lex_is_certified():
    """Leading positions give the rank under any module order, lex too:
    the open degree of [x, y; 0, 0] is ranked by a Gröbner basis."""
    ring = PolyRing(QQ, ["x", "y"], order=LEX)
    c = FreeComplex(ring, {0: 2, 1: 2}, {0: Mat(ring, [["x", "y"], [0, 0]])})
    result = hp_scan(RingMap.identity(ring), c, 0, base_points(ring, [(0, 0), (1, 0)]))
    assert (result["generic_value"], result["generic_certified"]) == (1, True)
    assert result["audit_pass"]


# -- the fiber rank table ----------------------------------------------------------


def blowup_pushforward(field, n):
    fam = blowup_family(field, n)
    return fam, pushforward_projective(fam, fam.twist(1), minimal=False)[0]


def table_case(name):
    """(complex, points) for the fiber rank oracle."""
    if name.startswith("blowup"):
        _, field, n = name.split("-")
        _fam, c = blowup_pushforward(QQ if field == "QQ" else GF(32003), int(n))
        points = [(0,) * c.ring.nvars, (1,) + (0,) * (c.ring.nvars - 1),
                  tuple(QQ.parse(f"{10**5 + 7 * i}/{89 + i}") for i in range(c.ring.nvars))]
        if field == "QQ":  # CERT_PRIME divides a denominator: no residues
            points.append((Fraction(1, linalg.CERT_PRIME),) + (0,) * (c.ring.nvars - 1))
        return c, points
    if name == "quotient":
        ring = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t*x"])
        c = free_resolution(ModulePresentation.cyclic(ring, ["x"]), 4)
        return c, [(0, 0), (1, 1), (Fraction(-4, 3), 0)]
    _fam, c = blowup_pushforward(QQ, 2)
    window = {i: r for i, r in c.ranks.items() if i > c.lo}
    return FreeComplex(c.ring, window, c.diffs, floor=c.lo + 2), [(0, 0), (2, 3)]


@pytest.mark.parametrize("name", [
    "blowup-QQ-2", "blowup-QQ-3", "blowup-GF-2", "blowup-GF-3", "quotient", "truncated",
])
def test_fiber_ranks_match_the_rank_of_each_evaluated_differential(name):
    """Every rank in the table is the rank of the differential evaluated
    at the point, over a quotient ring and below an exact tail too."""
    c, points = table_case(name)
    assert (c.ring.is_quotient, c.floor is not None) == (
        name == "quotient", name in ("quotient", "truncated"))
    for point in points:
        ranks = c.fiber_ranks(point)
        assert set(ranks) <= set(c.diffs)
        for i in range(c.lo - 1, c.hi + 1):
            rows = c.diff(i).evaluate(RationalPoint(c.ring, point))
            assert ranks.get(i, 0) == linalg.rank(rows, c.ring.field), (point, i)


def test_fiber_ranks_refuse_a_point_of_another_ring():
    """Bl0(A^2)'s pushforward lives on QQ[y1,y2]: a point of QQ[t] or of
    QQ[a,b,c], or one coordinate, is refused by every fiber rank."""
    _fam, pushed = blowup_pushforward(QQ, 2)
    for point, message in [
        (RationalPoint(PolyRing(QQ, ["t"]), (1,)), "from a different ring"),
        (RationalPoint(PolyRing(QQ, ["a", "b", "c"]), (0, 0, 0)), "from a different ring"),
        ((1,), "expected 2 coordinates, got 1"),
    ]:
        for read in (pushed.fiber_dims, pushed.fiber_ranks):
            with pytest.raises(ValueError, match=message):
                read(point)
    assert pushed._fiber_ranks is None


@pytest.fixture
def residue_calls(monkeypatch):
    """The (matrix, point) of every Mat.residues call."""
    calls = []
    real = Mat.residues

    def counted(self, point, p):
        calls.append((self, point))
        return real(self, point, p)

    monkeypatch.setattr(Mat, "residues", counted)
    return calls


def test_fiber_dims_and_scan_rank_each_differential_once_per_point(residue_calls):
    """A fiber table, a second read of it and a scan at the same point take
    one residue matrix per differential there; the scan's probe is ranked
    apart and never enters the table."""
    fam, pushed = blowup_pushforward(QQ, 3)
    point = RationalPoint(fam.base, (Fraction(123457, 89), Fraction(-98761, 3), 5))
    assert pushed.fiber_dims(point) == {-3: 0, -2: 0, -1: 0, 0: 1, 1: 0, 2: 0}
    assert pushed.fiber_dims(point)[0] == 1
    scan = hp_scan(fam, None, 0, [point], pushed=pushed)
    assert scan["values"] == [(point, 1)] and scan["audit_pass"]
    at_point = [mat for mat, q in residue_calls if q == point]
    assert len(at_point) == len(pushed.diffs) == 5
    assert {id(mat) for mat in at_point} == {id(m) for m in pushed.diffs.values()}
    assert list(pushed._fiber_ranks) == [point]


def test_a_coordinate_tuple_and_its_point_share_one_table_entry(residue_calls):
    _fam, pushed = blowup_pushforward(QQ, 2)
    assert pushed._fiber_ranks is None
    assert pushed.fiber_euler_characteristic((1, 0)) == 1
    assert pushed._fiber_ranks is None  # chi reads only the term ranks
    ranks = pushed.fiber_ranks((1, 0))
    calls = len(residue_calls)
    assert pushed.fiber_ranks(RationalPoint(pushed.ring, (1, 0))) == ranks
    assert len(residue_calls) == calls == len(pushed.diffs)
    assert list(pushed._fiber_ranks) == [RationalPoint(pushed.ring, (1, 0))]


def gb_rank(mat):
    """Rank over the fraction field: positions of the leading module."""
    return len({pos for pos, _mono in rings.MatrixGB(mat).leading_terms()})


def oracle_complex(kind, k, field=QQ):
    """The n=2 blow-up pushforward of O(k), or the free resolution of the
    k-th seeded random module over field[x,y]."""
    if kind == "blowup":
        fam = blowup_family(field, 2)
        return pushforward_projective(fam, fam.twist(k), minimal=False)[0]
    ring = PolyRing(field, ["x", "y"])
    rng = random.Random(11 + k)
    rels = Mat(
        ring, [[ring.random_poly(rng, 2, 2, homogeneous=2) for _ in range(3)] for _ in range(2)],
        ncols=3,
    )
    return free_resolution(ModulePresentation(ring, 2, rels), 4)


@pytest.mark.parametrize("kind, k", [(kind, k) for kind in ("blowup", "module") for k in range(3)])
def test_generic_dims_match_leading_positions(kind, k):
    c = oracle_complex(kind, k)
    coords = tuple(QQ.parse(f"{9973 + 17 * i}/{31 + i}") for i in range(c.ring.nvars))
    probe = RationalPoint(c.ring, coords)
    ranks = {i: gb_rank(c.diff(i)) for i in range(c.lo - 1, c.hi + 1)}
    for i in range(c.homology_floor(), c.hi + 1):
        assert c.generic_dim(probe, i) == (c.rank(i) - ranks[i] - ranks[i - 1], True)


def fresh(c):
    """The same complex with no ranks kept on it."""
    return FreeComplex._make(c.ring, c.ranks, c.diffs, c.degrees, c.floor)


def probes(ring):
    """The origin, where ranks fall, then two probes of large height."""
    return [RationalPoint(ring, (0,) * ring.nvars)] + [
        RationalPoint(ring, tuple(ring.field.parse(f"{a + 17 * i}/{b + i}")
                                  for i in range(ring.nvars)))
        for a, b in ((9973, 31), (-60013, 7))
    ]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("kind, k", [(kind, k) for kind in ("blowup", "module") for k in range(3)])
def test_generic_dims_from_the_kept_ranks_match_a_fresh_complex(field, kind, k):
    """generic_dim at one probe and then at others answers as a complex
    with nothing kept does at each, and every kept rank is the rank of
    its differential over the fraction field, also where the first probe
    is the origin and its ranks fall below the generic ones."""
    c = oracle_complex(kind, k, field)
    for i in range(c.homology_floor(), c.hi + 1):
        for probe in probes(c.ring):
            assert c.generic_dim(probe, i) == fresh(c).generic_dim(probe, i), (probe, i)
    assert set(c._generic_ranks) >= set(range(c.homology_floor() - 1, c.hi + 1))
    assert c._generic_ranks == {j: gb_rank(c.diff(j)) for j in c._generic_ranks}


@pytest.mark.parametrize("name", ["blowup", "gb-fallback"])
def test_a_second_scan_ranks_nothing_at_its_probe(monkeypatch, residue_calls, name):
    """The first scan keeps the generic ranks on the pushforward; a second
    scan at another seed reads them, with no residue matrix at its probe
    and no Gröbner basis, and gives the same report."""
    if name == "blowup":
        fam, pushed = blowup_pushforward(QQ, 3)
        ring = fam.base
    else:  # rank 1 at every probe, left open by d o d = 0
        ring = PolyRing(QQ, ["x", "y"])
        fam = RingMap.identity(ring)
        pushed = FreeComplex(ring, {0: 2, 1: 2}, {0: Mat(ring, [["x", "y"], [0, 0]])})
    points = base_points(ring, [(0,) * ring.nvars, (1,) * ring.nvars])
    builds = []
    build = rings.MatrixGB.__init__

    def counted(self, mat):
        builds.append(mat)
        build(self, mat)

    monkeypatch.setattr(rings.MatrixGB, "__init__", counted)
    first = hp_scan(fam, None, 0, points, seed=1, pushed=pushed)
    assert bool(builds) == (name == "gb-fallback")
    calls, gbs = len(residue_calls), len(builds)
    assert hp_scan(fam, None, 0, points, seed=2, pushed=pushed) == first
    assert (len(residue_calls), len(builds)) == (calls, gbs)
    assert first["generic_certified"] and first["audit_pass"]


@pytest.mark.parametrize("name", ["blowup-QQ-2", "blowup-QQ-3", "blowup-GF-2", "blowup-GF-3"])
def test_capped_fiber_ranks_match_the_rank_of_each_evaluated_differential(monkeypatch, name):
    """With every generic rank kept, a fiber rank stops at its cap: at the
    origin, where ranks fall below it, and at generic points, where it
    certifies each rank over QQ with no exact evaluation."""
    c, points = table_case(name)
    for i in range(c.homology_floor(), c.hi + 1):
        c.generic_dim(probes(c.ring)[1], i)
    caps = c._generic_ranks
    assert set(caps) >= set(c.diffs)
    evaluated = []
    evaluate = Mat.evaluate

    def counted(self, point):
        evaluated.append(point)
        return evaluate(self, point)

    monkeypatch.setattr(Mat, "evaluate", counted)
    generic = [tuple(QQ.parse(f"{10**5 + 7 * i}/{89 + i}") for i in range(c.ring.nvars)),
               tuple(QQ.parse(f"{-3 * 10**4 - i}/{13 + 2 * i}") for i in range(c.ring.nvars))]
    for point in [(0,) * c.ring.nvars] + generic:
        ranks = c.fiber_ranks(point)
        if point in generic:
            assert ranks == {i: caps[i] for i in c.diffs}
            assert not evaluated
        else:
            assert any(ranks[i] < caps[i] for i in c.diffs)
        for i in range(c.lo - 1, c.hi + 1):
            rows = evaluate(c.diff(i), RationalPoint(c.ring, point))
            assert ranks.get(i, 0) == linalg.rank(rows, c.ring.field), (point, i)
        evaluated.clear()


def test_a_quotient_base_keeps_no_generic_ranks():
    """On a quotient base generic_dim reads the fiber at its probe, which
    depends on the probe: nothing enters the table."""
    c, points = table_case("quotient")
    for point in points:
        for i in range(c.homology_floor(), c.hi + 1):
            assert c.generic_dim(point, i)[1] is False
    assert not c._generic_ranks
    assert len(c._fiber_ranks) == len(points)


@pytest.mark.parametrize("n, twist, minimal", [
    (2, 0, True), (2, 1, True), (3, 0, True), (3, 1, True), (3, 1, False),
])
def test_blowup_scan_certified_without_gb(monkeypatch, n, twist, minimal):
    """On the blow-up pushforwards the probe's ranks close the d o d = 0
    bound, and only the scanned points are ranked by fiber_dims."""
    fam = blowup_family(QQ, n)
    pushed, _ = pushforward_projective(fam, fam.twist(twist), minimal=minimal)

    def no_gb(self, mat):
        raise AssertionError("generic value needed a Gröbner basis")

    monkeypatch.setattr(rings.MatrixGB, "__init__", no_gb)
    fiber_dims = FreeComplex.fiber_dims
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return fiber_dims(self, *args, **kwargs)

    monkeypatch.setattr(FreeComplex, "fiber_dims", counted)
    points = base_points(fam.base, [(0,) * n, (1,) * n, tuple(range(2, n + 2))])
    result = hp_scan(fam, None, 0, points, pushed=pushed)
    assert result["generic_certified"] and result["audit_pass"]
    assert result["generic_value"] == min(v for _, v in result["values"])
    assert calls == points


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
