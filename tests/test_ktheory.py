"""Bivariant K0: operations, unit laws, evidence comparisons, axioms."""

import pytest

from perfx.fields import QQ
from perfx.complexes import FreeComplex, two_term
from perfx.geometry import blowup_family, pushforward_projective
from perfx.ktheory import (
    IndependentSquare,
    K0Class,
    dims_tables,
    k0_evidence_equal,
    orientation,
    orientation_multiplicativity,
    product,
    pullback,
    pushforward,
    regression_entry,
    regression_suite,
    run_axiom_battery,
)
from perfx.maps import RingMap
from perfx.modules import ModulePresentation
from perfx.rings import PolyRing, RationalPoint


@pytest.fixture
def line():
    return PolyRing(QQ, ["t"])


@pytest.fixture
def id_line(line):
    return RingMap.identity(line)


def pts(ring, values):
    return [RationalPoint(ring, (v,)) for v in values]


def test_unit_laws(id_line, line):
    e = K0Class.of_complex(id_line, two_term(line, "t"))
    unit = K0Class.structure_class(id_line)
    left = product(unit, e)
    right = product(e, unit)
    rep_l = k0_evidence_equal(left, e, pts(line, [0, 1]))
    rep_r = k0_evidence_equal(right, e, pts(line, [0, 1]))
    assert rep_l["tier"] == "literal" and rep_r["tier"] == "literal"


def test_bilinearity(id_line, line):
    e = K0Class.of_complex(id_line, two_term(line, "t"))
    f = K0Class.of_complex(id_line, two_term(line, "t - 1"))
    s = e.add(f)
    unit = K0Class.structure_class(id_line)
    lhs = product(s, unit)
    rhs = product(e, unit).add(product(f, unit))
    assert k0_evidence_equal(lhs, rhs, pts(line, [0, 1, 2]))["verdict"] == "equal_evidence"


def test_shift_relation(id_line, line):
    e = K0Class.of_complex(id_line, two_term(line, "t"))
    rep = k0_evidence_equal(e.shift(1), e.negate(), pts(line, [0, 2]))
    assert rep["verdict"] == "equal_evidence"
    assert any(row["dims_left"] != row["dims_right"] for row in dims_tables(rep).values())


def test_graded_distinguishing(id_line, line):
    e1 = K0Class.of_complex(id_line, two_term(line, "t"))
    e2 = K0Class.of_complex(id_line, two_term(line, "t^2"))
    rep = k0_evidence_equal(e1, e2, pts(line, [0]))
    assert rep["verdict"] == "distinguished"
    assert "graded_degree_polynomial" in rep["witness"]


def test_chi_witness(id_line, line):
    e = K0Class.of_complex(id_line, two_term(line, "t"))
    free = K0Class.of_complex(id_line, FreeComplex.single(line, 1, at=0, degrees=(0,)))
    rep = k0_evidence_equal(e, free, pts(line, [1]))
    assert rep["verdict"] == "distinguished"
    assert rep["witness"]["chi"] == (0, 1)


def _count_calls(monkeypatch, *names):
    calls = {name: 0 for name in names}
    for name in names:
        real = getattr(K0Class, name)

        def counting(self, point, real=real, name=name):
            calls[name] += 1
            return real(self, point)

        monkeypatch.setattr(K0Class, name, counting)
    return calls


def test_chi_witness_is_the_first_point_and_ends_the_table(id_line, line):
    e = K0Class.of_complex(id_line, two_term(line, "t"))
    free = K0Class.of_complex(id_line, FreeComplex.single(line, 1, at=0, degrees=(0,)))
    points = pts(line, [1, 2, 3])
    rep = k0_evidence_equal(e, free, points)
    assert rep["witness"] == {"point": points[0], "chi": (0, 1)}
    assert list(dims_tables(rep)) == [str(points[0])]


def test_graded_witness_tables_every_point(id_line, line, monkeypatch):
    e1 = K0Class.of_complex(id_line, two_term(line, "t"))
    e2 = K0Class.of_complex(id_line, two_term(line, "t^2"))
    points = pts(line, [0, 1, 2])
    calls = _count_calls(monkeypatch, "chi_at", "dims_at")
    rep = k0_evidence_equal(e1, e2, points)
    assert "graded_degree_polynomial" in rep["witness"]
    # the verdict reads chi once per side and no fiber dims
    assert calls == {"chi_at": 2, "dims_at": 0}
    tables = dims_tables(rep)
    assert list(tables) == [str(p) for p in points]
    assert all(row["chi"] == (0, 0) for row in tables.values())


def test_no_points_leaves_the_verdict_to_the_polynomial(id_line, line, monkeypatch):
    e = K0Class.of_complex(id_line, two_term(line, "t"))
    free = K0Class.of_complex(id_line, FreeComplex.single(line, 1, at=0, degrees=(0,)))
    calls = _count_calls(monkeypatch, "chi_at")
    rep = k0_evidence_equal(e, free, [])
    assert (rep["tier"], rep["verdict"]) == ("pointwise", "distinguished")
    assert rep["witness"] == {"graded_degree_polynomial": ({-1: -1, 0: 1}, {0: 1})}
    assert calls == {"chi_at": 0}
    assert dims_tables(rep) == {}


def test_orientation_finite_flat(line):
    b = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    f = RingMap(line, b, ["t"])
    cls = orientation(f, pts(line, [0, 1]))
    assert cls.terms[0][1].ranks == {0: 1}
    assert "orientation" in cls.certificates


def test_orientation_rejected_for_tx(line):
    b = PolyRing(QQ, ["t", "x"], quotient=["t*x"])
    f = RingMap(line, b, ["t"])
    with pytest.raises(ValueError, match="orientation rejected"):
        orientation(f, pts(line, [0, 1]), max_depth=6)


@pytest.fixture
def blowup():
    return blowup_family(QQ, 2)


def test_pushforward_along_projective_family(blowup):
    """[O(1)] on the blow-up of the plane, pushed to the base along the
    identity, is the class of its projective pushforward, with chi 1 at
    the origin."""
    base = RingMap.identity(blowup.base)
    pushed = pushforward(K0Class.of_complex(blowup, blowup.twist(1)), blowup, base)
    expected, _report = pushforward_projective(blowup, blowup.twist(1))
    assert pushed.morphism is base
    assert pushed.terms == [(1, expected)]
    assert expected.ranks == {-1: 1, 0: 2}
    assert pushed.chi_at(RationalPoint(blowup.base, (0, 0))) == 1


def test_pushforward_along_projective_family_needs_its_class(blowup):
    """A family is its own morphism: a class over another one, even built
    the same way, or over a ring map, is refused."""
    base = RingMap.identity(blowup.base)
    other = blowup_family(QQ, 2)
    for morphism in (other, base):
        alpha = K0Class.of_complex(morphism, blowup.twist(1))
        with pytest.raises(ValueError, match="class does not live over the projective family"):
            pushforward(alpha, blowup, base)


@pytest.mark.xfail(
    strict=True, raises=ValueError,
    reason="pointwise relative perfection rejects a Rees algebra over a regular base, "
    "where every module has finite flat dimension",
)
def test_orientation_of_blowup_family(blowup):
    points = [RationalPoint(blowup.base, p) for p in [(0, 0), (1, 2)]]
    cls = orientation(blowup, points)
    assert cls.terms[0][1].ranks == {0: 1}


def test_pushforward_finite_flat_rank(line):
    b = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    f = RingMap(line, b, ["t"])
    alpha = K0Class.structure_class(f.compose(RingMap.identity(line)))
    pushed = pushforward(alpha, f, RingMap.identity(line))
    for v in (0, 1, 3):
        assert pushed.chi_at(RationalPoint(line, (v,))) == 2


def test_pushforward_zero_class(line):
    b = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    f = RingMap(line, b, ["t"])
    zero = K0Class(f.compose(RingMap.identity(line)), [])
    pushed = pushforward(zero, f, RingMap.identity(line))
    assert pushed.terms == []


def test_pushforward_checks_the_composite_without_building_it(line, monkeypatch):
    """pushforward compares the class's morphism with g o f without a
    `compose` call, and keeps each error: a class over another map, maps
    that do not compose, and a composite that is not a well-defined map."""
    b = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    f = RingMap(line, b, ["t"])
    g = RingMap(line, line, ["t^2"])
    alpha = K0Class.structure_class(f.compose(g))
    wrong = K0Class.structure_class(f.compose(RingMap.identity(line)))
    calls = []
    real = RingMap.compose
    monkeypatch.setattr(RingMap, "compose", lambda a, b: calls.append(1) or real(a, b))
    pushed = pushforward(alpha, f, g)
    assert calls == []
    assert pushed.morphism is g
    assert pushed.chi_at(RationalPoint(line, (1,))) == 2
    with pytest.raises(ValueError, match="class does not live over the composite g o f"):
        pushforward(wrong, f, g)
    with pytest.raises(ValueError, match="maps do not compose"):
        pushforward(alpha, f, RingMap.identity(PolyRing(QQ, ["u"])))
    fat = PolyRing(QQ, ["t"], quotient=["t^2"])
    with pytest.raises(ValueError, match="map not well defined"):
        pushforward(alpha, f, RingMap(fat, fat, ["t"]))


def test_pushforward_requires_confined(line):
    b = PolyRing(QQ, ["t", "x"], quotient=["t*x"])
    f = RingMap(line, b, ["t"])
    alpha = K0Class.structure_class(f)
    with pytest.raises(ValueError, match="confined"):
        pushforward(alpha, f, RingMap.identity(line))


def test_pullback_identity_square(line):
    f = RingMap.identity(line)
    square = IndependentSquare(
        f, f, f, f, [(RationalPoint(line, (0,)), RationalPoint(line, (0,)))]
    )
    assert square.independent
    e = K0Class.of_complex(f, two_term(line, "t"))
    pulled = pullback(e, square)
    rep = k0_evidence_equal(pulled, e, pts(line, [0, 1]))
    assert rep["verdict"] == "equal_evidence"


def test_pullback_requires_verified_square(line):
    aq = PolyRing(QQ, ["t"], quotient=["t"])
    f = RingMap(line, aq, ["t"])
    bad = IndependentSquare(
        f, f, RingMap.identity(aq), RingMap.identity(aq),
        [(RationalPoint(aq, (0,)), RationalPoint(aq, (0,)))],
    )
    assert not bad.independent
    e = K0Class.structure_class(f)
    with pytest.raises(ValueError, match="independent"):
        pullback(e, bad)


def test_regression_entry_axioms():
    entry = regression_suite(seed=3, count=1)[0]
    results = run_axiom_battery(entry, axioms=("A1", "A12"))
    assert all(rep["verdict"] == "equal_evidence" for rep in results.values())
    assert orientation_multiplicativity(entry)


# (seed, entry index, axiom) of the pointwise reports among A1, A2 and A12
# on regression_suite(seed, 8); the other reports are literal.  Every
# verdict is equal_evidence with no witness.
POINTWISE_AXIOM_JOBS = {
    (0, 3, "A12"), (0, 4, "A1"), (0, 5, "A1"), (0, 7, "A2"),
    (31, 0, "A12"), (31, 2, "A12"), (31, 4, "A12"), (31, 6, "A1"),
    (31, 6, "A2"), (31, 7, "A12"),
}


@pytest.mark.parametrize("seed", [0, 31])
def test_axiom_verdicts_are_recorded(seed):
    for entry in regression_suite(seed, 8):
        results = run_axiom_battery(entry, axioms=("A1", "A2", "A12"))
        for axiom, rep in results.items():
            tier = "pointwise" if (seed, entry["index"], axiom) in POINTWISE_AXIOM_JOBS else "literal"
            assert (rep["tier"], rep["verdict"], str(rep["witness"])) == (
                tier, "equal_evidence", "None"
            ), (seed, entry["index"], axiom)


def test_regression_points_exist():
    for entry in regression_suite(seed=1, count=4):
        assert len(entry["points"]["X"]) == 5
        assert entry["square"].independent


@pytest.mark.parametrize("seed", [0, 5])
def test_regression_entry_is_the_suite_entry(seed):
    """Each diagram comes from its own random stream, so building one
    alone gives the same rings, points, maps and classes."""
    suite = regression_suite(seed=seed, count=4)
    for index, expected in enumerate(suite):
        entry = regression_entry(seed, index)
        assert (entry["index"], entry["field"]) == (index, expected["field"])
        assert entry["rings"] == expected["rings"]
        assert entry["points"] == expected["points"]
        for name, f in entry["maps"].items():
            assert f.images == expected["maps"][name].images
        for name, cls in entry["classes"].items():
            assert cls.terms == expected["classes"][name].terms
        assert entry["square"].points == expected["square"].points


def _count_tor_independent(monkeypatch):
    import perfx.ktheory

    calls = []
    real = perfx.ktheory.tor_independent

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(perfx.ktheory, "tor_independent", counting)
    return calls


def test_square_evidence_is_computed_on_first_read(monkeypatch):
    calls = _count_tor_independent(monkeypatch)
    suite = regression_suite(seed=0, count=4)
    assert calls == []
    square = suite[0]["square"]
    assert square.independent and square.independent
    assert len(calls) == 1
    assert square.report["transverse"] and len(calls) == 1


def test_square_with_points_over_different_base_points_fails_at_construction(
    line, monkeypatch
):
    calls = _count_tor_independent(monkeypatch)
    b, f, a1, b1, g_leg, g_prime, f_prime, _square = _specialization_diagram(line)
    with pytest.raises(ValueError, match="do not lie over a common base point"):
        IndependentSquare(
            f, g_leg, f_prime, g_prime,
            [(RationalPoint(b, (4, 2)), RationalPoint(a1, (1,)))],
        )
    assert calls == []


def test_square_leg_finiteness_is_checked_on_first_read(line):
    """A leg that is not module-finite is refused when the evidence is
    read, with tor_independent's message."""
    b = PolyRing(QQ, ["t", "x"], quotient=["t*x"])
    f = RingMap(line, b, ["t"])
    square = IndependentSquare(
        RingMap.identity(line), f, RingMap.identity(b), RingMap.identity(b),
        [(RationalPoint(line, (0,)), RationalPoint(b, (0, 1)))],
    )
    with pytest.raises(ValueError, match="module-finite"):
        square.independent


def _specialization_diagram(line):
    """f: double cover of the line; base change to the fiber at t=1."""
    b = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    f = RingMap(line, b, ["t"])
    a1 = line.quotient_by(["t - 1"])
    b1 = b.quotient_by(["t - 1"])
    g_leg = RingMap(line, a1, a1.gens())
    g_prime = RingMap(b, b1, b1.gens())
    f_prime = RingMap(a1, b1, [b1.var("t")])
    sq_points = [
        (RationalPoint(b1, (1, 1)), RationalPoint(a1, (1,))),
        (RationalPoint(b1, (1, -1)), RationalPoint(a1, (1,))),
    ]
    square = IndependentSquare(f, g_leg, f_prime, g_prime, sq_points)
    return b, f, a1, b1, g_leg, g_prime, f_prime, square


def test_axiom_a3_functoriality_of_pullback(line):
    from perfx.ktheory import verify_axiom

    b, f, a1, b1, g_leg, g_prime, f_prime, square = _specialization_diagram(line)
    id_leg = RingMap.identity(a1)
    id_up = RingMap.identity(b1)
    inner_pts = [(RationalPoint(b1, (1, 1)), RationalPoint(a1, (1,)))]
    square_h = IndependentSquare(f_prime, id_leg, f_prime, id_up, inner_pts)
    combined = IndependentSquare(f, g_leg, f_prime, g_prime, inner_pts)
    alpha = K0Class.of_complex(f, two_term(b, "x - 1"))
    report = verify_axiom(
        "A3",
        {"alpha": alpha, "square_g": square, "square_h": square_h,
         "square_combined": combined},
        [RationalPoint(b1, (1, 1)), RationalPoint(b1, (1, -1))],
    )
    assert report["verdict"] == "equal_evidence"


def test_axiom_a13_product_pullback(line):
    from perfx.ktheory import verify_axiom

    b, f, a1, b1, g_leg, g_prime, f_prime, square = _specialization_diagram(line)
    id_line = RingMap.identity(line)
    # beta over the identity of the base; bottom square has identity fibers
    bottom_pts = [(RationalPoint(a1, (1,)), RationalPoint(a1, (1,)))]
    square_bottom = IndependentSquare(id_line, g_leg, RingMap.identity(a1), g_leg, bottom_pts)
    combined = IndependentSquare(
        f.compose(id_line), g_leg, f_prime, g_prime,
        [(RationalPoint(b1, (1, 1)), RationalPoint(a1, (1,)))],
    )
    alpha = K0Class.of_complex(f, two_term(b, "x - 1"))
    beta = K0Class.of_complex(id_line, two_term(line, "t - 1"))
    report = verify_axiom(
        "A13",
        {"alpha": alpha, "beta": beta, "square_top": square,
         "square_bottom": square_bottom, "square_combined": combined},
        [RationalPoint(b1, (1, 1)), RationalPoint(b1, (1, -1))],
    )
    assert report["verdict"] == "equal_evidence"


def test_axiom_a23_push_pull_commute(line):
    from perfx.ktheory import verify_axiom

    b, f, a1, b1, g_leg, g_prime, f_prime, square = _specialization_diagram(line)
    id_line = RingMap.identity(line)
    bottom_pts = [(RationalPoint(a1, (1,)), RationalPoint(a1, (1,)))]
    square_bottom = IndependentSquare(id_line, g_leg, RingMap.identity(a1), g_leg, bottom_pts)
    combined = IndependentSquare(
        f.compose(id_line), g_leg, f_prime, g_prime,
        [(RationalPoint(b1, (1, 1)), RationalPoint(a1, (1,)))],
    )
    alpha = K0Class.of_complex(f.compose(id_line), two_term(b, "x - 1"))
    report = verify_axiom(
        "A23",
        {"alpha": alpha, "f": f, "g": id_line,
         "f_prime": f_prime, "g_prime": RingMap.identity(a1),
         "square_combined": combined, "square_bottom": square_bottom},
        [RationalPoint(a1, (1,))],
    )
    assert report["verdict"] == "equal_evidence"


def test_koszul_class_product_example():
    rxy = PolyRing(QQ, ["x", "y"])
    idr = RingMap.identity(rxy)
    a = K0Class.of_complex(idr, two_term(rxy, "x"))
    b = K0Class.of_complex(idr, two_term(rxy, "y"))
    prod = product(a, b)
    origin = RationalPoint(rxy, (0, 0))
    dims = prod.dims_at(origin)
    # homology dims of the Koszul complex on (x, y) placed in degrees 0..2
    assert dims == {0: 1, 1: 2, 2: 1}
    away = RationalPoint(rxy, (1, 2))
    assert prod.chi_at(away) == 0
