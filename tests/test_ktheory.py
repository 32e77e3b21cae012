"""Bivariant K0: operations, unit laws, evidence comparisons, axioms."""

import pytest

from perfx.fields import QQ
from perfx.complexes import FreeComplex, two_term
from perfx.ktheory import (
    IndependentSquare,
    K0Class,
    k0_evidence_equal,
    orientation,
    orientation_multiplicativity,
    product,
    pullback,
    pushforward,
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
    assert rep.get("chain_level") is False


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


def test_regression_points_exist():
    for entry in regression_suite(seed=1, count=4):
        assert len(entry["points"]["X"]) == 5
        assert entry["square"].independent


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
