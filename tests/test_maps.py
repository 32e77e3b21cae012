"""Ring maps: well-definedness, module finiteness, restriction of scalars."""

import random

import pytest

from perfx.complexes import FreeComplex, koszul
from perfx.fields import QQ
from perfx.ktheory import regression_suite
from perfx.maps import RingMap
from perfx.rings import Mat, PolyRing, RationalPoint


@pytest.fixture
def line():
    return PolyRing(QQ, ["t"])


def test_well_definedness_checked(line):
    quotient = PolyRing(QQ, ["t"], quotient=["t^2"])
    with pytest.raises(ValueError, match="not well defined"):
        RingMap(quotient, line, ["t"])  # t^2 must map to zero
    RingMap(quotient, PolyRing(QQ, ["u"], quotient=["u^2"]), ["u"])


def test_module_finiteness_classification(line):
    double = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    assert RingMap(line, double, ["t"]).is_module_finite()
    torsion = PolyRing(QQ, ["t", "x"], quotient=["t*x"])
    assert not RingMap(line, torsion, ["t"]).is_module_finite()
    plane = PolyRing(QQ, ["t", "x"])
    assert not RingMap(line, plane, ["t"]).is_module_finite()
    localization = PolyRing(QQ, ["t", "x"], quotient=["t*x - 1"])
    assert not RingMap(line, localization, ["t"]).is_module_finite()


def test_module_basis_and_rewrite(line):
    b = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    f = RingMap(line, b, ["t"])
    assert f.module_basis() == [(0, 0), (0, 1)]
    rewrite = f.rewrite_to_source(b.parse("x^3 + x + 1"))
    assert rewrite[(0, 1)] == line.parse("t + 1")
    assert rewrite[(0, 0)] == line.one


def test_combined_ring_built_once_per_map(line, monkeypatch):
    calls = []
    real = RingMap._combined_ring

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(RingMap, "_combined_ring", counting)
    b = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    f = RingMap(line, b, ["t"])
    assert f.is_module_finite()
    f.rewrite_to_source(b.parse("x^3"))
    rewrite = f.rewrite_to_source(b.parse("x^3 + x + 1"))
    assert rewrite[(0, 1)] == line.parse("t + 1")
    first = f.source_module_presentation()
    assert f.source_module_presentation() is first
    assert len(calls) == 1


def _regression_maps(seed, count):
    for entry in regression_suite(seed=seed, count=count):
        f, g, h = entry["maps"]["f"], entry["maps"]["g"], entry["maps"]["h"]
        square = entry["square"]
        yield from (f, g, h, f.compose(g), g.compose(h))
        yield from (square.g, square.g_prime, square.f_prime)


@pytest.mark.parametrize("seed", [0, 7])
def test_rewrite_and_presentation_oracles(seed):
    rng = random.Random(seed)
    for f in _regression_maps(seed, 2):
        basis, pres = f.source_module_presentation()
        target = f.target
        monos = [target.monomial(m) for m in basis]
        elements = target.gens() + [target.random_poly(rng) for _ in range(3)]
        for e in elements:
            rewrite = f.rewrite_to_source(e)
            total = target.zero
            for m, a in rewrite.items():
                total = total + f.apply(a) * target.monomial(m)
            assert total == e
        for c in range(pres.relations.ncols):
            total = target.zero
            for j, r in enumerate(pres.relations.column(c)):
                total = total + f.apply(r) * monos[j]
            assert total.is_zero


def test_source_presentation_free_case(line):
    b = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    f = RingMap(line, b, ["t"])
    basis, pres = f.source_module_presentation()
    assert len(basis) == 2
    assert pres.relations.ncols == 0


def test_source_presentation_prunes_redundant_relations(line):
    b = PolyRing(QQ, ["t", "u", "v"], quotient=["v^2 - u - 1", "u^2 - t - 1"])
    bq = b.quotient_by(["u - 3"])
    g = RingMap(b, bq, bq.gens())
    basis, pres = g.source_module_presentation()
    assert len(basis) == 1
    assert pres.relations.ncols == 1  # (t - 8) and the duplicate are redundant


def test_apply_point_and_identity(line):
    b = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    f = RingMap(line, b, ["t"])
    down = f.apply_point(RationalPoint(b, (4, 2)))
    assert down.coords == (QQ.from_int(4),)
    assert RingMap.identity(line).is_identity()
    assert not f.is_identity()


def test_compose(line):
    g = RingMap(line, line, ["t^2"])
    h = RingMap(line, line, ["t + 1"])
    composed = h.compose(g)
    # g after h at the ring level: t -> (t+1)^2
    assert composed.images[0] == line.parse("t^2 + 2*t + 1")


def test_preserves_grading_weighted():
    t = PolyRing(QQ, ["y1", "y2", "x1", "x2"], weights=(0, 0, 1, 1))
    fiber = PolyRing(QQ, ["x1", "x2"])
    f = RingMap(t, fiber, ["1", "0", "x1", "x2"])
    assert f.preserves_grading()
    g = RingMap(t, fiber, ["x1", "0", "x1", "x2"])  # weight-0 var to weight-1 image
    assert not g.preserves_grading()


def test_apply_complex_checks_only_the_kept_grading(monkeypatch):
    rxy = PolyRing(QQ, ["x", "y"])
    k = koszul(rxy, ["x", "y^2"])
    shift = RingMap(rxy, rxy, ["x + 1", "y"])
    with pytest.raises(ValueError, match="not homogeneous"):
        shift.apply_complex(k, keep_degrees=True)
    assert shift.apply_complex(k).degrees is None
    # a ring map keeps d o d = 0, so no product of differentials is formed
    products = []
    real = Mat.__mul__
    monkeypatch.setattr(Mat, "__mul__", lambda a, b: products.append(1) or real(a, b))
    images = [RingMap(rxy, rxy, ["y", "x"]).apply_complex(k), shift.apply_complex(k)]
    assert products == []
    assert images[0].degrees == k.degrees
    for image in images:
        FreeComplex(image.ring, image.ranks, image.diffs, image.degrees, image.tail)
