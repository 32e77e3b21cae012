"""Ring maps: well-definedness, module finiteness, restriction of scalars."""

import random
from operator import add

import pytest

from perfx.complexes import FreeComplex, koszul
from perfx.fields import GF, QQ
from perfx.geometry import restrict_scalars
from perfx.groebner import buchberger, mono_divides
from perfx.ktheory import regression_entry, regression_suite
from perfx.maps import RingMap
from perfx.modules import prune_redundant_columns
from perfx.orders import restriction_order
from perfx.rings import Mat, PolyRing, RationalPoint, embed_poly


def mono_mul(a, b):
    return tuple(map(add, a, b))


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


def _product_then_rewrite(f, mat):
    """Restriction of scalars of one matrix by the route the rewrite table
    replaced: form entry * m_j in the target, reduce it in the combined
    ring and split the normal form by target monomial."""
    ring, ntv = f._ring, f.target.nvars
    basis = f.module_basis()
    nb = len(basis)
    entries = []
    for s, c, entry in mat.entries():
        for j, mono in enumerate(basis):
            image = entry * f.target.monomial(mono)
            parts = {}
            for t, coeff in embed_poly(image, ring, 0).terms.items():
                m = ring.exponents(t)
                parts.setdefault(m[:ntv], {})[m[ntv:]] = coeff
            entries += [
                (s * nb + basis.index(u), c * nb + j, f.source.from_exponents(terms))
                for u, terms in parts.items()
            ]
    return Mat.from_entries(f.source, mat.nrows * nb, mat.ncols * nb, entries)


def _quotient_target_maps(field, rng):
    """Module-finite maps whose targets have a quotient, so that products
    of entry terms and basis monomials leave the target's normal form;
    the last one has a source quotient as well."""
    c, d = (rng.randint(-3, 3) for _ in range(2))
    line, plane = PolyRing(field, ["t"]), PolyRing(field, ["s"])
    cover = PolyRing(field, ["t", "x"], quotient=[f"x^2 - {c}*t*x - t - ({d})"])
    yield RingMap(line, cover, ["t"])
    cubic = PolyRing(field, ["t", "x"], quotient=[f"x^3 - t*x^2 - ({c})"])
    yield RingMap(plane, cubic, [f"t^2 + {d}*t"])
    hyperbola = PolyRing(field, ["s", "t"], quotient=[f"s*t - ({c})"])
    over = PolyRing(field, ["s", "t", "x"], quotient=[f"s*t - ({c})", f"x^2 - s - {d}*t*x"])
    yield RingMap(hyperbola, over, ["s", "t"])


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_restrict_scalars_matches_product_then_rewrite(field, seed):
    """Each block entry read off the rewrite table equals the one the
    target product and its rewrite give, though t * m_j is not reduced."""
    rng = random.Random(seed)
    unreduced = 0
    for f in _quotient_target_maps(field, rng):
        b = f.target
        lts = [b.exponents(q.leading_monomial()) for q in b.quotient_gb]
        elements = [b.random_poly(rng, max_degree=3, nterms=4) for _ in range(4)]
        complexes = [
            koszul(b, elements[:2]),
            FreeComplex.from_matrix(b, Mat(b, [elements[1:3], elements[3:] + elements[:1]])),
        ]
        for e in complexes:
            fpc = restrict_scalars(f, e)
            for i, m in e.diffs.items():
                want = _product_then_rewrite(f, m)
                assert fpc.maps.get(i, Mat.zero(f.source, want.nrows, want.ncols)) == want
                unreduced += sum(
                    any(mono_divides(lt, mono_mul(b.exponents(t), u)) for lt in lts)
                    for _s, _c, entry in m.entries()
                    for t in entry.terms
                    for u in f.module_basis()
                )
        basis = f.module_basis()
        one = basis.index((0,) * b.nvars)
        for e in elements:
            old = _product_then_rewrite(f, Mat(b, [[e]]))
            assert f.rewrite_to_source(e) == {basis[k]: a for k, a in old.column_entries(one)}
    assert unreduced


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


def _tagged_source_relations(f):
    """The relations of f's source presentation by a tagged elimination
    built by hand: component 0 carries the target, component 1 + j tags
    basis monomial j with -1, and one `buchberger` run under the
    restriction order with position 0 in front keeps the elements with no
    term at position 0 and no target variable, row pos - 1 for a term at
    pos."""
    basis = f.module_basis()
    ring, ntv = f._ring, f.target.nvars
    order = restriction_order(ntv, ring.nvars).elimination(1)
    one, minus_one = ring.field.one, ring.field.neg(ring.field.one)
    pad, unit = (0,) * (ring.nvars - ntv), (0,) * ring.nvars
    aug = [
        {order.pack(0, m + pad): one, order.pack(1 + j, unit): minus_one}
        for j, m in enumerate(basis)
    ]
    aug += [{order.pack(0, ring.exponents(t)): c for t, c in q.terms.items()}
            for q in ring.quotient_gb]
    entries, ncols = [], 0
    for v in buchberger(aug, ring.field, order):
        terms = [(order.unpack(t), c) for t, c in v.items()]
        if any(pos == 0 or any(m[:ntv]) for (pos, m), _c in terms):
            continue
        entries += [(pos - 1, ncols, f.source.from_exponents({m[ntv:]: c}))
                    for (pos, m), c in terms]
        ncols += 1
    rel = Mat.from_entries(f.source, len(basis), ncols, entries).drop_zero_columns()
    return prune_redundant_columns(rel) if rel.ncols else rel


def _exact_entries(mat):
    """Every entry with its terms in order and each coefficient's type."""
    return [
        (r, c, [(t, type(a), a) for t, a in p.terms.items()]) for r, c, p in mat.entries()
    ]


def _torsion_maps(field, rng):
    """Module-finite maps whose targets are not free over the source: their
    source presentations have relations across several rows."""
    a, b, c = (rng.randint(-3, 3) for _ in range(3))
    line, plane = PolyRing(field, ["t"]), PolyRing(field, ["s", "t"])
    over_line = PolyRing(field, ["t", "x", "y"], quotient=[
        f"x^2 - ({a})*t*y", f"y^2 - t*x - ({b})", f"t*x*y - ({c})*t^2"])
    yield RingMap(line, over_line, ["t"])
    over_plane = PolyRing(field, ["s", "t", "x"], quotient=[
        f"x^3 - s*x - ({a})*t", f"s*t*x - ({b})*s^2*x^2", f"t^2*x^2 - ({c})*s"])
    yield RingMap(plane, over_plane, ["s", "t"])


@pytest.mark.parametrize("seed", [0, 7, 31])
def test_source_presentation_matches_the_tagged_elimination(seed):
    """`source_module_presentation`, one `syzygy_basis` call, gives the
    relations of the hand-built tagged elimination bit for bit, over QQ
    and GF(5): for the maps of regression entries (even indices over QQ,
    odd ones over GF(5)), their composites and the legs of their squares,
    and for targets that are not free over the source."""
    maps = []
    for index in range(8):
        entry = regression_entry(seed, index)
        f, g, h = entry["maps"]["f"], entry["maps"]["g"], entry["maps"]["h"]
        square = entry["square"]
        maps += [f, g, h, f.compose(g), g.compose(h), f.compose(g).compose(h),
                 square.g, square.g_prime, square.f_prime]
    rng = random.Random(seed)
    for field in (QQ, GF(5)):
        maps += _torsion_maps(field, rng)
    rows = set()
    for m in maps:
        basis, pres = m.source_module_presentation()
        want = _tagged_source_relations(m)
        assert pres.ambient_rank == len(basis) == want.nrows
        assert _exact_entries(pres.relations) == _exact_entries(want)
        rows.update((m.source.field, r) for r, _c, _p in want.entries())
    assert {(QQ, 0), (QQ, 1), (GF(5), 0), (GF(5), 1)} <= rows


def test_restriction_order_is_built_once_per_shape():
    assert restriction_order(2, 5) is restriction_order(2, 5)
    assert restriction_order(2, 5) is not restriction_order(1, 5)
    assert restriction_order(2, 5).elimination(1) is restriction_order(2, 5).elimination(1)


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
        FreeComplex(image.ring, image.ranks, image.diffs, image.degrees, image.floor)
