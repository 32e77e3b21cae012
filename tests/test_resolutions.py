"""Resolutions, free replacements, derived tensor and truncation."""

import random

import pytest

from perfx import derived, geometry, groebner, resolutions
from perfx.fields import GF, QQ
from perfx.complexes import FreeComplex, koszul, koszul_resolution_of_point, tensor
from perfx.maps import RingMap
from perfx.modules import ModulePresentation
from perfx.resolutions import (
    derived_tensor,
    free_replacement,
    free_resolution,
    homology,
    homology_data,
    module_tensor_complex,
    presented,
    truncate_le,
)
from perfx.rings import (
    Mat,
    PolyRing,
    RationalPoint,
    recast,
    subquotient,
    syzygy_matrix,
)


@pytest.fixture
def rxy():
    return PolyRing(QQ, ["x", "y"])


@pytest.fixture
def quotient_xy():
    return PolyRing(QQ, ["x", "y"], quotient=["x*y"])


def test_resolution_of_regular_quotient_is_koszul_shaped(rxy):
    m = ModulePresentation.cyclic(rxy, ["x", "y"], degrees=(0,))
    res = free_resolution(m, 5)
    assert res.floor is None
    assert {i: res.rank(i) for i in res.ranks} == {0: 1, -1: 2, -2: 1}
    # minimal: no differential has a unit (nonzero constant) entry
    assert all(
        p.constant_value() is None for d in res.diffs.values() for _r, _c, p in d.entries()
    )


def test_resolution_over_hypersurface_is_periodic(quotient_xy):
    k = ModulePresentation.cyclic(quotient_xy, ["x", "y"], degrees=(0,))
    res = free_resolution(k, 5)
    assert res.floor == -4
    for i in range(-5, 0):
        assert res.rank(i) == 2
    assert res.rank(0) == 1


def test_resolution_of_free_module_is_itself(rxy):
    f = ModulePresentation.free(rxy, 3)
    res = free_resolution(f, 4)
    assert dict(res.ranks) == {0: 3}
    assert res.floor is None


def test_derived_tensor_selfintersection():
    r1 = PolyRing(QQ, ["x"])
    a = ModulePresentation.cyclic(r1, ["x"])
    t = derived_tensor(a, a, depth=4)
    p0 = RationalPoint(r1, (0,))
    h0, h1 = homology(t, 0), homology(t, -1)
    assert h0.fiber_dim(p0) == 1 and h1.fiber_dim(p0) == 1
    assert homology(t, -2).is_zero()


def test_derived_tensor_transverse(rxy):
    t = derived_tensor(
        ModulePresentation.cyclic(rxy, ["x"]),
        ModulePresentation.cyclic(rxy, ["y"]),
        depth=4,
    )
    assert not homology(t, 0).is_zero()
    assert homology(t, -1).is_zero()


def test_derived_tensor_unbounded_tor(quotient_xy):
    k = ModulePresentation.cyclic(quotient_xy, ["x", "y"])
    t = derived_tensor(k, k, depth=4)
    for i in range(-4, 1):
        assert not homology(t, i).is_zero()


def test_derived_tensor_depth_window(quotient_xy):
    k = ModulePresentation.cyclic(quotient_xy, ["x", "y"])
    t = derived_tensor(k, k, depth=3)
    assert t.homology_floor() <= -3
    with pytest.raises(ValueError):
        homology(t, t.homology_floor() - 1)


def test_free_replacement_matches_fp_homology(quotient_xy):
    """The replacement's homology equals the direct syzygy route."""
    ring = quotient_xy
    k = ModulePresentation.cyclic(ring, ["x", "y"])
    kz = koszul(ring, ["x", "y"])
    fpc = module_tensor_complex(k, kz)
    rep = free_replacement(fpc, -4)
    p = RationalPoint(ring, (0, 0))
    for i in range(-2, 1):
        a = homology(fpc, i)
        b = homology(rep, i)
        assert a.is_zero() == b.is_zero()
        assert a.fiber_dim(p) == b.fiber_dim(p)


def test_free_replacement_shortcuts_free_input(rxy):
    fpc = presented(koszul(rxy, ["x", "y"]))
    rep = free_replacement(fpc, -5)
    assert rep.floor is None
    assert dict(rep.ranks) == {0: 1, -1: 2, -2: 1}


def test_graded_input_drops_its_grading_at_an_inhomogeneous_syzygy():
    """t^2 - t is not homogeneous, so the syzygy t - 1 of coker [t] has no
    degree: the module route and the complex route both resolve it
    ungraded, and Tor is k at (0) and 0 at (1)."""
    ring = PolyRing(QQ, ["t"], quotient=["t^2 - t"])
    module = ModulePresentation(ring, 1, Mat(ring, [["t"]]), (0,))
    for res in (free_resolution(module, 4), free_replacement(presented(module), -4)):
        assert res.degrees is None
        assert [res.fiber_dims((0,)).get(-i, 0) for i in range(4)] == [1, 0, 0, 0]
        assert [res.fiber_dims((1,)).get(-i, 0) for i in range(4)] == [0, 0, 0, 0]


def test_free_resolution_of_complexes(quotient_xy):
    k = koszul(quotient_xy, ["x", "y"])
    assert free_resolution(k, 3) is k
    m = ModulePresentation.cyclic(quotient_xy, ["x"])
    fpc = module_tensor_complex(m, koszul(quotient_xy, ["y"]))
    assert free_resolution(fpc, 3) == free_replacement(fpc, fpc.lo - 3)


def test_truncation_keeps_low_kills_high(quotient_xy):
    kq = koszul(quotient_xy, ["x", "y"])
    tr = truncate_le(kq, -1)
    assert tr.rank(0) == 0
    assert not homology(tr, -1).is_zero()
    origin = RationalPoint(quotient_xy, (0, 0))
    assert homology(tr, -1).fiber_dim(origin) == homology(kq, -1).fiber_dim(origin)


def test_truncation_noop_above_window(rxy):
    k = koszul(rxy, ["x", "y"])
    assert truncate_le(k, 5) is k


def test_truncation_of_exact_spot(rxy):
    k = koszul(rxy, ["x", "y"])
    tr = truncate_le(k, -1)
    # regular sequence: nothing survives below degree 0
    for i in range(tr.lo, tr.hi + 1):
        assert homology(tr, i).is_zero()


def test_module_tensor_complex_of_a_free_complex_is_tensor(quotient_xy):
    """A free coefficient complex E gives tensor(C, E), homology floor
    included: E's floor plus the Koszul complex's top degree 0."""
    e = free_resolution(ModulePresentation.cyclic(quotient_xy, ["x"]), 2)
    k = koszul(quotient_xy, ["y"])
    assert e.floor == e.lo + 1
    got = module_tensor_complex(e, k)
    assert got == tensor(k, e)
    assert (got.lo, got.floor) == (e.lo - 1, e.lo + 1)


def test_module_tensor_complex_dims(rxy):
    m = ModulePresentation.cyclic(rxy, ["x"])
    k = koszul(rxy, ["y"])
    fpc = module_tensor_complex(m, k)
    h0 = homology(fpc, 0)
    origin = RationalPoint(rxy, (0, 0))
    assert h0.fiber_dim(origin) == 1
    assert homology(fpc, -1).is_zero()  # y is regular on R/(x)


def test_fp_homology_independent_route(quotient_xy):
    ring = quotient_xy
    m = ModulePresentation.cyclic(ring, ["y"])
    k = koszul(ring, ["y"])
    fpc = module_tensor_complex(m, k)
    origin = RationalPoint(ring, (0, 0))
    # y kills all of R/(y), so kernel and cokernel are both R/(y)
    assert homology(fpc, -1).fiber_dim(origin) == 1
    assert homology(fpc, 0).fiber_dim(origin) == 1
    # and y acts injectively on R/(x)
    m2 = ModulePresentation.cyclic(ring, ["x"])
    assert homology(module_tensor_complex(m2, koszul(ring, ["y"])), -1).is_zero()


def test_replacement_minimality_graded(rxy):
    m = ModulePresentation(
        rxy,
        1,
        Mat(rxy, [["x", "x", "y"]], ncols=3),  # redundant generator set
        degrees=(0,),
    )
    res = free_resolution(m, 4)
    assert res.rank(-1) == 2  # minimal: duplicates pruned


# -- the spans syzygies are taken modulo stay out of the tagged generators ----


@pytest.fixture
def syzygy_calls(monkeypatch):
    """Record (gens, extra) of every syzygy_basis call."""
    calls = []
    real = groebner.syzygy_basis

    def recording(gens, rank, field, order, extra=()):
        calls.append((list(gens), list(extra)))
        return real(gens, rank, field, order, extra=extra)

    monkeypatch.setattr(groebner, "syzygy_basis", recording)
    return calls


def test_homology_data_tags_only_the_kernel(rxy, syzygy_calls):
    """A top degree takes no syzygy_basis call; every other degree takes
    one, for the kernel, with the next term's relations untagged.  So the
    boundaries never reach syzygy_basis: the relations of H^i are read
    off the kernel's basis."""
    module = ModulePresentation(rxy, 2, Mat(rxy, [["x", "y", "0"], ["0", "x", "y^2"]]))
    origin = RationalPoint(rxy, (0, 0))
    fpc = module_tensor_complex(module, koszul_resolution_of_point(rxy, origin))
    tops = 0
    for i in (0, -1, -2):
        syzygy_calls.clear()
        kernel, boundaries, _pres = homology_data(fpc, i)
        assert kernel.ncols and boundaries.ncols
        d_i = fpc.map(i)
        if d_i.nrows:
            want = [(d_i.column_vecs(), fpc.term(i + 1).relations.column_vecs())]
        else:
            want = []
            tops += 1
        assert syzygy_calls == want
    assert tops == 1


class Captured(Exception):
    pass


def hand_built_ambient_complex(fam, e):
    """The presented T-complex of a free complex over the total ring, built
    term by term: rank(i) copies of T/(relations), the maps recast to T."""
    t = fam.ambient
    rels = Mat(t, [list(fam.relations)])
    terms = {i: (r, Mat.identity(t, r).kron(rels), e.degrees[i]) for i, r in e.ranks.items()}
    return terms, {i: m.map(lambda x: recast(x, t), t) for i, m in e.diffs.items()}


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("n", [2, 3])
def test_projective_pushforward_presents_its_input_as_by_hand(monkeypatch, field, n):
    """pushforward_projective hands free_replacement T/(relations) (x) E
    with the terms and maps of the hand-built route."""
    fam = geometry.blowup_family(field, n)

    def capture(fpc, _floor):
        raise Captured(fpc)

    monkeypatch.setattr(geometry, "free_replacement", capture)
    fiber_vars = [f"x{i + 1}" for i in range(n)]
    for e in [fam.twist(d) for d in range(3)] + [koszul(fam.total, fiber_vars)]:
        with pytest.raises(Captured) as got:
            geometry.pushforward_projective(fam, e)
        fpc = got.value.args[0]
        terms = {i: (t.ambient_rank, t.relations, t.degrees) for i, t in fpc.terms.items()}
        assert (terms, fpc.maps) == hand_built_ambient_complex(fam, e)


def test_free_replacement_keeps_relations_untagged(syzygy_calls):
    """Free replacement of the n=2 blow-up: the relation of the term above
    is an untagged vector, never a generator."""
    fam = geometry.blowup_family(QQ, 2)
    ambient = fam.ambient
    total = ModulePresentation(ambient, 1, Mat(ambient, [list(fam.relations)]), (0,))
    fpc = module_tensor_complex(total, FreeComplex.single(ambient, 1, degrees=(-1,)))
    relations = [v for t in fpc.terms.values() for v in t.relations.column_vecs()]
    assert relations
    free_replacement(fpc, fpc.lo - fam.fiber_count - 2)
    assert [(len(gens), len(extra)) for gens, extra in syzygy_calls] == [(1, 1), (1, 0)]
    assert syzygy_calls[0][1] == relations
    assert not any(v in gens for v in relations for gens, _extra in syzygy_calls)


# -- the relations of H^i against the tagged route ------------------------------

ORACLE_RINGS = [
    (field, quotient)
    for field in (QQ, GF(32003))
    for quotient in ((), ("x^2 - y^3",), ("x*y", "y^2 - x"))
]


def seeded_module(ring, rng):
    gens, rels = rng.randint(1, 2), rng.randint(1, 3)
    rows = [[ring.random_poly(rng, max_degree=2, nterms=2) for _ in range(rels)]
            for _ in range(gens)]
    return ModulePresentation(ring, gens, Mat(ring, rows, ncols=rels))


def tagged_homology_data(real):
    """homology_data with the relations of H^i from the tagged route,
    `syzygy_matrix(kernel, modulo=boundaries)`, as they were computed
    before they were read off the kernel's basis."""

    def reference(obj, i):
        kernel, boundaries, pres = real(obj, i)
        if not kernel.ncols:
            return kernel, boundaries, pres
        rel = syzygy_matrix(kernel, modulo=boundaries)
        return kernel, boundaries, ModulePresentation(obj.ring, kernel.ncols, rel, pres.degrees)

    return reference


@pytest.mark.parametrize("field, quotient", ORACLE_RINGS,
                         ids=[f"{f.name}-{'/'.join(q) or 'plain'}" for f, q in ORACLE_RINGS])
def test_reduced_homology_relations_match_the_tagged_route(field, quotient):
    """At every degree of seeded resolutions and module tensor complexes,
    the reduced relations of H^i equal the tagged route's bit for bit."""
    ring = PolyRing(field, ["x", "y"], quotient=list(quotient))
    rng = random.Random(25)
    reference = tagged_homology_data(homology_data)
    checked = 0
    for _ in range(8):
        module = seeded_module(ring, rng)
        elements = [ring.random_poly(rng, max_degree=1, nterms=2) for _ in range(2)]
        tensored = module_tensor_complex(module, koszul(ring, elements))
        for obj in (free_resolution(module, 3), tensored):
            for i in range(obj.homology_floor(), obj.hi + 1):
                _k, _b, pres = homology_data(obj, i)
                _k, _b, ref = reference(obj, i)
                assert pres.reduced().relations == ref.relations
                checked += bool(ref.relations.ncols)
    assert checked >= 25


def reference_subquotient(d, modulo, boundaries):
    """The kernel and relations of H = ker / im as `homology_data` read
    them before the homology core: `syzygy_matrix` for the kernel, then
    the relations of its columns modulo the boundaries by
    `schreyer_relations` on `kernel.column_vecs()`; at a top degree the
    identity and the nonzero boundaries."""
    ring = d.ring
    if not d.nrows:
        return Mat.identity(ring, d.ncols), boundaries.drop_zero_columns()
    kernel = syzygy_matrix(d, modulo=modulo)
    if not kernel.ncols:
        return kernel, Mat.zero(ring, 0, 0)
    rel = groebner.schreyer_relations(
        kernel.column_vecs(), kernel.nrows, ring.field, ring.module_order,
        modulo=boundaries.column_vecs(), extra=ring.quotient_extra_vectors(kernel.nrows))
    return kernel, Mat.from_column_vecs(ring, rel, kernel.ncols).drop_zero_columns()


def test_subquotient_is_the_syzygy_and_schreyer_route():
    """Over QQ[x,y]/(x^2 - y, xy), where the kernel's vectors are reduced
    per position before they reach `schreyer_relations`, the homology
    core gives the reference's kernel and relations entry for entry at
    every degree of seeded complexes."""
    ring = PolyRing(QQ, ["x", "y"], quotient=["x^2 - y", "x*y"])
    rng = random.Random(39)
    checked = 0
    for _ in range(8):
        module = seeded_module(ring, rng)
        elements = [ring.random_poly(rng, max_degree=1, nterms=2) for _ in range(2)]
        tensored = module_tensor_complex(module, koszul(ring, elements))
        for obj in (free_resolution(module, 3), tensored):
            fpc = presented(obj)
            for i in range(fpc.homology_floor(), fpc.hi + 1):
                term = fpc.term(i)
                if not term.ambient_rank:
                    continue
                args = (fpc.map(i), fpc.term(i + 1).relations,
                        fpc.map(i - 1).hstack(term.relations))
                kernel, relations = subquotient(*args)
                assert (kernel, relations) == reference_subquotient(*args)
                checked += bool(relations.ncols)
    assert checked >= 20


def certificate_fields(cert):
    return tuple(getattr(cert, name) for name in cert.__slots__)


def pointwise_report(e, f, points):
    report = derived.is_relatively_perfect(e, f, points, mode="pointwise", max_depth=3)
    return [
        (i, certificate_fields(data["certificate"]), data["tor_tower"])
        for _y, entry in report.per_point
        for i, data in sorted(entry["homology"].items())
    ]


def pointwise_reports(seed):
    a = PolyRing(QQ, ["t"])
    points = [RationalPoint(a, (c,)) for c in (0, 1)]
    rng = random.Random(seed)
    out = []
    for quotient in ("t*x", "x^2 - t*y", "x*y - t"):
        b = PolyRing(QQ, ["t", "x", "y"], quotient=[quotient])
        out.append(pointwise_report(seeded_module(b, rng), RingMap(a, b, ["t"]), points))
    return out


def test_a_module_and_its_resolution_read_alike():
    """A module and its free resolution have isomorphic derived fibers:
    pointwise mode gives the same certificates and Tor towers, and both
    Tor routes the same towers."""
    a = PolyRing(QQ, ["t"])
    b = PolyRing(QQ, ["t", "x"])
    f = RingMap(a, b, ["t"])
    points = [RationalPoint(a, (c,)) for c in (0, 1)]
    origin = RationalPoint(b, (0, 0))
    rng = random.Random(3)
    homologies = 0
    for _ in range(6):
        module = seeded_module(b, rng)
        resolution = free_resolution(module, 6)
        assert resolution.floor is None
        report = pointwise_report(module, f, points)
        assert pointwise_report(resolution, f, points) == report
        homologies += len(report)
        towers = {
            tuple(derived.tor_profile(e, origin, 3, method))
            for e in (module, resolution)
            for method in ("resolve", "koszul")
        }
        assert len(towers) == 1
    assert homologies >= 8


def test_pointwise_certificates_match_the_tagged_route(monkeypatch):
    """is_relatively_perfect in pointwise mode gives the certificates and
    Tor towers it gave when H^i came from the tagged route, unreduced."""
    got = [pointwise_reports(seed) for seed in range(7, 13)]
    assert sum(map(len, sum(got, []))) >= 20
    monkeypatch.setattr(resolutions, "homology_data",
                        tagged_homology_data(resolutions.homology_data))
    monkeypatch.setattr(ModulePresentation, "reduced", lambda self: self)
    assert got == [pointwise_reports(seed) for seed in range(7, 13)]


def test_schreyer_relations_refuses_what_is_not_a_basis_and_its_span(rxy):
    """A remainder outside the tags raises instead of returning."""

    def relations(mat, modulo):
        return groebner.schreyer_relations(
            mat.column_vecs(), mat.nrows, rxy.field, rxy.module_order,
            modulo=modulo.column_vecs())

    zero = Mat.zero(rxy, 1, 0)
    with pytest.raises(ValueError, match="not a Gröbner basis"):
        relations(Mat(rxy, [["x + y", "x"]]), zero)
    with pytest.raises(ValueError, match="outside their span"):
        relations(Mat(rxy, [["x"]]), Mat(rxy, [["y"]]))
    assert relations(Mat(rxy, [["x", "y"]]), Mat(rxy, [["x*y"]]))
