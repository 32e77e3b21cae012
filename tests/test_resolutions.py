"""Resolutions, free replacements, derived tensor and truncation."""

import pytest

from perfx import geometry, groebner
from perfx.fields import QQ
from perfx.complexes import koszul, koszul_resolution_of_point
from perfx.modules import ModulePresentation
from perfx.resolutions import (
    FPComplex,
    derived_tensor,
    fp_homology,
    free_replacement,
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


def test_resolution_of_regular_quotient_is_koszul_shaped(rxy):
    m = ModulePresentation.cyclic(rxy, ["x", "y"], degrees=(0,))
    res = free_resolution(m, 5)
    assert res.tail == "zero"
    assert {i: res.rank(i) for i in res.ranks} == {0: 1, -1: 2, -2: 1}
    # minimal: no differential has a unit (nonzero constant) entry
    assert all(
        p.constant_value() is None for d in res.diffs.values() for _r, _c, p in d.entries()
    )


def test_resolution_over_hypersurface_is_periodic(quotient_xy):
    k = ModulePresentation.cyclic(quotient_xy, ["x", "y"], degrees=(0,))
    res = free_resolution(k, 5)
    assert res.tail == "exact"
    for i in range(-5, 0):
        assert res.rank(i) == 2
    assert res.rank(0) == 1


def test_resolution_of_free_module_is_itself(rxy):
    f = ModulePresentation.free(rxy, 3)
    res = free_resolution(f, 4)
    assert dict(res.ranks) == {0: 3}
    assert res.tail == "zero"


def test_derived_tensor_selfintersection():
    r1 = PolyRing(QQ, ["x"])
    a = ModulePresentation.cyclic(r1, ["x"])
    t = derived_tensor(a, a, depth=4)
    p0 = RationalPoint(r1, (0,))
    h0, h1 = t.homology(0), t.homology(-1)
    assert h0.fiber_dim(p0) == 1 and h1.fiber_dim(p0) == 1
    assert t.homology(-2).is_zero()


def test_derived_tensor_transverse(rxy):
    t = derived_tensor(
        ModulePresentation.cyclic(rxy, ["x"]),
        ModulePresentation.cyclic(rxy, ["y"]),
        depth=4,
    )
    assert not t.homology(0).is_zero()
    assert t.homology(-1).is_zero()


def test_derived_tensor_unbounded_tor(quotient_xy):
    k = ModulePresentation.cyclic(quotient_xy, ["x", "y"])
    t = derived_tensor(k, k, depth=4)
    for i in range(-4, 1):
        assert not t.homology(i).is_zero()


def test_derived_tensor_depth_window(quotient_xy):
    k = ModulePresentation.cyclic(quotient_xy, ["x", "y"])
    t = derived_tensor(k, k, depth=3)
    assert t.homology_floor() <= -3
    with pytest.raises(ValueError):
        t.homology(t.homology_floor() - 1)


def test_free_replacement_matches_fp_homology(quotient_xy):
    """The replacement's homology equals the direct syzygy route."""
    ring = quotient_xy
    k = ModulePresentation.cyclic(ring, ["x", "y"])
    kz = koszul(ring, ["x", "y"])
    fpc = module_tensor_complex(k, kz)
    rep = free_replacement(fpc, -4)
    p = RationalPoint(ring, (0, 0))
    for i in range(-2, 1):
        a = fp_homology(fpc, i)
        b = rep.homology(i)
        assert a.is_zero() == b.is_zero()
        assert a.fiber_dim(p) == b.fiber_dim(p)


def test_free_replacement_shortcuts_free_input(rxy):
    fpc = FPComplex.from_free(koszul(rxy, ["x", "y"]))
    rep = free_replacement(fpc, -5)
    assert rep.tail == "zero"
    assert dict(rep.ranks) == {0: 1, -1: 2, -2: 1}


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
    assert not tr.homology(-1).is_zero()
    origin = RationalPoint(quotient_xy, (0, 0))
    assert tr.homology(-1).fiber_dim(origin) == kq.homology(-1).fiber_dim(origin)


def test_truncation_noop_above_window(rxy):
    k = koszul(rxy, ["x", "y"])
    assert truncate_le(k, 5) is k


def test_truncation_of_exact_spot(rxy):
    k = koszul(rxy, ["x", "y"])
    tr = truncate_le(k, -1)
    # regular sequence: nothing survives below degree 0
    for i in range(tr.lo, tr.hi + 1):
        assert tr.homology(i).is_zero()


def test_module_tensor_complex_dims(rxy):
    m = ModulePresentation.cyclic(rxy, ["x"])
    k = koszul(rxy, ["y"])
    fpc = module_tensor_complex(m, k)
    h0 = fp_homology(fpc, 0)
    origin = RationalPoint(rxy, (0, 0))
    assert h0.fiber_dim(origin) == 1
    assert fp_homology(fpc, -1).is_zero()  # y is regular on R/(x)


def test_fp_homology_independent_route(quotient_xy):
    ring = quotient_xy
    m = ModulePresentation.cyclic(ring, ["y"])
    k = koszul(ring, ["y"])
    fpc = module_tensor_complex(m, k)
    origin = RationalPoint(ring, (0, 0))
    # y kills all of R/(y), so kernel and cokernel are both R/(y)
    assert fp_homology(fpc, -1).fiber_dim(origin) == 1
    assert fp_homology(fpc, 0).fiber_dim(origin) == 1
    # and y acts injectively on R/(x)
    m2 = ModulePresentation.cyclic(ring, ["x"])
    assert fp_homology(module_tensor_complex(m2, koszul(ring, ["y"])), -1).is_zero()


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


def test_homology_data_tags_only_kernel_and_cycles(rxy, syzygy_calls):
    """The kernel takes the next term's relations, and the relations of H^i
    the boundaries, as untagged vectors."""
    module = ModulePresentation(rxy, 2, Mat(rxy, [["x", "y", "0"], ["0", "x", "y^2"]]))
    origin = RationalPoint(rxy, (0, 0))
    fpc = module_tensor_complex(module, koszul_resolution_of_point(rxy, origin))
    for i in (0, -1, -2):
        syzygy_calls.clear()
        kernel, boundaries, _pres = homology_data(fpc, i)
        assert kernel.ncols and boundaries.ncols
        want = [(kernel.column_vecs(), boundaries.column_vecs())]
        d_i = fpc.map(i)
        if d_i.nrows:
            want.insert(0, (d_i.column_vecs(), fpc.term(i + 1).relations.column_vecs()))
        assert syzygy_calls == want


def test_free_replacement_keeps_relations_untagged(syzygy_calls):
    """Free replacement of the n=2 blow-up: the relation of the term above
    is an untagged vector, never a generator."""
    fam = geometry.blowup_family(QQ, 2)
    fpc = geometry._as_ambient_fp(fam, fam.twist(1))
    relations = [v for t in fpc.terms.values() for v in t.relations.column_vecs()]
    assert relations
    free_replacement(fpc, fpc.lo - fam.fiber_count - 2)
    assert [(len(gens), len(extra)) for gens, extra in syzygy_calls] == [(1, 1), (1, 0)]
    assert syzygy_calls[0][1] == relations
    assert not any(v in gens for v in relations for gens, _extra in syzygy_calls)
