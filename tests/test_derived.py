"""Tor/Ext towers, local cohomology stages, perfection procedures."""

import random

import pytest

from perfx.fields import QQ
from perfx.complexes import FreeComplex, koszul, koszul_dual_stage, unit_complex
from perfx.derived import (
    boundedness_transfer_check,
    default_depth,
    ext_to_point,
    is_perfect_at,
    is_relatively_perfect,
    local_cohomology,
    tor_profile,
)
from perfx.maps import RingMap
from perfx.modules import ModulePresentation
from perfx.resolutions import derived_tensor
from perfx.rings import Mat, PolyRing, RationalPoint


@pytest.fixture
def r1():
    return PolyRing(QQ, ["x"])


@pytest.fixture
def rxy():
    return PolyRing(QQ, ["x", "y"])


@pytest.fixture
def quotient_xy():
    return PolyRing(QQ, ["x", "y"], quotient=["x*y"])


# -- Tor and Ext -------------------------------------------------------------


def test_tor_profile_examples(r1):
    m = ModulePresentation.cyclic(r1, ["x"])
    assert tor_profile(m, RationalPoint(r1, (0,)), 4, "both") == [1, 1, 0, 0, 0]
    assert tor_profile(m, RationalPoint(r1, (1,)), 4, "both") == [0, 0, 0, 0, 0]


def test_tor_profile_quotient(quotient_xy):
    k = ModulePresentation.cyclic(quotient_xy, ["x", "y"])
    profile = tor_profile(k, RationalPoint(quotient_xy, (0, 0)), 5)
    assert all(v > 0 for v in profile)


def test_tor_two_path_random(rxy):
    rng = random.Random(8)
    origin = RationalPoint(rxy, (0, 0))
    for _ in range(5):
        gens = rng.randint(1, 3)
        rels = rng.randint(0, 3)
        mat = Mat(
            rxy,
            [
                [rxy.random_poly(rng, max_degree=3, nterms=2) for _ in range(rels)]
                for _ in range(gens)
            ],
            ncols=rels,
        )
        m = ModulePresentation(rxy, gens, mat)
        tor_profile(m, origin, 5, "both")  # raises on mismatch


def test_ext_examples(r1, quotient_xy):
    m = ModulePresentation.cyclic(r1, ["x"])
    assert ext_to_point(m, RationalPoint(r1, (0,)), 3) == [1, 1, 0, 0]
    free = ModulePresentation.free(r1, 2)
    assert ext_to_point(free, RationalPoint(r1, (0,)), 3) == [2, 0, 0, 0]
    k = ModulePresentation.cyclic(quotient_xy, ["x", "y"])
    dims = ext_to_point(k, RationalPoint(quotient_xy, (0, 0)), 5)
    assert all(v > 0 for v in dims)


def test_ext_matches_tor_dims(quotient_xy):
    k = ModulePresentation.cyclic(quotient_xy, ["x", "y"])
    origin = RationalPoint(quotient_xy, (0, 0))
    assert ext_to_point(k, origin, 5) == tor_profile(k, origin, 5)


# -- local cohomology ---------------------------------------------------------


def test_local_cohomology_supported_module(r1):
    n = ModulePresentation.cyclic(r1, ["x"])
    report = local_cohomology(r1, ["x"], n, max_stage=4)
    assert report.stable and report.stabilized_at == 1
    h0 = report.presentations[0]
    assert h0.fiber_dim(RationalPoint(r1, (0,))) == 1
    assert report.presentations[1].is_zero()
    assert report.audit["pass"]


def test_local_cohomology_graded_line(r1):
    report = local_cohomology(
        r1, ["x"], unit_complex(r1), degree_window=range(-3, 1), max_stage=6
    )
    assert report.stable
    assert {d: report.table[(1, d)] for d in range(-3, 1)} == {
        -3: 1, -2: 1, -1: 1, 0: 0,
    }
    assert all(report.table[(0, d)] == 0 for d in range(-3, 1))
    assert report.audit["pass"]


def test_local_cohomology_plane(rxy):
    report = local_cohomology(
        rxy, ["x", "y"], unit_complex(rxy), degree_window=range(-6, 0), max_stage=8
    )
    assert report.stable
    oracle = {d: -d - 1 for d in range(-6, -1)}  # monomials 1/(x^a y^b)
    got = {d: report.table[(2, d)] for d in range(-6, -1)}
    assert got == oracle
    assert all(report.table[(i, d)] == 0 for i in (0, 1) for d in range(-6, 0))
    assert report.audit["pass"]


def test_local_cohomology_unstable_flag(rxy):
    report = local_cohomology(
        rxy, ["x", "y"], unit_complex(rxy), degree_window=range(-9, -7), max_stage=3
    )
    assert not report.stable
    assert report.stabilized_at is None
    assert "evidence" in report.caveat


def test_local_cohomology_window_regime(r1):
    # x^2 is not a variable, so no exact bound applies: stages run until
    # two consecutive ones agree on the window
    report = local_cohomology(
        r1, ["x^2"], unit_complex(r1), degree_window=range(-4, 1), max_stage=6
    )
    assert report.stable and report.stabilized_at == 2
    assert report.criterion == "window_dims"
    assert report.required_stage is None
    assert {d: report.table[(1, d)] for d in range(-4, 1)} == {
        -4: 1, -3: 1, -2: 1, -1: 1, 0: 0,
    }
    assert report.audit["pass"]


@pytest.mark.parametrize("names, window", [
    (["x", "y"], range(-6, 1)),
    (["x", "y", "z"], range(-7, 0)),
])
def test_exact_bound_stage_agrees_with_next_stage(names, window):
    """The exact bound is stage-stable: the stage after it has the same
    window dimensions, so only the bound's own stage is built."""
    ring = PolyRing(QQ, names)
    report = local_cohomology(
        ring, names, unit_complex(ring), degree_window=window, max_stage=8
    )
    assert report.criterion == "exact_bound" and report.stable
    bound = report.stabilized_at

    def window_dims(s):
        stage = koszul_dual_stage(ring, names, s)
        return {
            (i, d): stage.homology(i).graded_dim(d)
            for i in range(len(names) + 1)
            for d in window
        }

    assert window_dims(bound) == window_dims(bound + 1) == report.table


def test_transfer_check_examples(r1):
    u = unit_complex(r1)
    out = boundedness_transfer_check(r1, ["x"], u, 0)
    assert out["hypothesis_holds"] and out["pass"]
    n = ModulePresentation.cyclic(r1, ["x^2"])
    out2 = boundedness_transfer_check(r1, ["x"], n, 1)
    assert not out2["hypothesis_holds"]
    rxy = PolyRing(QQ, ["x", "y"])
    out3 = boundedness_transfer_check(rxy, ["x", "y"], unit_complex(rxy), 1)
    assert out3["hypothesis_holds"] and out3["pass"]


# -- perfection ----------------------------------------------------------------


def test_perfect_koszul_module(rxy):
    m = ModulePresentation.cyclic(rxy, ["x"])
    cert = is_perfect_at(m, RationalPoint(rxy, (0, 0)))
    assert cert.is_perfect
    assert cert.tor_amplitude == (-1, 0)
    assert cert.global_scope


def test_not_perfect_within_depth(quotient_xy):
    k = ModulePresentation.cyclic(quotient_xy, ["x", "y"])
    cert = is_perfect_at(k, RationalPoint(quotient_xy, (0, 0)), 6)
    assert cert.verdict == "not_perfect_within_depth"
    assert cert.tor1_rank > 0
    assert not cert.global_scope


def test_perfect_zero_stalk(quotient_xy):
    k = ModulePresentation.cyclic(quotient_xy, ["x", "y"])
    cert = is_perfect_at(k, RationalPoint(quotient_xy, (1, 0)), 6)
    assert cert.is_perfect
    assert cert.tor_amplitude is None


def test_free_complex_is_perfect(quotient_xy):
    e = koszul(quotient_xy, ["x", "y"])
    cert = is_perfect_at(e, RationalPoint(quotient_xy, (0, 0)), 6)
    assert cert.is_perfect and cert.global_scope


def test_criteria_agree(quotient_xy, rxy):
    origin_q = RationalPoint(quotient_xy, (0, 0))
    k = ModulePresentation.cyclic(quotient_xy, ["x", "y"])
    assert (
        is_perfect_at(k, origin_q, 6, "tor").verdict
        == is_perfect_at(k, origin_q, 6, "ext").verdict
    )
    m = ModulePresentation.cyclic(rxy, ["x", "y"])
    origin = RationalPoint(rxy, (0, 0))
    assert (
        is_perfect_at(m, origin, 6, "tor").verdict
        == is_perfect_at(m, origin, 6, "ext").verdict
        == "perfect_near_point"
    )


def test_amplitude_bounds_derived_tensor(rxy):
    """Certificate amplitude controls the homology window of tensors."""
    rng = random.Random(12)
    m = ModulePresentation.cyclic(rxy, ["x", "y"])
    cert = is_perfect_at(m, RationalPoint(rxy, (0, 0)))
    lo, hi = cert.tor_amplitude
    assert (lo, hi) == (-2, 0)
    for shift in (0, 1, -1):
        other = koszul(rxy, [rxy.random_poly(rng, 2, 2)]).shift(shift)
        m0, m1 = other.lo, other.hi
        t = derived_tensor(m, other, depth=5)
        for i in range(t.homology_floor(), t.hi + 1):
            if not t.homology(i).is_zero():
                assert lo + m0 <= i <= hi + m1


def test_default_depth(rxy):
    assert default_depth(rxy) == 4


# -- relative perfection --------------------------------------------------------


def test_relative_perfection_finite_flat():
    a = PolyRing(QQ, ["t"])
    b = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    f = RingMap(a, b, ["t"])
    e = ModulePresentation.free(b, 1)
    points = [RationalPoint(a, (c,)) for c in (0, 1, -1)]
    report = is_relatively_perfect(e, f, points)
    assert report.verdict == "relatively_perfect"
    assert report.mode == "finite"
    assert report.global_scope


def test_relative_perfection_tx_family_fails():
    a = PolyRing(QQ, ["t"])
    b = PolyRing(QQ, ["t", "x"], quotient=["t*x"])
    f = RingMap(a, b, ["t"])
    e = ModulePresentation.free(b, 1)
    points = [RationalPoint(a, (0,)), RationalPoint(a, (1,))]
    report = is_relatively_perfect(e, f, points, max_depth=6)
    assert report.verdict == "not_relatively_perfect_within_depth"
    witnesses = report.witness_points()
    assert witnesses == [points[0]]
    entry = dict(report.per_point)[points[0]]
    towers = [data["tor_tower"] for data in entry["homology"].values()]
    assert any(all(v > 0 for v in tower[:7]) for tower in towers)
    # away from the witness the family is fine
    assert dict(report.per_point)[points[1]]["pass"]


def test_relative_perfection_identity_delegates(quotient_xy):
    f = RingMap.identity(quotient_xy)
    e = ModulePresentation.cyclic(quotient_xy, ["x", "y"])
    origin = RationalPoint(quotient_xy, (0, 0))
    report = is_relatively_perfect(e, f, [origin], max_depth=5)
    assert report.mode == "identity"
    assert report.verdict == "not_relatively_perfect_within_depth"
    free = ModulePresentation.free(quotient_xy, 1)
    report2 = is_relatively_perfect(free, f, [origin])
    assert report2.verdict == "relatively_perfect"


def test_relative_perfection_tensor_closure():
    """f-perfect tensor perfect stays f-perfect at the same points."""
    a = PolyRing(QQ, ["t"])
    b = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    f = RingMap(a, b, ["t"])
    points = [RationalPoint(a, (1,)), RationalPoint(a, (4,))]
    e = ModulePresentation.free(b, 1)
    assert is_relatively_perfect(e, f, points).is_relatively_perfect
    l = koszul(b, ["x - 1"])
    tensored = derived_tensor(
        l, FreeComplex.single(b, 1, at=0), depth=4
    )
    report = is_relatively_perfect(tensored, f, points)
    assert report.is_relatively_perfect


def test_finite_mode_rejects_non_finite():
    a = PolyRing(QQ, ["t"])
    b = PolyRing(QQ, ["t", "x"], quotient=["t*x"])
    f = RingMap(a, b, ["t"])
    with pytest.raises(ValueError, match="module-finite"):
        is_relatively_perfect(
            ModulePresentation.free(b, 1), f, [RationalPoint(a, (0,))], mode="finite"
        )


def test_local_cohomology_nilpotent_transitions(r1):
    """H^1 of x-power torsion vanishes in the colimit even though no
    single transition is the zero map (x acts nilpotently)."""
    for power in (2, 3):
        n = ModulePresentation.cyclic(r1, [f"x^{power}"])
        rep = local_cohomology(r1, ["x"], n, max_stage=8)
        assert rep.stable and rep.criterion == "transition_maps"
        h0 = rep.presentations[0]
        h1 = rep.presentations[1]
        assert h0.fiber_dim(RationalPoint(r1, (0,))) == 1
        assert sum(h0.graded_dim(d) for d in range(0, power + 2)) == power if h0.degrees else True
        assert h1.ambient_rank == 0 or h1.is_zero()
