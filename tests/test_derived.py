"""Tor/Ext towers, local cohomology stages, perfection procedures."""

import importlib.util
import inspect
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from perfx.fields import GF, QQ
from perfx import derived, linalg, resolutions
from perfx.complexes import (
    FreeComplex,
    koszul,
    koszul_dual_stage,
    koszul_resolution_of_point,
    two_term,
    unit_complex,
)
from perfx.derived import (
    _ext_dims,
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
from perfx.resolutions import (
    derived_tensor,
    free_resolution,
    homology,
    module_tensor_complex,
    presented,
)
from perfx.rings import Mat, PolyRing, RationalPoint, syzygy_matrix


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
    for coords, expected in (((0,), [1, 1, 0, 0, 0]), ((1,), [0, 0, 0, 0, 0])):
        point = RationalPoint(r1, coords)
        assert tor_profile(m, point, 4, "resolve") == tor_profile(m, point, 4, "koszul") == expected


def test_tor_profile_refuses_an_unknown_method(r1):
    m = ModulePresentation.cyclic(r1, ["x"])
    for method in ("bogus", "both"):
        with pytest.raises(ValueError, match=f"unknown method '{method}'"):
            tor_profile(m, RationalPoint(r1, (0,)), 4, method)


def test_tor_profile_refuses_a_depth_below_a_truncated_floor():
    """kappa(0) over QQ[x,y,z] resolved one step has homology floor 0:
    Tor_1 and beyond live in the missing part, so neither route reads
    them (Tor of kappa(0) with itself is [1, 3, 3, 1, 0]); the Koszul
    route's tensor keeps the floor, the Koszul complex's top being 0."""
    ring = PolyRing(QQ, ["x", "y", "z"])
    truncated = derived.free_resolution(ModulePresentation.cyclic(ring, ["x", "y", "z"]), 1)
    origin = RationalPoint(ring, (0, 0, 0))
    assert truncated.floor == 0
    for method in ("resolve", "koszul"):
        assert tor_profile(truncated, origin, 0, method) == [1]
        for depth in (1, 3, 4):
            with pytest.raises(ValueError, match="below the homology floor 0"):
                tor_profile(truncated, origin, depth, method)


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
        assert tor_profile(m, origin, 5, "resolve") == tor_profile(m, origin, 5, "koszul")


def test_the_koszul_route_refuses_a_presented_complex(rxy):
    """The Koszul route takes a module or a free complex; a presented
    complex is refused before anything is computed, and 'resolve' reads
    it."""
    m = ModulePresentation.cyclic(rxy, ["x", "y"])
    origin = RationalPoint(rxy, (0, 0))
    with pytest.raises(ValueError, match="a module or a free complex.*'resolve'"):
        tor_profile(presented(m), origin, 3, "koszul")
    assert tor_profile(presented(m), origin, 3, "resolve") == [1, 2, 1, 0]


def koszul_tor_reference(obj, point, depth):
    """The Koszul route with no exit: the fiber dimension of each
    homology presentation of the module's tensor with the Koszul
    complex, at every degree."""
    ring = obj.ring
    fpc = module_tensor_complex(obj, koszul_resolution_of_point(ring, point))
    out = []
    for i in range(depth + 1):
        h = homology(fpc, -i)
        out.append(h.fiber_dim(point) if h.ambient_rank else 0)
    return out


def syzygy_complex(module, steps):
    """The module's relations and their iterated `syzygy_matrix`, with no
    split and no probe, as a validated `FreeComplex`: cut after `steps`
    differentials, it has the floor `free_resolution` gives that cut."""
    ranks, diffs = {0: module.ambient_rank}, {}
    current, k, floor = module.relations, 0, None
    while current.ncols:
        ranks[k - 1], diffs[k - 1] = current.ncols, current
        k -= 1
        if -k >= steps:
            floor = k + 1
            break
        current = syzygy_matrix(current)
    return FreeComplex(module.ring, ranks, diffs, floor=floor)


def resolve_tor_reference(module, point, depth):
    """The resolve route with no shared step: the fiber dimensions of the
    unsplit module's `syzygy_complex`, with no M_p = 0 exit."""
    dims = syzygy_complex(module, depth + 3).fiber_dims(point)
    return [dims.get(-i, 0) for i in range(depth + 1)]


TOR_FIELDS = [QQ, GF(32003), GF(7)]


@pytest.mark.parametrize("field", TOR_FIELDS, ids=[f.name for f in TOR_FIELDS])
@pytest.mark.parametrize("nvars", [2, 3])
def test_koszul_tor_matches_the_presentation_route(field, nvars):
    """On seeded modules, at the origin, an integer point and a
    fractional point, the Koszul route reads the fiber dimensions the
    homology presentations give."""
    ring = PolyRing(field, ["x", "y", "z"][:nvars])
    rng = random.Random(39 + nvars)
    fractional = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5))
    points = [RationalPoint(ring, coords[:nvars])
              for coords in ((0, 0, 0), (1, -2, 3), fractional)]
    depth = nvars + 1
    nonzero = 0
    for _ in range(8):
        gens, rels = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[ring.random_poly(rng, max_degree=2, nterms=2) for _ in range(rels)]
                for _ in range(gens)]
        module = ModulePresentation(ring, gens, Mat(ring, rows, ncols=rels))
        for point in points:
            got = tor_profile(module, point, depth, "koszul")
            assert got == koszul_tor_reference(module, point, depth)
            nonzero += any(got)
    assert nonzero >= 4


def test_koszul_tor_of_a_free_complex_matches_the_presentation_route(rxy):
    """koszul(R, [x, y]) and its shift, at the origin and off it."""
    k = koszul(rxy, ["x", "y"])
    for complex_ in (k, k.shift(-1)):
        for coords in ((0, 0), (1, 0), (Fraction(1, 3), 2)):
            point = RationalPoint(rxy, coords)
            assert tor_profile(complex_, point, 3, "koszul") == koszul_tor_reference(
                complex_, point, 3)
    assert tor_profile(k, RationalPoint(rxy, (0, 0)), 3, "koszul") == [1, 2, 1, 0]


def test_koszul_tor_where_every_residue_is_none(rxy, monkeypatch):
    """At (1/(2^31 - 1), 0) the certifying prime divides a coordinate's
    denominator, so every rank is taken over QQ, as the presentation
    route takes it.  The modules are built from y and a = x - 1/(2^31 - 1),
    so none vanishes or splits at the point and the tensor's homology is
    ranked by `fiber_dim`: an exact rank runs in `fiber_dim` of a homology
    presentation, not only of the module itself."""
    exact = []
    real = linalg.rank

    def counting(rows, field):
        exact.append(any(f.function == "fiber_dim" and f.frame.f_locals["self"] is not module
                         for f in inspect.stack(0)))
        return real(rows, field)

    monkeypatch.setattr(linalg, "rank", counting)
    c = Fraction(1, linalg.CERT_PRIME)
    point = RationalPoint(rxy, (c, 0))
    x, y = rxy.parse("x"), rxy.parse("y")
    a = x - rxy.const(c)
    for rows, expected in (([[y, a]], [1, 2, 1, 0]),
                           ([[y * x, a * a, y]], [1, 2, 1, 0]),
                           ([[a, y, rxy.zero], [rxy.zero, a, y]], [2, 3, 1, 0])):
        module = ModulePresentation(rxy, len(rows), Mat(rxy, rows))
        assert module.split_at(point) is module
        exact.clear()
        got = tor_profile(module, point, 3, "koszul")
        assert any(exact)
        assert got == expected == tor_profile(module, point, 3, "resolve")
        assert got == koszul_tor_reference(module, point, 3)


# -- the Koszul route at the module near the point ----------------------------


def test_koszul_tor_splits_only_a_unit_that_stands_alone(rxy):
    """coker [[1, x], [1, 0]] is R/(x): the unit at (0, 0) has neighbours
    in its row and its column, and dropping it would leave R, with Tor
    [1, 0, 0].  The unit at (1, 0) is alone in its row, so that row and
    its column go, leaving coker [[x]].  coker [[1, x], [y, 0]] is R/(xy)
    and has no unit alone, so it stays as it is."""
    origin = RationalPoint(rxy, (0, 0))
    m = ModulePresentation(rxy, 2, Mat(rxy, [["1", "x"], ["1", "0"]]))
    assert m.split_at(origin).relations == Mat(rxy, [["x"]])
    guard = ModulePresentation(rxy, 2, Mat(rxy, [["1", "x"], ["y", "0"]]))
    assert guard.split_at(origin) is guard
    for module in (m, guard):
        assert tor_profile(module, origin, 2, "koszul") == [1, 1, 0]
        assert tor_profile(module, origin, 2, "resolve") == [1, 1, 0]


SPLIT_RINGS = {
    "QQ": PolyRing(QQ, ["x", "y"]),
    "GF32003": PolyRing(GF(32003), ["x", "y"]),
    "GF7": PolyRing(GF(7), ["x", "y"]),
    "QQ/(xy)": PolyRing(QQ, ["x", "y"], quotient=["x*y"]),
}


@pytest.mark.parametrize("name", list(SPLIT_RINGS))
def test_each_deletion_keeps_tor(name):
    """A unit alone in its column (its generator is 0 near the point) and
    a unit alone in its row (its relation solves for its generator): the
    split presentation has the module's Tor, by the resolve route, at
    points on the locus where the unit stays a unit."""
    ring = SPLIT_RINGS[name]
    alone_in_column = Mat(ring, [["1 + x", "y"], ["0", "x"]])
    alone_in_row = Mat(ring, [["1 + y", "0"], ["x", "y^2"]])
    for relations in (alone_in_column, alone_in_row):
        m = ModulePresentation(ring, 2, relations)
        for coords in ((0, 0), (2, 0), (0, 3)):
            point = RationalPoint(ring, coords)
            n = m.split_at(point)
            assert n.ambient_rank < 2
            assert tor_profile(n, point, 3) == tor_profile(m, point, 3)
            assert tor_profile(m, point, 3) == resolve_tor_reference(m, point, 3)
            if not ring.is_quotient:
                assert tor_profile(m, point, 3, "koszul") == tor_profile(m, point, 3)


def test_koszul_refusals_come_before_the_split(rxy, quotient_xy, monkeypatch):
    """A foreign point, an unknown method, a presented complex and a
    quotient ring are refused, with their messages, before any split; a
    foreign point on the resolve route and in `ext_to_point` too."""

    def boom(*_args):
        raise AssertionError("split before a refusal")

    monkeypatch.setattr(ModulePresentation, "split_at", boom)
    m = ModulePresentation.cyclic(rxy, ["x", "y"])
    origin = RationalPoint(rxy, (0, 0))
    other = PolyRing(QQ, ["s", "t"])
    for method in ("koszul", "resolve"):
        with pytest.raises(ValueError, match="different ring"):
            tor_profile(m, RationalPoint(other, (0, 0)), 3, method)
    with pytest.raises(ValueError, match="different ring"):
        ext_to_point(m, RationalPoint(other, (0, 0)), 3)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        tor_profile(m, origin, 3, "bogus")
    with pytest.raises(ValueError, match="a module or a free complex.*'resolve'"):
        tor_profile(presented(m), origin, 3, "koszul")
    q = ModulePresentation.cyclic(quotient_xy, ["x", "y"])
    with pytest.raises(ValueError, match="needs the sequence x-a.*quotient rings"):
        tor_profile(q, RationalPoint(quotient_xy, (0, 0)), 3, "koszul")


@pytest.fixture
def tensors(monkeypatch):
    """The arguments of each `module_tensor_complex` call of `tor_profile`."""
    calls = []
    real = derived.module_tensor_complex
    monkeypatch.setattr(derived, "module_tensor_complex",
                        lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("field", TOR_FIELDS, ids=[f.name for f in TOR_FIELDS])
def test_koszul_tor_stops_where_the_module_is_free(field, tensors):
    """coker [[1 + x, y], [y, 1 + x], [x, x]] has no unit alone at the
    origin, so it does not split; its two columns keep rank 2 there, so
    M_p is free of rank 1 and the route returns before any tensor.  A zero
    third column relates nothing and changes neither."""
    ring = PolyRing(field, ["x", "y"])
    origin = RationalPoint(ring, (0, 0))
    rows = [["1 + x", "y"], ["y", "1 + x"], ["x", "x"]]
    for relations in (Mat(ring, rows), Mat(ring, [row + ["0"] for row in rows])):
        module = ModulePresentation(ring, 3, relations)
        assert module.split_at(origin) is module
        assert module.fiber_dim(origin) == 1
        assert tor_profile(module, origin, 3, "koszul") == [1, 0, 0, 0]
        assert not tensors
        assert tor_profile(module, origin, 3, "resolve") == [1, 0, 0, 0]


@pytest.mark.parametrize("field", TOR_FIELDS, ids=[f.name for f in TOR_FIELDS])
def test_koszul_tor_reads_an_injective_presentation_off_two_ranks(field, tensors):
    """coker [[1 + x, y], [y, 1 + x]] at (1, 2): every entry is a unit and
    none is alone, and the determinant (1 + x)^2 - y^2 vanishes there, so
    the rank drops to 1 and the module is not free near the point.  The
    determinant is a nonzero polynomial, so the presentation is a free
    resolution 0 -> R^2 -> R^2 -> M -> 0, and Tor is [1, 2 - (2 - 1), 0, 0]
    with no tensor.  The route sees that at its probe, where the
    determinant is nonzero except over GF(7): there the probe is (2, 3),
    on the determinant's zero locus, so the module reaches the tensor."""
    ring = PolyRing(field, ["x", "y"])
    point = RationalPoint(ring, (1, 2))
    module = ModulePresentation(ring, 2, Mat(ring, [["1 + x", "y"], ["y", "1 + x"]]))
    assert module.split_at(point) is module
    assert tor_profile(module, point, 3, "koszul") == [1, 1, 0, 0]
    on_locus = ring.parse("(1 + x)^2 - y^2").evaluate(resolutions._tor_probe(ring).coords) == 0
    assert on_locus == (field.char == 7)
    assert len(tensors) == on_locus
    assert tor_profile(module, point, 3, "resolve") == [1, 1, 0, 0]
    assert tor_profile(module, point, 0, "koszul") == [1]


@pytest.mark.parametrize("field", TOR_FIELDS, ids=[f.name for f in TOR_FIELDS])
def test_koszul_tor_tensors_where_the_rank_drops(field, tensors):
    """coker [[x, y]] at the origin has two relations on one generator,
    so it is not injectively presented, and it reaches the tensor, with
    Tor_0 its fiber dimension 1.  coker [[x - a]] at (a, 0), with a the
    first coordinate of the route's large-height probe, is injectively
    presented, but its one entry vanishes at the point and at the probe
    alike: it reaches the tensor too, and the tensor still answers."""
    ring = PolyRing(field, ["x", "y"])
    a = resolutions._tor_probe(ring).coords[0]
    cases = [
        (ModulePresentation(ring, 1, Mat(ring, [["x", "y"]])), (0, 0), [1, 2, 1, 0]),
        (ModulePresentation(ring, 1, Mat(ring, [[ring.parse("x") - ring.const(a)]])),
         (a, 0), [1, 1, 0, 0]),
    ]
    for module, coords, expected in cases:
        point = RationalPoint(ring, coords)
        assert module.split_at(point) is module
        tensors.clear()
        assert tor_profile(module, point, 3, "koszul") == expected
        assert len(tensors) == 1
        assert tor_profile(module, point, 3, "resolve") == expected


def koszul_branch(module, point, got, tensored):
    """Which of the Koszul route's eight branches a module took at a point:
    M_p = 0, M_p free, an injective presentation or the tensor, each after
    a split or without one."""
    way = "tensor" if tensored else "injective" if got[1] else "free" if got[0] else "zero"
    return way, module.split_at(point) is not module


def _seeded_module(ring, rng, gens, rels, density, degree):
    relations = Mat.from_entries(ring, gens, rels, [
        (i, j, ring.random_poly(rng, max_degree=degree, nterms=2))
        for i in range(gens) for j in range(rels) if rng.random() < density
    ])
    return ModulePresentation(ring, gens, relations)


def test_koszul_tor_routes_agree_on_larger_shapes(tensors):
    """Seeded modules up to 4 x 4, of degree up to 3, and wide ones, with
    one or two relations more than their 2 or 3 generators, in 1 to 3
    variables over three fields, at the origin, an integer point and a
    fractional point: the Koszul route, the resolve route, the unsplit
    tensor's homology presentations and the unsplit `syzygy_complex` give
    the same Tor, and each of the eight branches of the Koszul route runs.
    Where the route reads an injective presentation, the Buchberger engine
    finds no syzygy of its relation columns."""
    branches = Counter()
    for field in TOR_FIELDS:
        for nvars in (1, 2, 3):
            ring = PolyRing(field, ["x", "y", "z"][:nvars])
            rng = random.Random(42 + nvars)
            wide = random.Random(f"wide-{nvars}")
            points = [RationalPoint(ring, coords[:nvars]) for coords in (
                (0, 0, 0), (1, -1, 2), (Fraction(1, 2), Fraction(2, 3), -1))]
            depth = nvars + 1
            modules = []
            for _ in range(14):
                gens, rels = rng.randint(1, 4), rng.randint(1, 4)
                modules.append(_seeded_module(ring, rng, gens, rels, 0.7, rng.randint(1, 3)))
                gens = wide.randint(2, 3)
                modules.append(_seeded_module(
                    ring, wide, gens, gens + wide.randint(1, 2), 0.5, wide.randint(1, 2)))
            for module in modules:
                for point in points:
                    tensors.clear()
                    got = tor_profile(module, point, depth, "koszul")
                    branch = koszul_branch(module, point, got, bool(tensors))
                    branches[branch] += 1
                    if branch[0] == "injective":
                        relations = module.split_at(point).relations.drop_zero_columns()
                        assert syzygy_matrix(relations).ncols == 0
                    assert got == tor_profile(module, point, depth, "resolve")
                    assert got == koszul_tor_reference(module, point, depth)
                    assert got == resolve_tor_reference(module, point, depth)
    assert len(branches) == 8 and min(branches.values()) >= 10, branches


# -- the resolve route near the point, and its stop at an injective map -----

_spec = importlib.util.spec_from_file_location(
    "derived_towers_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
workloads.load_perfx()


@pytest.mark.parametrize("seed", [7, 31])
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_tor_routes_match_the_unsplit_reference_on_the_benchmark_modules(field, seed):
    """The two routes share the split and the M_p = 0 exit, so the
    benchmark's comparison of one route with the other no longer checks
    those steps.  The unsplit `resolve_tor_reference` does: on every
    derived-towers Tor module of the seed (22 rounds of
    `workloads.SHAPES`), both routes give its answer at the origin, where
    some modules vanish, some split and some are resolved."""
    ring = PolyRing(field, ["x", "y"])
    origin = RationalPoint(ring, (0, 0))
    kinds = Counter()
    for r in range(22):
        rng = workloads._rng(seed, "tor", r, field.char)
        for gens, rels in workloads.SHAPES:
            module = workloads._random_module(ring, rng, gens, rels)
            expected = resolve_tor_reference(module, origin, 5)
            assert tor_profile(module, origin, 5, "resolve") == expected
            assert tor_profile(module, origin, 5, "koszul") == expected
            kinds["zero" if not any(expected) else "nonzero"] += 1
            kinds["split"] += module.split_at(origin) is not module
    assert min(kinds.values()) >= 20, kinds


@pytest.fixture
def syzygy_calls(monkeypatch):
    """The matrices `free_resolution` hands to `syzygy_matrix`."""
    calls = []
    real = resolutions.syzygy_matrix
    monkeypatch.setattr(resolutions, "syzygy_matrix",
                        lambda mat, **kw: calls.append(mat) or real(mat, **kw))
    return calls


def test_free_resolution_stops_at_an_injective_differential(rxy, syzygy_calls):
    """coker [[x, -y], [y, x]] is injectively presented (its determinant
    x^2 + y^2 is nonzero at the probe): the resolution stops with no
    `syzygy_matrix` call.  coker [[x, y]] is not, and its one syzygy
    column (y, -x) is: one call.  Both are the unsplit `syzygy_complex`,
    with floor None."""
    for rows, calls in (([["x", "-y"], ["y", "x"]], 0), ([["x", "y"]], 1)):
        module = ModulePresentation(rxy, len(rows), Mat(rxy, rows))
        syzygy_calls.clear()
        got = free_resolution(module, 6)
        assert len(syzygy_calls) == calls
        reference = syzygy_complex(module, 6)
        assert (got.ranks, got.diffs, got.floor) == (reference.ranks, reference.diffs, None)


@pytest.mark.parametrize("field", TOR_FIELDS, ids=[f.name for f in TOR_FIELDS])
def test_free_resolution_falls_back_where_the_probe_drops_rank(field, syzygy_calls):
    """coker [[1 + x, y], [y, 1 + x]] is injectively presented, but over
    GF(7) the probe (2, 3) lies on (1 + x)^2 = y^2, where the rank drops:
    there the resolution asks `syzygy_matrix`, which finds no syzygy, and
    elsewhere it stops with no call.  Either way it is the unsplit
    `syzygy_complex`."""
    ring = PolyRing(field, ["x", "y"])
    module = ModulePresentation(ring, 2, Mat(ring, [["1 + x", "y"], ["y", "1 + x"]]))
    on_locus = ring.parse("(1 + x)^2 - y^2").evaluate(resolutions._tor_probe(ring).coords) == 0
    assert on_locus == (field.char == 7)
    got = free_resolution(module, 6)
    assert len(syzygy_calls) == on_locus
    reference = syzygy_complex(module, 6)
    assert (got.ranks, got.diffs, got.floor) == (reference.ranks, reference.diffs, None)


def test_free_resolution_probes_nothing_over_a_quotient_ring(quotient_xy, monkeypatch):
    """QQ[x,y]/(xy) is not a domain, so a full rank at a point certifies
    no injective map: no probe runs, and coker [[x]] is resolved by x, y,
    x, ... to the cut, by both the resolution and the resolve route."""

    def boom(*_args):
        raise AssertionError("probe over a quotient ring")

    monkeypatch.setattr(resolutions, "_tor_probe", boom)
    module = ModulePresentation.cyclic(quotient_xy, ["x"])
    got = free_resolution(module, 5)
    reference = syzygy_complex(module, 5)
    assert (got.ranks, got.diffs, got.floor) == (reference.ranks, reference.diffs, -4)
    origin = RationalPoint(quotient_xy, (0, 0))
    assert tor_profile(module, origin, 4) == resolve_tor_reference(module, origin, 4) == [1] * 5


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


@pytest.mark.parametrize("name", ["QQ", "QQ/(xy)"])
def test_ext_near_the_point_matches_the_unsplit_resolution(name):
    """Ext^i(M, kappa(p)) = Ext^i(M_p, kappa(p)): on seeded modules, at
    points on the locus, `ext_to_point` of the split module (with zeros
    where M_p = 0) gives the Ext that `_ext_dims` reads off the unsplit
    `syzygy_complex`."""
    ring = SPLIT_RINGS[name]
    rng = random.Random(f"ext-{name}")
    points = [RationalPoint(ring, coords) for coords in ((0, 0), (2, 0), (0, -3))]
    kinds = Counter()
    for _ in range(12):
        gens, rels = rng.randint(1, 3), rng.randint(1, 3)
        module = _seeded_module(ring, rng, gens, rels, 0.8, 2)
        for point in points:
            got = ext_to_point(module, point, 4)
            ext = _ext_dims(syzygy_complex(module, 4 + 3), point)
            assert got == [ext.get(i, 0) for i in range(5)]
            kinds["zero" if not any(got) else "nonzero"] += 1
            kinds["split"] += module.split_at(point) is not module
    assert min(kinds.values()) >= 5, kinds


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


@pytest.mark.parametrize("elements, window, stage", [
    (["x"], None, 1),
    (["x^2"], range(-4, 2), 2),
])
def test_local_cohomology_complex_coefficient_indices(r1, elements, window, stage):
    """A complex coefficient in degrees 0..1 widens the homology indices
    to 0..r + 1; the top one is needed for the triangle audit."""
    report = local_cohomology(
        r1, elements, two_term(r1, "x"), max_stage=5, degree_window=window
    )
    assert report.stable and report.stabilized_at == stage
    assert set(report.presentations) == {0, 1, 2}
    assert report.audit["pass"]


def test_truncated_coefficient_reads_nothing_below_its_floor():
    """A truncated resolution of coker [x] over QQ[x,y]/(x*y) keeps its
    floor through the tensor with each stage, raised by the stage's top
    degree 1: the indices below it are left out of the report, and the
    transfer check refuses them."""
    ring = PolyRing(QQ, ["x", "y"], quotient=["x*y"])
    n = derived.free_resolution(ModulePresentation(ring, 1, Mat(ring, [["x"]]), (0,)), 3)
    assert (n.lo, n.floor) == (-3, -2)
    report = local_cohomology(ring, ["x"], n)
    assert sorted(report.presentations) == [-1, 0, 1]
    for index in (-3, -2):
        with pytest.raises(ValueError, match="homology floor -1"):
            boundedness_transfer_check(ring, ["x"], n, index)


def test_zero_module_reads_as_the_zero_complex(rxy):
    """free(0) as a module is the empty complex, as free(0) as a complex
    is: local cohomology reads the same indices for both."""
    as_module = local_cohomology(rxy, ["x"], ModulePresentation.free(rxy, 0))
    as_complex = local_cohomology(rxy, ["x"], FreeComplex.zero_complex(rxy))
    assert sorted(as_module.presentations) == sorted(as_complex.presentations) == [0]
    assert all(p.is_zero() for p in as_module.presentations.values())


@pytest.mark.parametrize("window", [None, range(-2, 1)])
def test_local_cohomology_refuses_an_empty_sequence(rxy, window):
    with pytest.raises(ValueError, match="nonempty sequence"):
        local_cohomology(rxy, [], unit_complex(rxy), degree_window=window)


def test_no_window_tower_tensors_each_transition_once(rxy, monkeypatch):
    counts = {"koszul_dual_transition": 0}
    for name in counts:
        real = getattr(derived, name)

        def counting(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(derived, name, counting)
    report = local_cohomology(rxy, ["x", "y"], unit_complex(rxy), max_stage=6)
    assert not report.stable  # H^2 keeps growing, so all 6 stages are built
    assert counts == {"koszul_dual_transition": 5}


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
            (i, d): homology(stage, i).graded_dim(d)
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
            if not homology(t, i).is_zero():
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


def test_pointwise_homology_starts_at_the_tensor_floor():
    """Over the quotient base A = QQ[t]/(t^2) the resolution of kappa(0)
    is cut after max_depth + 2 steps, so the derived fiber of the
    two-term E = [B -x-> B] in degrees 0, 1 has floor lo + 2: the cut
    resolution's floor lo + 1 plus E's top degree 1.  E is B/(x) in
    degree 1, and B is free over A, so the fiber's only homology is H^1;
    the cut leaves a spurious module one degree below the floor, which
    the report leaves out."""
    a = PolyRing(QQ, ["t"], quotient=["t^2"])
    b = PolyRing(QQ, ["t", "x"], quotient=["t^2"])
    f = RingMap(a, b, ["t"])
    e = two_term(b, "x")
    for max_depth in (2, 3):
        pulled = f.apply_complex(derived.free_resolution(
            ModulePresentation.residue_field(a, RationalPoint(a, (0,))), max_depth + 2))
        fiber = derived.module_tensor_complex(e, pulled)
        assert fiber.floor == pulled.floor + 1 == pulled.lo + 2
        window = FreeComplex._make(fiber.ring, fiber.ranks, fiber.diffs, fiber.degrees)
        assert not homology(window, fiber.floor - 1).is_zero()
        with pytest.raises(ValueError, match="below the homology floor"):
            homology(fiber, fiber.floor - 1)
        report = is_relatively_perfect(e, f, [RationalPoint(a, (0,))], "pointwise", max_depth)
        ((_y, entry),) = report.per_point
        assert sorted(entry["homology"]) == [1]


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


# -- the transition-map tower against the restarting scan ----------------------


def _restarting_tower_verdicts(ring, history, transitions, indices):
    """Reference: the scan that restarted from stage 1 at every stage and
    evaluated both statuses of every window it visited."""
    if len(history) < 3:
        return None
    verdicts = {}
    for i in indices:
        found = None
        for pos in range(len(history) - 2):
            d0, d1, d2 = history[pos : pos + 3]
            if any(i not in d for d in (d0, d1, d2)):
                continue
            st_a = derived._transition_status(d0[i], d1[i], transitions[pos][i])
            st_b = derived._transition_status(d1[i], d2[i], transitions[pos + 1][i])
            if st_a == "iso" and st_b == "iso":
                found = (pos + 1, d0[i][2])
                break
            for length in range(2, len(history) - pos - 1):
                chain = history[pos : pos + length + 2]
                if any(i not in d for d in chain):
                    continue
                mats = [t[i] for t in transitions[pos : pos + length + 1]]
                comp_a = mats[length - 1]
                for m in reversed(mats[: length - 1]):
                    comp_a = comp_a * m
                comp_b = mats[length]
                for m in reversed(mats[1:length]):
                    comp_b = comp_b * m
                st_comp_a = derived._transition_status(chain[0][i], chain[length][i], comp_a)
                st_comp_b = derived._transition_status(chain[1][i], chain[length + 1][i], comp_b)
                if st_comp_a == "vanishing" and st_comp_b == "vanishing":
                    found = (pos + 1, ModulePresentation.zero(ring))
                    break
            if found is not None:
                break
        if found is None:
            return None
        verdicts[i] = found
    return verdicts


def _tower_case(case):
    qx = PolyRing(QQ, ["x"])
    qxy = PolyRing(QQ, ["x", "y"])
    if case == "QQ[x] unit":
        return qx, ["x"], unit_complex(qx), 8
    if case == "QQ[x,y] unit":
        return qxy, ["x", "y"], unit_complex(qxy), 6
    if case == "QQ[x]/(x^2) unit":
        q = PolyRing(QQ, ["x"], quotient=["x^2"])
        return q, ["x"], unit_complex(q), 6
    if case == "R/(x^2)":
        return qx, ["x"], ModulePresentation.cyclic(qx, ["x^2"]), 8
    if case == "GF(5)[x,y] R/(x^2)":
        g5 = PolyRing(GF(5), ["x", "y"])
        return g5, ["x"], ModulePresentation.cyclic(g5, ["x^2"]), 5
    if case == "GF(5)[x,y] unit":
        g5 = PolyRing(GF(5), ["x", "y"])
        return g5, ["x", "y"], unit_complex(g5), 5
    assert case == "two_term"
    return qx, ["x^2"], two_term(qx, "x"), 6


def _tower_report(case, monkeypatch, reference):
    calls = []
    real = derived._transition_status

    def counting(*args):
        calls.append(args)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(derived, "_transition_status", counting)
        if reference:
            m.setattr(
                derived, "_tower_verdicts",
                lambda ring, history, transitions, indices, _statuses:
                    _restarting_tower_verdicts(ring, history, transitions, indices),
            )
        ring, elements, n, max_stage = _tower_case(case)
        rep = local_cohomology(ring, elements, n, max_stage=max_stage)
    pres = {
        i: (p.ambient_rank, p.relations, p.degrees) for i, p in rep.presentations.items()
    }
    return (rep.stable, rep.stabilized_at, rep.criterion, pres, rep.audit), len(calls)


@pytest.mark.parametrize("case, restarting, kept", [
    ("QQ[x] unit", 124, 23),
    ("QQ[x,y] unit", 56, 14),
    ("QQ[x]/(x^2) unit", 12, 7),
    ("R/(x^2)", 12, 7),
    ("GF(5)[x,y] R/(x^2)", 12, 7),
    ("GF(5)[x,y] unit", 32, 10),
    ("two_term", 14, 7),
])
def test_tower_verdicts_keep_statuses_across_stages(monkeypatch, case, restarting, kept):
    """Keeping each evaluated status across stages gives the restarting
    scan's verdicts, stabilization stage, presentations and audit, with
    fewer _transition_status calls."""
    want, want_calls = _tower_report(case, monkeypatch, reference=True)
    got, got_calls = _tower_report(case, monkeypatch, reference=False)
    assert got == want
    assert (want_calls, got_calls) == (restarting, kept)


def test_tower_needs_a_stage(r1):
    with pytest.raises(ValueError, match="max_stage must be at least 1"):
        local_cohomology(r1, ["x"], unit_complex(r1), max_stage=0)
    with pytest.raises(ValueError, match="max_stage must be at least 1"):
        local_cohomology(
            r1, ["x"], ModulePresentation.cyclic(r1, ["x^2"]), max_stage=0,
            degree_window=range(-2, 1),
        )
    with pytest.raises(ValueError, match="max_stage must be at least 1"):
        boundedness_transfer_check(r1, ["x"], unit_complex(r1), 0, max_stage=0)
