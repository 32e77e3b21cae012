"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the lines; every
tolerance is exact integer equality and every runtime bound is asserted.
"""

import random
import time

from perfx.fields import GF, QQ
from perfx.cli import main as cli_main
from perfx.complexes import (
    ComplexMap,
    FreeComplex,
    cone,
    dual,
    koszul,
    tensor,
    two_term,
)
from perfx.derived import (
    is_perfect_at,
    is_relatively_perfect,
    local_cohomology,
    tor_profile,
)
from perfx.geometry import (
    blowup_family,
    chi,
    classical_chi,
    derived_pullback,
    grauert_check,
    hp_scan,
    pushforward_affine,
    pushforward_projective,
)
from perfx.ktheory import (
    orientation_multiplicativity,
    regression_suite,
    run_axiom_battery,
)
from perfx.maps import RingMap
from perfx.modules import ModulePresentation
from perfx.rings import Mat, PolyRing, RationalPoint


def report(number, label, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:>2} [{verdict}] {label}{suffix}")
    assert passed, f"criterion {number}: {label}{suffix}"


def random_points(ring, rng, count):
    pts = []
    while len(pts) < count:
        coords = tuple(ring.field.random(rng) for _ in range(ring.nvars))
        try:
            pts.append(RationalPoint(ring, coords))
        except ValueError:
            continue
    return pts


def test_criterion_1_blowup_chi_tables(capsys):
    start = time.time()
    checks = []
    for n, limit in ((2, 60.0), (3, 300.0)):
        t0 = time.time()
        fam = blowup_family(QQ, n)
        sheaf = fam.twist(1)
        pushed, stage_report = pushforward_projective(fam, sheaf)
        origin = RationalPoint(fam.base, (0,) * n)
        others = []
        seeds = [(1, 0, 0), (0, 1, 0), (1, 1, 1), (2, -1, 3)]
        for coords in seeds:
            others.append(RationalPoint(fam.base, coords[:n]))
        nice = [chi(fam, sheaf, p, pushed=pushed) for p in [origin] + others]
        classical = [classical_chi(fam, sheaf, p) for p in [origin] + others]
        elapsed = time.time() - t0
        checks.append(
            nice == [1] * 5
            and classical == [n, 1, 1, 1, 1]
            and stage_report["bounded"]
            and elapsed < limit
        )
    # the flagship command exists and exits cleanly
    code = cli_main(["example", "blowup-chi", "n=2"])
    capsys.readouterr()
    checks.append(code == 0)
    with capsys.disabled():
        report(
            1,
            "blow-up Euler characteristic tables (n=2, n=3)",
            all(checks),
            f"total {time.time() - start:.1f}s",
        )


def test_criterion_2_koszul_self_duality(capsys):
    rng = random.Random(2024)
    failures = 0
    runs = 0
    for field in (QQ, GF(5)):
        ring = PolyRing(field, ["x", "y", "z"])
        while runs < (20 if field is QQ else 40):
            r = rng.randint(1, 3)
            seq = [ring.random_poly(rng, max_degree=2, nterms=2) for _ in range(r)]
            if any(t.is_zero for t in seq):
                continue
            runs += 1
            k = koszul(ring, seq)
            d = dual(k)
            s = k.shift(-r)
            for pt in random_points(ring, rng, 5):
                if d.fiber_dims(pt) != s.fiber_dims(pt):
                    failures += 1
    with capsys.disabled():
        report(
            2,
            "Koszul self-duality fiber dims over QQ and GF(5)",
            failures == 0 and runs == 40,
            f"{runs} sequences",
        )


def test_criterion_3_tor_two_path(capsys):
    rng = random.Random(77)
    ring = PolyRing(QQ, ["x", "y"])
    origin = RationalPoint(ring, (0, 0))
    agreements = 0
    for _ in range(30):
        gens = rng.randint(1, 3)
        rels = rng.randint(0, 3)
        mat = Mat(
            ring,
            [
                [ring.random_poly(rng, max_degree=3, nterms=2) for _ in range(rels)]
                for _ in range(gens)
            ],
            ncols=rels,
        )
        module = ModulePresentation(ring, gens, mat)
        a = tor_profile(module, origin, 5, "resolve")
        b = tor_profile(module, origin, 5, "koszul")
        if a == b:
            agreements += 1
    with capsys.disabled():
        report(3, "Tor two-path oracle on 30 random modules", agreements == 30)


def _random_iterated_cone(ring, rng, steps=2):
    from perfx.rings import syzygy_matrix

    current = FreeComplex.single(ring, rng.randint(1, 2), at=rng.randint(-1, 0))
    for _ in range(steps):
        j = rng.choice(sorted(current.ranks))
        d_j = current.diff(j)
        if d_j.nrows == 0:
            kernel = Mat.identity(ring, current.rank(j))
        else:
            kernel = syzygy_matrix(d_j)
        if kernel.ncols == 0:
            continue
        picks = [rng.randrange(kernel.ncols)]
        component = kernel.select_columns(picks)
        source = FreeComplex.single(ring, len(picks), at=j)
        phi = ComplexMap(source, current, {j: component})
        current = cone(phi)
    return current


def test_criterion_4_perfection_criteria_equivalence(capsys):
    rng = random.Random(41)
    ring = PolyRing(QQ, ["x", "y"], quotient=["x*y"])
    agree = True
    certified = True
    points = [
        RationalPoint(ring, (0, 0)),
        RationalPoint(ring, (1, 0)),
        RationalPoint(ring, (0, 2)),
    ]
    instances = []
    for _ in range(10):
        instances.append(("perfect", _random_iterated_cone(ring, rng)))
    for _ in range(10):
        instances.append(
            ("not", ModulePresentation.cyclic(ring, ["x", "y"]))
        )
    for kind, target in instances:
        c_tor = is_perfect_at(target, points[0], 6, "tor")
        c_ext = is_perfect_at(target, points[0], 6, "ext")
        if c_tor.verdict != c_ext.verdict:
            agree = False
        if kind == "perfect":
            for p in points:
                if not is_perfect_at(target, p, 6).is_perfect:
                    certified = False
        else:
            if c_tor.is_perfect:
                agree = False
    with capsys.disabled():
        report(
            4,
            "perfection criteria (3) and (6) agree on 20 instances",
            agree and certified,
        )


def test_criterion_5_local_cohomology_stabilization(capsys):
    ring = PolyRing(QQ, ["x", "y"])
    from perfx.complexes import unit_complex

    result = local_cohomology(
        ring, ["x", "y"], unit_complex(ring), degree_window=range(-6, 0), max_stage=8
    )
    oracle = {d: -d - 1 for d in range(-6, -1)}  # monomials 1/(x^a y^b)
    got = {d: result.table[(2, d)] for d in range(-6, -1)}
    ok = (
        result.stable
        and result.stabilized_at is not None
        and got == oracle
        and all(result.table[(i, d)] == 0 for i in (0, 1) for d in range(-6, 0))
        and result.audit["pass"]
    )
    with capsys.disabled():
        report(
            5,
            "local cohomology tower H^2 dims 1..5 with stabilization",
            ok,
            f"stage {result.stabilized_at}, criterion {result.criterion}",
        )


def test_criterion_6_semicontinuity_audits(capsys):
    line = PolyRing(QQ, ["t"])
    f = RingMap.identity(line)
    m = ModulePresentation.cyclic(line, ["t"])
    pts = [RationalPoint(line, (v,)) for v in (0, 1, 2, -1, 7)]
    scan = hp_scan(f, m, 0, pts)
    first = [v for _, v in scan["values"]]
    ok1 = first == [1, 0, 0, 0, 0] and scan["audit_pass"]

    fam = blowup_family(QQ, 2)
    sheaf = fam.twist(1)
    bpts = [RationalPoint(fam.base, c) for c in [(0, 0), (1, 0), (0, 1), (1, 1), (3, -2)]]
    bscan = hp_scan(fam, sheaf, 0, bpts)
    values = [v for _, v in bscan["values"]]
    ok2 = values == [2, 1, 1, 1, 1] and bscan["audit_pass"]
    with capsys.disabled():
        report(6, "upper semicontinuity audits (skyscraper and blow-up)", ok1 and ok2)


def test_criterion_7_grauert(capsys):
    line = PolyRing(QQ, ["t"])
    b = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    f = RingMap(line, b, ["t"])
    e = ModulePresentation.free(b, 1)
    pts = [RationalPoint(line, (v,)) for v in (0, 1, 2, -1, 3)]
    flat = grauert_check(f, e, 0, pts)
    ok_flat = (
        flat["constant"]
        and flat["value"] == 2
        and flat["base_change_pass"]
        and flat["rank_dp_constant"]
    )
    m = ModulePresentation.cyclic(line, ["t"])
    nonflat = grauert_check(RingMap.identity(line), m, 0, pts)
    ok_witness = (not nonflat["constant"]) and [str(w) for w in nonflat["witnesses"]] == ["(0)"]
    with capsys.disabled():
        report(7, "Grauert check: flat family passes, coker(t) witnessed", ok_flat and ok_witness)


def test_criterion_8_projection_formula(capsys):
    rng = random.Random(88)
    line = PolyRing(QQ, ["t"])
    all_ok = True
    for run in range(10):
        degree = rng.choice([2, 3])
        lower = [line.random_poly(rng, max_degree=1, nterms=2) for _ in range(degree)]
        quotient_poly = f"x^{degree}"
        b = PolyRing(QQ, ["t", "x"])
        xvar, tvar = b.var("x"), b.var("t")
        monic = xvar ** degree
        for i, coeff in enumerate(lower):
            lifted = sum(
                (b.const(c) * tvar ** line.exponents(t)[0] for t, c in coeff.terms.items()),
                b.zero,
            )
            monic = monic + lifted * xvar ** i
        bq = PolyRing(QQ, ["t", "x"], quotient=[monic])
        f = RingMap(line, bq, ["t"])
        e = two_term(bq, bq.var("x") - bq.const(rng.randint(-2, 2)))
        m = two_term(line, line.var("t") - line.const(rng.randint(-2, 2)))
        left = pushforward_affine(f, tensor(e, derived_pullback(f, m, 4)))
        right = tensor(pushforward_affine(f, e), m)
        for v in (0, 1, 2, -1, 3):
            point = RationalPoint(line, (v,))
            if left.fiber_dims(point) != right.fiber_dims(point):
                all_ok = False
    with capsys.disabled():
        report(8, "projection formula rank identity on 10 random finite maps", all_ok)


def test_criterion_9_axiom_regression(capsys):
    t0 = time.time()
    suite = regression_suite(seed=0, count=10)
    all_ok = True
    orient_ok = True
    for entry in suite:
        results = run_axiom_battery(entry, axioms=("A1", "A2", "A12", "A123"), depth=6)
        for rep in results.values():
            if rep["verdict"] != "equal_evidence":
                all_ok = False
        if not orientation_multiplicativity(entry):
            orient_ok = False
    elapsed = time.time() - t0
    with capsys.disabled():
        report(
            9,
            "bivariant axioms A1, A2, A12, A123 on the 10-diagram set",
            all_ok and orient_ok and elapsed < 600.0,
            f"{elapsed:.1f}s",
        )


def test_criterion_10_relative_perfection_discrimination(capsys):
    line = PolyRing(QQ, ["t"])
    flat = PolyRing(QQ, ["t", "x"], quotient=["x^2 - t"])
    f_flat = RingMap(line, flat, ["t"])
    pts = [RationalPoint(line, (v,)) for v in (0, 1, -1)]
    good = is_relatively_perfect(ModulePresentation.free(flat, 1), f_flat, pts)
    ok_good = (
        good.verdict == "relatively_perfect"
        and good.mode == "finite"
        and good.global_scope
    )
    torsion = PolyRing(QQ, ["t", "x"], quotient=["t*x"])
    f_tx = RingMap(line, torsion, ["t"])
    bad = is_relatively_perfect(
        ModulePresentation.free(torsion, 1), f_tx, pts, max_depth=6
    )
    witnesses = [str(p) for p in bad.witness_points()]
    entry = dict(bad.per_point)[pts[0]]
    towers = [d["tor_tower"] for d in entry.get("homology", {}).values()]
    unbounded = any(len(t) >= 7 and all(v > 0 for v in t[:7]) for t in towers)
    ok_bad = (
        bad.verdict == "not_relatively_perfect_within_depth"
        and witnesses == ["(0)"]
        and unbounded
    )
    with capsys.disabled():
        report(
            10,
            "relative perfection: x^2-t certified, t*x rejected with tower",
            ok_good and ok_bad,
        )
