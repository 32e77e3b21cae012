"""The four workloads: seeded inputs, jobs, and the oracle for each job.

Each workload is a function of (seed, rounds) that builds the list of
jobs; building it is the set-up.  A job is (kind, inputs, run, check):
`inputs` describes the job's input in words, `run()` calls into perfx and
returns its answer, and `check(answer)` compares the answer with a known
value and returns True when it is right.  The jobs call perfx through
module attributes (`derived.tor_profile`, not a name imported here), so
a traced run sees them.

Every oracle is a plain function of an answer and the known value, so
the tests can feed each one a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction
from math import comb

# Set up by `load_perfx`, so that importing this file needs no perfx.
QQ = GF = None
cli = complexes = derived = geometry = ktheory = rings = modules = None

FIELD_P = 32003


def load_perfx():
    global QQ, GF, cli, complexes, derived, geometry, ktheory, rings, modules
    import perfx.cli as cli
    from perfx import complexes, derived, geometry, ktheory, modules, rings
    from perfx.fields import GF, QQ


def _rng(seed, *parts):
    """Independent stream for one piece of a workload's input."""
    return random.Random(f"perfbench:{seed}:" + ":".join(map(str, parts)))


# -- oracles --------------------------------------------------------------


def check_tor(resolve, koszul):
    """Two independent Tor routes agree (and both give a full profile)."""
    return len(resolve) == len(koszul) == 6 and resolve == koszul


def top_local_cohomology(nvars, d):
    """dim H^n_m(k[x_1..x_n])_d: the monomials 1/(x^a) with all a_i >= 1."""
    return comb(-d - 1, nvars - 1) if d <= -nvars else 0


def check_tower(nvars, window, report):
    if not (report.stable and report.audit["pass"]):
        return False
    for d in window:
        for i in range(nvars + 1):
            want = top_local_cohomology(nvars, d) if i == nvars else 0
            if report.table.get((i, d)) != want:
                return False
    return True


def check_axiom(report):
    return report["verdict"] == "equal_evidence"


def check_orientation(ok):
    return ok is True


def check_chi(n, d, at_origin, chi_value, classical_value):
    """Derived chi of O(d) on the blow-up is 1 everywhere; the classical
    fiber has chi C(n-1+d, n-1) over the origin (a P^(n-1)) and 1 off it."""
    classical = comb(n - 1 + d, n - 1) if at_origin else 1
    return chi_value == 1 and classical_value == classical


def check_cli_csv(n, code, text):
    lines = text.strip().splitlines()
    if code != 0 or lines[0] != "point,chi_classical,chi_nice" or len(lines) != 6:
        return False
    for k, line in enumerate(lines[1:]):
        point, classical, nice = line.split(",")
        if not check_chi(n, 1, k == 0, int(nice), int(classical)):
            return False
    return True


FIBER_AT_ORIGIN = {-2: 1, -1: 3, 0: 3}
FIBER_OFF_ORIGIN = {0: 1}
FIBER_RANKS = {-3: 1, -2: 16, -1: 60, 0: 91, 1: 60, 2: 15}


def check_fiber(at_origin, dims, euler, scan):
    want = FIBER_AT_ORIGIN if at_origin else FIBER_OFF_ORIGIN
    nonzero = {i: v for i, v in dims.items() if v}
    return (
        nonzero == want
        and euler == 1
        and scan["audit_pass"] is True
        and scan["generic_value"] == 1
        and [v for _p, v in scan["values"]] == [want.get(0, 0)]
    )


# -- derived-towers ---------------------------------------------------------

# (generators, relations): every shape appears once per field and round,
# so the mix of module sizes is the same for every seed.
SHAPES = [(g, r) for g in (1, 2, 3) for r in (1, 2, 3)]


def _random_module(ring, rng, gens, rels):
    mat = rings.Mat(
        ring,
        [[ring.random_poly(rng, max_degree=2, nterms=2) for _ in range(rels)]
         for _ in range(gens)],
        ncols=rels,
    )
    return modules.ModulePresentation(ring, gens, mat)


def _tor_job(module, origin):
    def run():
        return (derived.tor_profile(module, origin, 5, "resolve"),
                derived.tor_profile(module, origin, 5, "koszul"))

    return ("tor", str(module.relations), run, lambda ab: check_tor(*ab))


def _tower_job(ring, window):
    names = [str(v) for v in ring.variables]

    def run():
        return derived.local_cohomology(
            ring, names, complexes.unit_complex(ring),
            degree_window=window, max_stage=8,
        )

    return (f"tower{len(names)}", f"{names} in degrees {window.start}..-1", run,
            lambda report: check_tower(len(names), window, report))


def derived_towers(seed, rounds):
    fields = (QQ, GF(FIELD_P))
    plane = {f: rings.PolyRing(f, ["x", "y"]) for f in fields}
    origin = {f: rings.RationalPoint(plane[f], (0, 0)) for f in fields}
    space = rings.PolyRing(QQ, ["x", "y", "z"])
    jobs = []
    for r in range(rounds):
        for f in fields:
            rng = _rng(seed, "tor", r, f.char)
            for gens, rels in SHAPES:
                jobs.append(_tor_job(_random_module(plane[f], rng, gens, rels), origin[f]))
        rng = _rng(seed, "tower", r)
        jobs.append(_tower_job(plane[QQ], range(-rng.randint(6, 9), 0)))
        jobs.append(_tower_job(space, range(-rng.randint(5, 7), 0)))
    return jobs


# -- axiom-battery ------------------------------------------------------------

AXIOMS = ("A1", "A2", "A12")
DIAGRAMS_PER_ROUND = 8


def _size(k0class):
    return sum(c.total_rank() for _coeff, c in k0class.terms)


def _axiom_job(entry, axiom):
    def run():
        report = ktheory.run_axiom_battery(entry, axioms=(axiom,), depth=6)[axiom]
        if axiom != "A1":
            return report, True
        return report, ktheory.orientation_multiplicativity(entry)

    classes = entry["classes"]
    inputs = f"diagram {entry['index']} over {entry['field']}: " + ", ".join(
        f"{label}={classes[label]!r}" for label in sorted(classes))
    return (axiom, inputs, run,
            lambda ans: check_axiom(ans[0]) and check_orientation(ans[1]))


def axiom_battery(seed, rounds):
    suite = ktheory.regression_suite(seed=seed, count=rounds * DIAGRAMS_PER_ROUND)
    jobs = []
    for entry in suite:
        jobs.extend(_axiom_job(entry, axiom) for axiom in AXIOMS)
        # A123 costs about the product of the sizes of its two classes:
        # 20-170 ms up to 2, but up to 1 s at 4 and 1-9 s with a rank-4
        # (tensor) complex.  A run holds too few of the costly ones for its
        # time to repeat from seed to seed, so only the small ones run.
        classes = entry["classes"]
        if _size(classes["alpha_f"]) * _size(classes["beta_hg"]) <= 2:
            jobs.append(_axiom_job(entry, "A123"))
    return jobs


# -- blowup-chi -----------------------------------------------------------------

# (n, twist d, random points per field and round)
PUSH_CASES = ((2, 0, 2), (2, 2, 2), (3, 0, 3))


def _cli_job(n):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["example", "blowup-chi", f"n={n}", "--format", "csv"])
        return code, out.getvalue()

    return (f"cli{n}", f"perfx example blowup-chi n={n}", run,
            lambda ans: check_cli_csv(n, *ans))


def _random_coords(n, rng):
    """A point of the base other than the origin."""
    while True:
        coords = tuple(rng.randint(-9, 9) for _ in range(n))
        if any(coords):
            return coords


def _push_job(field, n, d, state):
    """Pushforward of O(d); later chi jobs of the round read it from state."""

    def run():
        fam = geometry.blowup_family(field, n)
        sheaf = fam.twist(d)
        pushed, report = geometry.pushforward_projective(fam, sheaf)
        state.update(fam=fam, sheaf=sheaf, pushed=pushed)
        return report["bounded"]

    return (f"push{n}.{d}", f"O({d}) on Bl0(A^{n}) over {field}", run,
            lambda bounded: bounded is True)


def _chi_job(n, d, coords, state):
    def run():
        fam, sheaf = state["fam"], state["sheaf"]
        point = rings.RationalPoint(fam.base, coords)
        return (geometry.chi(fam, sheaf, point, pushed=state["pushed"]),
                geometry.classical_chi(fam, sheaf, point))

    return (f"chi{n}.{d}", f"O({d}) at {coords}", run,
            lambda ans: check_chi(n, d, not any(coords), *ans))


def blowup_chi(seed, rounds):
    jobs = []
    for r in range(rounds):
        jobs.append(_cli_job(2))
        for f in (QQ, GF(FIELD_P)):
            rng = _rng(seed, "chi", r, f.char)
            for n, d, npoints in PUSH_CASES:
                state = {}
                jobs.append(_push_job(f, n, d, state))
                points = [(0,) * n] + [_random_coords(n, rng) for _ in range(npoints)]
                jobs.extend(_chi_job(n, d, coords, state) for coords in points)
    # The n=3 CLI run takes about 1.5 s in one piece, so only the
    # calibrations at its two ends can scale it; it runs once, last.
    jobs.append(_cli_job(3))
    return jobs


# -- fiber-scan -------------------------------------------------------------------

# per round: the origin and random points, more of them over GF(p) where
# a point is cheap
POINTS_PER_ROUND = {0: 2, FIELD_P: 5}


def _large_height_point(base, rng):
    if base.field.char == 0:
        coords = tuple(Fraction(rng.randint(10**4, 10**6), rng.randint(1, 97))
                       for _ in range(base.nvars))
    else:
        coords = tuple(rng.randrange(1, FIELD_P) for _ in range(base.nvars))
    return rings.RationalPoint(base, coords)


def _fiber_job(fam, sheaf, pushed, point, at_origin, scan_seed):
    def run():
        dims = pushed.fiber_dims(point)
        euler = pushed.fiber_euler_characteristic(point)
        scan = geometry.hp_scan(fam, sheaf, 0, [point], seed=scan_seed, pushed=pushed)
        return dims, euler, scan

    return ("origin" if at_origin else "point", f"{point} over {point.ring.field}", run,
            lambda ans: check_fiber(at_origin, *ans))


def fiber_scan(seed, rounds):
    scans = []
    for f in (QQ, GF(FIELD_P)):
        fam = geometry.blowup_family(f, 3)
        sheaf = fam.twist(1)
        pushed, _report = geometry.pushforward_projective(fam, sheaf, minimal=False)
        if pushed.ranks != FIBER_RANKS:
            raise RuntimeError(f"fiber-scan: pushforward over {f} has ranks {pushed.ranks}")
        scans.append((f, fam, sheaf, pushed))
    jobs = []
    for r in range(rounds):
        for f, fam, sheaf, pushed in scans:
            rng = _rng(seed, "fiber", r, f.char)
            points = [(rings.RationalPoint(fam.base, (0, 0, 0)), True)] + [
                (_large_height_point(fam.base, rng), False)
                for _ in range(POINTS_PER_ROUND[f.char])
            ]
            for point, at_origin in points:
                jobs.append(_fiber_job(fam, sheaf, pushed, point, at_origin, rng.randrange(2**31)))
    return jobs


# name -> (build, seconds one round takes, scaled as in run.run_jobs)
WORKLOADS = {
    "derived-towers": (derived_towers, 0.69),
    "axiom-battery": (axiom_battery, 0.65),
    "blowup-chi": (blowup_chi, 0.7),
    "fiber-scan": (fiber_scan, 1.09),
}
