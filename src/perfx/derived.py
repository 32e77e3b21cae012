"""Derived-category style computations: Tor and Ext towers against
rational points, local cohomology via the dual Koszul stage tower, and
the perfection decision procedures.

Perfection at a point walks a free resolution window: once the kernel
at a deep enough spot has vanishing Tor_1 against the residue field,
the input is quasi-isomorphic near the point to the strictly perfect
chopped complex.  Over quotient rings the procedure is an honest
semi-decision: a negative answer is always qualified by the depth.
"""

from __future__ import annotations

import random
from itertools import product

from .complexes import (
    FreeComplex,
    cech_cone,
    dual,
    koszul,
    koszul_dual_stage,
    koszul_dual_transition,
    koszul_resolution_of_point,
)
from .geometry import pushforward_affine
from .rings import Mat, MatrixGB, syzygy_matrix
# Unused here; perfbench/test_perfbench.py checks that tracing rebinds this alias.
from .linalg import rank as field_rank  # noqa: F401
from .modules import ModulePresentation
from .resolutions import (
    FPComplex,
    default_depth,
    free_resolution,
    homology,
    homology_data,
    module_tensor_complex,
    presented,
)
from .rings import RationalPoint, point_of


# -- Tor and Ext towers ---------------------------------------------------


def tor_profile(module, point, depth, method="resolve"):
    """[dim Tor_i(M, kappa(point)) for i in 0..depth].

    method 'resolve' resolves the module or complex and evaluates;
    'koszul' tensors a module or free complex with the Koszul
    resolution of the point (plain rings only) and reads each degree as
    `homology(tensor, -i).fiber_dim(point)`.  Tor at the point
    depends only on M_p, so a module is first replaced by its
    `split_at(point)`, N, with g generators, c nonzero relation columns
    and fiber dimension f, which is Tor_0.  Where f is 0, M_p = 0
    (Nakayama) and every higher Tor is 0.  Where the c columns have rank
    c at the point (f = g - c) or at one fixed large-height probe, a
    c x c minor is a nonzero polynomial, so over the domain R the columns
    map R^c into R^g injectively and 0 -> R^c -> R^g -> N -> 0 resolves
    N: Tor is [f, c - (g - f), 0, ...], and no tensor is built.  A rank
    at the probe comes from `fiber_dim`, so over QQ a full rank modulo the
    certifying prime needs no exact rank.  Otherwise the tensor's
    homology is read at degrees -1 .. -depth only.  Another
    method, a point of another ring, or a presented complex on the Koszul
    route raises ValueError before anything is computed.  Both routes raise
    ValueError, before any homology is computed, at a depth below the
    homology floor of what they read: the resolution, or its tensor with
    the Koszul complex (`check_determined`).
    """
    point = point_of(module.ring, point)
    if method == "resolve":
        resolution = free_resolution(module, depth + 3)
        resolution.check_determined(-depth)
        dims = resolution.fiber_dims(point)
        return [dims.get(-i, 0) for i in range(depth + 1)]
    if method != "koszul":
        raise ValueError(f"unknown method {method!r}")
    if isinstance(module, FPComplex):
        raise ValueError(
            "the Koszul route takes a module or a free complex, not a presented "
            "complex; use 'resolve'"
        )
    ring = module.ring
    if ring.is_quotient:
        raise ValueError(
            "the Koszul route needs the sequence x-a to resolve the point; "
            "use 'resolve' over quotient rings"
        )
    dims = []  # Tor_0, ... as far as known without the tensor
    if isinstance(module, ModulePresentation):
        module = module.split_at(point)
        f = module.fiber_dim(point)  # M (x) kappa(point) = Tor_0
        if f == 0:  # M_p = 0 (Nakayama); M need not be injectively presented
            return [0] * (depth + 1)
        g, c = module.ambient_rank, module.relations.drop_zero_columns().ncols
        # rank c at the point or at the probe: the presentation is a free resolution
        if f == g - c or (c <= g and module.fiber_dim(_tor_probe(ring)) == g - c):
            return ([f, c - (g - f)] + [0] * depth)[:depth + 1]
        dims = [f]
    fpc = module_tensor_complex(module, koszul_resolution_of_point(ring, point))
    fpc.check_determined(-depth)
    return dims + [homology(fpc, -i).fiber_dim(point) for i in range(len(dims), depth + 1)]


def _tor_probe(ring):
    """The fixed large-height point of a plain ring at which the Koszul
    route of `tor_profile` asks whether a presentation is injective.  Any
    point answers correctly; one on the rank-drop locus only sends the
    module on to the tensor."""
    rng = random.Random("tor-probe")
    return RationalPoint(ring, [rng.randint(10**5, 10**6) for _ in range(ring.nvars)])


def _ext_dims(resolution, point):
    """{i: dim H^i(Hom(resolution, R)) at a point} over the dual's terms;
    a degree outside them has dimension 0.  This is dim Ext^i(E,
    kappa(point)) away from the top, where the dual moves the resolution's
    truncation, so no homology floor applies."""
    d = dual(resolution)
    ranks = d.fiber_ranks(point)
    return {i: d.rank(i) - ranks.get(i, 0) - ranks.get(i - 1, 0) for i in range(d.lo, d.hi + 1)}


def ext_to_point(module, point, depth):
    """[dim Ext^i(E, kappa(point)) for i in 0..depth], by Hom of the
    resolution into the ring, evaluated at the point."""
    ext = _ext_dims(free_resolution(module, depth + 3), point)
    return [ext.get(i, 0) for i in range(depth + 1)]


# -- local cohomology tower -----------------------------------------------


class LocalCohomologyReport:
    __slots__ = (
        "elements",
        "max_stage",
        "stabilized_at",
        "stable",
        "table",
        "presentations",
        "audit",
        "caveat",
        "criterion",
        "required_stage",
    )

    def __init__(self, elements, max_stage):
        self.elements = elements
        self.max_stage = max_stage
        self.stabilized_at = None
        self.stable = False
        self.table = {}
        self.presentations = {}
        self.audit = None
        self.criterion = None
        self.required_stage = None
        self.caveat = (
            "stabilization is evidence for the colimit value, not a proof, "
            "unless the exact stage bound applies (plain ring, variable "
            "sequence, free graded coefficients)"
        )

    def __repr__(self):
        status = (
            f"stabilized at stage {self.stabilized_at} [{self.criterion}]"
            if self.stable
            else f"NOT stabilized within {self.max_stage} stages"
        )
        return f"LocalCohomology({status})"


def _homology(carrier, indices):
    """{i: homology_data(carrier, i)} for the indices where it is
    determined: a truncated carrier has none below its floor."""
    return {i: homology_data(carrier, i) for i in indices if carrier.is_determined(i)}


def _presentations(datas):
    return {i: d[2] for i, d in datas.items()}


def _default_sample_points(ring):
    pts = []
    for coords in [(0,) * ring.nvars, (1,) * ring.nvars, tuple(range(1, ring.nvars + 1))]:
        try:
            pts.append(RationalPoint(ring, coords))
        except ValueError:
            continue
    return pts


def _transition_matrices(ring, transition, n, indices):
    """{i: ambient matrix at complex degree i} of a stage transition with
    coefficients in n, in the layout of tensor(stage, n): the block sum
    over the stage's degrees p of component p (x) the identity on n's
    term i - p, with n's terms read through `presented`."""
    n = presented(n)
    stage = transition.source
    blocks = {}
    for i in indices:
        m = Mat.zero(ring, 0, 0)
        for p in range(stage.lo, stage.hi + 1):
            eye = Mat.identity(ring, n.term(i - p).ambient_rank)
            m = m.direct_sum(transition.component(p).kron(eye))
        blocks[i] = m
    return blocks


def _transition_status(data_s, data_s1, m_i):
    """'iso', 'vanishing' or 'other' for the induced map on homology."""
    k_s, span0, h_s = data_s
    k_s1, span1, h_s1 = data_s1
    zero_s, zero_s1 = h_s.is_zero(), h_s1.is_zero()
    if zero_s and zero_s1:
        return "iso"
    if zero_s1:
        return "vanishing"  # everything dies into a zero target
    if zero_s:
        return "other"  # new classes appear downstream
    # past the returns above both kernels have columns to test
    mapped = m_i * k_s
    in_span1 = MatrixGB(span1).contains_column
    if all(in_span1(mapped.column(j)) for j in range(mapped.ncols)):
        return "vanishing"
    in_big = MatrixGB(mapped.hstack(span1)).contains_column
    if not all(in_big(k_s1.column(j)) for j in range(k_s1.ncols)):
        return "other"
    # injectivity: combinations of mapped generators landing in the
    # boundary span must already be boundaries upstairs
    rel = syzygy_matrix(mapped, modulo=span1)
    if not rel.ncols:
        return "iso"
    in_span0 = MatrixGB(span0).contains_column
    combos = k_s * rel
    if all(in_span0(combos.column(j)) for j in range(rel.ncols)):
        return "iso"
    return "other"


def _distinct_variables(elements):
    """Whether every element is a scalar times a variable, no two alike."""
    seen = set()
    for t in elements:
        if len(t.terms) != 1:
            return False
        mono = t.ring.exponents(t.leading_monomial())
        if sum(mono) != 1 or mono in seen:
            return False
        seen.add(mono)
    return True


def _exact_bound(ring, elements, n, degree_window):
    """The stage that gives the window exactly, or None unless the ring is
    plain, the sequence is distinct variables and n is a free graded
    complex."""
    if (
        degree_window is None
        or not isinstance(n, FreeComplex)
        or n.degrees is None
        or ring.is_quotient
        or not _distinct_variables(elements)
    ):
        return None
    max_gen = max((a for degs in n.degrees.values() for a in degs), default=0)
    return max(1, max_gen - min(degree_window) - (len(elements) - 1))


def local_cohomology(ring, elements, n, max_stage=8, degree_window=None):
    """Local cohomology with supports in V(elements) via the stage tower.

    Each regime builds only the stages its report reads:

    - exact bound (a degree window, a plain ring, a sequence of distinct
      variables and a free graded complex n): the one stage
      min(bound, max_stage).  A bound above max_stage gives a report
      that is not stable, names the required stage and has no table.
    - a window otherwise: stages 1, 2, ... until two consecutive stages
      agree on the window's graded dimensions, reported as evidence.
    - no window: stages and their transition maps, until the induced
      maps on homology settle, index by index, into isomorphisms (value
      reached) or vanishing composites (evidence that the colimit is
      zero).

    Graded coefficients with a window get a table {(i, d): dim}.  The
    long exact sequence of the supports triangle is audited by rank
    bookkeeping on the reported stage, the only stage whose Cech cone
    is built.
    """
    if max_stage < 1:
        raise ValueError("max_stage must be at least 1")
    elements = [ring.parse(t) if isinstance(t, str) else t for t in elements]
    if not isinstance(n, (ModulePresentation, FreeComplex)):
        raise TypeError("n must be a ModulePresentation or FreeComplex")
    r = len(elements)
    coefficients = presented(n)
    indices = range(coefficients.lo, coefficients.hi + r + 1)
    report = LocalCohomologyReport([str(t) for t in elements], max_stage)

    def stage_at(s):
        stage = koszul_dual_stage(ring, elements, s)
        return stage, _homology(module_tensor_complex(n, stage), indices)

    bound = _exact_bound(ring, elements, n, degree_window)
    if bound is not None:
        report.criterion = "exact_bound"
        if bound <= max_stage:
            report.stable = True
            report.stabilized_at = bound
        else:
            report.required_stage = bound
        stage, datas = stage_at(min(bound, max_stage))
        report.presentations = _presentations(datas)
    elif degree_window is not None:
        prev = None
        for s in range(1, max_stage + 1):
            stage, datas = stage_at(s)
            summary = {
                i: tuple(d[2].graded_dim(k) for k in degree_window)
                for i, d in datas.items()
            }
            if prev is not None and prev[2] == summary:
                report.stable = True
                report.stabilized_at = s - 1
                report.criterion = "window_dims"
                stage, datas, _ = prev
                break
            prev = stage, datas, summary
        report.presentations = _presentations(datas)
    else:
        history = []
        transitions = []
        statuses = {}
        for s in range(1, max_stage + 1):
            if history:
                transitions.append(_transition_matrices(
                    ring, koszul_dual_transition(ring, elements, s - 1), n, indices
                ))
            history.append(stage_at(s))
            verdicts = _tower_verdicts(
                ring, [d for _stage, d in history], transitions, indices, statuses
            )
            if verdicts is not None:
                report.stable = True
                report.stabilized_at = max(s for s, _v in verdicts.values())
                report.criterion = "transition_maps"
                report.presentations = {i: v for i, (_s, v) in verdicts.items()}
                break
        stage, datas = history[report.stabilized_at - 1 if report.stable else -1]
        if not report.stable:
            report.presentations = _presentations(datas)

    if degree_window is not None and report.required_stage is None:
        report.table = {
            (i, d): pres.graded_dim(d)
            for i, pres in report.presentations.items()
            for d in degree_window
        }
    cech = _homology(module_tensor_complex(n, cech_cone(stage)), indices)
    report.audit = _triangle_audit(
        _presentations(datas), _presentations(cech), n, indices, degree_window,
        _default_sample_points(ring),
    )
    return report


def _tower_verdicts(ring, history, transitions, indices, statuses):
    """Per-index stabilization by transition maps, or None if undecided.

    history[k] is the homology data of stage k + 1 and transitions[k]
    the matrices, by index, of its map to the next stage.  An index
    settles either through two consecutive isomorphisms on homology
    (value reached) or through two consecutive vanishing two-step
    composites (evidence the colimit is zero: nilpotent action like x on
    R/(x^2) kills every class after finitely many steps even though no
    single step is the zero map).

    Each index takes the first window that decides, by position, then
    the iso pair, then composites by length.  statuses keeps each status
    by (index, from, to) across the calls of one tower, so after a new
    stage only windows no earlier call reached are evaluated.
    """
    if len(history) < 3:
        return None

    def status(i, a, b):
        if (i, a, b) not in statuses:
            m = transitions[a][i]
            for t in transitions[a + 1 : b]:
                m = t[i] * m
            statuses[i, a, b] = _transition_status(history[a][i], history[b][i], m)
        return statuses[i, a, b]

    verdicts = {}
    for i in indices:
        found = None
        for pos in range(len(history) - 2):
            if any(i not in d for d in history[pos : pos + 3]):
                continue
            if status(i, pos, pos + 1) == "iso" and status(i, pos + 1, pos + 2) == "iso":
                found = (pos + 1, history[pos][i][2])
                break
            # vanishing of an L-step composite at two consecutive base
            # points: catches nilpotent transitions of any order the
            # stage budget can see
            for length in range(2, len(history) - pos - 1):
                if any(i not in d for d in history[pos : pos + length + 2]):
                    continue
                if (
                    status(i, pos, pos + length) == "vanishing"
                    and status(i, pos + 1, pos + length + 1) == "vanishing"
                ):
                    found = (pos + 1, ModulePresentation.zero(ring))
                    break
            if found is not None:
                break
        if found is None:
            return None
        verdicts[i] = found
    return verdicts


def _triangle_audit(local, cech, n, indices, degree_window, points):
    """Alternating sums over the supports triangle vanish degreewise.

    local and cech are the stage's homology presentations by index; the
    middle term is the homology of n itself."""
    coeff = _presentations(_homology(presented(n), indices))
    checks = []

    def run_one(weigher, tag):
        total = 0
        for i in indices:
            a, b, c = (weigher(h[i]) if i in h else 0 for h in (local, coeff, cech))
            total += (-1 if i % 2 else 1) * (a - b + c)
        checks.append({"window": tag, "alternating_sum": total, "pass": total == 0})

    if degree_window is not None:
        for d in degree_window:
            run_one(lambda pres: pres.graded_dim(d), f"degree {d}")
    else:
        for p in points:
            run_one(lambda pres: pres.fiber_dim(p), f"point {p}")
    return {"pass": all(c["pass"] for c in checks), "checks": checks}


def boundedness_transfer_check(ring, elements, n, index, max_stage=4):
    """Vanishing of Hom-complex cohomology forces tower vanishing.

    If H^index of Hom(K(t), N) vanishes, every computed stage of the
    supports tower must vanish in that index too; this is checked, not
    assumed.  If the hypothesis fails, the check reports that it does
    not apply.
    """
    if max_stage < 1:
        raise ValueError("max_stage must be at least 1")
    elements = [ring.parse(t) if isinstance(t, str) else t for t in elements]
    hom = module_tensor_complex(n, dual(koszul(ring, elements)))
    if not homology(hom, index).is_zero():
        return {
            "hypothesis_holds": False,
            "hom_cohomology_nonzero": True,
            "verified_stages": [],
            "pass": True,
            "note": "Hom-complex cohomology is nonzero; the vanishing transfer does not apply",
        }
    verified = []
    for s in range(1, max_stage + 1):
        stage = module_tensor_complex(n, koszul_dual_stage(ring, elements, s))
        verified.append({"stage": s, "vanishes": homology(stage, index).is_zero()})
    return {
        "hypothesis_holds": True,
        "hom_cohomology_nonzero": False,
        "verified_stages": verified,
        "pass": all(v["vanishes"] for v in verified),
    }


# -- perfection certificates ------------------------------------------------


class PerfectionCertificate:
    __slots__ = (
        "verdict",
        "witness_degree",
        "tor1_rank",
        "tor_amplitude",
        "point",
        "criterion",
        "global_scope",
        "profile",
    )

    def __init__(
        self,
        verdict,
        witness_degree=None,
        tor1_rank=0,
        tor_amplitude=None,
        point=None,
        criterion="tor",
        global_scope=False,
        profile=None,
    ):
        self.verdict = verdict
        self.witness_degree = witness_degree
        self.tor1_rank = tor1_rank
        self.tor_amplitude = tor_amplitude
        self.point = point
        self.criterion = criterion
        self.global_scope = global_scope
        self.profile = profile

    @property
    def is_perfect(self):
        return self.verdict == "perfect_near_point"

    def __repr__(self):
        extra = ", global" if self.global_scope else ""
        amp = f", amplitude {self.tor_amplitude}" if self.tor_amplitude else ""
        return (
            f"PerfectionCertificate({self.verdict} at {self.point}"
            f", witness n={self.witness_degree}, tor1={self.tor1_rank}{amp}{extra})"
        )


def is_perfect_at(e, point, max_depth=None, criterion="tor"):
    """Perfection of a module or bounded free complex near a point.

    Walks candidate chop degrees n downward; the first with vanishing
    Tor_1 of the kernel (equivalently vanishing fiber homology one step
    below) certifies a strictly perfect chop near the point.  Over a
    plain polynomial ring a terminating (graded) resolution upgrades
    the verdict to a global one.  A point of another ring raises
    ValueError before anything is computed.
    """
    ring = e.ring
    point = point_of(ring, point)
    if max_depth is None:
        max_depth = default_depth(ring)
    resolution = free_resolution(e, max_depth + 3)
    floor_valid = resolution.homology_floor()
    n_start = presented(e).lo - 2

    tor_dims = resolution.fiber_dims(point)
    if criterion == "tor":
        dims = tor_dims
    elif criterion == "ext":
        # dim H^{-j}(Hom(V)) = dim H^{j}(V) for field coefficients
        dims = {-i: v for i, v in _ext_dims(resolution, point).items()}
    else:
        raise ValueError(f"unknown criterion {criterion!r}")

    nonzero = [i for i, v in tor_dims.items() if v]
    amplitude = (min(nonzero), max(nonzero)) if nonzero else None
    global_scope = resolution.is_bounded

    profile = []
    n = n_start
    steps = 0
    last_rank = None
    while steps < max_depth and n - 1 >= floor_valid:
        t1 = dims.get(n - 1, 0)
        profile.append((n, t1))
        if t1 == 0:
            return PerfectionCertificate(
                "perfect_near_point",
                witness_degree=n,
                tor1_rank=0,
                tor_amplitude=amplitude,
                point=point,
                criterion=criterion,
                global_scope=global_scope,
                profile=profile,
            )
        last_rank = t1
        n -= 1
        steps += 1
    if global_scope:
        # finite free resolution: perfect globally even if the walk ran out
        return PerfectionCertificate(
            "perfect_near_point",
            witness_degree=resolution.lo - 1,
            tor1_rank=0,
            tor_amplitude=amplitude,
            point=point,
            criterion=criterion,
            global_scope=True,
            profile=profile,
        )
    verdict = "not_perfect_within_depth" if profile else "undetermined"
    return PerfectionCertificate(
        verdict,
        witness_degree=n + 1,
        tor1_rank=last_rank if last_rank is not None else 0,
        tor_amplitude=amplitude,
        point=point,
        criterion=criterion,
        global_scope=False,
        profile=profile,
    )


# -- relative perfection ----------------------------------------------------


class RelativePerfectionReport:
    __slots__ = ("mode", "verdict", "per_point", "global_scope", "notes")

    def __init__(self, mode, verdict, per_point, global_scope=False, notes=()):
        self.mode = mode
        self.verdict = verdict
        self.per_point = per_point
        self.global_scope = global_scope
        self.notes = list(notes)

    @property
    def is_relatively_perfect(self):
        return self.verdict == "relatively_perfect"

    def witness_points(self):
        return [p for p, entry in self.per_point if entry["pass"] is False]

    def __repr__(self):
        scope = " (global)" if self.global_scope else ""
        return f"RelativePerfection({self.verdict}{scope}, mode={self.mode})"


def _fiber_point(f, base_point):
    """A rational point of the target lying over a base point.

    Variables that are literal images of base variables take the base
    coordinates; the rest are tried from a small search box.
    """
    target = f.target
    fixed = {}
    for i, im in enumerate(f.images):
        if len(im.terms) == 1:
            (t, coeff), = im.terms.items()
            mono = target.exponents(t)
            if coeff == target.field.one and sum(mono) == 1:
                j = mono.index(1)
                fixed[j] = base_point.coords[i]
    free_idx = [j for j in range(target.nvars) if j not in fixed]
    candidates = [0, 1, -1, 2]
    field = target.field

    def attempt(values):
        coords = [None] * target.nvars
        for j, v in fixed.items():
            coords[j] = v
        for j, v in zip(free_idx, values):
            coords[j] = field.from_int(v)
        try:
            pt = RationalPoint(target, tuple(coords))
        except ValueError:
            return None
        if f.apply_point(pt) != base_point:
            return None
        return pt

    if not free_idx:
        return attempt(())
    if len(free_idx) <= 3:
        for values in product(candidates, repeat=len(free_idx)):
            pt = attempt(values)
            if pt is not None:
                return pt
        return None
    return attempt([0] * len(free_idx))


def _perfect_at_points(mode, e, points, max_depth):
    """Absolute perfection of e at each base point.  Global scope needs
    every certificate global, which is_perfect_at only grants a perfect
    verdict."""
    per_point = []
    for y in points:
        cert = is_perfect_at(e, y, max_depth)
        per_point.append((y, {"pass": cert.is_perfect, "certificate": cert}))
    ok = all(entry["pass"] for _, entry in per_point)
    return RelativePerfectionReport(
        mode,
        "relatively_perfect" if ok else "not_relatively_perfect_within_depth",
        per_point,
        global_scope=all(entry["certificate"].global_scope for _, entry in per_point),
    )


def is_relatively_perfect(e, f, points, mode="auto", max_depth=None):
    """Relative perfection of E over the base of the ring map f.

    finite mode (complete for module-finite maps): restrict scalars to
    the base and certify absolute perfection there.  pointwise mode
    (evidence for general affine maps): for each base point, form the
    derived fiber E (x)^L f^*(resolution of kappa(y)), and require each
    of its homology modules to be perfect near a fiber point; an
    unbounded Tor tower of a homology module is reported as the
    witness.  The identity map delegates to is_perfect_at.
    """
    if max_depth is None:
        max_depth = default_depth(f.target)
    if f.is_identity():
        return _perfect_at_points("identity", e, points, max_depth)
    if mode == "auto":
        mode = "finite" if f.is_module_finite() else "pointwise"
    if mode == "finite":
        if not f.is_module_finite():
            raise ValueError(
                "finite mode requested but the target is not module-finite over the source"
            )
        return _perfect_at_points("finite", pushforward_affine(f, e), points, max_depth)
    if mode != "pointwise":
        raise ValueError(f"unknown mode {mode!r}")

    per_point = []
    ok = True
    notes = [
        "pointwise mode is evidence, not proof: boundedness is tested against "
        "residue fields of the supplied points only, and homology of the "
        "derived fiber is required to be perfect near a fiber point"
    ]
    for y in points:
        res_y = free_resolution(ModulePresentation.residue_field(f.source, y), max_depth + 2)
        pulled = f.apply_complex(res_y)
        fiber = module_tensor_complex(e, pulled)
        homologies = {
            i: homology(fiber, i) for i in range(fiber.homology_floor(), fiber.hi + 1)
        }
        x = _fiber_point(f, y)
        entry = {"pass": True, "homology": {}, "fiber_point": x}
        if x is None:
            entry["pass"] = None
            entry["note"] = "no rational fiber point found; supply one explicitly"
            per_point.append((y, entry))
            continue
        for i, h in sorted(homologies.items()):
            if h.is_zero():
                continue
            h = h.reduced()  # the certificate resolves the relations it is given
            cert = is_perfect_at(h, x, max_depth)
            tower = tor_profile(h, x, max_depth)
            entry["homology"][i] = {"certificate": cert, "tor_tower": tower}
            if not cert.is_perfect:
                entry["pass"] = False
        if entry["pass"] is False:
            ok = False
        per_point.append((y, entry))
    return RelativePerfectionReport(
        "pointwise",
        "relatively_perfect_evidence" if ok else "not_relatively_perfect_within_depth",
        per_point,
        notes=notes,
    )
