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

from .complexes import (
    ComplexMap,
    FreeComplex,
    ZERO_BELOW,
    cech_cone,
    dual,
    hom_complex,
    koszul,
    koszul_dual_stage,
    koszul_dual_transition,
    koszul_resolution_of_point,
    tensor,
    tensor_map,
    unit_complex,
)
from .rings import Mat, MatrixGB
# Unused here; perfbench/test_perfbench.py checks that tracing rebinds this alias.
from .linalg import rank as field_rank  # noqa: F401
from .modules import ModulePresentation
from .resolutions import (
    FPComplex,
    fp_homology,
    free_resolution,
    homology_data,
    module_tensor_complex,
)
from .rings import RationalPoint


def default_depth(ring):
    """dim of the ambient polynomial ring plus two."""
    return ring.nvars + 2


# -- Tor and Ext towers ---------------------------------------------------


def tor_profile(module, point, depth, method="resolve"):
    """[dim Tor_i(M, kappa(point)) for i in 0..depth].

    method 'resolve' resolves the module and evaluates; 'koszul'
    tensors the module presentation with the Koszul resolution of the
    point (plain rings only) and measures the homology presentations.
    'both' computes the two and insists they agree.
    """
    if method == "both":
        a = tor_profile(module, point, depth, "resolve")
        b = tor_profile(module, point, depth, "koszul")
        if a != b:
            raise AssertionError(f"tor profile mismatch: {a} vs {b}")
        return a
    ring = module.ring
    if method == "koszul":
        if ring.is_quotient:
            raise ValueError(
                "the Koszul route needs the sequence x-a to resolve the point; "
                "use 'resolve' over quotient rings"
            )
        k = koszul_resolution_of_point(ring, point)
        if isinstance(module, ModulePresentation):
            fpc = module_tensor_complex(module, k)
        else:
            fpc = FPComplex.from_free(tensor(module, k))
        out = []
        for i in range(depth + 1):
            h = fp_homology(fpc, -i)
            out.append(h.fiber_dim(point) if h.ambient_rank else 0)
        return out
    resolution = free_resolution(module, depth + 3)
    dims = resolution.fiber_dims(point, lo=-depth, hi=0)
    return [dims.get(-i, 0) for i in range(depth + 1)]


def ext_to_point(module, point, depth):
    """[dim Ext^i(E, kappa(point)) for i in 0..depth].

    Dual route: Hom of the resolution into the ring, evaluated at the
    point; the validity window is handled directly since Hom flips the
    truncation to the top.
    """
    resolution = free_resolution(module, depth + 3)
    d = hom_complex(resolution, unit_complex(resolution.ring))
    ranks = d.fiber_ranks(point, -1, depth)
    return [d.rank(i) - ranks[i] - ranks[i - 1] for i in range(depth + 1)]


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


def _with_coefficients(n, cplx):
    """cplx with coefficients in n: M (x) cplx for a presented module M,
    the total tensor complex for a free complex."""
    if isinstance(n, ModulePresentation):
        return module_tensor_complex(n, cplx)
    return tensor(cplx, n)


def _homology(carrier, indices):
    """{i: homology_data(carrier, i)} for the indices where it is determined."""
    datas = {}
    for i in indices:
        try:
            datas[i] = homology_data(carrier, i)
        except ValueError:
            continue
    return datas


def _presentations(datas):
    return {i: d[4] for i, d in datas.items()}


def _default_sample_points(ring):
    pts = []
    for coords in [(0,) * ring.nvars, (1,) * ring.nvars, tuple(range(1, ring.nvars + 1))]:
        try:
            pts.append(RationalPoint(ring, coords))
        except ValueError:
            continue
    return pts


def _transition_matrix(ring, transition, n, i):
    """Ambient matrix at complex degree i of the transition with
    coefficients in n."""
    if isinstance(n, ModulePresentation):
        return transition.component(i).kron(Mat.identity(ring, n.ambient_rank))
    return tensor_map(transition, ComplexMap.identity(n)).component(i)


def _in_span(span, column, ring):
    if span is None or span.ncols == 0:
        probe = Mat.zero(ring, len(column), 0)
        return MatrixGB(probe).contains_column(column)
    return MatrixGB(span).contains_column(column)


def _transition_status(ring, data_s, data_s1, m_i):
    """'iso', 'vanishing' or 'other' for the induced map on homology."""
    g, k_s, d_s, r_s, h_s = data_s
    g1, k_s1, d_s1, r_s1, h_s1 = data_s1
    zero_s = h_s.ambient_rank == 0 or h_s.is_zero()
    zero_s1 = h_s1.ambient_rank == 0 or h_s1.is_zero()
    if zero_s and zero_s1:
        return "iso"
    if zero_s1:
        return "vanishing"  # everything dies into a zero target
    if zero_s:
        return "other"  # new classes appear downstream
    span1 = d_s1
    if r_s1 is not None and r_s1.ncols:
        span1 = span1.hstack(r_s1) if span1.ncols else r_s1
    mapped = m_i * k_s if k_s.ncols else Mat.zero(ring, g1, 0)
    vanishes = all(
        _in_span(span1, mapped.column(j), ring) for j in range(mapped.ncols)
    )
    if vanishes:
        return "vanishing"
    big = mapped
    if span1.ncols:
        big = big.hstack(span1)
    surj = all(
        MatrixGB(big).contains_column(k_s1.column(j)) for j in range(k_s1.ncols)
    )
    if not surj:
        return "other"
    # injectivity: combinations of mapped generators landing in the
    # boundary span must already be boundaries upstairs
    from .rings import syzygy_matrix as _syz

    rel = _syz(big).select_rows(range(mapped.ncols))
    span0 = d_s
    if r_s is not None and r_s.ncols:
        span0 = span0.hstack(r_s) if span0.ncols else r_s
    for j in range(rel.ncols):
        combo = k_s * rel.select_columns([j])
        if not _in_span(span0, combo.column(0), ring):
            return "other"
    return "iso"


def _distinct_variables(elements):
    """Whether every element is a scalar times a variable, no two alike."""
    seen = set()
    for t in elements:
        if len(t.terms) != 1:
            return False
        (mono, _c), = t.terms.items()
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
    elements = [ring.parse(t) if isinstance(t, str) else t for t in elements]
    if not isinstance(n, (ModulePresentation, FreeComplex)):
        raise TypeError("n must be a ModulePresentation or FreeComplex")
    indices = range(len(elements) + 1)
    report = LocalCohomologyReport([str(t) for t in elements], max_stage)

    def stage_at(s):
        stage = koszul_dual_stage(ring, elements, s)
        return stage, _homology(_with_coefficients(n, stage), indices)

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
                i: tuple(d[4].graded_dim(k) for k in degree_window)
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
        for s in range(1, max_stage + 1):
            if history:
                transitions.append(koszul_dual_transition(ring, elements, s - 1))
            history.append(stage_at(s))
            verdicts = _tower_verdicts(
                ring, [d for _stage, d in history], transitions, n, indices
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
    cech = _homology(_with_coefficients(n, cech_cone(stage)), indices)
    report.audit = _triangle_audit(
        _presentations(datas), _presentations(cech), n, indices, degree_window,
        _default_sample_points(ring),
    )
    return report


def _tower_verdicts(ring, history, transitions, n, indices):
    """Per-index stabilization by transition maps, or None if undecided.

    history[k] is the homology data of stage k + 1 and transitions[k]
    its map to the next stage.  An index settles either through two
    consecutive isomorphisms on homology (value reached) or through two
    consecutive vanishing two-step composites (evidence the colimit is
    zero: nilpotent action like x on R/(x^2) kills every class after
    finitely many steps even though no single step is the zero map).
    """
    if len(history) < 3:
        return None
    verdicts = {}
    for i in indices:
        found = None
        for pos in range(len(history) - 2):
            d0, d1, d2 = history[pos : pos + 3]
            if any(i not in d for d in (d0, d1, d2)):
                continue
            m_a = _transition_matrix(ring, transitions[pos], n, i)
            m_b = _transition_matrix(ring, transitions[pos + 1], n, i)
            st_a = _transition_status(ring, d0[i], d1[i], m_a)
            st_b = _transition_status(ring, d1[i], d2[i], m_b)
            if st_a == "iso" and st_b == "iso":
                found = (pos + 1, d0[i][4])
                break
            # vanishing of an L-step composite at two consecutive base
            # points: catches nilpotent transitions of any order the
            # stage budget can see
            for length in range(2, len(history) - pos - 1):
                chain = history[pos : pos + length + 2]
                if any(i not in d for d in chain):
                    continue
                mats = [
                    _transition_matrix(ring, t, n, i)
                    for t in transitions[pos : pos + length + 1]
                ]
                comp_a = mats[length - 1]
                for m in reversed(mats[: length - 1]):
                    comp_a = comp_a * m
                comp_b = mats[length]
                for m in reversed(mats[1:length]):
                    comp_b = comp_b * m
                st_comp_a = _transition_status(ring, chain[0][i], chain[length][i], comp_a)
                st_comp_b = _transition_status(
                    ring, chain[1][i], chain[length + 1][i], comp_b
                )
                if st_comp_a == "vanishing" and st_comp_b == "vanishing":
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
    coeff = _presentations(_homology(_with_coefficients(n, unit_complex(n.ring)), indices))
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
    elements = [ring.parse(t) if isinstance(t, str) else t for t in elements]
    hom = _with_coefficients(n, dual(koszul(ring, elements)))
    if not homology_data(hom, index)[4].is_zero():
        return {
            "hypothesis_holds": False,
            "hom_cohomology_nonzero": True,
            "verified_stages": [],
            "pass": True,
            "note": "Hom-complex cohomology is nonzero; the vanishing transfer does not apply",
        }
    verified = []
    for s in range(1, max_stage + 1):
        stage = _with_coefficients(n, koszul_dual_stage(ring, elements, s))
        verified.append({"stage": s, "vanishes": homology_data(stage, index)[4].is_zero()})
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


def _min_homology_degree(e):
    if isinstance(e, ModulePresentation):
        return 0
    return e.lo


def is_perfect_at(e, point, max_depth=None, criterion="tor"):
    """Perfection of a module or bounded free complex near a point.

    Walks candidate chop degrees n downward; the first with vanishing
    Tor_1 of the kernel (equivalently vanishing fiber homology one step
    below) certifies a strictly perfect chop near the point.  Over a
    plain polynomial ring a terminating (graded) resolution upgrades
    the verdict to a global one.
    """
    ring = e.ring
    if max_depth is None:
        max_depth = default_depth(ring)
    resolution = free_resolution(e, max_depth + 3)
    floor_valid = resolution.homology_floor()
    n_start = _min_homology_degree(e) - 2

    tor_dims = resolution.fiber_dims(point)
    if criterion == "tor":
        def probe(degree):
            return tor_dims.get(degree, 0)
    elif criterion == "ext":
        d = hom_complex(resolution, unit_complex(ring))
        ranks = d.fiber_ranks(point, d.lo, d.hi)
        def probe(degree):
            i = -degree  # dim H^{-j}(Hom(V)) = dim H^{j}(V) for field coefficients
            return d.rank(i) - ranks.get(i, 0) - ranks.get(i - 1, 0)
    else:
        raise ValueError(f"unknown criterion {criterion!r}")

    nonzero = [i for i, v in tor_dims.items() if v]
    amplitude = (min(nonzero), max(nonzero)) if nonzero else None
    global_scope = resolution.tail == ZERO_BELOW

    profile = []
    n = n_start
    steps = 0
    last_rank = None
    while steps < max_depth and n - 1 >= floor_valid:
        t1 = probe(n - 1)
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
        terms = im.terms
        if len(terms) == 1:
            (mono, coeff), = terms.items()
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
        from itertools import product

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
        from .geometry import pushforward_affine

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
        if isinstance(e, ModulePresentation):
            fiber = module_tensor_complex(e, pulled)
            homologies = {
                i: fp_homology(fiber, i)
                for i in range(pulled.homology_floor(), pulled.hi + 1)
            }
        else:
            tens = tensor(e, pulled)
            homologies = {}
            for i in range(tens.homology_floor(), tens.hi + 1):
                homologies[i] = tens.homology(i)
        x = _fiber_point(f, y)
        entry = {"pass": True, "homology": {}, "fiber_point": x}
        if x is None:
            entry["pass"] = None
            entry["note"] = "no rational fiber point found; supply one explicitly"
            per_point.append((y, entry))
            continue
        for i, h in sorted(homologies.items()):
            if h.ambient_rank == 0 or h.is_zero():
                continue
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
