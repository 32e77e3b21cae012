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
    cone,
    dual,
    hom_complex,
    koszul,
    koszul_dual_stage,
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
    ring = module.ring if isinstance(module, ModulePresentation) else module.ring
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


def _stage_objects(ring, elements, s):
    stage, transition = koszul_dual_stage(ring, elements, s)
    aug = ComplexMap(
        stage, unit_complex(ring), {0: Mat(ring, [[ring.one]], ncols=1)}
    )
    return stage, transition, cone(aug)


def _stage_data(ring, elements, s, n_module, n_complex, indices):
    """Homology data of stage s for the supports part and the Cech cone."""
    from .resolutions import homology_data

    stage, transition, cech = _stage_objects(ring, elements, s)
    out = {"transition": transition}
    for label, cplx in (("local", stage), ("cech", cech)):
        if n_module is not None:
            carrier = module_tensor_complex(n_module, cplx)
        else:
            carrier = tensor(cplx, n_complex)
        datas = {}
        for i in indices[label]:
            try:
                datas[i] = homology_data(carrier, i)
            except ValueError:
                continue
        out[label] = datas
    return out


def _summary(pres, degree_window, points):
    if degree_window is not None:
        return tuple(pres.graded_dim(d) for d in degree_window)
    marks = [pres.ambient_rank == 0 or pres.is_zero()]
    for p in points:
        marks.append(pres.fiber_dim(p))
    return tuple(marks)


def _default_sample_points(ring):
    pts = []
    for coords in [(0,) * ring.nvars, (1,) * ring.nvars, tuple(range(1, ring.nvars + 1))]:
        try:
            pts.append(RationalPoint(ring, coords))
        except ValueError:
            continue
    return pts


def _transition_matrix(ring, transition, n_module, n_complex, i):
    """Ambient matrix of the induced map at complex degree i."""
    if n_module is not None:
        amb = Mat.identity(ring, n_module.ambient_rank)
        return transition.component(i).kron(amb)
    return tensor_map(transition, ComplexMap.identity(n_complex)).component(i)


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


def _variable_indices(ring, elements):
    """Indices when every element is (a scalar times) a distinct variable."""
    idx = []
    for t in elements:
        if len(t.terms) != 1:
            return None
        (mono, _c), = t.terms.items()
        if sum(mono) != 1:
            return None
        i = mono.index(1)
        if i in idx:
            return None
        idx.append(i)
    return idx


def local_cohomology(ring, elements, n, max_stage=8, degree_window=None):
    """Local cohomology with supports in V(elements) via the stage tower.

    Graded coefficients with a degree window get a table {(i, d): dim};
    when the sequence consists of distinct variables over a plain ring
    and n is a free graded complex, the stage needed is an exact bound,
    otherwise two consecutive agreeing stages on the window are
    reported as evidence.  Without a window, stabilization is detected
    through the transition maps themselves: stages whose induced map on
    homology is an isomorphism (value reached) or zero (evidence that
    the colimit vanishes).  The long exact sequence of the supports
    triangle is audited by rank bookkeeping on the reported stage.
    """
    elements = [ring.parse(t) if isinstance(t, str) else t for t in elements]
    r = len(elements)
    n_module = n if isinstance(n, ModulePresentation) else None
    n_complex = n if isinstance(n, FreeComplex) else None
    if n_module is None and n_complex is None:
        raise TypeError("n must be a ModulePresentation or FreeComplex")
    sample_points = _default_sample_points(ring)
    report = LocalCohomologyReport([str(t) for t in elements], max_stage)
    idx = {"local": list(range(r + 1)), "cech": list(range(r + 1))}

    exact_bound = None
    if (
        degree_window is not None
        and n_complex is not None
        and n_complex.degrees is not None
        and not ring.is_quotient
        and _variable_indices(ring, elements) is not None
    ):
        max_gen = max(
            (a for degs in n_complex.degrees.values() for a in degs), default=0
        )
        exact_bound = max(1, max_gen - min(degree_window) - (r - 1))

    if exact_bound is not None and exact_bound > max_stage:
        report.stable = False
        report.required_stage = exact_bound
        report.criterion = "exact_bound"
        data = _stage_data(ring, elements, max_stage, n_module, n_complex, idx)
        report.presentations = {i: d[4] for i, d in data["local"].items()}
        report.audit = _triangle_audit(
            _presentations_only(data), n_module, n_complex, idx, degree_window,
            sample_points,
        )
        return report

    history = []
    top = exact_bound + 1 if exact_bound is not None else max_stage
    for s in range(1, top + 1):
        data = _stage_data(ring, elements, s, n_module, n_complex, idx)
        history.append((s, data))
        if degree_window is not None:
            if exact_bound is not None and s <= exact_bound:
                continue
            if len(history) >= 2:
                prev_summary = {
                    i: _summary(d[4], degree_window, sample_points)
                    for i, d in history[-2][1]["local"].items()
                }
                summary = {
                    i: _summary(d[4], degree_window, sample_points)
                    for i, d in data["local"].items()
                }
                if prev_summary == summary:
                    report.stable = True
                    report.stabilized_at = history[-2][0]
                    report.criterion = (
                        "exact_bound" if exact_bound is not None else "window_dims"
                    )
                    break
        else:
            verdicts = _tower_verdicts(ring, history, n_module, n_complex, idx)
            if verdicts is not None:
                report.stable = True
                report.stabilized_at = max(s for s, _v in verdicts.values())
                report.criterion = "transition_maps"
                report.presentations = {i: v for i, (_s, v) in verdicts.items()}
                break

    if degree_window is not None and exact_bound is not None and not report.stable:
        # the bound itself certifies the value at stage exact_bound
        report.stable = True
        report.stabilized_at = exact_bound
        report.criterion = "exact_bound"

    if report.stable and not report.presentations:
        stage_data = next(d for s, d in history if s == report.stabilized_at)
        report.presentations = {i: d[4] for i, d in stage_data["local"].items()}
    if not report.stable:
        report.presentations = {i: d[4] for i, d in history[-1][1]["local"].items()}

    if degree_window is not None:
        report.table = {
            (i, d): pres.graded_dim(d)
            for i, pres in report.presentations.items()
            for d in degree_window
        }
    audit_source = (
        next(d for s, d in history if s == report.stabilized_at)
        if report.stable
        else history[-1][1]
    )
    report.audit = _triangle_audit(
        _presentations_only(audit_source), n_module, n_complex, idx, degree_window,
        sample_points,
    )
    return report


def _presentations_only(stage_data):
    return {
        label: {i: d[4] for i, d in stage_data[label].items()}
        for label in ("local", "cech")
    }


def _tower_verdicts(ring, history, n_module, n_complex, idx):
    """Per-index stabilization by transition maps, or None if undecided.

    An index settles either through two consecutive isomorphisms on
    homology (value reached) or through two consecutive vanishing
    two-step composites (evidence the colimit is zero: nilpotent action
    like x on R/(x^2) kills every class after finitely many steps even
    though no single step is the zero map).
    """
    if len(history) < 3:
        return None
    verdicts = {}
    for i in idx["local"]:
        found = None
        for pos in range(len(history) - 2):
            s0, d0 = history[pos]
            _s1, d1 = history[pos + 1]
            _s2, d2 = history[pos + 2]
            if any(i not in d["local"] for d in (d0, d1, d2)):
                continue
            m_a = _transition_matrix(ring, d0["transition"], n_module, n_complex, i)
            m_b = _transition_matrix(ring, d1["transition"], n_module, n_complex, i)
            st_a = _transition_status(ring, d0["local"][i], d1["local"][i], m_a)
            st_b = _transition_status(ring, d1["local"][i], d2["local"][i], m_b)
            if st_a == "iso" and st_b == "iso":
                found = (s0, d0["local"][i][4])
                break
            # vanishing of an L-step composite at two consecutive base
            # points: catches nilpotent transitions of any order the
            # stage budget can see
            for length in range(2, len(history) - pos - 1):
                chain = history[pos : pos + length + 2]
                if any(i not in d["local"] for _s, d in chain):
                    continue
                mats = [
                    _transition_matrix(ring, d["transition"], n_module, n_complex, i)
                    for _s, d in chain[:-1]
                ]
                comp_a = mats[length - 1]
                for m in reversed(mats[: length - 1]):
                    comp_a = comp_a * m
                comp_b = mats[length]
                for m in reversed(mats[1:length]):
                    comp_b = comp_b * m
                st_comp_a = _transition_status(
                    ring, chain[0][1]["local"][i], chain[length][1]["local"][i], comp_a
                )
                st_comp_b = _transition_status(
                    ring, chain[1][1]["local"][i], chain[length + 1][1]["local"][i], comp_b
                )
                if st_comp_a == "vanishing" and st_comp_b == "vanishing":
                    found = (s0, ModulePresentation.zero(ring))
                    break
            if found is not None:
                break
        if found is None:
            return None
        verdicts[i] = found
    return verdicts


def _triangle_audit(data, n_module, n_complex, idx, degree_window, points):
    """Alternating sums over the supports triangle vanish degreewise."""
    lo = min(idx["cech"])
    hi = max(idx["cech"])
    ring = n_module.ring if n_module is not None else n_complex.ring

    def n_dims(weigher):
        if n_module is not None:
            per_degree = {0: weigher(n_module)}
        else:
            per_degree = {}
            for i in range(n_complex.homology_floor(), n_complex.hi + 1):
                per_degree[i] = weigher(n_complex.homology(i))
        return per_degree

    checks = []
    ok = True

    def run_one(weigher, tag):
        nonlocal ok
        nd = n_dims(weigher)
        total = 0
        for i in range(lo, hi + 1):
            h_loc = data["local"].get(i)
            h_cech = data["cech"].get(i)
            a = weigher(h_loc) if h_loc is not None else 0
            b = nd.get(i, 0)
            c = weigher(h_cech) if h_cech is not None else 0
            total += (-1 if i % 2 else 1) * (a - b + c)
        passed = total == 0
        if not passed:
            ok = False
        checks.append({"window": tag, "alternating_sum": total, "pass": passed})

    if degree_window is not None:
        for d in degree_window:
            run_one(lambda pres, d=d: pres.graded_dim(d), f"degree {d}")
    else:
        for p in points:
            run_one(lambda pres, p=p: pres.fiber_dim(p), f"point {p}")
    return {"pass": ok, "checks": checks}


def boundedness_transfer_check(ring, elements, n, index, max_stage=4):
    """Vanishing of Hom-complex cohomology forces tower vanishing.

    If H^index of Hom(K(t), N) vanishes, every computed stage of the
    supports tower must vanish in that index too; this is checked, not
    assumed.  If the hypothesis fails, the check reports that it does
    not apply.
    """
    elements = [ring.parse(t) if isinstance(t, str) else t for t in elements]
    k = koszul(ring, elements)
    kd = dual(k)
    if isinstance(n, ModulePresentation):
        hom_fpc = module_tensor_complex(n, kd)
        h = fp_homology(hom_fpc, index)
    else:
        h = tensor(kd, n).homology(index)
    if not h.is_zero():
        return {
            "hypothesis_holds": False,
            "hom_cohomology_nonzero": True,
            "verified_stages": [],
            "pass": True,
            "note": "Hom-complex cohomology is nonzero; the vanishing transfer does not apply",
        }
    verified = []
    all_zero = True
    for s in range(1, max_stage + 1):
        stage, _ = koszul_dual_stage(ring, elements, s)
        if isinstance(n, ModulePresentation):
            hs = fp_homology(module_tensor_complex(n, stage), index)
        else:
            hs = tensor(stage, n).homology(index)
        vanished = hs.is_zero()
        verified.append({"stage": s, "vanishes": vanished})
        if not vanished:
            all_zero = False
    return {
        "hypothesis_holds": True,
        "hom_cohomology_nonzero": False,
        "verified_stages": verified,
        "pass": all_zero,
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
