"""Families over affine bases: pushforwards, fibers and scans.

Affine pushforward is restriction of scalars through a module-finite
presentation.  Projective pushforward works over the ambient ring
T = A[x_0..x_m] (fiber variables carry weight 1, base variables weight
0): the input is rewritten as a complex of presented T-modules,
replaced by free T-modules, and the global sections complex is the
degree-zero strand of the cone over the dual-Koszul stage map.  For a
free T-complex the stage homology is concentrated in the top spot, so
the stage index used is the exact bound computed from the generator
degrees, not a heuristic.  The stage report keeps a `stages_agree`
field, always None, so that its printed form stays the same.
"""

from __future__ import annotations

import random
from itertools import combinations

from .complexes import (
    FreeComplex,
    ZERO_BELOW,
    cech_cone,
    koszul_dual_stage,
    koszul_resolution_of_point,
    minimize,
    tensor,
)
from .maps import RingMap
from .modules import ModulePresentation
from .resolutions import (
    FPComplex,
    free_replacement,
    free_resolution,
)
from .rings import (
    Mat,
    PolyRing,
    Polynomial,
    RationalPoint,
    embed_poly,
    monomials_of_degree,
)


# -- derived pullback -------------------------------------------------------


def derived_pullback(f, e, depth=6):
    """Lf* of a module or complex: resolve over the source, apply the
    map entrywise; d o d = 0 is re-verified in the target."""
    resolution = free_resolution(e, depth + 2)
    return f.apply_complex(resolution)


# -- affine pushforward -----------------------------------------------------


def restrict_scalars(f, e):
    """A free complex (or module) over the target as an FPComplex over
    the source, through the module-finite basis."""
    basis, presentation = f.source_module_presentation()
    nb = len(basis)
    source = f.source
    if isinstance(e, ModulePresentation):
        e = _module_as_free_complex_input(e)
    terms = {}
    maps = {}
    for i, r in e.ranks.items():
        # rank 1 shares the presentation, and the Gröbner basis it caches
        terms[i] = presentation if r == 1 else ModulePresentation(
            source, r * nb, Mat.identity(source, r).kron(presentation.relations)
        )
    basis_index = {mono: j for j, mono in enumerate(basis)}
    for i, m in e.diffs.items():
        entries = []
        for s, c, entry in m.entries():
            for j, mono in enumerate(basis):
                image = entry * e.ring.monomial(mono)
                for mono2, coeff in f.rewrite_to_source(image).items():
                    entries.append((s * nb + basis_index[mono2], c * nb + j, coeff))
        maps[i] = Mat.from_entries(source, e.rank(i + 1) * nb, e.rank(i) * nb, entries)
    return FPComplex(source, terms, maps, check=False)


def _module_as_free_complex_input(module):
    """Module over the target: use its presentation as a 2-term complex."""
    ring = module.ring
    if module.relations.ncols == 0:
        return FreeComplex.single(ring, module.ambient_rank, at=0)
    return FreeComplex(
        ring,
        {-1: module.relations.ncols, 0: module.ambient_rank},
        {-1: module.relations},
    )


def pushforward_affine(f, e, depth=1):
    """Direct image along a module-finite map: restriction of scalars,
    then a free replacement over the source.  depth controls how far
    below the window the replacement is materialized."""
    if f.is_identity():
        return free_resolution(e, 8)
    if not f.is_module_finite():
        raise ValueError(
            "affine pushforward with a presented output needs a module-finite map"
        )
    fpc = restrict_scalars(f, e)
    floor = (fpc.lo if fpc.terms else 0) - depth
    return free_replacement(fpc, floor)


# -- projective families ----------------------------------------------------


class ProjectiveFamily:
    """Proj of a graded quotient of A[x_0..x_m] over the affine base A.

    The ambient ring T carries weight 0 on base variables and weight 1
    on fiber variables; relation generators must be fiber-homogeneous
    of positive degree.
    """

    def __init__(self, base, fiber_variables, relations=(), name="X"):
        self.base = base
        self.name = name
        self.fiber_variables = tuple(fiber_variables)
        weights = (0,) * base.nvars + (1,) * len(self.fiber_variables)
        variables = base.variables + self.fiber_variables
        plain = PolyRing(base.field, variables, base.order, (), weights)
        lifted_quotient = [embed_poly(q, plain, 0) for q in base.quotient_gb]
        self.ambient = PolyRing(
            base.field, variables, base.order, lifted_quotient, weights
        )
        self.relations = tuple(
            self.ambient.parse(r) if isinstance(r, str) else _coerce_into(r, self.ambient)
            for r in relations
        )
        for r in self.relations:
            d = r.homogeneous_degree()
            if d is None or d < 1:
                raise ValueError(
                    "relation generators must be fiber-homogeneous of positive degree"
                )
        self.total = PolyRing(
            base.field,
            variables,
            base.order,
            list(lifted_quotient) + list(self.relations),
            weights,
        )
        self.structure_map = RingMap(
            base, self.total, [self.total.var(i) for i in range(base.nvars)]
        )

    @property
    def fiber_count(self):
        return len(self.fiber_variables)

    def twist(self, d, at=0):
        """The rank-1 free module with a generator of degree -d (O(d))."""
        return FreeComplex.single(self.total, 1, at=at, degrees=(-d,))

    def fiber_vars_in_ambient(self):
        return [self.ambient.var(self.base.nvars + i) for i in range(self.fiber_count)]

    def fiber_family_at(self, point):
        """The fiber over a base point as a family over kappa(point)."""
        field = self.base.field
        kappa = PolyRing(field, (), self.base.order)
        fiber_ring_plain = PolyRing(field, self.fiber_variables, self.base.order)
        images = [fiber_ring_plain.const(c) for c in point.coords] + [
            fiber_ring_plain.var(i) for i in range(self.fiber_count)
        ]
        rels = []
        for r in self.relations:
            img = r.substitute(images, target=fiber_ring_plain)
            if not img.is_zero:
                rels.append(img)
        fam = ProjectiveFamily(kappa, self.fiber_variables, rels, name=f"{self.name}|{point}")
        restriction = RingMap(self.total, fam.total, images_into(fam.total, point, self))
        return fam, restriction

    def __repr__(self):
        rels = ", ".join(str(r) for r in self.relations)
        return f"ProjectiveFamily({self.name}: Proj {self.base}[{','.join(self.fiber_variables)}]/({rels}))"


def images_into(total_target, point, fam):
    """Variable images for restricting the total ring to a fiber."""
    imgs = [total_target.const(c) for c in point.coords]
    imgs += [total_target.var(i) for i in range(fam.fiber_count)]
    return imgs


def _coerce_into(p, ring):
    return ring.reduce_terms(p.terms)


def blowup_family(base_field, n, name=None):
    """Blow-up of affine n-space at the origin: the Rees family
    Proj A[x_1..x_n] / (y_i x_j - y_j x_i) over A = k[y_1..y_n]."""
    base = PolyRing(base_field, [f"y{i+1}" for i in range(n)])
    fiber = [f"x{i+1}" for i in range(n)]
    rels = []
    for i, j in combinations(range(n), 2):
        rels.append(f"y{i+1}*x{j+1} - y{j+1}*x{i+1}")
    return ProjectiveFamily(base, fiber, rels, name=name or f"Bl0(A^{n})")


# -- projective pushforward -------------------------------------------------


def _as_ambient_fp(fam, e):
    """A free complex over the total ring as an FPComplex over T."""
    t = fam.ambient
    rels = Mat(t, [[Polynomial(t, r.terms) for r in fam.relations]])
    terms = {}
    maps = {}
    for i, r in e.ranks.items():
        degs = e.degrees[i] if e.degrees is not None else None
        if not rels.ncols:
            terms[i] = ModulePresentation.free(t, r, degs)
            continue
        terms[i] = ModulePresentation(t, r, Mat.identity(t, r).kron(rels), degs)
    for i, m in e.diffs.items():
        maps[i] = m.map(lambda x: Polynomial(t, x.terms), t)
    return FPComplex(t, terms, maps, check=False)


def relative_strand(complex_, base, fiber_count, d=0):
    """Degree-d strand in the fiber variables, as a complex over the base.

    Terms of the input are free over T = A[x]; the strand of a free
    T-module with generator degrees a_j has the x-monomials of degree
    d - a_j as an A-basis.
    """
    t_ring = complex_.ring
    nb = base.nvars
    bases = {}
    for i in range(complex_.lo, complex_.hi + 1):
        basis = []
        degs = complex_.degrees[i]
        for j in range(complex_.rank(i)):
            for mono in monomials_of_degree(fiber_count, d - degs[j]):
                basis.append((j, mono))
        bases[i] = basis
    ranks = {i: len(b) for i, b in bases.items() if b}
    diffs = {}
    for i in sorted(bases):
        src = bases.get(i, [])
        tgt = bases.get(i + 1, [])
        if not src or not tgt:
            continue
        tgt_index = {key: idx for idx, key in enumerate(tgt)}
        m = complex_.diff(i)
        entries = []
        for col, (j, mono) in enumerate(src):
            for r, entry in m.column_entries(j):
                acc = {}
                for em, ec in entry.terms.items():
                    x_part = tuple(em[nb + a] + mono[a] for a in range(fiber_count))
                    y_part = em[:nb]
                    row = tgt_index.get((r, x_part))
                    if row is None:
                        continue
                    acc.setdefault(row, {})
                    acc[row][y_part] = base.field.add(
                        acc[row].get(y_part, base.field.zero), ec
                    )
                for row, terms in acc.items():
                    entries.append((row, col, base.reduce_terms(terms)))
        diffs[i] = Mat.from_entries(base, len(tgt), len(src), entries)
    return FreeComplex(base, ranks, diffs, None, complex_.tail)


def pushforward_projective(fam, e, minimal=True):
    """Derived direct image to the base, with a stage report.

    Returns (complex over the base, report).  The report records the
    stage used, which is the exact bound for free ambient complexes,
    the floor of the free replacement and whether the result is
    bounded.
    """
    if not e.ranks:
        return FreeComplex.zero_complex(fam.base), {
            "stage_used": 0,
            "exact_bound": True,
            "stages_agree": None,
            "floor": -fam.fiber_count - 2,
            "bounded": True,
        }
    if e.degrees is None:
        raise ValueError("projective pushforward needs a graded complex")
    t = fam.ambient
    fpc = _as_ambient_fp(fam, e)
    floor = fpc.lo - fam.fiber_count - 2
    lifted = free_replacement(fpc, floor)
    m = fam.fiber_count - 1
    max_gen_degree = 0
    for i in lifted.ranks:
        for a in lifted.degrees[i]:
            max_gen_degree = max(max_gen_degree, a)
    s_exact = max(1, max_gen_degree - m)
    stage = koszul_dual_stage(t, fam.fiber_vars_in_ambient(), s_exact)
    out = relative_strand(tensor(cech_cone(stage), lifted), fam.base, fam.fiber_count)
    result = minimize(out) if minimal else out
    report = {
        "stage_used": s_exact,
        "exact_bound": True,
        "stages_agree": None,
        "floor": floor,
        "bounded": result.tail == ZERO_BELOW,
    }
    return result, report


# -- fibers ------------------------------------------------------------------


class FiberData:
    """A derived fiber with its comparison data."""

    __slots__ = ("point", "complex", "classical", "kind")

    def __init__(self, point, complex_, classical=None, kind="derived"):
        self.point = point
        self.complex = complex_
        self.classical = classical
        self.kind = kind

    def __repr__(self):
        return f"FiberData({self.kind} at {self.point}: {self.complex})"


def _regrade_zero(complex_):
    degrees = {i: (0,) * r for i, r in complex_.ranks.items()}
    return FreeComplex(
        complex_.ring, dict(complex_.ranks), dict(complex_.diffs), degrees, complex_.tail
    )


def nice_fiber(f_or_fam, e, point, depth=6):
    """E (x)^L (pullback of the resolved residue field of the base point).

    The corrected fiber: its hypercohomology is the fiber of the
    pushforward.  Returns FiberData with the complex over the total
    (or target) ring.
    """
    if isinstance(f_or_fam, ProjectiveFamily):
        fam = f_or_fam
        base, total, f = fam.base, fam.total, fam.structure_map
    else:
        f = f_or_fam
        base, total = f.source, f.target
    if base.is_quotient:
        res = free_resolution(ModulePresentation.residue_field(base, point), depth + 2)
    else:
        res = koszul_resolution_of_point(base, point)
    pulled = f.apply_complex(res, keep_degrees=False)
    if isinstance(f_or_fam, ProjectiveFamily):
        pulled = _regrade_zero(pulled)
    e_free = free_resolution(e, depth + 2)
    fiber = tensor(e_free, pulled)
    return FiberData(point, fiber, kind="derived")


def classical_fiber(f_or_fam, e, point, depth=6):
    """Termwise restriction of (a free model of) E to the fiber ring."""
    e_free = free_resolution(e, depth + 2)
    if isinstance(f_or_fam, ProjectiveFamily):
        fam = f_or_fam
        _fiber_fam, restriction = fam.fiber_family_at(point)
        return restriction.apply_complex(e_free, keep_degrees=True)
    f = f_or_fam
    target = f.target
    cut = [
        Polynomial(target.ambient, f.images[i].terms) - target.ambient.const(point.coords[i])
        for i in range(f.source.nvars)
    ]
    fiber_ring = target.quotient_by(cut)
    restriction = RingMap(target, fiber_ring, fiber_ring.gens())
    return restriction.apply_complex(e_free, keep_degrees=False)


# -- Euler characteristics and scans ----------------------------------------


def push(f_or_fam, e):
    """Uniform pushforward: identity / module-finite / projective."""
    if isinstance(f_or_fam, ProjectiveFamily):
        return pushforward_projective(f_or_fam, e)
    return pushforward_affine(f_or_fam, e), {"mode": "affine"}


def chi(f_or_fam, e, point, pushed=None):
    """Euler characteristic of the derived fiber at a base point,
    computed through the pushforward complex."""
    if pushed is None:
        pushed, _ = push(f_or_fam, e)
    return pushed.fiber_euler_characteristic(point)


def chi_direct(fam, e, point, depth=6):
    """chi computed the other way: push the derived fiber itself and
    measure its homology modules (already vector spaces over the
    residue field of the point)."""
    fiber = nice_fiber(fam, e, point, depth)
    if isinstance(fam, ProjectiveFamily):
        pushed, _ = pushforward_projective(fam, fiber.complex)
    else:
        pushed = pushforward_affine(fam, fiber.complex)
    total = 0
    for i in range(pushed.homology_floor(), pushed.hi + 1):
        h = pushed.homology(i)
        if h.ambient_rank:
            total += (-1 if i % 2 else 1) * h.fiber_dim(point)
    return total


def classical_chi(fam, e, point, depth=6):
    """Euler characteristic of the classical fiber (projective case:
    pushforward of the restricted complex over the residue field)."""
    if isinstance(fam, ProjectiveFamily):
        fiber_fam, restriction = fam.fiber_family_at(point)
        restricted = restriction.apply_complex(free_resolution(e, depth + 2), True)
        pushed, _ = pushforward_projective(fiber_fam, restricted)
        empty = RationalPoint(fiber_fam.base, ())
        return pushed.fiber_euler_characteristic(empty)
    raise ValueError("classical chi is only defined here for projective families")


def hp_scan(f_or_fam, e, p, points, seed=0, pushed=None):
    """Table point -> h^p of the pushforward fiber, with an upper
    semicontinuity audit against two random large-height probes."""
    if pushed is None:
        pushed, _ = push(f_or_fam, e)
    base = pushed.ring
    values = [(y, pushed.fiber_dims(y, lo=p, hi=p).get(p, 0)) for y in points]
    rng = random.Random(seed)
    probes = []
    for _ in range(2):
        coords = tuple(
            base.field.parse(f"{rng.randint(10**4, 10**6)}/{rng.randint(1, 97)}")
            if base.field.char == 0
            else base.field.random(rng)
            for _ in range(base.nvars)
        )
        try:
            probes.append(RationalPoint(base, coords))
        except ValueError:
            continue
    generic_values = [pushed.fiber_dims(q, lo=p, hi=p).get(p, 0) for q in probes]
    generic = min(generic_values) if generic_values else None
    audit_ok = bool(generic_values) and len(set(generic_values)) == 1
    if audit_ok:
        audit_ok = all(v >= generic for _, v in values)
    return {
        "p": p,
        "values": values,
        "generic_value": generic,
        "generic_probes_agree": len(set(generic_values)) == 1 if generic_values else False,
        "audit_pass": audit_ok,
    }


def grauert_check(f_or_fam, e, p, points, reduced=True, pushed=None):
    """Constancy of h^p forces local freeness and base change.

    Requires the base to be reduced (a caller assertion, surfaced in
    the report, not computed).  On constant sampled values the check
    verifies constant ranks of the two neighbouring differentials and
    that H^p of the pushforward has matching fiber dimensions.
    """
    if pushed is None:
        pushed, _ = push(f_or_fam, e)
    in_window = p >= pushed.homology_floor()
    values = {}
    rank_p = {}
    rank_prev = {}
    for y in points:
        ranks = pushed.fiber_ranks(y, p - 1, p)
        values[y] = pushed.rank(p) - ranks[p] - ranks[p - 1] if in_window else 0
        rank_p[y], rank_prev[y] = ranks[p], ranks[p - 1]
    vals = set(values.values())
    if len(vals) > 1:
        breakers = sorted(
            (y for y in values if values[y] != min(vals)), key=lambda q: str(q)
        )
        return {
            "constant": False,
            "values": values,
            "witnesses": breakers,
            "reduced_assumed": reduced,
        }
    hp = pushed.homology(p)
    base_change = {y: hp.fiber_dim(y) for y in points}
    iso = all(base_change[y] == values[y] for y in points)
    return {
        "constant": True,
        "value": vals.pop() if vals else 0,
        "rank_dp_constant": len(set(rank_p.values())) <= 1,
        "rank_dprev_constant": len(set(rank_prev.values())) <= 1,
        "locally_free_witness": hp,
        "base_change_iso_dims": base_change,
        "base_change_pass": iso,
        "reduced_assumed": reduced,
    }


# -- tor independence --------------------------------------------------------


def pushout_ring(f, g):
    """B (x)_A A' for maps f: A -> B, g: A -> A' (presented target)."""
    a = f.source
    if g.source != a:
        raise ValueError("the two maps must share their source")
    b, a2 = f.target, g.target
    b_vars = b.variables
    a2_vars = tuple(v if v not in b_vars else f"{v}_r" for v in a2.variables)
    variables = b_vars + a2_vars
    field = a.field
    plain = PolyRing(field, variables, a.order)
    nb = len(b_vars)
    gens = [embed_poly(q, plain, 0) for q in b.quotient_gb]
    gens += [embed_poly(q, plain, nb) for q in a2.quotient_gb]
    for i in range(a.nvars):
        gens.append(embed_poly(f.images[i], plain, 0) - embed_poly(g.images[i], plain, nb))
    c = PolyRing(field, variables, a.order, gens)
    to_c_from_b = RingMap(b, c, [c.var(i) for i in range(len(b_vars))])
    to_c_from_a2 = RingMap(a2, c, [c.var(len(b_vars) + i) for i in range(len(a2_vars))])
    return c, to_c_from_b, to_c_from_a2


def tor_independent(f, g, points, depth=4, test_complex=None):
    """Transversality of the square on sampled compatible point pairs.

    points: list of (point of B, point of A') pairs lying over a common
    base point.  Higher Tor of the two legs is computed by resolving
    the A'-side over the base (module-finite leg required) and base
    changing to B; vanishing is tested through fiber dimensions of the
    homology presentations.  On success and with a test complex over B,
    the base-change comparison of the two pushforwards is verified on
    fiber dimensions.
    """
    a = f.source
    if not g.is_module_finite():
        raise ValueError(
            "tor_independent needs the base-change leg to be module-finite "
            "(for instance a quotient map)"
        )
    pushed = pushforward_affine(g, FreeComplex.single(g.target, 1, at=0), depth=depth + 2)
    pulled = f.apply_complex(pushed)
    homologies = {}
    for i in range(max(pulled.homology_floor(), -depth), 0):
        homologies[i] = pulled.homology(i)
    verdicts = []
    all_ok = True
    for x_pt, s_pt in points:
        if f.apply_point(x_pt) != g.apply_point(s_pt):
            raise ValueError(f"points {x_pt}, {s_pt} do not lie over a common base point")
        bad = {}
        for i, h in homologies.items():
            if h.ambient_rank == 0:
                continue
            d = h.fiber_dim(x_pt)
            if d:
                bad[-i] = d
        ok = not bad
        all_ok = all_ok and ok
        verdicts.append(
            {"point": (x_pt, s_pt), "transverse": ok, "nonzero_tor": bad}
        )
    base_change = None
    if all_ok and test_complex is not None and f.is_module_finite():
        c, b_to_c, f_prime = pushout_ring(f, g)
        lifted = b_to_c.apply_complex(free_resolution(test_complex, depth + 2))
        left = pushforward_affine(f_prime, lifted)
        right = g.apply_complex(pushforward_affine(f, test_complex))
        agree = True
        for _x, s_pt in points:
            if left.fiber_dims(s_pt) != right.fiber_dims(s_pt):
                agree = False
        base_change = {"verified": agree}
    return {
        "transverse": all_ok,
        "per_point": verdicts,
        "base_change": base_change,
        "depth": depth,
    }
