"""Families over affine bases: pushforwards, fibers and scans.

Affine pushforward is restriction of scalars through a module-finite
presentation.  Projective pushforward works over the ambient ring
T = A[x_0..x_m] (fiber variables carry weight 1, base variables weight
0): the input is rewritten as a complex of presented T-modules,
replaced by free T-modules, and the global sections complex is the
degree-zero strand of the cone over the dual-Koszul stage map.  For a
free T-complex the stage homology is concentrated in the top spot, so
the stage index used is the exact bound computed from the generator
degrees, not a heuristic.  Where that cone's part of the strand is
exact, the strand of the free replacement alone is taken instead
(`pushforward_projective`).  The stage report keeps a `stages_agree`
field, always None, so that its printed form stays the same.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb
from operator import add

from .complexes import (
    FreeComplex,
    cech_cone,
    check_total_rank,
    koszul_dual_stage,
    koszul_resolution_of_point,
    minimize,
    tensor,
)
from .derived import default_depth
from .maps import RingMap
from .modules import ModulePresentation
from .resolutions import (
    FPComplex,
    free_replacement,
    free_resolution,
    module_tensor_complex,
    presented,
)
from .rings import (
    Mat,
    PolyRing,
    RationalPoint,
    embed_poly,
    hilbert_numerator,
    hilbert_value,
    monomials_of_degree,
    point_of,
    recast,
)


# -- derived pullback -------------------------------------------------------


def derived_pullback(f, e, depth=6):
    """Lf* of a module or complex: resolve over the source, apply the
    map entrywise; d o d = 0 is re-verified in the target."""
    resolution = free_resolution(e, depth + 2)
    return f.apply_complex(resolution)


# -- affine pushforward -----------------------------------------------------


def restrict_scalars(f, e):
    """A module, free complex or FPComplex over the target as an
    FPComplex over the source, through the module-finite basis
    m_0..m_(nb-1).

    The input is read by `resolutions.presented`: a module is its
    one-term complex at degree 0, so its relations stay relations:
    its homology is the module whether or not they are injective.  An
    entry at (s, c) of a map or of a term's relations becomes the
    nb x nb block whose entry (k, j) is the coefficient of m_k in
    entry * m_j.  That block comes from the map's rewrite table
    (`RingMap.basis_products`): each term t of the entry contributes its
    coefficient times the row of the monomial t * m_j, with no product
    formed or reduced in the target.  The rows are exact for monomials
    outside the target's normal form, since the combined ring's ideal
    contains the target quotient.  A term of rank r is presented by r
    copies of the target's presentation beside its restricted
    relations.  Restriction is exact, so the floor is kept."""
    basis, presentation = f.source_module_presentation()
    nb = len(basis)
    source = f.source

    def blocks(m):
        entries = []
        for s, c, entry in m.entries():
            entries += [
                (s * nb + k, c * nb + j, a) for (k, j), a in f.basis_products(entry).items()
            ]
        return Mat.from_entries(source, m.nrows * nb, m.ncols * nb, entries)

    e = presented(e)
    terms = {}
    for i, t in e.terms.items():
        r, rels = t.ambient_rank, t.relations
        if r == 1 and not rels.ncols:
            # shares the presentation, and the Gröbner basis it caches
            terms[i] = presentation
            continue
        own = Mat.identity(source, r).kron(presentation.relations)
        terms[i] = ModulePresentation(source, r * nb, own.hstack(blocks(rels)))
    maps = {i: blocks(m) for i, m in e.maps.items()}
    return FPComplex(source, terms, maps, e.floor)


def _check_ring(e, ring):
    """Raise unless the module or complex e lives over ring."""
    if e.ring is not ring and e.ring != ring:
        raise ValueError(f"input is over {e.ring}, not over {ring}")


def pushforward_affine(f, e, depth=None):
    """Direct image along a module-finite map: restriction of scalars,
    then a free replacement over the source.  depth controls how far
    below the window the replacement is materialized; by default it is
    `derived.default_depth` of the source, so a finite resolution over
    a regular base ends by itself (floor None)."""
    _check_ring(e, f.target)
    if depth is None:
        depth = default_depth(f.source)
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
        if not self.fiber_variables:
            raise ValueError("a projective family needs at least one fiber variable")
        weights = (0,) * base.nvars + (1,) * len(self.fiber_variables)
        variables = base.variables + self.fiber_variables
        plain = PolyRing(base.field, variables, base.order, (), weights)
        lifted_quotient = [embed_poly(q, plain, 0) for q in base.quotient_gb]
        self.ambient = PolyRing(
            base.field, variables, base.order, lifted_quotient, weights
        )
        self.relations = tuple(
            self.ambient.parse(r) if isinstance(r, str) else recast(r, self.ambient)
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

    def twist(self, d):
        """The rank-1 free module with a generator of degree -d (O(d))."""
        return FreeComplex.single(self.total, 1, degrees=(-d,))

    def fiber_vars_in_ambient(self):
        return [self.ambient.var(self.base.nvars + i) for i in range(self.fiber_count)]

    def fiber_ring(self, point):
        """k(y)[x]/I(y), the homogeneous coordinate ring of the fiber X_y
        over a base point y: the relations with y substituted
        (Hartshorne III.9).  Relations that vanish at y are dropped; a
        point of another ring is refused (`rings.point_of`)."""
        point = point_of(self.base, point)
        plain = PolyRing(self.base.field, self.fiber_variables, self.base.order)
        images = [plain.const(c) for c in point.coords] + plain.gens()
        rels = [r.substitute(images, target=plain) for r in self.relations]
        return plain.quotient_by([r for r in rels if not r.is_zero])

    def __repr__(self):
        rels = ", ".join(str(r) for r in self.relations)
        return f"ProjectiveFamily({self.name}: Proj {self.base}[{','.join(self.fiber_variables)}]/({rels}))"


def blowup_family(base_field, n):
    """Blow-up of affine n-space at the origin: the Rees family
    Proj A[x_1..x_n] / (y_i x_j - y_j x_i) over A = k[y_1..y_n]."""
    base = PolyRing(base_field, [f"y{i+1}" for i in range(n)])
    fiber = [f"x{i+1}" for i in range(n)]
    rels = []
    for i, j in combinations(range(n), 2):
        rels.append(f"y{i+1}*x{j+1} - y{j+1}*x{i+1}")
    return ProjectiveFamily(base, fiber, rels, name=f"Bl0(A^{n})")


# -- projective pushforward -------------------------------------------------


def relative_strand(complex_, base, fiber_count):
    """Degree-0 strand in the fiber variables, as a complex over the base.

    Terms of the input are free over T = A[x]; the strand of a free
    T-module with generator degrees a_j has the x-monomials of degree
    -a_j as an A-basis, comb(m - a_j, m) of them for a_j <= 0, where
    m = fiber_count - 1.  The strand's ranks are counted that way and
    checked against the complex size cap before any monomial is listed.
    """
    nb = base.nvars
    field = base.field
    m = fiber_count - 1
    ranks = {
        i: sum(comb(m - a, m) for a in complex_.degrees[i] if a <= 0)
        for i in complex_.ranks
    }
    check_total_rank(ranks)
    ranks = {i: r for i, r in ranks.items() if r}
    bases = {
        i: [
            (j, mono)
            for j, a in enumerate(complex_.degrees[i])
            for mono in monomials_of_degree(fiber_count, -a)
        ]
        for i in ranks
    }
    exps = complex_.ring.exponents
    parts = {}  # term of T -> (the term of its base monomial, its fiber exponents)
    diffs = {}
    for i in sorted(bases):
        src = bases[i]
        tgt = bases.get(i + 1)
        if not tgt:
            continue
        tgt_index = {key: idx for idx, key in enumerate(tgt)}
        d = complex_.diff(i)
        entries = []
        for col, (j, mono) in enumerate(src):
            for r, entry in d.column_entries(j):
                acc = {}
                for t, c in entry.terms.items():
                    split = parts.get(t)
                    if split is None:
                        e = exps(t)
                        (y,) = base.ambient.from_exponents({e[:nb]: field.one}).terms
                        split = parts[t] = (y, e[nb:])
                    y, x_part = split
                    row = tgt_index.get((r, tuple(map(add, x_part, mono))))
                    if row is None:
                        continue
                    terms = acc.setdefault(row, {})
                    terms[y] = field.add(terms.get(y, field.zero), c)
                for row, terms in acc.items():
                    entries.append((row, col, base.reduce_terms(terms)))
        diffs[i] = Mat.from_entries(base, len(tgt), len(src), entries)
    return FreeComplex._make(base, ranks, diffs, None, complex_.floor)


def pushforward_projective(fam, e, minimal=True):
    """Derived direct image to the base, with a stage report.

    Returns (complex over the base, report).  The report records the
    stage used, which is the exact bound for free ambient complexes,
    the floor of the free replacement and whether the result is
    bounded.  With `minimal=False` the complex is `relative_strand`'s
    output as it is: homotopy equivalent to the minimized one, with the
    same fiber dims and Euler characteristic, but its differentials may
    still have unit entries.

    The Cech cone is built unless `minimal` is true, the free
    replacement L is bounded and every generator degree of L is at most
    m = fiber_count - 1.  Then H^(m+1)_x(T(-a))_0 = 0 for every
    generator degree a (Hartshorne III.5.1), so the Cech part of the
    strand is exact and the answer is the minimized strand of L alone.
    A truncated L keeps the Cech route: its strand alone would claim a
    lower homology floor.
    """
    if not isinstance(e, FreeComplex):
        raise ValueError(f"projective pushforward needs a free complex, not a {type(e).__name__}")
    _check_ring(e, fam.total)
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
    # over T the recast differentials compose to zero only modulo the
    # relations, which is all the tensor with T/(relations) needs
    diffs = {i: m.map(lambda x: recast(x, t), t) for i, m in e.diffs.items()}
    e_t = FreeComplex._make(t, e.ranks, diffs, e.degrees, e.floor)
    total = ModulePresentation(t, 1, Mat(t, [list(fam.relations)]), (0,))
    fpc = module_tensor_complex(total, e_t)
    floor = fpc.lo - fam.fiber_count - 2
    lifted = free_replacement(fpc, floor)
    m = fam.fiber_count - 1
    max_gen_degree = 0
    for i in lifted.ranks:
        for a in lifted.degrees[i]:
            max_gen_degree = max(max_gen_degree, a)
    s_exact = max(1, max_gen_degree - m)
    if minimal and lifted.floor is None and max_gen_degree <= m:
        result = minimize(relative_strand(lifted, fam.base, fam.fiber_count))
    else:
        stage = koszul_dual_stage(t, fam.fiber_vars_in_ambient(), s_exact)
        out = relative_strand(tensor(cech_cone(stage), lifted), fam.base, fam.fiber_count)
        result = minimize(out) if minimal else out
    report = {
        "stage_used": s_exact,
        "exact_bound": True,
        "stages_agree": None,
        "floor": floor,
        "bounded": result.is_bounded,
    }
    return result, report


# -- fibers ------------------------------------------------------------------


class FiberData:
    """A derived fiber with its comparison data."""

    __slots__ = ("point", "complex")

    def __init__(self, point, complex_):
        self.point = point
        self.complex = complex_

    def __repr__(self):
        return f"FiberData(derived at {self.point}: {self.complex})"


def _regrade_zero(complex_):
    degrees = {i: (0,) * r for i, r in complex_.ranks.items()}
    return FreeComplex(
        complex_.ring, dict(complex_.ranks), dict(complex_.diffs), degrees, complex_.floor
    )


def nice_fiber(f_or_fam, e, point):
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
        res = free_resolution(ModulePresentation.residue_field(base, point), 8)
    else:
        res = koszul_resolution_of_point(base, point)
    pulled = f.apply_complex(res, keep_degrees=False)
    if isinstance(f_or_fam, ProjectiveFamily):
        pulled = _regrade_zero(pulled)
    e_free = free_resolution(e, 8)
    fiber = tensor(e_free, pulled)
    return FiberData(point, fiber)


def classical_fiber(f_or_fam, e, point):
    """Termwise restriction of (a free model of) E to the fiber ring:
    `fiber_ring(point)` of a family, the target modulo f(y) - point of a map."""
    e_free = free_resolution(e, 8)
    if isinstance(f_or_fam, ProjectiveFamily):
        fam = f_or_fam
        ring = fam.fiber_ring(point)
        restriction = RingMap(fam.total, ring, [ring.const(c) for c in point.coords] + ring.gens())
        return restriction.apply_complex(e_free, keep_degrees=True)
    f = f_or_fam
    target = f.target
    cut = [
        recast(f.images[i], target.ambient) - target.ambient.const(point.coords[i])
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


def classical_chi(fam, e, point):
    """Euler characteristic of the classical fiber (projective case).

    The fiber is X = Proj k[x_1..x_n]/I, I the relations at the point
    (`ProjectiveFamily.fiber_ring`).  Restriction to X keeps a free
    model's generator degrees, so none is built: a generator of degree
    a in term i is O_X(-a), chi is additive on a bounded complex, and
    chi(O_X(d)) = P(d), the Hilbert polynomial of k[x]/I.  So chi is the
    sum over i of (-1)^i P(-a_ij) over the generator degrees a_ij of
    term i.  I and its initial ideal share a Hilbert series, so P comes
    from the leading monomials of the fiber ring's Gröbner basis: P(d) =
    sum_k q_k C(d - k + n - 1, n - 1), q the Hilbert numerator
    (`hilbert_numerator`), read as a polynomial in d (`hilbert_value`).
    """
    if not isinstance(fam, ProjectiveFamily):
        raise ValueError("classical chi is only defined here for projective families")
    _check_ring(e, fam.total)
    e_free = free_resolution(e, 8)
    if not e_free.is_bounded:
        raise ValueError("chi needs a bounded complex")
    if e_free.ranks and e_free.degrees is None:
        raise ValueError("classical chi needs a graded complex")
    ring = fam.fiber_ring(point)
    n = fam.fiber_count
    leading = [ring.exponents(g.leading_monomial()) for g in ring.quotient_gb]
    q = hilbert_numerator(leading, n)
    return sum(
        (-1 if i % 2 else 1)
        * sum(hilbert_value(q, n, -a, polynomial=True) for a in e_free.degrees[i])
        for i in e_free.ranks
    )


def hp_scan(f_or_fam, e, p, points, seed=0, pushed=None):
    """Table point -> h^p of the pushforward fiber, audited by upper
    semicontinuity: h^p at every point is at least its generic value.

    The generic value, h^p over the fraction field of the base, comes
    from one random large-height probe (`FreeComplex.generic_dim`), and
    "generic_certified" says whether it is exact.  It is exact on every
    plain base, where the generic ranks are kept on the pushforward: a
    later scan of the same p ranks nothing at its probe, and the kept
    ranks cap the fiber ranks of every later point.  On a quotient base
    it is h^p at the probe.  A probe off the base's locus gives no
    generic value, and the audit fails.  A p below a truncated
    pushforward's homology floor raises ValueError.
    """
    if pushed is None:
        pushed, _ = push(f_or_fam, e)
    pushed.check_determined(p)
    base = pushed.ring
    values = [(y, pushed.fiber_dims(y).get(p, 0)) for y in points]
    rng = random.Random(seed)
    coords = tuple(
        base.field.parse(f"{rng.randint(10**4, 10**6)}/{rng.randint(1, 97)}")
        if base.field.char == 0
        else base.field.random(rng)
        for _ in range(base.nvars)
    )
    try:
        probe = RationalPoint(base, coords)
    except ValueError:
        generic, certified = None, False
    else:
        generic, certified = pushed.generic_dim(probe, p)
    return {
        "p": p,
        "values": values,
        "generic_value": generic,
        "generic_certified": certified,
        "audit_pass": generic is not None and all(v >= generic for _, v in values),
    }


def grauert_check(f_or_fam, e, p, points, reduced=True):
    """Constancy of h^p forces local freeness and base change.

    Requires the base to be reduced (a caller assertion, surfaced in
    the report, not computed).  On constant sampled values the check
    verifies constant ranks of the two neighbouring differentials and
    that H^p of the pushforward has matching fiber dimensions.  A p
    below a truncated pushforward's homology floor raises ValueError.
    """
    pushed, _ = push(f_or_fam, e)
    pushed.check_determined(p)
    values = {}
    rank_p = {}
    rank_prev = {}
    for y in points:
        ranks = pushed.fiber_ranks(y)
        rank_p[y], rank_prev[y] = ranks.get(p, 0), ranks.get(p - 1, 0)
        values[y] = pushed.rank(p) - rank_p[y] - rank_prev[y]
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


def check_common_base_points(f, g, points):
    """Raise unless each (point of B, point of A') pair of a square on
    f: A -> B and g: A -> A' lies over one point of Spec A."""
    for x_pt, s_pt in points:
        if f.apply_point(x_pt) != g.apply_point(s_pt):
            raise ValueError(f"points {x_pt}, {s_pt} do not lie over a common base point")


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
    check_common_base_points(f, g, points)
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
