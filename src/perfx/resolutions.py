"""Free resolutions and free replacements of complexes.

`free_resolution` is the one entry point from a module or complex to a
free complex.  Modules are resolved by iterated syzygies, up to a
differential certified injective at one probe point.  A bounded
complex of finitely presented modules is replaced by a quasi-isomorphic
complex of free modules built top-down: at each step the new free term
covers the fiber product of the current term with the kernel of the
differential one step up, which keeps the comparison map termwise
surjective with exact kernel.  Every resolution of a module and every
free replacement is minimal: redundant generators are pruned as they
appear and the result is minimized, so no differential has a unit
entry.  A truncated window carries its homology floor (see complexes.py):
a resolution cut after depth steps, and a free replacement that stops at
the requested degree, have homology determined from one degree above
their lowest term, and a presented complex keeps the floor of what it
was built from.
"""

from __future__ import annotations

import random

from .complexes import FreeComplex, HomologyFloor, floor_of, minimize, tensor
from .modules import ModulePresentation, _column_degrees, prune_redundant_columns
from .rings import Mat, MatrixGB, RationalPoint, subquotient, syzygy_matrix


class FPComplex(HomologyFloor):
    """Bounded complex of finitely presented modules.

    maps[i] sends generators of terms[i] to columns over generators of
    terms[i+1].  The constructor checks nothing: in every FPComplex
    perfx builds (presented, module_tensor_complex, truncate_le and
    geometry.restrict_scalars) the maps respect the relations and
    compose to zero by construction.  `floor` is a homology floor, as on
    a FreeComplex: a window of a truncated free complex keeps its floor.
    """

    def __init__(self, ring, terms, maps, floor=None):
        self.ring = ring
        self.floor = floor
        self.terms = {i: t for i, t in terms.items() if t.ambient_rank}
        self.maps = {
            i: m
            for i, m in maps.items()
            if i in self.terms and (i + 1) in self.terms and not m.is_zero
        }
        if self.terms:
            self.lo = min(self.terms)
            self.hi = max(self.terms)
        else:
            self.lo, self.hi = 0, -1

    def term(self, i):
        return self.terms.get(i) or ModulePresentation.zero(self.ring)

    def map(self, i):
        if i in self.maps:
            return self.maps[i]
        return Mat.zero(self.ring, self.term(i + 1).ambient_rank, self.term(i).ambient_rank)


def presented(obj):
    """A module, free complex or FPComplex read as an FPComplex: a module
    is its one-term complex at degree 0, a free complex its complex of
    free modules with the same floor."""
    if isinstance(obj, FPComplex):
        return obj
    if isinstance(obj, FreeComplex):
        terms = {
            i: ModulePresentation.free(obj.ring, r, obj.term_degrees(i))
            for i, r in obj.ranks.items()
        }
        return FPComplex(obj.ring, terms, obj.diffs, obj.floor)
    return FPComplex(obj.ring, {0: obj}, {})


def _kernel_of(mat):
    if mat.ncols == 0:
        return Mat.zero(mat.ring, 0, 0)
    if mat.nrows == 0:
        return Mat.identity(mat.ring, mat.ncols)
    return syzygy_matrix(mat)


def free_replacement(fpc, floor):
    """Free complex quasi-isomorphic to fpc in degrees > floor.

    Returns a FreeComplex with window [floor, hi] whose homology agrees
    with fpc in degrees >= floor + 1, and everywhere when the
    construction terminates by itself.  Its floor is the larger of
    fpc's and that floor + 1.  A complex whose terms are all free
    short-circuits to its minimization.
    """
    ring = fpc.ring
    if not fpc.terms:
        return FreeComplex.zero_complex(ring)
    if all(t.relations.ncols == 0 for t in fpc.terms.values()):
        ranks = {i: t.ambient_rank for i, t in fpc.terms.items()}
        degrees = None
        if all(t.degrees is not None for t in fpc.terms.values()):
            degrees = {i: t.degrees for i, t in fpc.terms.items()}
        # d o d = 0 by the FPComplex contract; restriction is a ring map B -> Mat_n(A)
        out = FreeComplex._make(ring, ranks, dict(fpc.maps), degrees, fpc.floor)
        return minimize(out)
    hi = fpc.hi
    graded = all(t.degrees is not None for t in fpc.terms.values())

    ranks = {}
    diffs = {}
    degrees = {} if graded else None
    # state for degree k+1 of the free complex
    rank_up = 0
    phi_up = None  # Mat: gens(C^{k+1}) x rank_up
    diff_up = None  # Mat: rank(k+2) x rank_up
    degs_up = ()
    cut = None  # floor, once the window stops there with a term left

    k = hi
    while k >= floor:
        c_k = fpc.term(k)
        g_k = c_k.ambient_rank
        if rank_up == 0:
            # no constraints from above: cover C^k directly
            new_rank = g_k
            phi = Mat.identity(ring, g_k) if g_k else Mat.zero(ring, 0, 0)
            d_new = Mat.zero(ring, 0, new_rank)
            new_degs = tuple(c_k.degrees) if graded and g_k else ()
        else:
            if diff_up is None:
                z = Mat.identity(ring, rank_up)
            else:
                z = _kernel_of(diff_up)
                if z.ncols > 1:
                    z = prune_redundant_columns(z)
            phi_z = phi_up * z if (phi_up is not None and phi_up.nrows) else Mat.zero(ring, 0, z.ncols)
            if phi_z.nrows == 0:
                # target is the zero module: every pair of C^k gens and
                # kernel gens works
                sol = Mat.identity(ring, g_k + z.ncols)
            else:
                # pairs (x, y) with d_k x - phi_z y among the relations of C^(k+1)
                sol = syzygy_matrix(
                    fpc.map(k).hstack(-phi_z), modulo=fpc.term(k + 1).relations
                )
            stacked = None
            if graded:
                stacked = (tuple(c_k.degrees) if g_k else ()) + (
                    _column_degrees(z, degs_up) or ()
                )
                if len(stacked) != sol.nrows:
                    stacked = None
            if sol.ncols > 1:
                rel_k = fpc.term(k).relations
                pad = None
                if rel_k.ncols:
                    pad = rel_k.vstack(Mat.zero(ring, z.ncols, rel_k.ncols))
                sol = prune_redundant_columns(sol, pad, stacked)
            new_rank = sol.ncols
            phi = sol.select_rows(range(g_k)) if g_k else Mat.zero(ring, 0, new_rank)
            y_part = sol.select_rows(range(g_k, g_k + z.ncols))
            d_new = z * y_part if z.ncols else Mat.zero(ring, rank_up, new_rank)
            new_degs = None
            if stacked is not None:
                new_degs = _column_degrees(sol, stacked)
            if graded and new_degs is None:
                graded = False
                degrees = None
        if new_rank:
            ranks[k] = new_rank
            if d_new.nrows and new_rank:
                diffs[k] = d_new
            if degrees is not None:
                degrees[k] = tuple(new_degs)
        if new_rank == 0 and all(fpc.term(j).ambient_rank == 0 for j in range(floor, k)):
            break
        rank_up = new_rank
        phi_up = phi
        diff_up = d_new if d_new.nrows else None
        degs_up = new_degs if graded else ()
        k -= 1
    else:
        if rank_up:
            cut = floor
    out = FreeComplex(ring, ranks, diffs, degrees, floor_of((fpc.floor, 0), (cut, 1)))
    return minimize(out)


def homology_data(obj, i):
    """Raw homology data at degree i of a module, free complex or
    presented complex, read through `presented`.

    Returns (kernel, boundaries, presentation of H^i).  Both matrices
    live in the ambient free cover of the term: the kernel's columns
    generate the cycles, and the boundaries' columns (the incoming
    differential followed by the term's relations) span what counts as
    zero there.  Induced-map computations on towers consume them.

    The kernel and the relations come from `rings.subquotient`: at a top
    degree, where d_i has no rows, the identity and the nonzero
    boundaries; elsewhere the reduced Gröbner basis `syzygy_matrix`
    returns and the relations read off it.  Either way the relations
    are a generating set of the relation module, not its reduced basis;
    `ModulePresentation.reduced()` gives that.  Below the floor of a
    truncated complex it raises ValueError (`check_determined`).
    """
    fpc = presented(obj)
    ring = fpc.ring
    fpc.check_determined(i)
    term = fpc.term(i)
    if not term.ambient_rank:
        z = Mat.zero(ring, 0, 0)
        return z, z, ModulePresentation.zero(ring)
    boundaries = fpc.map(i - 1).hstack(term.relations)
    kernel, relations = subquotient(fpc.map(i), fpc.term(i + 1).relations, boundaries)
    if kernel.ncols == 0:
        return kernel, boundaries, ModulePresentation.zero(ring)
    degrees = None
    if term.degrees is not None:
        degrees = _column_degrees(kernel, term.degrees)
    pres = ModulePresentation(ring, kernel.ncols, relations, degrees)
    return kernel, boundaries, pres


def homology(obj, i):
    """H^i of a module, free complex or presented complex, as a
    presentation (quotient-ring aware).  Its relations are a generating
    set of the relation module; `reduced()` gives its reduced Gröbner
    basis.  Kernel and image are computed directly with syzygies, so on
    a presented complex this is an independent route from resolving and
    taking homology of the free replacement.  The Koszul route of
    `derived.tor_profile` reads Tor as `homology(tensor,
    -i).fiber_dim(point)`."""
    return homology_data(obj, i)[2]


def module_tensor_complex(coefficients, complex_):
    """C (x) E for a free complex C and a module or free complex E, in
    the layout of `complexes.tensor`.

    A free E gives tensor(C, E), with its floor.  A presented module is
    the one-term complex E at degree 0: term i is E^(rank i) with
    generator degrees shifted by C's, and C's differentials act
    blockwise, as an FPComplex with C's floor (E's top degree is 0).
    """
    if isinstance(coefficients, FreeComplex):
        return tensor(complex_, coefficients)
    module = coefficients
    ring = module.ring
    if complex_.ring != ring:
        raise ValueError("module and complex over different rings")
    amb = module.ambient_rank
    terms = {}
    maps = {}
    for i, r in complex_.ranks.items():
        degs = None
        if module.degrees is not None and complex_.degrees is not None:
            degs = tuple(
                module.degrees[j] + complex_.degrees[i][b]
                for b in range(r)
                for j in range(amb)
            )
        rel = Mat.identity(ring, r).kron(module.relations)
        terms[i] = ModulePresentation(ring, r * amb, rel, degs)
    ident = Mat.identity(ring, amb)
    for i, m in complex_.diffs.items():
        maps[i] = m.kron(ident)
    return FPComplex(ring, terms, maps, complex_.floor)


def default_depth(ring):
    """dim of the ambient polynomial ring plus two."""
    return ring.nvars + 2


def _tor_probe(ring):
    """The fixed large-height point of a plain ring at which `_injective`
    ranks a matrix.  Any point answers correctly; one on the rank-drop
    locus only costs the caller the work the certificate would have
    saved."""
    rng = random.Random("tor-probe")
    return RationalPoint(ring, [rng.randint(10**5, 10**6) for _ in range(ring.nvars)])


def _injective(mat):
    """True only where mat : R^c -> R^g is injective: over a plain ring,
    a domain, rank c at `_tor_probe` makes a c x c minor a nonzero
    polynomial, so no nonzero column vector maps to 0.  The rank comes
    from `fiber_dim`, so over QQ a full rank modulo the certifying prime
    needs no exact rank.  False certifies nothing (a quotient ring, more
    columns than rows, or a probe on the rank-drop locus)."""
    ring = mat.ring
    g, c = mat.nrows, mat.ncols
    return (not ring.is_quotient and c <= g
            and ModulePresentation(ring, g, mat).fiber_dim(_tor_probe(ring)) == g - c)


def free_resolution(target, depth):
    """Free complex quasi-isomorphic to a module or complex.

    Free complexes are returned as they are; complexes of presented
    modules go through the free replacement down to depth below their
    lowest term.  Modules: iterated syzygies, with early stop (floor
    None) when a syzygy module vanishes -- over a plain polynomial ring
    with graded input this always happens within the number of
    variables -- and a cut after depth steps, which leaves homology
    determined from one degree above the lowest term.  Over a plain
    ring a differential that `_injective` certifies has no syzygies, so
    the resolution stops there without `syzygy_matrix`, as it would on
    the empty syzygy matrix; a probe on the rank-drop locus falls back
    to `syzygy_matrix`.  The resolution is minimized.
    """
    if isinstance(target, FreeComplex):
        return target
    if isinstance(target, FPComplex):
        return free_replacement(target, target.lo - depth)
    module = target
    ring = module.ring
    ranks = {0: module.ambient_rank}
    diffs = {}
    degrees = {0: module.degrees} if module.degrees is not None else None
    graded = degrees is not None
    floor = None
    current = module.relations
    cur_degs = module.degrees
    k = 0
    while current.ncols:
        ranks[k - 1] = current.ncols
        diffs[k - 1] = current
        if graded:
            cd = _column_degrees(current, cur_degs)
            if cd is None:
                graded = False
                degrees = None
            else:
                degrees[k - 1] = cd
                cur_degs = cd
        k -= 1
        if -k >= depth:
            floor = k + 1
            break
        if _injective(current):
            break
        current = syzygy_matrix(current)
    # a complex by construction: each d_(k-1) is syzygy_matrix(d_k)
    return minimize(FreeComplex._make(ring, ranks, diffs, degrees, floor))


def derived_tensor(e, f, depth=6):
    """E (x)^L F as a free complex: the tensor of the two resolutions,
    each resolved deep enough for the requested depth, with the floor
    `tensor` gives it."""
    re = free_resolution(e, depth + max(0, presented(f).hi) + 2)
    rf = free_resolution(f, depth + max(0, presented(e).hi) + 2)
    return tensor(re, rf)


def truncate_le(complex_, k):
    """Homological truncation: homology equals the input's in degrees
    <= k and vanishes above.  Output is a free complex again."""
    ring = complex_.ring
    if k >= complex_.hi:
        return complex_
    if not complex_.is_determined(k + 1):
        raise ValueError("truncation level below the trustworthy window")
    kernel = _kernel_of(complex_.diff(k))
    terms = {}
    maps = {}
    for i in range(complex_.lo, k):
        degs = complex_.degrees[i] if complex_.degrees is not None else None
        terms[i] = ModulePresentation.free(ring, complex_.rank(i), degs)
        if i < k - 1:
            maps[i] = complex_.diff(i)
    if kernel.ncols:
        syz = syzygy_matrix(kernel)
        kdegs = None
        if complex_.degrees is not None:
            kdegs = _column_degrees(kernel, complex_.degrees[k])
        terms[k] = ModulePresentation(ring, kernel.ncols, syz, kdegs)
        if complex_.rank(k - 1):
            lift = MatrixGB(kernel).lift_matrix(complex_.diff(k - 1))
            if lift is None:
                raise ValueError("image does not land in the kernel")
            maps[k - 1] = lift
    fpc = FPComplex(ring, terms, maps, complex_.floor)
    lo_out = min(complex_.lo, k) - 1
    return free_replacement(fpc, lo_out)
