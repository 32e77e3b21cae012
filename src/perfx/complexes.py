"""Bounded complexes of finite free modules.

Cohomological indexing: the differential d^i maps term i to term i+1
and is stored as a matrix with rank(i+1) rows and rank(i) columns.

FreeComplex(...) and ComplexMap(...) check shapes, rings, grading,
d o d = 0 and commuting squares.  Builders whose output is a complex by
an identity on complexes and maps already built (tensor, dual, cone,
shift, direct_sum, minimize, koszul_dual_transition, identity maps,
geometry.relative_strand) use the trusted `_make` constructors
instead, which still enforce RANK_CAP.  So do `koszul`, a complex by
the exterior-algebra identity, and resolutions.free_resolution, whose
d_(k-1) is the syzygy matrix of d_k.
geometry.pushforward_projective does too for its input recast to the
ambient ring, a complex only modulo the family's relations.
RingMap.apply_complex does too, and then checks only the grading it
keeps, the one claim a ring map can break.

Sign conventions are fixed once (see docs/conventions.md): Koszul
d(e_S) contracts with alternating signs, tensor differentials carry
(-1)^p on the right factor, the dual's d^(-i-1) is (-1)^i times the
transpose of d^i, Hom(C, D) is dual(C) (x) D, and shifts negate odd
differentials.

A complex carries its homology floor as a number, `floor`: None when the
complex is zero below its window, else the lowest degree whose homology
the window determines.  The invariant is that the window differs from
the untruncated complex by a complex in degrees <= floor - 2, so the two
have the same homology from the floor up.  Every builder carries the
number by one rule, `floor_of` (see docs/conventions.md).
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations

from . import linalg, rings
from .rings import Mat

RANK_CAP = 20000


def check_total_rank(ranks):
    """Raise ValueError if the ranks {degree: rank} add up past RANK_CAP."""
    total = sum(ranks.values())
    if total > RANK_CAP:
        raise ValueError(f"complex too large: total rank {total} exceeds cap {RANK_CAP}")


def floor_of(*parts):
    """The floor of a complex built from parts, given as (floor, offset)
    pairs: the largest floor + offset over the truncated parts, None when
    no part is truncated."""
    return max((f + n for f, n in parts if f is not None), default=None)


class HomologyFloor:
    """What a complex with terms in lo..hi and a `floor` says about its
    homology; FreeComplex and resolutions.FPComplex share it."""

    __slots__ = ()

    @property
    def is_bounded(self):
        return self.floor is None

    def homology_floor(self):
        """Lowest degree of the window whose homology is read: lo, or the
        floor of a truncated complex where that is higher."""
        return self.lo if self.floor is None else max(self.lo, self.floor)

    def is_determined(self, i):
        """Whether the window determines the homology at degree i."""
        return self.floor is None or i >= self.floor

    def check_determined(self, i):
        """Raise ValueError where `is_determined` is false."""
        if not self.is_determined(i):
            raise ValueError(
                f"homology at {i} not determined: below the homology floor "
                f"{self.floor} of a truncated complex"
            )


class FreeComplex(HomologyFloor):
    __slots__ = (
        "ring", "lo", "hi", "ranks", "diffs", "degrees", "floor",
        "_fiber_ranks", "_generic_ranks", "_model",
    )

    def __init__(self, ring, ranks, diffs, degrees=None, floor=None):
        self._init(ring, ranks, diffs, degrees, floor)
        self._validate()

    @classmethod
    def _make(cls, ring, ranks, diffs, degrees=None, floor=None):
        """Trusted constructor: normalises and enforces RANK_CAP, skips
        _validate."""
        c = cls.__new__(cls)
        c._init(ring, ranks, diffs, degrees, floor)
        return c

    def _init(self, ring, ranks, diffs, degrees, floor):
        self.ring = ring
        self.ranks = {i: r for i, r in ranks.items() if r}
        if self.ranks:
            self.lo = min(self.ranks)
            self.hi = max(self.ranks)
        else:
            self.lo, self.hi = 0, -1
        check_total_rank(self.ranks)
        self.diffs = {}
        for i, m in diffs.items():
            if self.rank(i) and self.rank(i + 1) and not m.is_zero:
                self.diffs[i] = m
        self.degrees = None
        if degrees is not None:
            self.degrees = {
                i: tuple(degrees[i]) for i in self.ranks if i in degrees
            }
            if set(self.degrees) != set(self.ranks):
                raise ValueError("graded complex needs degrees for every term")
        self.floor = floor
        self._fiber_ranks = None  # {point: {i: rank}}, made by the first fiber_ranks
        self._generic_ranks = None  # {i: rank over Frac(ring)}, made by the first generic_dim
        self._model = None  # (minimal model, {i: unit pairs split across d^i}), set by minimize

    def _validate(self):
        for i, r in self.ranks.items():
            if r < 0:
                raise ValueError(f"rank at degree {i} must be at least 0, got {r}")
        for i, m in self.diffs.items():
            if m.nrows != self.rank(i + 1) or m.ncols != self.rank(i):
                raise ValueError(f"differential at {i} has wrong shape")
            if m.ring != self.ring:
                raise ValueError("differential over wrong ring")
        for i in self.diffs:
            if (i + 1) in self.diffs:
                prod = self.diffs[i + 1] * self.diffs[i]
                if not prod.is_zero:
                    raise ValueError(f"d o d != 0 between degrees {i} and {i + 2}")
        self._check_grading()

    def _check_grading(self):
        """Every entry of a graded complex's differentials is homogeneous
        of the degree its grading asks for."""
        if self.degrees is None:
            return
        for i, m in self.diffs.items():
            src = self.degrees[i]
            tgt = self.degrees.get(i + 1, ())
            for r, c, p in m.entries():
                d = p.homogeneous_degree()
                if d is None or d != src[c] - tgt[r]:
                    raise ValueError(
                        f"differential entry at degree {i} not homogeneous"
                    )

    # -- basic access ----------------------------------------------------

    def rank(self, i):
        return self.ranks.get(i, 0)

    def diff(self, i):
        if i in self.diffs:
            return self.diffs[i]
        return Mat.zero(self.ring, self.rank(i + 1), self.rank(i))

    def term_degrees(self, i):
        if self.degrees is None:
            return None
        return self.degrees.get(i, ())

    def total_rank(self):
        return sum(self.ranks.values())

    @classmethod
    def zero_complex(cls, ring):
        return cls(ring, {}, {})

    @classmethod
    def single(cls, ring, rank, at=0, degrees=None):
        degs = None if degrees is None else {at: tuple(degrees)}
        return cls(ring, {at: rank}, {}, degrees=degs)

    @classmethod
    def from_matrix(cls, ring, mat, at=-1):
        """Two-term complex [source -> target] with the source at `at`."""
        ranks = {at: mat.ncols, at + 1: mat.nrows}
        return cls(ring, ranks, {at: mat})

    def __repr__(self):
        if not self.ranks:
            return "FreeComplex(0)"
        parts = [f"{i}:{self.rank(i)}" for i in range(self.lo, self.hi + 1)]
        floor = "" if self.floor is None else f", floor={self.floor}"
        return f"FreeComplex({', '.join(parts)}{floor} over {self.ring})"

    def __eq__(self, other):
        """Structural identity: same ranks, differentials and grading."""
        return (
            isinstance(other, FreeComplex)
            and self.ring == other.ring
            and self.ranks == other.ranks
            and self.diffs == other.diffs
            and self.degrees == other.degrees
            and self.floor == other.floor
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.ranks.items())), self.floor))

    # -- fibers -----------------------------------------------------------

    def _minimal_model(self):
        """(M, {i: unit pairs split across d^i}): the complex `minimize`
        makes of this one, and how many split pairs R --1--> R it took
        from each differential.  Made by the first call and kept; the
        output of `minimize` is its own model, with no pairs."""
        if self._model is None:
            minimize(self)
        return self._model

    def fiber_ranks(self, point):
        """Exact ranks of the differentials evaluated at a point, as
        {i: rank of d^i}; a degree without a differential is absent, and
        its rank is 0.  A point of another ring, or off the ring's locus,
        raises ValueError (`rings.point_of`).

        A complex is its minimal model M plus split unit pairs (see
        `minimize`), and a unit pair has rank 1 at every point.  So a
        complex that is not its own model returns M's rank at each
        degree plus the pairs split across it, and only M, whose
        differentials carry no unit entry, is ranked and keeps a table.
        M is made by the first call (`_minimal_model`) and kept.

        Every differential is ranked modulo a prime.  A rank that reaches
        the differential's rank over the fraction field, where
        `generic_dim` has kept it, is exact, and its elimination stops
        there: by semicontinuity no point exceeds it.  d o d = 0
        certifies what it can across the whole complex (see
        linalg.complex_ranks); over QQ only the rest are evaluated
        exactly.  The ranks are kept on M, one table per point: a
        complex never changes once built, and a rank at a point depends
        on nothing else.
        """
        point = rings.point_of(self.ring, point)
        model, pairs = self._minimal_model()
        if model is not self:
            ranks = model.fiber_ranks(point)
            return {i: ranks.get(i, 0) + pairs.get(i, 0) for i in self.diffs}
        if self._fiber_ranks is None:
            self._fiber_ranks = {}
        ranks = self._fiber_ranks.get(point)
        if ranks is None:
            field = self.ring.field
            p = linalg.modulus(field)
            residues = {i: m.residues(point, p) for i, m in self.diffs.items()}
            ranks = self._fiber_ranks[point] = linalg.complex_ranks(
                residues, lambda i: self.diffs[i].evaluate(point), self.ranks, field,
                self._generic_ranks)
        return dict(ranks)

    def fiber_dims(self, point):
        """Homology dimensions of the complex evaluated at a point.

        Returns {degree: dim over kappa(point)} on the trustworthy
        window (homology floor to top degree), read from `fiber_ranks`;
        callers read a degree outside it as 0.
        """
        ranks = self.fiber_ranks(point)
        return {
            i: self.rank(i) - ranks.get(i, 0) - ranks.get(i - 1, 0)
            for i in range(self.homology_floor(), self.hi + 1)
        }

    def generic_dim(self, probe, i):
        """(h^i over the fraction field of the ring, certified).

        d^(i-2) .. d^(i+1) are ranked at the probe modulo
        `linalg.modulus`.  These ranks bound the ranks over the fraction
        field from below: evaluating at the probe and reducing modulo the
        prime are specializations, and rank can only drop under them.
        `linalg.certified` says where d o d = 0 makes a bound exact.  The
        probe is never evaluated exactly: its exact ranks need not be the
        generic ones.

        A rank left open is the number of positions that carry a leading
        term in a Gröbner basis of the column module of the differential,
        under any module order.  An element of the module that lives only
        on the other positions would have its leading term there, so it
        is 0, and the module embeds in the free module on the leading
        positions.  One basis element per leading position gives
        independent elements: in a relation among them the largest
        product of leading terms sits at its own position and cannot
        cancel.

        A rank over the fraction field depends on the complex alone, so
        the exact ones are kept on it: both ranks read, and d^(i-2) and
        d^(i+1) where `linalg.certified` proves them.  A later call that
        finds d^(i-1) and d^i there ranks nothing, whatever its probe.
        `fiber_ranks` takes the kept ranks as caps, a third certificate
        after d o d = 0 and the Gröbner basis: no point's rank exceeds
        the generic one, so an elimination that reaches it is exact.

        A quotient ring need not have one generic point: there the value
        is the fiber dimension at the probe, which by semicontinuity
        bounds the generic value from above, reported as not certified,
        and nothing is kept.  Below a bounded complex it is 0; below the
        floor of a truncated one it raises ValueError
        (`check_determined`).  A probe of another ring, or off the ring's
        locus, raises ValueError (`rings.point_of`).

        On a plain ring, a complex that is not its own minimal model
        (`fiber_ranks`) returns the model's answer: split unit pairs
        carry no homology, so the model has the same h^i, and it keeps
        the generic ranks that cap its fiber ranks.
        """
        probe = rings.point_of(self.ring, probe)
        self.check_determined(i)
        if i < self.lo:
            return 0, True
        if self.ring.is_quotient:
            return self.fiber_dims(probe).get(i, 0), False
        model, _pairs = self._minimal_model()
        if model is not self:
            return model.generic_dim(probe, i)
        if self._generic_ranks is None:
            self._generic_ranks = {}
        table = self._generic_ranks
        if i - 1 not in table or i not in table:
            p = linalg.modulus(self.ring.field)
            low = linalg.residue_ranks(
                {j: self.diff(j).residues(probe, p) for j in range(i - 2, i + 2)}, p)
            for j in (i - 1, i):
                if not linalg.certified(low, self.ranks, j):
                    leading = rings.MatrixGB(self.diff(j)).leading_terms()
                    low[j] = len({pos for pos, _mono in leading})
            for j in (i - 2, i + 1):
                if linalg.certified(low, self.ranks, j):
                    table[j] = low[j]
            table[i - 1], table[i] = low[i - 1], low[i]
        return self.rank(i) - table[i] - table[i - 1], True

    def fiber_euler_characteristic(self, point):
        """Alternating sum of the fiber dims at point: over the whole of a
        bounded complex it telescopes to that of the term ranks, which
        `minimize` keeps (it removes ranks in adjacent pairs).  The point
        does not change the value; the parameter stays for its callers."""
        if not self.is_bounded:
            raise ValueError("chi needs a bounded complex")
        return sum((-1 if i % 2 else 1) * r for i, r in self.ranks.items())

    # -- constructions -----------------------------------------------------

    def shift(self, n):
        """C[n] with C[n]^i = C^(n+i); odd shifts negate differentials."""
        ranks = {i - n: r for i, r in self.ranks.items()}
        sign = -1 if n % 2 else 1
        diffs = {}
        for i, m in self.diffs.items():
            diffs[i - n] = m if sign == 1 else -m
        degrees = None
        if self.degrees is not None:
            degrees = {i - n: d for i, d in self.degrees.items()}
        return FreeComplex._make(self.ring, ranks, diffs, degrees, floor_of((self.floor, -n)))

    def direct_sum(self, other):
        _same_ring(self, other)
        ranks = {}
        for i in set(self.ranks) | set(other.ranks):
            ranks[i] = self.rank(i) + other.rank(i)
        diffs = {}
        for i in set(self.diffs) | set(other.diffs):
            diffs[i] = self.diff(i).direct_sum(other.diff(i))
        degrees = None
        if self.degrees is not None and other.degrees is not None:
            degrees = {
                i: tuple(self.term_degrees(i) or ()) + tuple(other.term_degrees(i) or ())
                for i in ranks
            }
        floor = floor_of((self.floor, 0), (other.floor, 0))
        return FreeComplex._make(self.ring, ranks, diffs, degrees, floor)


def _same_ring(c, d):
    if c.ring != d.ring:
        raise ValueError("complexes over different rings")


def unit_complex(ring):
    return FreeComplex.single(ring, 1, at=0, degrees=(0,))


# -- Koszul complexes ----------------------------------------------------


def koszul(ring, elements):
    """Exterior-algebra complex on a sequence, in degrees [-r, 0].

    d(e_S) = sum over k in S of (-1)^(index of k in S) t_k e_(S minus k).
    """
    elems = [ring.parse(t) if isinstance(t, str) else t for t in elements]
    if not elems:
        raise ValueError("koszul needs a nonempty sequence")
    r = len(elems)
    subsets = {
        i: list(combinations(range(r), i)) for i in range(r + 1)
    }
    index = {i: {s: j for j, s in enumerate(subsets[i])} for i in subsets}
    ranks = {-i: len(subsets[i]) for i in range(r + 1)}
    diffs = {}
    for i in range(1, r + 1):
        # d^{-i}: term -i (subsets of size i) -> term -i+1 (size i-1)
        entries = []
        for col, s in enumerate(subsets[i]):
            for pos, k in enumerate(s):
                row = index[i - 1][tuple(x for x in s if x != k)]
                entries.append((row, col, elems[k] if pos % 2 == 0 else -elems[k]))
        diffs[-i] = Mat.from_entries(
            ring, len(subsets[i - 1]), len(subsets[i]), entries
        )
    degrees = None
    degs = [t.homogeneous_degree() for t in elems]
    if all(d is not None for d in degs):
        degrees = {
            -i: tuple(sum(degs[k] for k in s) for s in subsets[i])
            for i in range(r + 1)
        }
    # a complex by the exterior-algebra identity: contracting twice with
    # alternating signs cancels
    return FreeComplex._make(ring, ranks, diffs, degrees)


def koszul_resolution_of_point(ring, point):
    """Koszul complex on (x_i - a_i): resolves kappa(point) over a
    plain polynomial ring, window [-n, 0]."""
    gens = [ring.var(i) - ring.const(point.coords[i]) for i in range(ring.nvars)]
    if not gens:
        return unit_complex(ring)
    return koszul(ring, gens)


def two_term(ring, element):
    """[R -> R] in degrees 0, 1 with the map multiplication by element."""
    element = ring.parse(element) if isinstance(element, str) else element
    d = element.homogeneous_degree()
    degrees = {0: (0,), 1: (-d,)} if d is not None else None
    return FreeComplex(
        ring, {0: 1, 1: 1}, {0: Mat(ring, [[element]], ncols=1)}, degrees
    )


# -- tensor, dual, hom ---------------------------------------------------


def _basis_layout(c, d, n):
    """Index layout of (C (x) D)^n: list of (p, q, i, j) in fixed order."""
    layout = []
    for p in range(c.lo, c.hi + 1):
        q = n - p
        rc, rd = c.rank(p), d.rank(q)
        for i in range(rc):
            for j in range(rd):
                layout.append((p, q, i, j))
    return layout


def tensor(c, d):
    """Total complex of the double complex C (x) D, standard signs.

    The part a truncated C leaves out, in degrees <= floor - 2, meets D
    in degrees <= floor - 2 + D.hi, so the floor is floor + D.hi, and
    the same with C and D exchanged."""
    _same_ring(c, d)
    ring = c.ring
    if not c.ranks or not d.ranks:
        return FreeComplex.zero_complex(ring)
    lo, hi = c.lo + d.lo, c.hi + d.hi
    layouts = {n: _basis_layout(c, d, n) for n in range(lo, hi + 2)}
    offsets = {
        n: {key: idx for idx, key in enumerate(layout)}
        for n, layout in layouts.items()
    }
    ranks = {n: len(layouts[n]) for n in layouts if layouts[n]}
    diffs = {}
    for n in range(lo, hi + 1):
        src, tgt = layouts[n], layouts[n + 1]
        if not src or not tgt:
            continue
        entries = []
        for col, (p, q, i, j) in enumerate(src):
            dc = c.diffs.get(p)
            if dc is not None:
                for r, entry in dc.column_entries(i):
                    row = offsets[n + 1].get((p + 1, q, r, j))
                    if row is not None:
                        entries.append((row, col, entry))
            dd = d.diffs.get(q)
            if dd is not None:
                for s, entry in dd.column_entries(j):
                    row = offsets[n + 1].get((p, q + 1, i, s))
                    if row is not None:
                        entries.append((row, col, -entry if p % 2 else entry))
        diffs[n] = Mat.from_entries(ring, len(tgt), len(src), entries)
    degrees = None
    if c.degrees is not None and d.degrees is not None:
        degrees = {
            n: tuple(
                c.degrees[p][i] + d.degrees[q][j] for (p, q, i, j) in layouts[n]
            )
            for n in ranks
        }
    floor = floor_of((c.floor, d.hi), (d.floor, c.hi))
    return FreeComplex._make(ring, ranks, diffs, degrees, floor)


def dual(c):
    """RHom(C, R) for a bounded free complex.  Term n is C^(-n) with its
    generator degrees negated, and d^(-i-1) is (-1)^i times the transpose
    of d^i.  What a truncated C leaves out lands at the top of the dual,
    which no floor can say, so for it only lo + 1 is claimed."""
    if not c.ranks:
        return FreeComplex.zero_complex(c.ring)
    ranks = {-i: r for i, r in c.ranks.items()}
    diffs = {-i - 1: -m.transpose() if i % 2 else m.transpose() for i, m in c.diffs.items()}
    degrees = None
    if c.degrees is not None:
        degrees = {-i: tuple(-a for a in degs) for i, degs in c.degrees.items()}
    floor = None if c.floor is None else 1 - c.hi
    return FreeComplex._make(c.ring, ranks, diffs, degrees, floor)


def hom_complex(c, d):
    """Hom(C, D) = dual(C) (x) D, in the tensor's layout and signs.  Its
    floor is the tensor's: f_D - lo_C for a truncated D, and for a
    truncated C the dual's claim carried by the tensor, 1 - hi_C + hi_D."""
    return tensor(dual(c), d)


# -- chain maps ----------------------------------------------------------


class ComplexMap:
    """Degreewise matrices commuting with the differentials."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components):
        self._init(source, target, components)
        self._validate()

    @classmethod
    def _make(cls, source, target, components):
        """Trusted constructor: skips _validate."""
        phi = cls.__new__(cls)
        phi._init(source, target, components)
        return phi

    def _init(self, source, target, components):
        _same_ring(source, target)
        self.source = source
        self.target = target
        self.components = {
            i: m for i, m in components.items() if m.nrows and m.ncols
        }

    def _validate(self):
        for i, m in self.components.items():
            if m.nrows != self.target.rank(i) or m.ncols != self.source.rank(i):
                raise ValueError(f"component {i} has wrong shape")
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        for i in range(lo, hi):
            left = self.target.diff(i) * self.component(i)
            right = self.component(i + 1) * self.source.diff(i)
            if left != right:
                raise ValueError(f"map does not commute with d at degree {i}")

    def component(self, i):
        if i in self.components:
            return self.components[i]
        return Mat.zero(self.source.ring, self.target.rank(i), self.source.rank(i))

    @classmethod
    def identity(cls, c):
        return cls._make(c, c, {i: Mat.identity(c.ring, r) for i, r in c.ranks.items()})


def _map_preserves_grading(phi):
    c, d = phi.source, phi.target
    if c.degrees is None or d.degrees is None:
        return False
    for i, m in phi.components.items():
        src = c.term_degrees(i)
        tgt = d.term_degrees(i)
        for r, col, p in m.entries():
            deg = p.homogeneous_degree()
            if deg is None or deg != src[col] - tgt[r]:
                return False
    return True


def cone(phi):
    """Mapping cone: cone^i = C^(i+1) (+) D^i, d = [[-d_C, 0], [phi, d_D]].

    The cone is graded only when the map itself is degree zero."""
    c, d = phi.source, phi.target
    ring = c.ring
    ranks = {}
    for i in set(d.ranks) | {k - 1 for k in c.ranks}:
        r = c.rank(i + 1) + d.rank(i)
        if r:
            ranks[i] = r
    diffs = {}
    for i in ranks:
        top = (-c.diff(i + 1)).hstack(Mat.zero(ring, c.rank(i + 2), d.rank(i)))
        bot = phi.component(i + 1).hstack(d.diff(i))
        m = top.vstack(bot)
        if m.nrows and m.ncols:
            diffs[i] = m
    degrees = None
    if _map_preserves_grading(phi):
        degrees = {
            i: tuple(c.term_degrees(i + 1) or ()) + tuple(d.term_degrees(i) or ())
            for i in ranks
        }
    floor = floor_of((c.floor, -1), (d.floor, 0))
    return FreeComplex._make(ring, ranks, diffs, degrees, floor)


# -- Koszul dual stages and their transitions -----------------------------


def _tower_sequence(ring, elements, s):
    """The parsed sequence of stage s of the dual tower."""
    if s < 1:
        raise ValueError("stages start at 1")
    elems = [ring.parse(t) if isinstance(t, str) else t for t in elements]
    if not elems:
        raise ValueError("the dual tower needs a nonempty sequence")
    return elems


def koszul_dual_stage(ring, elements, s):
    """Stage s of the dual tower: the tensor over i of [R -> R] with map
    t_i^s.  The map to stage s+1 is koszul_dual_transition."""
    return reduce(tensor, [two_term(ring, t**s) for t in _tower_sequence(ring, elements, s)])


def koszul_dual_transition(ring, elements, s):
    """The map from stage s to stage s+1 of the dual tower: identity in
    factor-degree 0, multiplication by t_i in factor-degree 1.  In the
    tensor's layout term p of a stage with one more factor t is term p-1
    of the smaller stage, then its term p, so component p is
    comp[p-1] (x) [t] (+) comp[p]."""
    elems = _tower_sequence(ring, elements, s)
    empty = Mat.zero(ring, 0, 0)
    comps = {0: Mat.identity(ring, 1)}
    for t in elems:
        t = Mat(ring, [[t]])
        comps = {
            p: comps.get(p - 1, empty).kron(t).direct_sum(comps.get(p, empty))
            for p in range(len(comps) + 1)
        }
    return ComplexMap._make(
        koszul_dual_stage(ring, elems, s), koszul_dual_stage(ring, elems, s + 1), comps
    )


def cech_cone(stage):
    """Cone of the augmentation stage -> R, the Cech side of the
    supports triangle built from that stage."""
    ring = stage.ring
    aug = ComplexMap(stage, unit_complex(ring), {0: Mat(ring, [[ring.one]], ncols=1)})
    return cone(aug)


# -- minimization ---------------------------------------------------------


def minimize(complex_):
    """Split off unit (constant) entries of the differentials.

    Gaussian elimination on complexes: homotopy equivalence, preserves
    homology, fiber dimensions and graded strands.  The pivot is always
    the first unit in (degree, row, column) order.  Basis elements keep
    their original indices as labels until the end, so removing one
    renumbers nothing and the elimination only visits nonzero entries.

    Each pivot splits off a pair R --1--> R across d^i: the input is
    isomorphic to the output plus those pairs.  The output, and the
    number of pairs per degree, are kept on the input as its minimal
    model (`FreeComplex.fiber_ranks`), and the output is its own model.
    A complex without unit entries is returned itself.
    """
    ring = complex_.ring
    field = ring.field
    # per degree i: cols[i][c] = {r: entry}, rows[i][r] = {c, ...} and
    # units[i] = {(r, c), ...}, all of d^i's nonzero entries
    cols, rows, units = {}, {}, {}
    for i, m in complex_.diffs.items():
        cols[i], rows[i], units[i] = {}, {}, set()
        for r, c, p in m.entries():
            cols[i].setdefault(c, {})[r] = p
            rows[i].setdefault(r, set()).add(c)
            if _is_unit(p, field):
                units[i].add((r, c))
    removed = {i: set() for i in complex_.ranks}
    pairs = {}  # i -> pivots taken in d^i

    def drop_row(i, r):
        for c in rows.get(i, {}).pop(r, ()):
            del cols[i][c][r]
            units[i].discard((r, c))

    def drop_col(i, c):
        for r in cols.get(i, {}).pop(c, {}):
            rows[i][r].discard(c)
            units[i].discard((r, c))

    while True:
        i = next((i for i in sorted(units) if units[i]), None)
        if i is None:
            break
        r, c = min(units[i])
        m = cols[i]
        inv = field.inv(m[c][r].constant_value())
        pivot_row = {b: m[b][r] for b in rows[i][r] if b != c}
        scaled = {a: x.scale(inv) for a, x in m[c].items() if a != r}
        drop_row(i, r)
        drop_col(i, c)
        for b, y in pivot_row.items():
            col = m[b]
            for a, x in scaled.items():
                v = col.get(a, ring.zero) - x * y
                if v.terms:
                    col[a] = v
                    rows[i].setdefault(a, set()).add(b)
                    if _is_unit(v, field):
                        units[i].add((a, b))
                    else:
                        units[i].discard((a, b))
                elif a in col:
                    del col[a]
                    rows[i][a].discard(b)
                    units[i].discard((a, b))
        drop_row(i - 1, c)
        drop_col(i + 1, r)
        removed[i].add(c)
        removed[i + 1].add(r)
        pairs[i] = pairs.get(i, 0) + 1
    if not pairs:
        complex_._model = (complex_, {})
        return complex_
    kept = {
        i: [j for j in range(n) if j not in removed[i]]
        for i, n in complex_.ranks.items()
    }
    final_ranks = {i: len(k) for i, k in kept.items() if k}
    mat_diffs = {}
    for i, m in cols.items():
        if i not in final_ranks or (i + 1) not in final_ranks:
            continue
        new_row = {r: k for k, r in enumerate(kept[i + 1])}
        mat_diffs[i] = Mat.from_entries(ring, len(kept[i + 1]), len(kept[i]), (
            (new_row[r], k, m[c][r])
            for k, c in enumerate(kept[i]) if c in m
            for r in m[c]
        ))
    final_degrees = None
    if complex_.degrees is not None:
        final_degrees = {
            i: tuple(complex_.degrees[i][j] for j in kept[i]) for i in final_ranks
        }
    out = FreeComplex._make(ring, final_ranks, mat_diffs, final_degrees, complex_.floor)
    out._model = (out, {})
    complex_._model = (out, pairs)
    return out


def _is_unit(p, field):
    v = p.constant_value()
    return v is not None and v != field.zero
