"""Bounded complexes of finite free modules.

Cohomological indexing: the differential d^i maps term i to term i+1
and is stored as a matrix with rank(i+1) rows and rank(i) columns.
d o d = 0 is checked at construction.  Sign conventions are fixed once
(see docs/conventions.md): Koszul d(e_S) contracts with alternating
signs, tensor differentials carry (-1)^p on the right factor, Hom uses
d(f) = d o f - (-1)^n f o d, shifts negate odd differentials.

The tail flag describes degrees below the window: 'zero' (the complex
really stops), 'exact' (a truncated resolution: homology below and at
the floor is not represented) or 'unknown'.
"""

from __future__ import annotations

from itertools import combinations

from . import linalg
from .groebner import mono_divides, mono_mul
from .rings import Mat, dense_rows

ZERO_BELOW = "zero"
EXACT_BELOW = "exact"
UNKNOWN_BELOW = "unknown"

RANK_CAP = 20000


class FreeComplex:
    __slots__ = ("ring", "lo", "hi", "ranks", "diffs", "degrees", "tail")

    def __init__(self, ring, ranks, diffs, degrees=None, tail=ZERO_BELOW, check=True):
        self.ring = ring
        self.ranks = {i: r for i, r in ranks.items() if r}
        if self.ranks:
            self.lo = min(self.ranks)
            self.hi = max(self.ranks)
        else:
            self.lo, self.hi = 0, -1
        total = sum(self.ranks.values())
        if total > RANK_CAP:
            raise ValueError(
                f"complex too large: total rank {total} exceeds cap {RANK_CAP}"
            )
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
        self.tail = tail
        if check:
            self._validate()

    def _validate(self):
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
        if self.degrees is not None:
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

    @property
    def is_bounded(self):
        return self.tail == ZERO_BELOW

    def homology_floor(self):
        """Lowest degree where homology is determined by the window."""
        return self.lo if self.tail == ZERO_BELOW else self.lo + 1

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
    def from_matrix(cls, ring, mat, at=-1, degrees=None):
        """Two-term complex [source -> target] with the source at `at`."""
        ranks = {at: mat.ncols, at + 1: mat.nrows}
        return cls(ring, ranks, {at: mat}, degrees=degrees)

    def __repr__(self):
        if not self.ranks:
            return "FreeComplex(0)"
        parts = [f"{i}:{self.rank(i)}" for i in range(self.lo, self.hi + 1)]
        tail = "" if self.tail == ZERO_BELOW else f", tail={self.tail}"
        return f"FreeComplex({', '.join(parts)}{tail} over {self.ring})"

    def __eq__(self, other):
        """Structural identity: same ranks, differentials and grading."""
        return (
            isinstance(other, FreeComplex)
            and self.ring == other.ring
            and self.ranks == other.ranks
            and self.diffs == other.diffs
            and self.degrees == other.degrees
            and self.tail == other.tail
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.ranks.items())), self.tail))

    # -- homology and fibers ----------------------------------------------

    def homology(self, i):
        """H^i as a ModulePresentation (quotient-ring aware)."""
        from .resolutions import homology_data

        return homology_data(self, i)[4]

    def fiber_ranks(self, point, lo, hi):
        """Exact ranks of the differentials d^lo .. d^hi evaluated at a
        point, as {i: rank}.

        Over QQ, d^(lo-1) and d^(hi+1) are evaluated and ranked too:
        their modular ranks bound the window's ranks from above (see
        linalg.complex_ranks), so the window rarely needs elimination
        over the rationals.  Over GF(p) every rank is exact as it is.
        """
        pad = 0 if self.ring.field.char else 1
        mats = {}
        for i in range(lo - pad, hi + 1 + pad):
            m = self.diff(i)
            mats[i] = m.evaluate(point) if m.nrows and m.ncols else []
        return linalg.complex_ranks(mats, self.ranks, self.ring.field)

    def fiber_dims(self, point, lo=None, hi=None):
        """Homology dimensions of the complex evaluated at a point.

        Returns {degree: dim over kappa(point)} on the trustworthy
        window (degrees >= homology floor).
        """
        floor = self.homology_floor()
        lo = floor if lo is None else max(lo, floor)
        hi = self.hi if hi is None else hi
        if lo > hi:
            return {}
        ranks = self.fiber_ranks(point, lo - 1, hi)
        return {i: self.rank(i) - ranks[i] - ranks[i - 1] for i in range(lo, hi + 1)}

    def fiber_euler_characteristic(self, point):
        if not self.is_bounded:
            raise ValueError("chi needs a bounded complex")
        dims = self.fiber_dims(point)
        return sum((-1 if i % 2 else 1) * d for i, d in dims.items())

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
        return FreeComplex(self.ring, ranks, diffs, degrees, self.tail, check=False)

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
        tail = _combine_tails(self.tail, other.tail)
        return FreeComplex(self.ring, ranks, diffs, degrees, tail, check=False)


def _same_ring(c, d):
    if c.ring != d.ring:
        raise ValueError("complexes over different rings")


def _combine_tails(a, b):
    for t in (UNKNOWN_BELOW, EXACT_BELOW):
        if a == t or b == t:
            return t
    return ZERO_BELOW


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
    return FreeComplex(ring, ranks, diffs, degrees)


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


# -- tensor, hom, dual ---------------------------------------------------


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
    """Total complex of the double complex C (x) D, standard signs."""
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
    tail = _combine_tails(c.tail, d.tail)
    return FreeComplex(ring, ranks, diffs, degrees, tail)


def _hom_layout(c, d, n):
    layout = []
    for q in range(c.lo, c.hi + 1):
        if d.rank(q + n) == 0 or c.rank(q) == 0:
            continue
        for i in range(c.rank(q)):
            for j in range(d.rank(q + n)):
                layout.append((q, i, j))
    return layout


def hom_complex(c, d):
    """Hom(C, D): term n = products Hom(C^q, D^(q+n)).

    d(f) = d_D o f - (-1)^n f o d_C.  Basis element (q, i, j) is the map
    sending generator i of C^q to generator j of D^(q+n).
    """
    _same_ring(c, d)
    ring = c.ring
    if not c.ranks or not d.ranks:
        return FreeComplex.zero_complex(ring)
    lo = d.lo - c.hi
    hi = d.hi - c.lo
    layouts = {n: _hom_layout(c, d, n) for n in range(lo, hi + 2)}
    offsets = {
        n: {key: idx for idx, key in enumerate(layout)}
        for n, layout in layouts.items()
    }
    ranks = {n: len(layouts[n]) for n in layouts if layouts[n]}
    diffs = {}
    for n in range(lo, hi + 1):
        src, tgt = layouts[n], layouts.get(n + 1, [])
        if not src or not tgt:
            continue
        entries = []
        for col, (q, i, j) in enumerate(src):
            dd = d.diffs.get(q + n)
            if dd is not None:
                for s, entry in dd.column_entries(j):
                    row = offsets[n + 1].get((q, i, s))
                    if row is not None:
                        entries.append((row, col, entry))
            # precomposition with d_C^{q-1}: lands in Hom(C^{q-1}, D^{q+n})
            dc = c.diffs.get(q - 1)
            if dc is not None:
                for ip, entry in dc.row_entries(i):
                    row = offsets[n + 1].get((q - 1, ip, j))
                    if row is not None:
                        entries.append((row, col, entry if n % 2 else -entry))
        diffs[n] = Mat.from_entries(ring, len(tgt), len(src), entries)
    degrees = None
    if c.degrees is not None and d.degrees is not None:
        degrees = {
            n: tuple(
                d.degrees[q + n][j] - c.degrees[q][i] for (q, i, j) in layouts[n]
            )
            for n in ranks
        }
    tail = UNKNOWN_BELOW if (c.tail != ZERO_BELOW or d.tail != ZERO_BELOW) else ZERO_BELOW
    return FreeComplex(ring, ranks, diffs, degrees, tail)


def dual(c):
    """RHom(C, R) for a bounded free complex: hom into the unit."""
    return hom_complex(c, unit_complex(c.ring))


# -- chain maps ----------------------------------------------------------


class ComplexMap:
    """Degreewise matrices commuting with the differentials."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components, check=True):
        _same_ring(source, target)
        self.source = source
        self.target = target
        self.components = {
            i: m for i, m in components.items() if m.nrows and m.ncols
        }
        if check:
            self._validate()

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
        return cls(c, c, {i: Mat.identity(c.ring, r) for i, r in c.ranks.items()}, check=False)


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
    tail = _combine_tails(c.tail, d.tail)
    return FreeComplex(ring, ranks, diffs, degrees, tail)


def tensor_map(phi, psi):
    """(phi (x) psi) for degree-0 chain maps; no signs involved."""
    cs, ct = phi.source, phi.target
    ds, dt = psi.source, psi.target
    src = tensor(cs, ds)
    tgt = tensor(ct, dt)
    ring = cs.ring
    comps = {}
    for n in range(src.lo, src.hi + 1):
        s_layout = _basis_layout(cs, ds, n)
        t_layout = _basis_layout(ct, dt, n)
        t_index = {key: idx for idx, key in enumerate(t_layout)}
        if not s_layout or not t_layout:
            continue
        entries = []
        for col, (p, q, i, j) in enumerate(s_layout):
            mp = phi.component(p)
            mq = psi.component(q)
            if not (mp.nrows and mq.nrows):
                continue
            for r, a in mp.column_entries(i):
                for s, b in mq.column_entries(j):
                    row = t_index.get((p, q, r, s))
                    if row is not None:
                        entries.append((row, col, a * b))
        comps[n] = Mat.from_entries(ring, len(t_layout), len(s_layout), entries)
    return ComplexMap(src, tgt, comps)


# -- Koszul dual stages and their transitions -----------------------------


def koszul_dual_stage(ring, elements, s):
    """Stage s of the dual tower: the tensor over i of [R -> R] with map
    t_i^s.  The map to stage s+1 is koszul_dual_transition."""
    if s < 1:
        raise ValueError("stages start at 1")
    stage = None
    for t in elements:
        t = ring.parse(t) if isinstance(t, str) else t
        factor = two_term(ring, t**s)
        stage = factor if stage is None else tensor(stage, factor)
    return stage


def koszul_dual_transition(ring, elements, s):
    """The map from stage s to stage s+1 of the dual tower: identity in
    factor-degree 0, multiplication by t_i in factor-degree 1."""
    if s < 1:
        raise ValueError("stages start at 1")
    trans = None
    for t in elements:
        t = ring.parse(t) if isinstance(t, str) else t
        factor = ComplexMap(
            two_term(ring, t**s),
            two_term(ring, t ** (s + 1)),
            {0: Mat.identity(ring, 1), 1: Mat(ring, [[t]], ncols=1)},
        )
        trans = factor if trans is None else tensor_map(trans, factor)
    return trans


def cech_cone(stage):
    """Cone of the augmentation stage -> R, the Cech side of the
    supports triangle built from that stage."""
    ring = stage.ring
    aug = ComplexMap(stage, unit_complex(ring), {0: Mat(ring, [[ring.one]], ncols=1)})
    return cone(aug)


# -- graded strands over the coefficient field ----------------------------


def standard_monomials(ring, degree):
    """Monomial basis of the degree-d piece of the (quotient) ring."""
    lts = [q.leading_monomial() for q in ring.quotient_gb]
    return [
        m
        for m in ring.monomials_of_degree(degree)
        if not any(mono_divides(lt, m) for lt in lts)
    ]


def strand(complex_, d):
    """Degree-d strand of a graded complex as field matrices.

    Returns (dims, mats): dims[i] = dim of the strand of term i, and
    mats[i] the matrix of d^i on the strand (entries in the field).
    """
    if complex_.degrees is None:
        raise ValueError("strand extraction needs a graded complex")
    ring = complex_.ring
    field = ring.field
    bases = {}
    for i in range(complex_.lo, complex_.hi + 1):
        basis = []
        for j in range(complex_.rank(i)):
            for mono in standard_monomials(ring, d - complex_.degrees[i][j]):
                basis.append((j, mono))
        bases[i] = basis
    dims = {i: len(b) for i, b in bases.items()}
    mats = {}
    for i in range(complex_.lo, complex_.hi + 1):
        src = bases.get(i, [])
        tgt = bases.get(i + 1, [])
        if not src or not tgt:
            continue
        tgt_index = {key: idx for idx, key in enumerate(tgt)}
        m = complex_.diff(i)
        acc = {}
        for col, (j, mono) in enumerate(src):
            for r, entry in m.column_entries(j):
                prod = ring.reduce_terms(
                    {
                        mono_mul(mono, em): ec
                        for em, ec in entry.terms.items()
                    }
                )
                for pm, pc in prod.terms.items():
                    row = tgt_index.get((r, pm))
                    if row is not None:
                        acc[row, col] = field.add(acc.get((row, col), field.zero), pc)
        mats[i] = dense_rows(len(tgt), len(src), acc.items(), field.zero)
    return dims, mats


def strand_homology_dims(complex_, d, lo=None, hi=None):
    """Homology dimensions of the degree-d strand over the field."""
    field = complex_.ring.field
    dims, mats = strand(complex_, d)
    floor = complex_.homology_floor()
    lo = floor if lo is None else max(lo, floor)
    hi = complex_.hi if hi is None else hi
    rk = linalg.complex_ranks(mats, dims, field)
    out = {}
    for i in range(lo, hi + 1):
        out[i] = dims.get(i, 0) - rk.get(i, 0) - rk.get(i - 1, 0)
    return out


# -- minimization ---------------------------------------------------------


def minimize(complex_):
    """Split off unit (constant) entries of the differentials.

    Gaussian elimination on complexes: homotopy equivalence, preserves
    homology, fiber dimensions and graded strands.  The pivot is always
    the first unit in (degree, row, column) order.  Basis elements keep
    their original indices as labels until the end, so removing one
    renumbers nothing and the elimination only visits nonzero entries.
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
    return FreeComplex(
        ring, final_ranks, mat_diffs, final_degrees, complex_.tail, check=False
    )


def _is_unit(p, field):
    v = p.constant_value()
    return v is not None and v != field.zero
