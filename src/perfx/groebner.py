"""Buchberger engine on free-module elements over an exact field.

A vector is a dict {packed term: coefficient} of nonzero coefficients.
A `TermOrder` (orders.py) packs each term (position, exponent tuple)
into one int, and comparing two ints orders them as the module order
does: the leading term of a vector is `max(vec)`, multiplying a term by
a monomial adds the monomial's packed value, and within one position a
term divides another when their difference clears the order's
`divmask`.  A polynomial's terms (rings.py) are these ints at position
0.  Every vector in and out is packed: `syzygy_basis` and `ModuleGB`
take and return vectors of the term-over-position order they are given,
and move them to and from its elimination order with
`TermOrder.repack`.  Only `buchberger`'s pair bookkeeping unpacks.

Coefficients are ints in [0, p) over GF(p) and Fractions over QQ.
Inside `buchberger` and `interreduce` the vectors over QQ are primitive
integer vectors: an S-pair scales each tail by the cofactor of the other
leading coefficient, a reduction step scales the work vector by an
integer instead of dividing by a leading coefficient, and a remainder
loses its content when it joins the basis.  `interreduce` returns monic
Fraction vectors, and `reduce_vector` returns exact normal forms, so the
reduced basis (which is unique) and every normal form are the same as
with Fraction arithmetic throughout.

A `_Basis` holds the reduction data of a list of vectors and is built
once by whoever owns the list; `reduce_vector` takes normal forms
against it.

Syzygies are computed by the component-elimination trick: tag each
generator with a unit vector in a trailing block of positions, take a
Gröbner basis for an order where the leading block dominates, and read
off the basis elements supported entirely in the trailing block.
`ModuleGB` answers membership and normal forms from the plain
term-over-position basis of the generators and builds the tagged basis
only when `lift` first needs it.

Quotient rings never appear here; rings.py appends the quotient ideal
times each basis vector before calling in.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, le

from .orders import cap_error


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def _primitive(vec, lt):
    """A vector over QQ as a primitive integer vector whose leading
    coefficient, at `lt`, is positive; vec itself if it is one."""
    if all(type(c) is int for c in vec.values()):
        ints = vec
    else:
        den = lcm(*[c.denominator for c in vec.values()])
        ints = {t: c.numerator * (den // c.denominator) for t, c in vec.items()}
    g = gcd(*ints.values())
    if ints[lt] < 0:
        g = -g
    if g != 1:
        ints = {t: c // g for t, c in ints.items()}
    return ints


class _Basis:
    """Reduction data of a list of nonzero vectors, grouped by position.

    Over GF(p), and over QQ unless `integral`, elements are stored
    monic.  An integral basis over QQ (the one `buchberger` and
    `interreduce` build) stores primitive integer vectors instead, with
    their leading coefficients in `lcs`.  `tails` holds each element
    without its leading term, which is what a reduction step subtracts.
    The basis keeps the vectors it is given (scaled copies where needed);
    nothing here mutates them.
    """

    __slots__ = ("field", "order", "integral", "elements", "tails", "lts", "lcs", "by_pos")

    def __init__(self, field, order, elements=(), integral=False):
        self.field = field
        self.order = order
        self.integral = integral and not field.char
        self.elements = []
        self.tails = []
        self.lts = []
        self.lcs = []
        self.by_pos = {}
        for vec in elements:
            self.add(vec)

    def add(self, vec, lt=None):
        """Append vec; `lt` is its leading term when the caller knows it."""
        if lt is None:
            lt = max(vec)
        field = self.field
        if self.integral:
            vec = _primitive(vec, lt)
        elif vec[lt] != field.one:
            inv = field.inv(vec[lt])
            vec = {t: field.mul(inv, c) for t, c in vec.items()}
        idx = len(self.elements)
        tail = dict(vec)
        del tail[lt]
        self.elements.append(vec)
        self.tails.append(tail)
        self.lts.append(lt)
        self.lcs.append(vec[lt] if self.integral else 1)
        self.by_pos.setdefault(lt & self.order.posmask, []).append(idx)
        return idx


def reduce_vector(vec, basis):
    """Full normal form of vec against basis; deterministic.

    Terms are taken largest first from a heap of negated terms.  A term
    that cancels leaves its heap entry behind, and that stale entry is
    skipped when it comes up.  Every term a reduction step adds is
    smaller than the term it removes, so the remainder is built in
    descending term order: its first term is its leading term.

    Against an element with leading coefficient lc != 1 (an integral
    basis over QQ), the step for a term with coefficient c is
    w <- (lc/g)·w - (c/g)·x^s·tail with g = gcd(lc, c): the remainder
    collected so far is scaled with w.  The scales multiply to M, and the
    remainder is divided by M at the end, so the result is exact.  A
    term whose packed fields left the cap raises ValueError.
    """
    p = basis.field.char
    order = basis.order
    posmask, divmask, guardmask = order.posmask, order.divmask, order.guardmask
    by_pos, lts, lcs, tails = basis.by_pos, basis.lts, basis.lcs, basis.tails
    heappush, heappop = heapq.heappush, heapq.heappop
    work = dict(vec)
    heap = [-t for t in work]
    heapq.heapify(heap)
    remainder = {}
    scale = 1
    while heap:
        term = -heappop(heap)
        coeff = work.pop(term, None)
        if coeff is None:
            continue
        if term & guardmask:
            raise cap_error("a field of a term")
        for idx in by_pos.get(term & posmask, ()):
            shift = term - lts[idx]
            if not shift & divmask:
                break
        else:
            remainder[term] = coeff
            continue
        lc = lcs[idx]
        if lc == 1:
            q = -coeff
        else:
            g = gcd(lc, coeff)
            q = -(coeff // g)
            a = lc // g
            if a != 1:
                scale *= a
                for t in work:
                    work[t] *= a
                for t in remainder:
                    remainder[t] *= a
        for t, c in tails[idx].items():
            t += shift
            old = work.get(t)
            if old is None:
                work[t] = q * c % p if p else q * c
                heappush(heap, -t)
            elif new := (old + q * c) % p if p else old + q * c:
                work[t] = new
            else:
                del work[t]
    if scale != 1:
        return {t: Fraction(c, scale) for t, c in remainder.items()}
    return remainder


def _spair(basis, i, j, lcm_term):
    """S-vector of two basis elements with the same leading position.

    Each tail is shifted up to the lcm and scaled by the cofactor of the
    other leading coefficient; the leading terms cancel, so only the
    tails are combined.
    """
    p = basis.field.char
    ci, cj = basis.lcs[j], basis.lcs[i]
    if ci != 1 or cj != 1:
        g = gcd(ci, cj)
        ci, cj = ci // g, cj // g
    si, sj = lcm_term - basis.lts[i], lcm_term - basis.lts[j]
    out = {t + si: ci * c for t, c in basis.tails[i].items()}
    for t, c in basis.tails[j].items():
        t += sj
        new = out.get(t, 0) - cj * c
        if p:
            new %= p
        if new:
            out[t] = new
        else:
            out.pop(t, None)
    return out


def _pure_position(vec, posmask):
    return len({t & posmask for t in vec}) == 1


def buchberger(gens, field, order):
    """Gröbner basis of the submodule generated by gens (list of vecs).

    Returns the interreduced, monic, deterministically sorted basis.
    Pairs are treated in the order (total degree of the lcm, term order
    of the lcm, i, j).
    """
    basis = _Basis(field, order, integral=True)
    posmask = order.posmask
    monos = []  # the exponent tuple of each element's leading term
    pairs = []
    for lt, g in _by_leading_term(gens):
        _add_with_pairs(basis, monos, g, lt, pairs)
    while pairs:
        _, lcm_term, i, j = heapq.heappop(pairs)
        if _pair_redundant(basis, monos, i, j):
            continue
        mi, mj = monos[i], monos[j]
        # Product criterion.  Only valid for elements supported in a
        # single position (vectors spanning several components can have
        # nontrivial S-pairs even with coprime leading monomials).
        if (
            mono_mul(mi, mj) == mono_lcm(mi, mj)
            and _pure_position(basis.elements[i], posmask)
            and _pure_position(basis.elements[j], posmask)
        ):
            continue
        s = _spair(basis, i, j, lcm_term)
        r = reduce_vector(s, basis)
        if r:
            _add_with_pairs(basis, monos, r, next(iter(r)), pairs)
    return interreduce(basis.elements, field, order)


def _by_leading_term(vecs):
    """(leading term, vec) for the nonzero vecs, ascending by leading term."""
    pairs = [(max(v), v) for v in vecs if v]
    pairs.sort(key=itemgetter(0))
    return pairs


def _add_with_pairs(basis, monos, vec, lt, pairs):
    idx = basis.add(vec, lt)
    order = basis.order
    pos, mono = order.unpack(lt)
    monos.append(mono)
    base, monomial = order.base(pos), order.monomial
    for other in basis.by_pos[pos]:
        if other == idx:
            continue
        lcm_mono = mono_lcm(monos[other], mono)
        heapq.heappush(pairs, (sum(lcm_mono), base + monomial(lcm_mono), other, idx))


def _pair_redundant(basis, monos, i, j):
    """Chain criterion: skip the pair (i, j) when some k in the same
    position has a leading monomial m_k dividing lcm(m_i, m_j) with
    lcm(m_i, m_k) and lcm(m_j, m_k) both strictly dividing it.

    This is sound because pairs pop in order of lcm degree first.  All
    three elements are in the basis, so the pairs (i, k) and (j, k) are
    or were in the queue, and their lcms strictly divide lcm(m_i, m_j),
    so they have smaller degree: both were treated before (i, j) comes
    up.
    """
    mi, mj = monos[i], monos[j]
    lcm_mono = mono_lcm(mi, mj)
    for k in basis.by_pos[basis.lts[i] & basis.order.posmask]:
        if k == i or k == j:
            continue
        mk = monos[k]
        if mono_divides(mk, lcm_mono) and mk != mi and mk != mj:
            if mono_lcm(mk, mi) != lcm_mono and mono_lcm(mk, mj) != lcm_mono:
                return True
    return False


def interreduce(elements, field, order):
    """Reduced Gröbner basis from a Gröbner basis `elements`.

    Drop leading-term redundant elements (ascending scan, so a divisor
    is kept first), then replace each survivor by its monic leading
    term plus the normal form of its tail against the survivors, in one
    pass against one basis.  The survivors' leading terms are the
    minimal generators of the leading module and no tail term is
    divisible by its own leading term, so the result is the unique
    reduced basis, sorted by ascending leading term.  The input must be
    a Gröbner basis: only then does the scan keep the module it spans.
    """
    basis = _Basis(field, order, integral=True)
    posmask, divmask = order.posmask, order.divmask
    for lt, e in _by_leading_term(elements):
        if all((lt - basis.lts[i]) & divmask for i in basis.by_pos.get(lt & posmask, ())):
            basis.add(e, lt)
    out = []
    for lt, lc, tail in zip(basis.lts, basis.lcs, basis.tails):
        vec = {lt: field.one}
        nf = reduce_vector(tail, basis)
        if basis.integral:
            nf = {t: Fraction(c, lc) for t, c in nf.items()}
        vec.update(nf)
        out.append(vec)
    return out


def _tagged(gens, rank, order, field, extra):
    """Generator i with the unit tag e_(rank + i) added, then the nonzero
    `extra` vectors untagged, moved from `order` to its elimination
    order at `rank`: the input of an elimination GB on R^rank."""
    eliminate = order.elimination(rank)
    augmented = []
    for i, g in enumerate(gens):
        aug = eliminate.repack(g, order)
        aug[eliminate.base(rank + i)] = field.one
        augmented.append(aug)
    augmented.extend(eliminate.repack(e, order) for e in extra if e)
    return augmented


def syzygy_basis(gens, rank, field, order, extra=()):
    """Generators of the syzygy module of gens inside R^rank.

    gens and `extra` are vectors of the term-over-position order
    `order`.  `extra` holds untagged vectors (quotient-ideal multiples
    and any span to work modulo) whose relations are not reported: the
    result is a list of vectors of `order` in R^len(gens), with syzygies
    taken modulo the extra block.
    """
    eliminate = order.elimination(rank)
    gb = buchberger(_tagged(gens, rank, order, field, extra), field, eliminate)
    # the leading term is in the tag block only if every term is
    return [
        order.repack(g, eliminate, -rank) for g in gb if next(iter(g)) & order.posmask >= rank
    ]


class ModuleGB:
    """Gröbner data for a list of generators of a submodule of R^rank.

    Vectors in and out are vectors of the term-over-position order
    `order`.  Membership and canonical normal forms use the reduced
    basis `plain_gb` of gens + extra, computed directly.  Lifting
    vectors to coefficients over the generators needs the tagged
    elimination basis, which the first `lift` call builds.  Both bases
    are reduced, so `plain_gb` is exactly the projection of the tagged
    one to R^rank, interreduced.
    """

    def __init__(self, gens, rank, field, order, extra=()):
        self.gens = gens
        self.extra = extra
        self.rank = rank
        self.field = field
        self.order = order
        self.plain_gb = buchberger([*gens, *extra], field, order)
        self.basis = _Basis(field, order, self.plain_gb)
        self._tagged_basis = None

    def normal_form(self, vec):
        return reduce_vector(vec, self.basis)

    def contains(self, vec):
        return not self.normal_form(vec)

    def leading_terms(self):
        """Leading (position, monomial) pairs of the plain basis."""
        return [self.order.unpack(t) for t in self.basis.lts]

    def lift(self, vec):
        """Coefficients expressing vec over the generators, or None.

        Returns a vector c in R^len(gens), position i holding the
        coefficient of gens[i], with vec = sum_i c[i] * gens[i] (modulo
        the extra block).
        """
        eliminate = self.order.elimination(self.rank)
        if self._tagged_basis is None:
            tagged = _tagged(self.gens, self.rank, self.order, self.field, self.extra)
            basis = buchberger(tagged, self.field, eliminate)
            self._tagged_basis = _Basis(self.field, eliminate, basis)
        rem = reduce_vector(eliminate.repack(vec, self.order), self._tagged_basis)
        if any(t & eliminate.posmask < self.rank for t in rem):
            return None
        neg = self.field.neg
        return self.order.repack({t: neg(c) for t, c in rem.items()}, eliminate, -self.rank)
