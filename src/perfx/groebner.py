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

Coefficients are ints in [0, p) over GF(p).  Over QQ a coefficient is
an int when it is integral and a Fraction otherwise (`fields.rational`).
Inside `buchberger` and `interreduce` the vectors over QQ are primitive
integer vectors: an S-pair scales each tail by the cofactor of the other
leading coefficient, a reduction step scales the work vector by an
integer instead of dividing by a leading coefficient, and a remainder
loses its content when it joins the basis.  `_reduce` is the one
reduction: it returns an integer remainder and the integer it was scaled
by, and those callers keep the integers.  `interreduce` returns monic
vectors, and `reduce_vector` divides by the scale to return exact
normal forms, each quotient through `fields.rational`, so the reduced
basis (which is unique) and every normal form are the same as with
Fraction arithmetic throughout.

A `_Basis` holds the reduction data of a list of vectors, and
`reduce_vector` takes normal forms against it.  Only this module builds
one; other modules read normal forms through `ModuleGB.normal_form`.

`buchberger` treats S-pairs by sugar degree (Giovini, Mora, Niesi,
Robbiano & Traverso, ISSAC 1991), and as each element joins, `_Pairs`
drops the pairs that Gebauer and Möller's criteria B, M and F and the
product criterion show redundant (JSC 1988).  Each criterion is sound
under any selection order; `_Pairs` gives the argument.

Syzygies are computed by the component-elimination trick: tag each
generator with a unit vector in a trailing block of positions, take a
Gröbner basis for an order where the leading block dominates, and read
off the basis elements supported entirely in the trailing block.  Only
those are interreduced: every term of such an element lies in the
trailing block, so reducing it against the rest of the basis changes
nothing.
When the generators already form a Gröbner basis, `schreyer_relations`
needs no new one.  Tagged the same way, they are one `_Basis`, and the
tag parts of remainders are relations: the S-vector of each pair with
one leading position gives a Schreyer syzygy, and these generate all
syzygies (Schreyer's theorem; La Scala & Stillman, JSC 1998), while
each vector to work modulo gives its lift.
`ModuleGB` answers membership and normal forms from the plain
term-over-position basis of the generators and builds the tagged basis
only when `lift` first needs it.

Quotient rings never appear here; rings.py keeps a quotient ideal as a
rank-1 `ModuleGB` and appends the ideal times each basis vector before
calling in.
"""

from __future__ import annotations

import heapq
from itertools import groupby
from math import gcd, lcm
from operator import itemgetter, le

from .fields import rational
from .orders import cap_error


def mono_divides(a, b):
    return all(map(le, a, b))


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


def _reduce(vec, basis):
    """Full normal form of vec against basis, as (remainder, scale);
    deterministic.

    Terms are taken largest first from a heap of negated terms.  A term
    that cancels leaves its heap entry behind, and that stale entry is
    skipped when it comes up.  Every term a reduction step adds is
    smaller than the term it removes, so the remainder is built in
    descending term order: its first term is its leading term.

    Against an element with leading coefficient lc != 1 (an integral
    basis over QQ), the step for a term with coefficient c is
    w <- (lc/g)·w - (c/g)·x^s·tail with g = gcd(lc, c): the remainder
    collected so far is scaled with w.  `scale` is the product of those
    scales, so the normal form is remainder / scale; it is 1 over GF(p),
    and the remainder of an integer vector is an integer vector.  A
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
    return remainder, scale


def reduce_vector(vec, basis):
    """Full normal form of vec against basis: `_reduce`'s remainder
    divided by its scale, so the result is exact; over QQ each
    coefficient is an int when integral (`fields.rational`)."""
    remainder, scale = _reduce(vec, basis)
    if basis.field.char:
        return remainder
    return {t: rational(c, scale) for t, c in remainder.items()}


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


def buchberger(gens, field, order, drop_below=0):
    """Gröbner basis of the submodule generated by gens (list of vecs).

    Returns the interreduced, monic basis sorted by ascending leading
    term.  Elements whose leading position is below `drop_below` are
    dropped before interreduction: under `order.elimination(drop_below)`
    the others are a Gröbner basis of the submodule's intersection with
    the trailing positions, and the result is its reduced basis.

    Each element carries a sugar degree: an input's is the largest total
    degree of its terms, a pair's is max(s_i - deg m_i, s_j - deg m_j) +
    deg lcm(m_i, m_j) for leading monomials m_i, m_j, and a remainder
    keeps the sugar of its pair.  Pairs pop by (sugar, lcm term, i, j).
    When an element joins, `_Pairs` drops the pairs that Gebauer and
    Möller's criteria B, M and F or the product criterion show
    redundant.  Each dropped pair is covered by a chain of pairs whose
    lcms divide its lcm; that argument uses divisibility alone, so each
    criterion is sound under sugar selection or any other order.
    """
    pairs = _Pairs(field, order)
    degree = order.degree
    for lt, g in _by_leading_term(gens):
        pairs.add(g, lt, max(map(degree, g)))
    basis, heap, pending = pairs.basis, pairs.heap, pairs.pending
    posmask = order.posmask
    while heap:
        sugar, lcm_term, i, j = heapq.heappop(heap)
        if pending[lcm_term & posmask].pop((i, j), None) is None:
            continue
        r = _reduce(_spair(basis, i, j, lcm_term), basis)[0]
        if r:
            pairs.add(r, next(iter(r)), sugar)
    kept = [
        basis.elements[k]
        for pos, active in pairs.active.items()
        if pos >= drop_below
        for k in active
    ]
    return interreduce(kept, field, order)


def _by_leading_term(vecs):
    """(leading term, vec) for the nonzero vecs, ascending by leading term."""
    pairs = [(max(v), v) for v in vecs if v]
    pairs.sort(key=itemgetter(0))
    return pairs


class _Pairs:
    """The pair queue of one `buchberger` run, with Gebauer and Möller's
    update (JSC 1988, as in Becker & Weispfenning, *Gröbner Bases*, 5.5).

    `add(h)` appends h to the basis and then, within h's position:

    - criterion B: drops each pending pair (i, j) with m_h | lcm(m_i, m_j)
      whose lcm differs from both lcm(m_i, m_h) and lcm(m_j, m_h);
    - criterion M: drops the new pair (k, h) when another new pair's lcm
      divides lcm(m_k, m_h), and of new pairs with one lcm (criterion F)
      keeps one, or none when one of them meets the product criterion;
    - the product criterion: drops (k, h) when m_k and m_h are coprime and
      both vectors lie in one position (a vector spanning several
      positions can have a nonzero S-pair reduction even then);
    - deactivates each older element whose leading monomial m_h divides:
      it stays in the basis for reduction and its queued pairs stay, but
      it forms no new pairs and is left out of the final interreduction.

    Why this is sound under any selection order: a pair (i, j) that
    criterion B, M or F or a deactivation drops has a third element k
    with m_k | lcm(m_i, m_j) whose pairs (i, k) and (j, k) have lcms
    dividing lcm(m_i, m_j), strictly where the criterion asks for it,
    and each of those pairs is kept, treated, met by the product
    criterion or dropped on the same grounds.  By Buchberger's chain
    criterion the S-vector of (i, j) has a standard representation once
    theirs do, and induction on the lcm under divisibility gives one to
    every pair.  The induction never uses the order in which pairs are
    treated.

    `pending` holds the queued pairs of each position as {(i, j): lcm
    term}; the heap entry of a pair that criterion B drops stays and is
    skipped when it comes up.
    """

    __slots__ = ("basis", "order", "monos", "excess", "pure", "active", "pending", "heap")

    def __init__(self, field, order):
        self.basis = _Basis(field, order, integral=True)
        self.order = order
        self.monos = []  # the exponent tuple of each element's leading term
        self.excess = []  # each element's sugar less the degree of its leading term
        self.pure = []  # whether each element lies in one position
        self.active = {}  # position -> elements that still form pairs
        self.pending = {}  # position -> {(i, j): lcm term}
        self.heap = []  # (sugar, lcm term, i, j)

    def add(self, vec, lt, sugar):
        basis, order, monos, excess, pure = (
            self.basis, self.order, self.monos, self.excess, self.pure
        )
        h = basis.add(vec, lt)
        pos, mono = order.unpack(lt)
        monos.append(mono)
        excess.append(sugar - sum(mono))
        pure.append(_pure_position(vec, order.posmask))
        active = self.active.get(pos)
        if active is None:
            self.active[pos] = [h]
            return
        divmask, lts = order.divmask, basis.lts
        base, monomial = order.base(pos), order.monomial
        lcms = {}  # k -> lcm term of m_k and m_h
        new = []  # (lcm term, k, degree of the lcm)
        for k in active:
            lcm_mono = tuple(map(max, monos[k], mono))
            lcms[k] = l = base + monomial(lcm_mono)
            new.append((l, k, sum(lcm_mono)))
        pending = self.pending.setdefault(pos, {})
        dropped = []
        for key, l in pending.items():
            if not (l - lt) & divmask:
                for k in key:
                    if k not in lcms:
                        lcms[k] = base + monomial(tuple(map(max, monos[k], mono)))
                if lcms[key[0]] != l and lcms[key[1]] != l:
                    dropped.append(key)
        for key in dropped:
            del pending[key]
        # a proper divisor of an lcm is a smaller term, so it comes first
        new.sort()
        smaller = []
        for l, group in groupby(new, itemgetter(0)):
            group = list(group)
            if not any(not (l - d) & divmask for d in smaller):
                # F: queue the group's last pair unless one meets the product criterion
                for _, k, degree in group:
                    if l + base == lts[k] + lt and pure[k] and pure[h]:
                        break
                else:
                    pending[(k, h)] = l
                    heapq.heappush(self.heap, (max(excess[k], excess[h]) + degree, l, k, h))
            smaller.append(l)
        active[:] = [k for k in active if (lts[k] - lt) & divmask]
        active.append(h)


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
        nf, scale = _reduce(tail, basis)
        if basis.integral:
            nf = {t: rational(c, lc * scale) for t, c in nf.items()}
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
    tagged = _tagged(gens, rank, order, field, extra)
    gb = buchberger(tagged, field, eliminate, drop_below=rank)
    return [order.repack(g, eliminate, -rank) for g in gb]


def schreyer_relations(gens, rank, field, order, modulo=(), extra=()):
    """Generators of the relations of gens inside R^rank modulo the span
    of `modulo` and `extra`, with no new Gröbner basis.

    gens (nonzero) and `extra` must together be a Gröbner basis of the
    submodule they span under `order`, and every `modulo` vector must lie
    in that submodule.  Each generator is tagged with e_(rank + j) in one
    basis, and the tag part of a remainder against it is a relation:

    - each modulo vector reduces to a relation that lifts it;
    - for each pair of basis elements with one leading position, their
      S-vector reduces to a Schreyer syzygy, and these syzygies of gens
      and extra, cut to the tags, generate the relations of gens modulo
      extra (Schreyer's theorem, as in La Scala & Stillman, JSC 1998).

    A pair whose lcm is divisible by a third leading monomial, with both
    of its pairs' lcms proper divisors, is skipped: its syzygy is a
    combination of theirs (Buchberger's chain criterion).  The product
    criterion skips nothing: its Koszul syzygies are relations too.
    A remainder with a term in R^rank raises ValueError, so neither an
    input that is not a Gröbner basis nor a modulo vector outside its
    span gives an answer.  The result is a list of nonzero vectors of
    `order` in R^len(gens): a generating set, not a reduced basis.
    """
    if not all(gens):
        raise ValueError("a generator is zero")
    eliminate = order.elimination(rank)
    basis = _Basis(field, eliminate, _tagged(gens, rank, order, field, extra), integral=True)
    posmask, divmask = eliminate.posmask, eliminate.divmask
    lts = basis.lts
    vecs = [eliminate.repack(b, order) for b in modulo if b]
    if basis.integral:
        vecs = [_primitive(b, max(b)) for b in vecs]
    for pos, idxs in basis.by_pos.items():
        base, monos = eliminate.base(pos), {i: eliminate.unpack(lts[i])[1] for i in idxs}
        lcms = {
            (i, j): base + eliminate.monomial(tuple(map(max, monos[i], monos[j])))
            for a, i in enumerate(idxs) for j in idxs[a + 1:]
        }
        for (i, j), l in lcms.items():
            if not any(
                k != i and k != j and not (l - lts[k]) & divmask
                and lcms[min(i, k), max(i, k)] != l and lcms[min(j, k), max(j, k)] != l
                for k in idxs
            ):
                vecs.append(_spair(basis, i, j, l))
    relations = []
    for vec in vecs:
        remainder, scale = _reduce(vec, basis)
        if any(t & posmask < rank for t in remainder):
            raise ValueError("a remainder leaves the tags: the generators are not a "
                             "Gröbner basis, or a modulo vector is outside their span")
        if basis.integral:
            remainder = {t: rational(c, scale) for t, c in remainder.items()}
        if remainder:
            relations.append(order.repack(remainder, eliminate, -rank))
    return relations


class ModuleGB:
    """Gröbner data for a list of generators of a submodule of R^rank.

    Vectors in and out are vectors of the term-over-position order
    `order`.  Membership and canonical normal forms use the reduced
    basis `plain_gb` of gens + extra, computed directly.  Lifting
    vectors to coefficients over the generators needs the tagged
    elimination basis, which the first `lift` call builds.  Both bases
    are reduced, so `plain_gb` is exactly the projection of the tagged
    one to R^rank, interreduced.  Every quotient ring keeps one, so the
    reduced basis, being monic, is held once: as the `_Basis` elements.
    """

    __slots__ = ("gens", "extra", "rank", "field", "order", "basis", "_tagged_basis")

    def __init__(self, gens, rank, field, order, extra=()):
        self.gens = gens
        self.extra = extra
        self.rank = rank
        self.field = field
        self.order = order
        self.basis = _Basis(field, order, buchberger([*gens, *extra], field, order))
        self._tagged_basis = None

    @property
    def plain_gb(self):
        """The reduced basis, ascending by leading term."""
        return self.basis.elements

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
