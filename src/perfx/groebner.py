"""Buchberger engine on free-module elements over an exact field.

A vector is a dict mapping terms (position, exponent-tuple) to nonzero
field elements.  The engine is deliberately order-agnostic: callers
hand in a term key function (see orders.py).  A `_Basis` holds the
reduction data of a list of vectors and is built once by whoever owns
the list; `reduce_vector` takes normal forms against it.

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
from operator import add, le, sub


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_div(a, b):
    return tuple(map(sub, a, b))


def mono_divides(a, b):
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def vec_iadd_scaled(target, vec, coeff, shift, field):
    """target += coeff * x^shift * vec, in place."""
    for (pos, mono), c in vec.items():
        term = (pos, mono_mul(mono, shift))
        new = field.add(target.get(term, field.zero), field.mul(coeff, c))
        if new == field.zero:
            target.pop(term, None)
        else:
            target[term] = new


def vec_scale(vec, coeff, field):
    if coeff == field.zero:
        return {}
    return {t: field.mul(coeff, c) for t, c in vec.items()}


def leading_term(vec, key):
    return max(vec, key=key)


class _Basis:
    """Reduction data of a list of nonzero vectors, grouped by position.

    Elements are stored monic; `tails` holds each element without its
    leading term, which is what a reduction step subtracts.  The basis
    keeps the vectors it is given (scaled copies where they are not
    monic); nothing here mutates them.
    """

    __slots__ = ("field", "key", "elements", "tails", "lts", "by_pos")

    def __init__(self, field, key, elements=()):
        self.field = field
        self.key = key
        self.elements = []
        self.tails = []
        self.lts = []
        self.by_pos = {}
        for vec in elements:
            self.add(vec)

    def add(self, vec, lt=None):
        """Append vec; `lt` is its leading term when the caller knows it."""
        if lt is None:
            lt = leading_term(vec, self.key)
        lc = vec[lt]
        if lc != self.field.one:
            vec = vec_scale(vec, self.field.inv(lc), self.field)
        idx = len(self.elements)
        self.elements.append(vec)
        self.tails.append({t: c for t, c in vec.items() if t != lt})
        self.lts.append(lt)
        self.by_pos.setdefault(lt[0], []).append(idx)
        return idx


class _Desc(tuple):
    """A (key, term) pair that sorts in descending key order.

    heapq is a min-heap; reversing the comparison makes it pop the
    largest term first while comparing keys exactly as `key` orders
    them, whatever shape the key tuples have.
    """

    __slots__ = ()
    __lt__ = tuple.__gt__


def reduce_vector(vec, basis):
    """Full normal form of vec against basis; deterministic.

    Terms are taken largest first from a heap of (key, term) entries;
    each term's key is computed once, when the term enters the work
    dict.  A term that cancels leaves its heap entry behind, and that
    stale entry is skipped when it comes up.  Every term a reduction
    step adds is smaller than the term it removes, so the remainder is
    built in descending term order: its first term is its leading term.
    """
    field, key = basis.field, basis.key
    fadd, fmul, zero = field.add, field.mul, field.zero
    by_pos, lts, tails = basis.by_pos, basis.lts, basis.tails
    heappush, heappop = heapq.heappush, heapq.heappop
    work = dict(vec)
    heap = [_Desc((key(t), t)) for t in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        term = heappop(heap)[1]
        coeff = work.pop(term, None)
        if coeff is None:
            continue
        pos, mono = term
        for idx in by_pos.get(pos, ()):
            bmono = lts[idx][1]
            if mono_divides(bmono, mono):
                break
        else:
            remainder[term] = coeff
            continue
        shift = mono_div(mono, bmono)
        q = field.neg(coeff)  # basis elements are monic
        for (bpos, m), c in tails[idx].items():
            t = (bpos, mono_mul(m, shift))
            old = work.get(t)
            if old is None:
                work[t] = fmul(q, c)
                heappush(heap, _Desc((key(t), t)))
            else:
                new = fadd(old, fmul(q, c))
                if new == zero:
                    del work[t]
                else:
                    work[t] = new
    return remainder


def _spair(basis, i, j):
    """S-vector of two basis elements with the same leading position.

    The monic leading terms cancel, so only the tails are combined.
    """
    field = basis.field
    (_, mi), (_, mj) = basis.lts[i], basis.lts[j]
    lcm = mono_lcm(mi, mj)
    si, sj = mono_div(lcm, mi), mono_div(lcm, mj)
    out = {}
    vec_iadd_scaled(out, basis.tails[i], field.one, si, field)
    vec_iadd_scaled(out, basis.tails[j], field.neg(field.one), sj, field)
    return out


def _pure_position(vec):
    positions = {pos for (pos, _m) in vec}
    return len(positions) == 1


def buchberger(gens, field, key):
    """Gröbner basis of the submodule generated by gens (list of vecs).

    Returns the interreduced, monic, deterministically sorted basis.
    """
    basis = _Basis(field, key)
    pairs = []
    for lt, g in _by_leading_term(gens, key):
        _add_with_pairs(basis, g, lt, pairs)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        if _pair_redundant(basis, i, j):
            continue
        (_, mi), (_, mj) = basis.lts[i], basis.lts[j]
        lcm = mono_lcm(mi, mj)
        # Product criterion.  Only valid for elements supported in a
        # single position (vectors spanning several components can have
        # nontrivial S-pairs even with coprime leading monomials).
        if (
            mono_mul(mi, mj) == lcm
            and _pure_position(basis.elements[i])
            and _pure_position(basis.elements[j])
        ):
            continue
        s = _spair(basis, i, j)
        r = reduce_vector(s, basis)
        if r:
            _add_with_pairs(basis, r, next(iter(r)), pairs)
    return interreduce(basis.elements, field, key)


def _by_leading_term(vecs, key):
    """(leading term, vec) for the nonzero vecs, ascending by leading term."""
    pairs = [(leading_term(v, key), v) for v in vecs if v]
    pairs.sort(key=lambda p: key(p[0]))
    return pairs


def _add_with_pairs(basis, vec, lt, pairs):
    idx = basis.add(vec, lt)
    pos = basis.lts[idx][0]
    for other in basis.by_pos[pos]:
        if other == idx:
            continue
        lcm = mono_lcm(basis.lts[other][1], basis.lts[idx][1])
        heapq.heappush(pairs, (sum(lcm), basis.key((pos, lcm)), other, idx))
    return idx


def _pair_redundant(basis, i, j):
    """Chain criterion: some k with LT(k) | lcm and both mixed pairs done.

    Conservative version: only skip when LT(k) strictly divides the lcm
    and k > max(i, j) was already inserted (its pairs with i and j were
    enqueued after and will be or were processed).  Keeping this weak
    preserves correctness without bookkeeping processed-pair sets.
    """
    (_, mi), (_, mj) = basis.lts[i], basis.lts[j]
    pos = basis.lts[i][0]
    lcm = mono_lcm(mi, mj)
    for k in basis.by_pos.get(pos, ()):
        if k == i or k == j:
            continue
        mk = basis.lts[k][1]
        if mono_divides(mk, lcm) and mk != mi and mk != mj:
            if mono_lcm(mk, mi) != lcm and mono_lcm(mk, mj) != lcm:
                return True
    return False


def interreduce(elements, field, key):
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
    basis = _Basis(field, key)
    for lt, e in _by_leading_term(elements, key):
        pos, mono = lt
        if not any(mono_divides(basis.lts[i][1], mono) for i in basis.by_pos.get(pos, ())):
            basis.add(e, lt)
    out = []
    for lt, tail in zip(basis.lts, basis.tails):
        vec = {lt: field.one}
        vec.update(reduce_vector(tail, basis))
        out.append(vec)
    return out


def elimination_key(rank, ring_key):
    """Order on R^(rank + n) where the first `rank` positions dominate.

    Within each block: term over position.
    """

    def key(term):
        pos, mono = term
        return (1 if pos < rank else 0, ring_key(mono), -pos)

    return key


def _tagged(gens, rank, nvars, field, extra):
    """Generator i with the unit tag e_(rank + i) added, then the nonzero
    `extra` vectors untagged: the input of an elimination GB on R^rank."""
    unit = (0,) * nvars
    augmented = []
    for i, g in enumerate(gens):
        aug = dict(g)
        aug[(rank + i, unit)] = field.one
        augmented.append(aug)
    augmented.extend(dict(e) for e in extra if e)
    return augmented


def syzygy_basis(gens, rank, nvars, field, ring_key, extra=()):
    """Generators of the syzygy module of gens inside R^rank.

    `extra` holds untagged vectors (quotient-ideal multiples and any
    span to work modulo) whose relations are not reported: the result
    is a list of vectors in R^len(gens) with syzygies taken modulo the
    extra block.
    """
    key = elimination_key(rank, ring_key)
    gb = buchberger(_tagged(gens, rank, nvars, field, extra), field, key)
    out = []
    for g in gb:
        if all(pos >= rank for (pos, _mono) in g):
            out.append({(pos - rank, mono): c for (pos, mono), c in g.items()})
    return out


class ModuleGB:
    """Gröbner data for a list of generators of a submodule of R^rank.

    Membership and canonical normal forms use the reduced
    term-over-position basis `plain_gb` of gens + extra, computed
    directly.  Lifting vectors to coefficients over the generators needs
    the tagged elimination basis, which the first `lift` call builds.
    Both bases are reduced, so `plain_gb` is exactly the projection of
    the tagged one to R^rank, interreduced.
    """

    def __init__(self, gens, rank, nvars, field, ring_key, extra=()):
        self.gens = gens
        self.extra = extra
        self.rank = rank
        self.nvars = nvars
        self.field = field
        self.ring_key = ring_key
        key = lambda term: (ring_key(term[1]), -term[0])
        self.plain_gb = buchberger(list(gens) + list(extra), field, key)
        self.basis = _Basis(field, key, self.plain_gb)
        self._tagged_basis = None

    def normal_form(self, vec):
        return reduce_vector(vec, self.basis)

    def contains(self, vec):
        return not self.normal_form(vec)

    def lift(self, vec):
        """Coefficients expressing vec over the generators, or None.

        Returns a list of poly-dicts c with vec = sum_i c[i] * gens[i]
        (modulo the extra block).
        """
        if self._tagged_basis is None:
            key = elimination_key(self.rank, self.ring_key)
            tagged = _tagged(self.gens, self.rank, self.nvars, self.field, self.extra)
            self._tagged_basis = _Basis(self.field, key, buchberger(tagged, self.field, key))
        rem = reduce_vector(vec, self._tagged_basis)
        if any(pos < self.rank for (pos, _m) in rem):
            return None
        coeffs = [{} for _ in self.gens]
        for (pos, mono), c in rem.items():
            coeffs[pos - self.rank][mono] = self.field.neg(c)
        return coeffs
