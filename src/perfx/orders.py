"""Monomial orders and module orders, described as packable fields.

A monomial is a tuple of nonnegative ints, one exponent per variable.
Every order in perfx compares a sequence of fields lexicographically,
most significant first.  A field is either a linear form in the
exponents with 0/1 coefficients, or a constant that depends only on the
position of a module term:

- grevlex on k variables: (degree, e1+...+e(k-1), ..., e1), the
  prefix-sum form of (degree, -ek, ..., -e1)
- lex: (e1, ..., en)
- `BlockOrder(split)`: the grevlex fields of the front block, then
  those of the back block

A ring order gives its linear forms with `forms(nvars)`; `key(mono)` is
the tuple of their values, which is what polynomials sort by.  Module
orders on terms (position, mono) are `TermOrder`s, built from a ring
order's forms and the position fields `POSITION` (CAP - pos: lower
positions win ties) and `Below(r)` (1 for pos < r, else 0):

- term over position, `order.module(nvars)`: the ring's fields, POSITION
- elimination, `order.elimination(nvars, rank)`: Below(rank), the
  ring's fields, POSITION
- restriction, `restriction_order(ntv, nvars)`: Below(1), grevlex of the
  first ntv variables, POSITION, grevlex of the others

A `TermOrder` packs a term into one int whose int order is the term
order, so the largest term of a vector is `max(vec)`.  From the most
significant bits down, the int holds the fields in order, then the raw
exponents, then the raw position.  Each linear form and each exponent
sits in FIELD_BITS bits under a guard bit that stays clear, so
multiplying a term by a monomial adds the monomial's packed value, and
within one position a term divides another exactly when their
difference has no exponent guard bit set (Monagan & Pearce, CASC 2007).
Packing a monomial of degree above CAP, or a position above CAP,
raises ValueError, and so does a reduction that makes any field of a
term exceed CAP.
"""

from __future__ import annotations

from itertools import compress
from operator import mul

FIELD_BITS = 20
CAP = (1 << FIELD_BITS) - 1


class Below:
    """Position field: 1 for positions below `rank`, else 0."""

    __slots__ = ("rank",)

    def __init__(self, rank):
        self.rank = rank


POSITION = "position"  # position field CAP - pos


def cap_error(what):
    return ValueError(f"{what} exceeds the packed-term cap {CAP}")


def _grevlex_forms(nvars, start, width):
    """grevlex forms on variables [start, start + width) of nvars."""
    return [
        (0,) * start + (1,) * k + (0,) * (nvars - start - k) for k in range(width, 0, -1)
    ]


class MonomialOrder:
    """A ring order: its forms, and the term orders built on them, kept
    (with their monomial tables) for the order's lifetime."""

    name = None

    def __init__(self):
        self._form_cache = {}  # nvars -> forms
        self._term_orders = {}  # (nvars, elimination rank or None) -> TermOrder

    def forms(self, nvars):
        raise NotImplementedError

    def key(self, mono):
        return tuple(sum(compress(mono, f)) for f in self._forms(len(mono)))

    def _forms(self, nvars):
        if nvars not in self._form_cache:
            self._form_cache[nvars] = self.forms(nvars)
        return self._form_cache[nvars]

    def _term_order(self, nvars, rank):
        if (nvars, rank) not in self._term_orders:
            fields = self._forms(nvars) + [POSITION]
            if rank is not None:
                fields.insert(0, Below(rank))
            self._term_orders[nvars, rank] = TermOrder(nvars, fields)
        return self._term_orders[nvars, rank]

    def module(self, nvars):
        """Term over position on free modules of a ring in nvars variables."""
        return self._term_order(nvars, None)

    def elimination(self, nvars, rank):
        """Positions below `rank` dominate; term over position within
        each block."""
        return self._term_order(nvars, rank)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(self.name)


class GrevLex(MonomialOrder):
    """Graded reverse lexicographic; the default everywhere."""

    name = "grevlex"

    def forms(self, nvars):
        return _grevlex_forms(nvars, 0, nvars)


class Lex(MonomialOrder):
    """Lexicographic; available for elimination."""

    name = "lex"

    def forms(self, nvars):
        return [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]


class BlockOrder(MonomialOrder):
    """Variables [0, split) dominate the rest; grevlex within each block.

    An elimination order: any monomial involving a front-block variable
    beats any monomial without one.  Used for module-finiteness tests
    and restriction of scalars.
    """

    name = "block"

    def __init__(self, split):
        super().__init__()
        self.split = split

    def forms(self, nvars):
        s = self.split
        return _grevlex_forms(nvars, 0, s) + _grevlex_forms(nvars, s, nvars - s)

    def __repr__(self):
        return f"block({self.split})"

    def __eq__(self, other):
        return type(other) is type(self) and other.split == self.split

    def __hash__(self):
        return hash(("block", self.split))


GREVLEX = GrevLex()
LEX = Lex()

ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def restriction_order(ntv, nvars):
    """Order for presenting k[t, s]/I over k[s]: position 0 dominates,
    then grevlex of the first ntv variables, then low positions, then
    grevlex of the other variables."""
    return TermOrder(nvars, [
        Below(1), *_grevlex_forms(nvars, 0, ntv), POSITION,
        *_grevlex_forms(nvars, ntv, nvars - ntv),
    ])


class TermOrder:
    """A module order whose terms (pos, mono) pack into ints.

    `pack` and `unpack` convert at the boundary, with tables of the
    monomials seen so far.  The engine reads three masks: `posmask`
    (the raw position), `divmask` (the exponent guard bits) and
    `guardmask` (every guard bit).
    """

    def __init__(self, nvars, fields):
        slot = FIELD_BITS + 1
        self.nvars = nvars
        self.posmask = CAP
        off = FIELD_BITS
        self._exp_offsets = []
        units = []
        guards = 0
        for _ in range(nvars):
            self._exp_offsets.append(off)
            units.append(1 << off)
            guards |= 1 << (off + FIELD_BITS)
            off += slot
        self.divmask = guards
        self._pos_fields = []  # (offset, field)
        for field in reversed(fields):
            if isinstance(field, tuple):
                units = [u + (a << off) for u, a in zip(units, field)]
                guards |= 1 << (off + FIELD_BITS)
                off += slot
            else:
                self._pos_fields.append((off, field))
                off += FIELD_BITS if field is POSITION else 1
        self.guardmask = guards
        self._units = units
        self._bases = {}  # position -> packed value of the monomial 1 there
        self._ints = {}  # monomial -> its packed value at position 0, less the base
        self._monos = {}  # the inverse table
        self._base0 = self.base(0)

    def base(self, pos):
        b = self._bases.get(pos)
        if b is None:
            if not 0 <= pos <= CAP:
                raise cap_error(f"position {pos}")
            b = pos
            for off, field in self._pos_fields:
                if field is POSITION:
                    b += (CAP - pos) << off
                elif pos < field.rank:
                    b += 1 << off
            self._bases[pos] = b
        return b

    def monomial(self, mono):
        """Packed value of a monomial: what multiplying a term by it adds."""
        m = self._ints.get(mono)
        if m is None:
            if sum(mono) > CAP:
                raise cap_error(f"degree {sum(mono)} of monomial {mono}")
            m = self._ints[mono] = sum(map(mul, mono, self._units))
            self._monos[m] = mono
        return m

    def pack(self, pos, mono):
        return self.base(pos) + self.monomial(mono)

    def unpack(self, t):
        """(pos, mono) of a packed term."""
        pos = t & CAP
        m = t - self.base(pos)
        mono = self._monos.get(m)
        if mono is None:
            if t & self.guardmask:
                raise cap_error("a field of a term")
            mono = tuple((m >> off) & CAP for off in self._exp_offsets)
            self._ints[mono] = m
            self._monos[m] = mono
        return pos, mono

    def pack_vector(self, vec):
        """{(pos, mono): c} as {packed term: c}."""
        bases, ints = self._bases, self._ints
        out = {}
        for (pos, mono), c in vec.items():
            b = bases.get(pos)
            m = ints.get(mono)
            if b is None or m is None:
                b, m = self.base(pos), self.monomial(mono)
            out[b + m] = c
        return out

    def unpack_vector(self, vec):
        """{packed term: c} as {(pos, mono): c}."""
        bases, monos = self._bases, self._monos
        out = {}
        for t, c in vec.items():
            pos = t & CAP
            b = bases.get(pos)
            mono = None if b is None else monos.get(t - b)
            out[(pos, mono) if mono is not None else self.unpack(t)] = c
        return out

    def pack_poly(self, terms):
        """{mono: c} as a vector in position 0."""
        b = self._base0
        ints = self._ints
        out = {}
        for m, c in terms.items():
            i = ints.get(m)
            if i is None:
                i = self.monomial(m)
            out[b + i] = c
        return out

    def unpack_poly(self, vec):
        """A vector in position 0 as {mono: c}."""
        b = self._base0
        monos = self._monos
        out = {}
        for t, c in vec.items():
            m = monos.get(t - b)
            if m is None:
                m = self.unpack(t)[1]
            out[m] = c
        return out
