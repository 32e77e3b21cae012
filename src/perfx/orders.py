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

A ring order gives its linear forms with `forms(nvars)`.  Every order's
forms determine the monomial, so a monomial's packed value in the
ring's module order (`module_order.monomial`) is its one sort key, and
a polynomial keeps each term as that value at position 0 (rings.py).
Module orders on terms (position, mono) are `TermOrder`s, built from a
ring order's forms and the position fields `POSITION` (CAP - pos: lower
positions win ties) and `Below(r)` (1 for pos < r, else 0):

- term over position, `order.module(nvars)`: the ring's fields, POSITION
- elimination, `module.elimination(rank)` of a module order: Below(rank),
  the ring's fields, POSITION
- restriction, `restriction_order(ntv, nvars)`: grevlex of the first
  ntv variables, POSITION, grevlex of the others; its `elimination(1)`
  (Below(1) in front) presents k[t, s]/I over k[s]

A `TermOrder` packs a term into one int whose int order is the term
order, so the largest term of a vector is `max(vec)`.  From the most
significant bits down, the int holds the fields in order, then the raw
exponents, then the raw position.  Each linear form and each exponent
sits in FIELD_BITS bits under a guard bit that stays clear, so
multiplying a term by a monomial adds the monomial's packed value, and
within one position a term divides another exactly when their
difference has no exponent guard bit set (Monagan & Pearce, CASC 2007).
Packing a monomial with an exponent or a field above CAP, or a
position above CAP, raises ValueError, and so does a product or a
reduction that makes any field of a term exceed CAP.  So `monomial`,
a product and `unpack` accept the same monomials, whichever of them
meets a monomial first.

A module order and its elimination orders pack every monomial to the
same int; they differ only by the Below bit on low positions.  So
`repack` moves a vector between them, and shifts its positions, by
adding to each term an int that depends only on its position, and
`split` cuts a vector into its positions, each moved to position 0.
"""

from __future__ import annotations

from functools import cache
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
    """A ring order: its forms, and the module orders built on them, kept
    (with their monomial tables) for the order's lifetime."""

    name = None

    def __init__(self):
        self._modules = {}  # nvars -> TermOrder

    def forms(self, nvars):
        raise NotImplementedError

    def module(self, nvars):
        """Term over position on free modules of a ring in nvars variables."""
        if nvars not in self._modules:
            self._modules[nvars] = TermOrder(nvars, self.forms(nvars) + [POSITION])
        return self._modules[nvars]

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


@cache
def restriction_order(ntv, nvars):
    """Grevlex of the first ntv variables, then low positions, then
    grevlex of the other variables: the base order for presenting
    k[t, s]/I over k[s].  One order, with its monomial tables, per
    (ntv, nvars)."""
    return TermOrder(nvars, [
        *_grevlex_forms(nvars, 0, ntv), POSITION, *_grevlex_forms(nvars, ntv, nvars - ntv),
    ])


class TermOrder:
    """A module order whose terms (pos, mono) pack into ints.

    `pack` and `unpack` convert between the two, with tables of the
    monomials seen so far and of their total degrees, which `degree`
    reads.  The engine reads three masks: `posmask` (the raw position),
    `divmask` (the exponent guard bits) and `guardmask` (every guard
    bit).
    """

    def __init__(self, nvars, fields):
        slot = FIELD_BITS + 1
        self.nvars = nvars
        self.fields = fields
        self._eliminations = {}  # rank -> TermOrder
        self._deltas = {}  # (source order, shift) -> {position: what its terms gain}
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
        self._forms = [field for field in fields if isinstance(field, tuple)]
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
        self._degrees = {}  # packed value -> total degree of its monomial

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
        """Packed value of a monomial: what multiplying a term by it adds.
        Raises the cap error when one of its fields or exponents passes
        CAP, the same test a product of terms meets in check_products."""
        m = self._ints.get(mono)
        if m is None:
            for form in self._forms:
                value = sum(map(mul, mono, form))
                if value > CAP:
                    what = "degree" if all(form) else "field"
                    raise cap_error(f"{what} {value} of monomial {mono}")
            if max(mono, default=0) > CAP:
                raise cap_error(f"exponent {max(mono)} of monomial {mono}")
            m = self._ints[mono] = sum(map(mul, mono, self._units))
            self._monos[m] = mono
            self._degrees[m] = sum(mono)
        return m

    def pack(self, pos, mono):
        return self.base(pos) + self.monomial(mono)

    def check_products(self, terms):
        """Raise the cap error if a term, a product of two terms, left the
        cap.  Each exponent of a product is below 2 CAP: it fits its slot."""
        for t in terms:
            if t & self.guardmask:
                mono = tuple((t >> off) & (2 * CAP + 1) for off in self._exp_offsets)
                raise cap_error(f"degree {sum(mono)} of monomial {mono}")

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
            self._degrees[m] = sum(mono)
        return pos, mono

    def degree(self, t):
        """Total degree of a packed term's monomial."""
        d = self._degrees.get(t - self.base(t & CAP))
        return sum(self.unpack(t)[1]) if d is None else d

    def elimination(self, rank):
        """Positions below `rank` dominate; this order within each block.
        It packs every monomial as this order does."""
        if rank not in self._eliminations:
            self._eliminations[rank] = TermOrder(self.nvars, [Below(rank), *self.fields])
        return self._eliminations[rank]

    def repack(self, vec, source, shift=0):
        """A vector of `source`, an order that packs monomials as this one
        does, as a vector of this order with each position moved by
        `shift`."""
        deltas = self._deltas.setdefault((source, shift), {})
        out = {}
        for t, c in vec.items():
            pos = t & CAP
            d = deltas.get(pos)
            if d is None:
                d = deltas[pos] = self.base(pos + shift) - source.base(pos)
            out[t + d] = c
        return out

    def split(self, vec):
        """A vector as {pos: terms}, positions ascending, each part moved
        to position 0, where a polynomial of the order's ring keeps its
        terms; positions without terms are absent."""
        b0 = self.base(0)
        shifts = {}  # position -> what its terms gain
        parts = {}
        for t, c in vec.items():
            pos = t & CAP
            d = shifts.get(pos)
            if d is None:
                d = shifts[pos] = b0 - self.base(pos)
            parts.setdefault(pos, {})[t + d] = c
        return {pos: parts[pos] for pos in sorted(parts)}
