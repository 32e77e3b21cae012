"""Monomial orders on exponent tuples and their module extensions.

A monomial is a tuple of nonnegative ints, one exponent per variable.
Orders expose `key(mono)`: a tuple usable with max()/sorted(); larger
key means larger monomial.  Module terms are pairs (position, mono);
the default module order is term-over-position with lower positions
winning ties, which is what iterated syzygy computations want.
"""

from __future__ import annotations


class GrevLex:
    """Graded reverse lexicographic; the default everywhere."""

    name = "grevlex"

    def key(self, mono):
        return (sum(mono), tuple(-e for e in reversed(mono)))

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(self.name)


class Lex:
    """Lexicographic; available for elimination."""

    name = "lex"

    def key(self, mono):
        return tuple(mono)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(self.name)


class BlockOrder:
    """Variables [0, split) dominate the rest; grevlex within each block.

    An elimination order: any monomial involving a front-block variable
    beats any monomial without one.  Used for module-finiteness tests
    and restriction of scalars.
    """

    name = "block"

    def __init__(self, split):
        self.split = split

    def key(self, mono):
        front, back = mono[: self.split], mono[self.split :]
        return (
            sum(front),
            tuple(-e for e in reversed(front)),
            sum(back),
            tuple(-e for e in reversed(back)),
        )

    def __repr__(self):
        return f"block({self.split})"

    def __eq__(self, other):
        return type(other) is type(self) and other.split == self.split

    def __hash__(self):
        return hash(("block", self.split))


GREVLEX = GrevLex()
LEX = Lex()

ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def term_over_position(ring_order):
    """Module order: compare monomials first, then prefer low positions."""

    rkey = ring_order.key

    def key(term):
        pos, mono = term
        return (rkey(mono), -pos)

    return key

