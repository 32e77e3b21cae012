"""Exact coefficient fields: the rationals and prime fields GF(p).

Elements are plain Python objects and the Field object carries the
arithmetic.  GF(p) holds ints in [0, p).  QQ holds an integral value as
a plain int and any other value as a Fraction, whose denominator is then
above 1; `rational` is the one place that form is made.  An int and an
equal Fraction compare equal, hash equal and print the same, so the rule
changes no dict key or printed value, only how fast the arithmetic runs.
Everything is exact, division by a nonzero element always succeeds.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

# The exponent of a decimal such as 1e-5, as Fraction reads it.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def rational(num, den=1):
    """num / den as QQ holds it: a plain int when the quotient is
    integral, else a Fraction with denominator above 1.  num is an int
    (a bool too) or a Fraction, den a nonzero int."""
    if type(num) is int:
        if den == 1:
            return num
        if not num % den:
            return num // den
        return Fraction(num, den)
    q = num if den == 1 else Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


class Field:
    """Common interface; use the QQ singleton or GF(p)."""

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n):
        raise NotImplementedError

    def coerce(self, c):
        """An int or a Fraction as an element of the field; ValueError
        for anything else."""
        raise NotImplementedError

    def parse(self, text):
        """The element an integer, a fraction a/b or a decimal spells,
        read as `Fraction` reads it and mapped in by `coerce`, so every
        field accepts the same texts.  ValueError naming the text for a
        malformed one or a denominator that is 0 in the field.

        A decimal exponent may be at most the interpreter's limit on the
        digits of an int (`sys.get_int_max_str_digits`, the default limit
        if that is off) in magnitude, as the digits of a mantissa are:
        Fraction would build 10^exponent in full.  The numerator and the
        denominator of the value a decimal with an exponent spells must
        also keep within that limit, so that the value can be printed.
        ValueError naming the text otherwise."""
        limit = None
        if m := _EXPONENT.search(text):
            limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
            digits = m.group(1).replace("_", "").lstrip("0")
            if len(digits) > len(str(limit)) or int(digits or "0") > limit:
                raise ValueError(f"decimal exponent of {text!r} is past {limit} in magnitude")
        try:
            value = Fraction(text)
        except ValueError:
            raise ValueError(f"not an integer, fraction or decimal: {text!r}") from None
        except ZeroDivisionError:
            raise ValueError(self._zero_denominator(text)) from None
        if limit is not None and max(abs(value.numerator), value.denominator) >= 10**limit:
            raise ValueError(f"{text!r} has a numerator or denominator of more than "
                             f"{limit} digits")
        try:
            return self.coerce(value)
        except ValueError:
            raise ValueError(self._zero_denominator(text)) from None

    def _zero_denominator(self, shown):
        return f"denominator of {shown!r} is 0 in {self.name}"

    def random(self, rng):
        raise NotImplementedError


class RationalField(Field):
    name = "QQ"
    char = 0
    zero = 0
    one = 1

    def add(self, a, b):
        s = a + b
        return s if type(s) is int else rational(s)

    def sub(self, a, b):
        s = a - b
        return s if type(s) is int else rational(s)

    def mul(self, a, b):
        s = a * b
        return s if type(s) is int else rational(s)

    def neg(self, a):
        s = -a
        return s if type(s) is int else rational(s)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in QQ")
        return rational(a.denominator, a.numerator)

    def from_int(self, n):
        return rational(n)

    def coerce(self, c):
        if isinstance(c, (int, Fraction)):
            return rational(c)
        raise ValueError(f"not a rational number: {c!r}")

    def _zero_denominator(self, shown):
        return f"zero denominator in {shown!r}"

    def random(self, rng):
        num = rng.randint(-5, 5)
        den = rng.randint(1, 5)
        return rational(num, den)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    """GF(p) with machine-word arithmetic; p must be an odd prime < 2**31."""

    char = None

    def __init__(self, p):
        if p < 2 or p >= 2**31:
            raise ValueError(f"prime out of range: {p}")
        if any(p % q == 0 for q in range(2, min(p, 1 + int(p**0.5) + 1)) if q < p):
            raise ValueError(f"not a prime: {p}")
        self.p = p
        self.char = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def coerce(self, c):
        """a/b becomes a * b^-1; a denominator that p divides is an error."""
        if isinstance(c, int):
            return c % self.p
        if isinstance(c, Fraction):
            if c.denominator % self.p == 0:
                raise ValueError(self._zero_denominator(str(c)))
            return self.div(self.from_int(c.numerator), self.from_int(c.denominator))
        raise ValueError(f"not an element of {self.name}: {c!r}")

    def random(self, rng):
        return rng.randrange(self.p)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()

_gf_cache = {}


def GF(p):
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]
