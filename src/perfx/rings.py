"""Polynomial rings k[x1..xn]/I with exact arithmetic.

Elements of a quotient ring are stored as canonical normal forms in
the ambient polynomial ring (reduction through the quotient ideal's
rank-1 `groebner.ModuleGB`, which the ring builds once, happens on
construction and after every product), so equality is plain dict
comparison.  The engine is reached only through `ModuleGB`,
`syzygy_basis` and `schreyer_relations`.  A polynomial's terms are the
engine's: packed ints of the ring's `module_order` at position 0, so a
product term and a move to position i of an engine vector are int adds.
Exponent tuples appear only at `PolyRing.exponents` and
`PolyRing.from_exponents`.  Matrices are sparse: `Mat` keeps only the
nonzero entries of each column, and this module alone knows that
layout; a column becomes an engine vector, its row index the position.
The homology core, `subquotient`, hands the kernel's engine vectors
straight to `schreyer_relations`.
"""

from __future__ import annotations

import re
from functools import cached_property
from math import comb, prod
from operator import le, mul

from . import groebner as gb
from .fields import rational
from .orders import GREVLEX


class PolyRing:
    def __init__(self, field, variables, order=GREVLEX, quotient=(), weights=None):
        self.field = field
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        self.order = order
        self.nvars = len(self.variables)
        self.weights = tuple(weights) if weights is not None else (1,) * self.nvars
        if len(self.weights) != self.nvars:
            raise ValueError("one weight per variable")
        self._var_index = {v: i for i, v in enumerate(self.variables)}
        # the term-over-position order on free modules over this ring
        self.module_order = order.module(self.nvars)
        self._base0 = self.module_order.base(0)  # the term of the monomial 1
        self.quotient_gb = ()
        self.ambient = self  # the plain ring over the same variables
        if quotient:
            self.ambient = PolyRing(field, self.variables, order, weights=self.weights)
            raw = [q.terms for q in map(self.ambient_coerce, quotient) if q.terms]
            self._quotient = gb.ModuleGB(raw, 1, field, self.module_order)
            # a ring never lifts, so it holds the basis, not the raw input, as generators
            self._quotient.gens = self._quotient.plain_gb
            self.quotient_gb = tuple(Polynomial(self.ambient, v) for v in self._quotient.plain_gb)

    @property
    def is_quotient(self):
        return bool(self.quotient_gb)

    def ambient_coerce(self, p):
        if isinstance(p, Polynomial):
            return recast(p, self.ambient)
        if isinstance(p, str):
            return self.ambient.parse(p)
        return self.ambient.const(self.field.from_int(p))

    # -- element constructors ------------------------------------------

    def const(self, c):
        c = self.field.coerce(c)
        if c == self.field.zero:
            return Polynomial(self, {})
        return Polynomial(self, {self._base0: c})

    @property
    def zero(self):
        return Polynomial(self, {})

    @property
    def one(self):
        return self.const(1)

    def var(self, v):
        i = self._var_index[v] if isinstance(v, str) else v
        return self.monomial(int(j == i) for j in range(self.nvars))

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, mono):
        return self.from_exponents({tuple(mono): self.field.one})

    def reduce_terms(self, terms):
        """Canonical representative of a term dict modulo the quotient."""
        return self._reduced({t: c for t, c in terms.items() if c})

    def _reduced(self, terms):
        """The element of nonzero terms `terms`, in normal form modulo the
        quotient: the one place a ring reduces."""
        if self.quotient_gb and terms:
            terms = self._quotient.normal_form(terms)
        return Polynomial(self, terms)

    def combine(self, triples):
        """{key: sum of c * terms} over (key, c, terms) triples, each
        `terms` the terms of an element of this ring; keys whose sum is 0
        are absent.  A linear combination of normal forms is a normal
        form, so nothing is reduced."""
        p = self.field.char
        sums = {}
        for key, c, terms in triples:
            out = sums.get(key)
            if out is None:
                out = sums[key] = {}
            for t, a in terms.items():
                v = out.get(t)
                v = c * a if v is None else v + c * a
                out[t] = v % p if p else v
        result = {}
        for key, out in sums.items():
            if out := {t: v if p else rational(v) for t, v in out.items() if v}:
                result[key] = Polynomial(self, out)
        return result

    def from_exponents(self, terms):
        """The element with terms {exponent tuple: coefficient}, reduced;
        a monomial past the packed-term cap raises ValueError here."""
        mono, b0 = self.module_order.monomial, self._base0
        return self.reduce_terms({b0 + mono(m): c for m, c in terms.items()})

    def exponents(self, t):
        """The exponent tuple of a term of this ring's polynomials."""
        return self.module_order.unpack(t)[1]

    def vector(self, entries):
        """(position, Polynomial) pairs as one engine vector of the module
        order: a term moves from position 0 to i by one int add."""
        base, b0 = self.module_order.base, self._base0
        vec = {}
        for i, p in entries:
            d = base(i) - b0
            vec.update({t + d: c for t, c in p.terms.items()})
        return vec

    def parse(self, text):
        return _parse_poly(self, text)

    def random_poly(self, rng, max_degree=2, nterms=3, homogeneous=None):
        terms = {}
        for _ in range(nterms):
            d = rng.randint(0, max_degree) if homogeneous is None else homogeneous
            mono = [0] * self.nvars
            for _ in range(d if self.nvars else 0):
                mono[rng.randrange(self.nvars)] += 1
            c = self.field.random(rng) or self.field.one
            mono = tuple(mono)
            terms[mono] = self.field.add(terms.get(mono, self.field.zero), c)
        return self.from_exponents(terms)

    # -- structure -----------------------------------------------------

    def quotient_by(self, extra):
        """Ring with `extra` adjoined to the quotient ideal."""
        gens = list(self.quotient_gb) + [self.ambient_coerce(p) for p in extra]
        return PolyRing(self.field, self.variables, self.order, gens, self.weights)

    def quotient_extra_vectors(self, rank):
        """Quotient ideal times each basis vector, as engine vectors."""
        return [self.vector([(i, q)]) for q in self.quotient_gb for i in range(rank)]

    # A ring does not change after construction, so what equality
    # compares, its hash and its text are each computed once.

    @cached_property
    def _signature(self):
        quot = tuple(tuple(sorted(q.terms.items())) for q in self.quotient_gb)
        return (self.field, self.variables, self.order, quot, self.weights)

    @cached_property
    def _hash(self):
        return hash(self._signature)

    @cached_property
    def _text(self):
        base = f"{self.field}[{','.join(self.variables)}]"
        if self.is_quotient:
            return base + "/(" + ", ".join(str(q) for q in self.quotient_gb) + ")"
        return base

    def __eq__(self, other):
        return other is self or (
            isinstance(other, PolyRing) and self._signature == other._signature
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self._text

    def monomials_of_degree(self, d):
        """All exponent tuples of (weighted) degree d.

        Only supported for weight-1 variables; weighted rings with a
        zero weight have infinitely many monomials per degree.
        """
        self.require_unit_weights()
        return monomials_of_degree(self.nvars, d)

    def require_unit_weights(self):
        """Raise unless every variable has weight 1: counting by degree
        (monomials, Hilbert functions) assumes the standard grading."""
        if any(w != 1 for w in self.weights):
            raise ValueError(f"degree counts need all weights equal to 1, not {self.weights}")


def embed_poly(p, ring, offset):
    """p as an element of `ring`, whose variables from position `offset`
    on take the place of p's variables, reduced modulo ring's quotient."""
    head, tail = (0,) * offset, (0,) * (ring.nvars - offset - p.ring.nvars)
    exps = p.ring.exponents
    return ring.from_exponents({head + exps(t) + tail: c for t, c in p.terms.items()})


def recast(p, ring):
    """p in `ring`, a ring over the same variables: the same terms if the
    two orders are equal, else rebuilt through exponents; reduced."""
    src = p.ring
    if src is ring:
        return p
    if src.order != ring.order:
        return embed_poly(p, ring, 0)
    if ring.quotient_gb and src != ring:
        return ring.reduce_terms(p.terms)
    return Polynomial(ring, p.terms)


def monomials_of_degree(nvars, d):
    """All exponent tuples of length nvars and total degree d, in
    ascending tuple order."""
    if d < 0:
        return []
    if nvars == 0:
        return [()] if d == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, nvars)
    return out


def hilbert_numerator(monos, nvars):
    """Numerator {k: q_k} of the Hilbert series of k[x_1..x_nvars]/(monos)
    over (1 - t)^nvars; zero coefficients are absent.

    monos are exponent tuples.  The input is first cut to its minimal
    generators; then HN(J + (m)) = HN(J) - t^deg(m) HN(J : m), where
    J : m is generated by the m_i / gcd(m_i, m).  When m is coprime to
    every generator of J that colon is J itself, and the rule reduces to
    HN(J) (1 - t^deg(m)).  An ideal shares its Hilbert series with its
    initial ideal, so the leading monomials of a Gröbner basis of a
    homogeneous ideal (weights 1) give the series of the quotient."""
    num = _hilbert_numerator(_minimal_monomials(monos, nvars))
    return {k: q for k, q in sorted(num.items()) if q}


def hilbert_value(q, n, e, polynomial=False):
    """Value at e of the Hilbert function of the ring whose Hilbert
    numerator over (1 - t)^n is q, or with polynomial=True of its Hilbert
    polynomial.

    HF(e) = sum_k q_k C(e - k + n - 1, n - 1), a binomial C(x, r) with
    x < 0 counting 0, and HF(e) = q_e when n = 0.  The polynomial reads
    every C(x, r) as x (x - 1) ... (x - r + 1) / r!, so it holds at every
    integer e; it is 0 when n = 0."""
    if n == 0:
        return 0 if polynomial else q.get(e, 0)
    r = n - 1
    total = 0
    for k, c in q.items():
        x = e - k + r
        if x >= 0:
            total += c * comb(x, r)
        elif polynomial:
            total += c * (-1) ** r * comb(r - x - 1, r)
    return total


def _minimal_monomials(monos, nvars):
    """The minimal generators of the monomial ideal (monos), sorted by
    degree, then exponents."""
    kept = []
    for m in sorted(set(map(tuple, monos)), key=lambda m: (sum(m), m)):
        if len(m) != nvars:
            raise ValueError(f"monomial {m} does not have {nvars} exponents")
        if not any(all(map(le, g, m)) for g in kept):
            kept.append(m)
    return kept


def _hilbert_numerator(gens):
    """HN of a monomial ideal given by its minimal generators."""
    if not gens:
        return {0: 1}
    *rest, m = gens
    d = sum(m)
    colon = _minimal_monomials([tuple(max(a - b, 0) for a, b in zip(g, m)) for g in rest], len(m))
    num = _hilbert_numerator(rest)
    sub = num if colon == rest else _hilbert_numerator(colon)
    out = dict(num)
    for k, q in sub.items():
        out[k + d] = out.get(k + d, 0) - q
    return out


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            ring = other.ring
            if ring.variables != self.ring.variables:
                raise ValueError(f"mixed rings: {self.ring} vs {ring}")
            if ring.module_order is not self.ring.module_order:
                return recast(other, self.ring)
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        field = self.ring.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = field.add(terms.get(m, field.zero), c)
            if s == field.zero:
                terms.pop(m, None)
            else:
                terms[m] = s
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        field = self.ring.field
        return Polynomial(self.ring, {m: field.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        """A product term is t1 + t2 - base(0); past the cap it raises."""
        other = self._coerce(other)
        ring = self.ring
        field = ring.field
        b0 = ring._base0
        terms = {}
        for t1, c1 in self.terms.items():
            shift = t1 - b0
            for t2, c2 in other.terms.items():
                t = t2 + shift
                s = field.add(terms.get(t, field.zero), field.mul(c1, c2))
                if s == field.zero:
                    terms.pop(t, None)
                else:
                    terms[t] = s
        ring.module_order.check_products(terms)
        return ring._reduced(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        """self^n by repeated squaring: at most 2 log2(n) products."""
        if not n:
            return self.ring.one
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def scale(self, c):
        field = self.ring.field
        if c == field.zero:
            return self.ring.zero
        return Polynomial(self.ring, {m: field.mul(c, x) for m, x in self.terms.items()})

    @property
    def is_zero(self):
        return not self.terms

    def leading_monomial(self):
        """The leading term; `ring.exponents` gives its exponents."""
        return max(self.terms)

    def homogeneous_degree(self):
        """Weighted degree if homogeneous and nonzero, else None."""
        exps, weights = self.ring.exponents, self.ring.weights
        degs = {sum(map(mul, exps(t), weights)) for t in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def evaluate(self, coords):
        field = self.ring.field
        exps = self.ring.exponents
        p = field.char
        out = field.zero
        for t, c in self.terms.items():
            for e, a in zip(exps(t), coords):
                if e:
                    c = field.mul(c, pow(a, e, p) if p else a**e)
            out = field.add(out, c)
        return out

    def substitute(self, images, target=None):
        """Image under xi -> images[i]; images live in the target ring."""
        if target is None:
            if not images:
                raise ValueError("target ring required when there are no images")
            target = images[0].ring
        out = target.zero
        for t, c in sorted(self.terms.items()):
            term = target.const(c)
            for e, g in zip(self.ring.exponents(t), images):
                if e:
                    term = term * g**e
            out = out + term
        return out

    def constant_value(self):
        """The field value if the element is a constant, else None."""
        if not self.terms:
            return self.ring.field.zero
        if len(self.terms) == 1:
            return self.terms.get(self.ring._base0)
        return None

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for t in sorted(self.terms, reverse=True):
            c = self.terms[t]
            factors = [
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.ring.variables, self.ring.exponents(t))
                if e
            ]
            body = "*".join(factors)
            if not factors:
                parts.append(str(c))
            elif c == self.ring.field.one:
                parts.append(body)
            elif c == self.ring.field.neg(self.ring.field.one):
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        text = " + ".join(parts).replace("+ -", "- ")
        return text


# -- parsing -----------------------------------------------------------

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|\*\*|[()+\-*/^])")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad token at {text[pos:]!r}")
        tok = m.group(1)
        out.append("^" if tok == "**" else tok)
        pos = m.end()
    return out


def _parse_poly(ring, text):
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def take():
        nonlocal idx
        if idx == len(tokens):
            raise ValueError("unexpected end of input")
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            if op == "*":
                node = node * rhs
            else:
                c = rhs.constant_value()
                if c is None or c == ring.field.zero:
                    raise ValueError("division only by nonzero constants")
                node = node.scale(ring.field.inv(c))
        return node

    def parse_factor():
        node = parse_base()
        while peek() == "^":
            take()
            exp = take()
            if not exp.isdigit():
                raise ValueError(f"bad exponent {exp!r}")
            node = node ** int(exp)
        return node

    def parse_base():
        tok = take()
        if tok == "(":
            node = parse_expr()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
            return node
        if tok == "-":
            return -parse_base()
        if tok == "+":
            return parse_base()
        if tok.isdigit():
            return ring.const(int(tok))
        if tok in ring._var_index:
            return ring.var(tok)
        raise ValueError(f"unknown variable {tok!r} in {ring}")

    node = parse_expr()
    if idx != len(tokens):
        raise ValueError(f"trailing input {tokens[idx:]!r}")
    return node


# -- matrices ----------------------------------------------------------


class Mat:
    """Sparse matrix over a PolyRing, immutable.

    Only nonzero entries are stored: one {row: Polynomial} dict per
    column, its rows ascending.  No other module reads this layout;
    they go through the constructors, `entries` and `column_entries`.
    Entries are never mutated after construction, so matrices may share
    column dicts.
    """

    __slots__ = ("ring", "nrows", "ncols", "_cols")

    def __init__(self, ring, rows, ncols=None):
        rows = list(rows)
        ncols = len(rows[0]) if rows else (ncols or 0)
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged matrix")
        self._init(ring, len(rows), ncols, (
            (i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row)
        ))

    def _init(self, ring, nrows, ncols, entries):
        cols = [{} for _ in range(ncols)]
        for i, j, x in entries:
            col = cols[j]
            x = _entry(ring, x)
            col[i] = col[i] + x if i in col else x
        for j, col in enumerate(cols):
            keep = {i: col[i] for i in sorted(col) if col[i].terms}
            if keep and (next(iter(keep)) < 0 or next(reversed(keep)) >= nrows):
                raise ValueError("row index out of range")
            cols[j] = keep
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self._cols = cols

    @classmethod
    def from_entries(cls, ring, nrows, ncols, entries):
        """Matrix from (row, col, value) triples; values at a repeated
        position are added in the order given, zero sums are dropped."""
        mat = cls.__new__(cls)
        mat._init(ring, nrows, ncols, entries)
        return mat

    @classmethod
    def _make(cls, ring, nrows, cols):
        """Trusted constructor: cols already hold the layout."""
        mat = cls.__new__(cls)
        mat.ring = ring
        mat.nrows = nrows
        mat.ncols = len(cols)
        mat._cols = cols
        return mat

    @classmethod
    def zero(cls, ring, nrows, ncols):
        return cls._make(ring, nrows, [{} for _ in range(ncols)])

    @classmethod
    def identity(cls, ring, n):
        one = ring.one
        return cls._make(ring, n, [{j: one} for j in range(n)])

    @classmethod
    def from_columns(cls, ring, cols, nrows):
        """Matrix from dense columns (lists of ring elements)."""
        if any(len(col) != nrows for col in cols):
            raise ValueError("ragged matrix")
        return cls.from_entries(ring, nrows, len(cols), (
            (i, j, x) for j, col in enumerate(cols) for i, x in enumerate(col)
        ))

    @classmethod
    def from_column_vecs(cls, ring, vecs, nrows):
        """Matrix whose columns are engine vectors of the ring's module
        order, each position reduced modulo the quotient."""
        split = ring.module_order.split
        return cls.from_entries(ring, nrows, len(vecs), (
            (i, j, ring.reduce_terms(t))
            for j, v in enumerate(vecs)
            for i, t in split(v).items()
        ))

    # -- access --------------------------------------------------------

    @property
    def rows(self):
        """Dense read-only view: a tuple of rows of Polynomials."""
        return tuple(self.row(i) for i in range(self.nrows))

    def row(self, i):
        z = self.ring.zero
        return tuple(col.get(i, z) for col in self._cols)

    def column(self, j):
        col = self._cols[j]
        z = self.ring.zero
        return [col.get(i, z) for i in range(self.nrows)]

    def entries(self):
        """(row, col, entry) for every nonzero entry, column by column."""
        for j, col in enumerate(self._cols):
            for i, p in col.items():
                yield i, j, p

    def column_entries(self, j):
        """(row, entry) pairs of the nonzero entries of column j."""
        return self._cols[j].items()

    def column_vecs(self):
        """The columns as engine vectors of the ring's module order."""
        return [self.ring.vector(col.items()) for col in self._cols]

    @property
    def is_zero(self):
        return not any(self._cols)

    # -- arithmetic and shape ------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Mat):
            raise TypeError(other)
        if other.nrows != self.ncols:
            raise ValueError("shape mismatch")
        left = self._cols
        cols = []
        for bcol in other._cols:
            acc = {}
            for k, b in bcol.items():
                for i, a in left[k].items():
                    p = a * b
                    acc[i] = acc[i] + p if i in acc else p
            cols.append({i: acc[i] for i in sorted(acc) if acc[i].terms})
        return Mat._make(self.ring, self.nrows, cols)

    def __add__(self, other):
        if (other.nrows, other.ncols) != (self.nrows, self.ncols):
            raise ValueError("shape mismatch")
        cols = []
        for a, b in zip(self._cols, other._cols):
            col = {}
            for i in sorted(a.keys() | b.keys()):
                if i not in b:
                    col[i] = a[i]
                elif i not in a:
                    col[i] = b[i]
                else:
                    p = a[i] + b[i]
                    if p.terms:
                        col[i] = p
            cols.append(col)
        return Mat._make(self.ring, self.nrows, cols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.map(lambda p: -p)

    def map(self, fn, ring=None):
        """fn applied to every nonzero entry (fn must send 0 to 0), with
        the result over `ring` (default: this matrix's ring)."""
        ring = self.ring if ring is None else ring
        return Mat.from_entries(
            ring, self.nrows, self.ncols, ((i, j, fn(p)) for i, j, p in self.entries())
        )

    def kron(self, other):
        """Kronecker product: entry (i*p + k, j*q + l) is self[i, j] *
        other[k, l], where other is p x q.  A factor equal to 1 is not
        multiplied out, so the other factor's entry is kept as it is."""
        one = self.ring.one
        p = other.nrows
        cols = []
        for a_col in self._cols:
            for b_col in other._cols:
                col = {}
                for i, a in a_col.items():
                    for k, b in b_col.items():
                        v = b if a == one else a if b == one else a * b
                        if v.terms:
                            col[i * p + k] = v
                cols.append(col)
        return Mat._make(self.ring, self.nrows * p, cols)

    def transpose(self):
        cols = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self._cols):
            for i, x in col.items():
                cols[i][j] = x
        return Mat._make(self.ring, self.ncols, cols)

    def direct_sum(self, other):
        """Block diagonal matrix [[self, 0], [0, other]]."""
        n = self.nrows
        shifted = [{n + i: x for i, x in col.items()} for col in other._cols]
        return Mat._make(self.ring, n + other.nrows, self._cols + shifted)

    def hstack(self, other):
        if other.nrows != self.nrows:
            raise ValueError("row mismatch")
        return Mat._make(self.ring, self.nrows, self._cols + other._cols)

    def vstack(self, other):
        if other.ncols != self.ncols:
            raise ValueError("column mismatch")
        n = self.nrows
        cols = [
            {**a, **{n + i: x for i, x in b.items()}}
            for a, b in zip(self._cols, other._cols)
        ]
        return Mat._make(self.ring, n + other.nrows, cols)

    def select_columns(self, idxs):
        return Mat._make(self.ring, self.nrows, [self._cols[j] for j in idxs])

    def select_rows(self, idxs):
        idxs = list(idxs)
        cols = [
            {k: col[i] for k, i in enumerate(idxs) if i in col} for col in self._cols
        ]
        return Mat._make(self.ring, len(idxs), cols)

    def drop_zero_columns(self):
        """The matrix without its all-zero columns."""
        if all(self._cols):
            return self
        return Mat._make(self.ring, self.nrows, [col for col in self._cols if col])

    def evaluate(self, point):
        """The entries evaluated at a point, as one sparse row per matrix
        row: a {col: value} dict of the values that are nonzero.  Over
        GF(p) these are the residues mod p; over QQ the exact values, each
        an int when integral and else a Fraction.  Each monomial is
        evaluated once, and the terms of monomials that vanish at the
        point are skipped."""
        if p := self.ring.field.char:
            return self.residues(point, p)
        coords = point.coords if isinstance(point, RationalPoint) else point
        exps = self.ring.exponents
        monos = {}  # term -> the value of its monomial at the point
        rows = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self._cols):
            for i, q in col.items():
                v = 0
                for t, c in q.terms.items():
                    mv = monos.get(t)
                    if mv is None:
                        mv = monos[t] = prod(a**e for a, e in zip(coords, exps(t)) if e)
                    if mv:
                        v += c * mv
                if v:
                    rows[i][j] = rational(v)
        return rows

    def residues(self, point, p):
        """The entries at a point modulo the prime p, as one sparse
        {col: residue} row per matrix row, or None if p divides the
        denominator of a coordinate or of a coefficient.

        The coordinates are reduced once, each monomial is evaluated once,
        and each coefficient is reduced with the inverse of its
        denominator, computed once per denominator.
        """
        coords = point.coords if isinstance(point, RationalPoint) else point
        if any(a.denominator % p == 0 for a in coords):
            return None
        xs = [a.numerator * pow(a.denominator, -1, p) % p for a in coords]
        inverses = {1: 1}  # denominator -> its inverse mod p
        exps = self.ring.exponents
        monos = {}  # term -> the residue of its monomial at the point
        rows = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self._cols):
            for i, q in col.items():
                v = 0
                for t, c in q.terms.items():
                    mv = monos.get(t)
                    if mv is None:
                        mv = monos[t] = prod(pow(x, e, p) for x, e in zip(xs, exps(t))) % p
                    d = c.denominator
                    inv = inverses.get(d)
                    if inv is None:
                        if d % p == 0:
                            return None
                        inv = inverses[d] = pow(d, -1, p)
                    v += c.numerator * inv * mv
                if v := v % p:
                    rows[i][j] = v
        return rows

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._cols == other._cols
        )

    def __hash__(self):
        body = tuple(tuple(col.items()) for col in self._cols)
        return hash((self.ring, self.nrows, self.ncols, body))

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"[{body}]"


def _entry(ring, x):
    if isinstance(x, Polynomial):
        if x.ring is ring:
            return x
        if x.ring.variables != ring.variables or x.ring.field != ring.field:
            raise ValueError("entry from wrong ring")
        return recast(x, ring)
    if isinstance(x, str):
        return ring.parse(x)
    return ring.const(x)


# -- rational points ---------------------------------------------------


class RationalPoint:
    """A k-rational point of Spec(ring): one coordinate per variable,
    each an int or a Fraction mapped into the field (`Field.coerce`)."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        field = ring.field
        coords = tuple(map(field.coerce, coords))
        if len(coords) != ring.nvars:
            raise ValueError(
                f"expected {ring.nvars} coordinates, got {len(coords)}"
            )
        self.ring = ring
        self.coords = coords
        for q in ring.quotient_gb:
            if q.evaluate(coords) != field.zero:
                raise ValueError(f"point {self} is not on the vanishing locus: {q} does not vanish")

    def __eq__(self, other):
        return (
            isinstance(other, RationalPoint)
            and self.ring == other.ring
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.ring, self.coords))

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def point_of(ring, point):
    """A point (or a tuple of coordinates) as a RationalPoint of ring;
    rejects points of another ring, naming both rings, and points off
    the ring's locus."""
    if isinstance(point, RationalPoint):
        if point.ring.variables != ring.variables:
            raise ValueError(f"point {point} is from a different ring: {point.ring}, not {ring}")
        if point.ring == ring:
            return point
        point = point.coords  # re-validate the locus
    return RationalPoint(ring, point)


# -- ring-level Gröbner API --------------------------------------------


def column_matrix(gens, ring):
    """Ring elements, or equal-length lists of ring elements, as the
    columns of a matrix; an element is a column of one row."""
    cols = [[g] if isinstance(g, Polynomial) else list(g) for g in gens]
    return Mat.from_columns(ring, cols, len(cols[0]))


def groebner_basis(gens, ring):
    """The reduced Gröbner basis of the span of gens modulo the quotient
    (`MatrixGB.reduced_basis`); deterministic.

    Input: ring elements, or equal-length lists of ring elements for
    free-module columns.  Output: ring elements at rank 1, else lists.
    """
    gens = list(gens)
    if not gens:
        return []
    basis = MatrixGB(column_matrix(gens, ring)).reduced_basis()
    cols = [basis.column(j) for j in range(basis.ncols)]
    return [col[0] for col in cols] if basis.nrows == 1 else cols


def normal_form(element, basis, ring):
    """Remainder of element modulo the span of basis and the quotient:
    the unique remainder against a Gröbner basis, and canonical for any
    generating set of the same span."""
    mat = column_matrix([*basis, element], ring)
    n = mat.ncols - 1
    polys = MatrixGB(mat.select_columns(range(n))).normal_form(mat.column(n))
    return polys[0] if isinstance(element, Polynomial) else polys


class MatrixGB:
    """Gröbner/lifting data for the column span of a matrix (quotient-aware)."""

    def __init__(self, mat):
        self.mat = mat
        ring = mat.ring
        self.ring = ring
        vecs = mat.column_vecs()
        extra = ring.quotient_extra_vectors(mat.nrows)
        self._gb = gb.ModuleGB(vecs, mat.nrows, ring.field, ring.module_order, extra=extra)

    def contains_column(self, col):
        return self._gb.contains(self.ring.vector(enumerate(col)))

    def normal_form(self, col):
        """The canonical remainder of a column modulo the span and the
        quotient, as a list of ring elements."""
        ring = self.ring
        parts = ring.module_order.split(self._gb.normal_form(ring.vector(enumerate(col))))
        return [Polynomial(ring, parts.get(i, {})) for i in range(self.mat.nrows)]

    def lift_column(self, col):
        """x with mat·x = col (mod quotient), or None."""
        ring = self.ring
        coeffs = self._gb.lift(ring.vector(enumerate(col)))
        if coeffs is None:
            return None
        parts = ring.module_order.split(coeffs)
        return [ring.reduce_terms(parts.get(j, {})) for j in range(self.mat.ncols)]

    def lift_matrix(self, target):
        cols = []
        for j in range(target.ncols):
            x = self.lift_column(target.column(j))
            if x is None:
                return None
            cols.append(x)
        return Mat.from_columns(self.ring, cols, self.mat.ncols)

    def leading_terms(self):
        """Leading (position, monomial) pairs of the module GB."""
        return self._gb.leading_terms()

    def reduced_basis(self):
        """The reduced Gröbner basis of the column span and the quotient
        block as a matrix, each entry reduced modulo the quotient and the
        zero columns dropped: one matrix for every generating set of the
        same span."""
        basis = Mat.from_column_vecs(self.ring, self._gb.plain_gb, self.mat.nrows)
        return basis.drop_zero_columns()


def _syzygy_vecs(mat, modulo):
    """Engine vectors generating {x : mat·x ∈ span(modulo) + quotient};
    modulo may be None."""
    ring = mat.ring
    extra = ring.quotient_extra_vectors(mat.nrows)
    if modulo is not None:
        if modulo.nrows != mat.nrows:
            raise ValueError("row mismatch")
        extra = modulo.column_vecs() + extra
    return gb.syzygy_basis(
        mat.column_vecs(), mat.nrows, ring.field, ring.module_order, extra=extra)


def syzygy_matrix(mat, modulo=None):
    """Matrix whose columns generate {x : mat·x ∈ span(modulo) + quotient}.

    The columns of `modulo` join the quotient-ideal multiples untagged,
    so they get no coefficient positions.  Zero columns are dropped.
    """
    return Mat.from_column_vecs(mat.ring, _syzygy_vecs(mat, modulo), mat.ncols).drop_zero_columns()


def subquotient(d, modulo, boundaries):
    """The homology core: (kernel, relations) as matrices, and H = ker /
    im is coker(relations) on the kernel's columns.

    The kernel's columns generate the cycles {x : d·x ∈ span(modulo) +
    quotient}: where d has rows they are those of `syzygy_matrix(d,
    modulo)`, and where it has none the unit vectors.  The relations
    generate {y : kernel·y ∈ span(boundaries) + quotient}, read off the
    kernel's engine vectors by `groebner.schreyer_relations` with no new
    Gröbner basis, so every column of boundaries must be a cycle
    (ValueError otherwise); where d has no rows they are the nonzero
    boundaries themselves.  They are a generating set with no zero
    column, not a reduced basis.
    """
    ring = d.ring
    g = d.ncols
    if boundaries.nrows != g:
        raise ValueError("row mismatch")
    if not d.nrows:
        return Mat.identity(ring, g), boundaries.drop_zero_columns()
    order = ring.module_order
    kernel = _syzygy_vecs(d, modulo)
    if ring.is_quotient:
        kernel = [ring.vector((i, ring.reduce_terms(t)) for i, t in order.split(v).items())
                  for v in kernel]
    kernel = [v for v in kernel if v]
    if not kernel:
        return Mat.zero(ring, g, 0), Mat.zero(ring, 0, 0)
    relations = gb.schreyer_relations(
        kernel, g, ring.field, order,
        modulo=boundaries.column_vecs(), extra=ring.quotient_extra_vectors(g),
    )
    return (Mat.from_column_vecs(ring, kernel, g),
            Mat.from_column_vecs(ring, relations, len(kernel)).drop_zero_columns())
