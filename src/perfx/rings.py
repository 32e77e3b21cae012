"""Polynomial rings k[x1..xn]/I with exact arithmetic.

Elements of a quotient ring are stored as canonical normal forms in
the ambient polynomial ring (reduction against the interreduced
Gröbner basis of the quotient ideal, whose reduction data the ring
builds once, happens on construction and after every product), so
equality is plain dict comparison.  Matrices are dense and small;
columns convert to the raw vector dicts the Buchberger engine consumes.
"""

from __future__ import annotations

import re

from . import groebner as gb
from .orders import GREVLEX, term_over_position


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
        self._key = order.key
        # the term-over-position order on free modules over this ring
        self.module_key = term_over_position(order)
        self.quotient_gb = ()  # set before coercion so parsing sees a plain ring
        if quotient:
            raw = []
            for q in quotient:
                q = self.ambient_coerce(q)
                if q.terms:
                    raw.append({(0, m): c for m, c in q.terms.items()})
            basis = gb.buchberger(raw, field, self.module_key)
            self._quotient_basis = gb._Basis(field, self.module_key, basis)
            self.quotient_gb = tuple(
                Polynomial(self.ambient, {m: c for (_p, m), c in v.items()})
                for v in basis
            )
        self.quotient = self.quotient_gb

    @property
    def ambient(self):
        if not getattr(self, "quotient_gb", ()):
            return self
        if not hasattr(self, "_ambient"):
            self._ambient = PolyRing(
                self.field, self.variables, self.order,
                weights=getattr(self, "weights", None),
            )
        return self._ambient

    @property
    def is_quotient(self):
        return bool(self.quotient_gb)

    def ambient_coerce(self, p):
        if isinstance(p, Polynomial):
            return Polynomial(self.ambient, p.terms)
        if isinstance(p, str):
            return self.ambient.parse(p)
        return self.ambient.const(self.field.from_int(p))

    # -- element constructors ------------------------------------------

    def const(self, c):
        if isinstance(c, int):
            c = self.field.from_int(c)
        if c == self.field.zero:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    @property
    def zero(self):
        return Polynomial(self, {})

    @property
    def one(self):
        return self.const(1)

    def var(self, v):
        i = self._var_index[v] if isinstance(v, str) else v
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self.reduce_terms({mono: self.field.one})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, mono, coeff=None):
        coeff = self.field.one if coeff is None else coeff
        return self.reduce_terms({tuple(mono): coeff})

    def reduce_terms(self, terms):
        """Canonical representative of a term dict modulo the quotient."""
        terms = {m: c for m, c in terms.items() if c != self.field.zero}
        if not self.quotient_gb or not terms:
            return Polynomial(self, terms)
        vec = {(0, m): c for m, c in terms.items()}
        red = gb.reduce_vector(vec, self._quotient_basis)
        return Polynomial(self, {m: c for (_p, m), c in red.items()})

    def parse(self, text):
        return _parse_poly(self, text)

    def random_poly(self, rng, max_degree=2, nterms=3, homogeneous=None):
        terms = {}
        for _ in range(nterms):
            if homogeneous is None:
                d = rng.randint(0, max_degree)
            else:
                d = homogeneous
            mono = [0] * self.nvars
            for _ in range(d):
                if self.nvars == 0:
                    break
                mono[rng.randrange(self.nvars)] += 1
            c = self.field.random(rng)
            if c == self.field.zero:
                c = self.field.one
            mono = tuple(mono)
            terms[mono] = self.field.add(terms.get(mono, self.field.zero), c)
        return self.reduce_terms(terms)

    # -- structure -----------------------------------------------------

    def quotient_by(self, extra):
        """Ring with `extra` adjoined to the quotient ideal."""
        gens = list(self.quotient_gb) + [self.ambient_coerce(p) for p in extra]
        return PolyRing(self.field, self.variables, self.order, gens, self.weights)

    def with_order(self, order):
        return PolyRing(self.field, self.variables, order, self.quotient_gb, self.weights)

    def quotient_extra_vectors(self, rank):
        """Quotient ideal times each basis vector, as raw GB vectors."""
        out = []
        for q in self.quotient_gb:
            for i in range(rank):
                out.append({(i, m): c for m, c in q.terms.items()})
        return out

    def _signature(self):
        quot = tuple(
            tuple(sorted(q.terms.items())) for q in getattr(self, "quotient_gb", ())
        )
        return (self.field, self.variables, self.order, quot, self.weights)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self._signature() == other._signature()

    def __hash__(self):
        return hash(self._signature())

    def __repr__(self):
        base = f"{self.field}[{','.join(self.variables)}]"
        if self.is_quotient:
            return base + "/(" + ", ".join(str(q) for q in self.quotient_gb) + ")"
        return base

    def monomials_of_degree(self, d):
        """All exponent tuples of (weighted) degree d.

        Only supported for weight-1 variables; weighted rings with a
        zero weight have infinitely many monomials per degree.
        """
        if any(w != 1 for w in self.weights):
            raise ValueError("monomial enumeration needs all weights equal to 1")
        return monomials_of_degree(self.nvars, d)


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


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring.variables != self.ring.variables:
                raise ValueError(f"mixed rings: {self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
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
        other = self._coerce(other)
        field = self.ring.field
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = gb.mono_mul(m1, m2)
                s = field.add(terms.get(m, field.zero), field.mul(c1, c2))
                if s == field.zero:
                    terms.pop(m, None)
                else:
                    terms[m] = s
        return self.ring.reduce_terms(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = self.ring.one
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c):
        field = self.ring.field
        if c == field.zero:
            return self.ring.zero
        return Polynomial(self.ring, {m: field.mul(c, x) for m, x in self.terms.items()})

    @property
    def is_zero(self):
        return not self.terms

    def leading_monomial(self):
        return max(self.terms, key=self.ring._key)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def total_degree(self):
        return max((sum(m) for m in self.terms), default=-1)

    def weighted_degree(self, mono):
        return sum(e * w for e, w in zip(mono, self.ring.weights))

    def is_homogeneous(self):
        degs = {self.weighted_degree(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        """Weighted degree if homogeneous and nonzero, else None."""
        degs = {self.weighted_degree(m) for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def evaluate(self, coords):
        field = self.ring.field
        out = field.zero
        for m, c in self.terms.items():
            v = c
            for e, a in zip(m, coords):
                for _ in range(e):
                    v = field.mul(v, a)
            out = field.add(out, v)
        return out

    def substitute(self, images, target=None):
        """Image under xi -> images[i]; images live in the target ring."""
        if target is None:
            if not images:
                raise ValueError("target ring required when there are no images")
            target = images[0].ring
        out = target.zero
        for m, c in sorted(self.terms.items()):
            term = target.const(c)
            for e, g in zip(m, images):
                for _ in range(e):
                    term = term * g
            out = out + term
        return out

    def constant_value(self):
        """The field value if the element is a constant, else None."""
        if not self.terms:
            return self.ring.field.zero
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            if not any(m):
                return c
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
        for m in sorted(self.terms, key=self.ring._key, reverse=True):
            c = self.terms[m]
            factors = [
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.ring.variables, m)
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
    """Dense matrix over a PolyRing; rows of Polynomials, immutable."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring, rows, ncols=None):
        self.ring = ring
        coerced = []
        for row in rows:
            coerced.append(tuple(_entry(ring, x) for x in row))
        self.rows = tuple(coerced)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else (ncols or 0)
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")

    @classmethod
    def zero(cls, ring, nrows, ncols):
        z = ring.zero
        return cls(ring, [[z] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, ring, n):
        return cls(
            ring,
            [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)],
            ncols=n,
        )

    @classmethod
    def from_columns(cls, ring, cols, nrows):
        rows = [[cols[j][i] for j in range(len(cols))] for i in range(nrows)]
        return cls(ring, rows, ncols=len(cols))

    def entry(self, i, j):
        return self.rows[i][j]

    def column(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def column_vec(self, j):
        """Column j as a raw Buchberger vector dict."""
        return _column_to_vec(self.column(j))

    def column_vecs(self):
        return [self.column_vec(j) for j in range(self.ncols)]

    @classmethod
    def from_column_vecs(cls, ring, vecs, nrows):
        cols = [[ring.reduce_terms(t) for t in _vec_to_rows(v, nrows)] for v in vecs]
        return cls.from_columns(ring, cols, nrows) if cols else cls.zero(ring, nrows, 0)

    def __mul__(self, other):
        if isinstance(other, Mat):
            if other.nrows != self.ncols:
                raise ValueError("shape mismatch")
            z = self.ring.zero
            rows = []
            for i in range(self.nrows):
                row = []
                for j in range(other.ncols):
                    acc = z
                    for k in range(self.ncols):
                        a = self.rows[i][k]
                        b = other.rows[k][j]
                        if a.terms and b.terms:
                            acc = acc + a * b
                    row.append(acc)
                rows.append(row)
            return Mat(self.ring, rows, ncols=other.ncols)
        raise TypeError(other)

    def __add__(self, other):
        return Mat(
            self.ring,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
            ncols=self.ncols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.map(lambda p: -p)

    def scale(self, c):
        return self.map(lambda p: p.scale(c))

    def map(self, fn):
        return Mat(self.ring, [[fn(x) for x in row] for row in self.rows], ncols=self.ncols)

    def transpose(self):
        return Mat(
            self.ring,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def hstack(self, other):
        if other.nrows != self.nrows:
            raise ValueError("row mismatch")
        return Mat(
            self.ring,
            [list(r1) + list(r2) for r1, r2 in zip(self.rows, other.rows)],
            ncols=self.ncols + other.ncols,
        )

    def vstack(self, other):
        if other.ncols != self.ncols:
            raise ValueError("column mismatch")
        return Mat(self.ring, list(self.rows) + list(other.rows), ncols=self.ncols)

    def select_columns(self, idxs):
        return Mat(
            self.ring,
            [[row[j] for j in idxs] for row in self.rows],
            ncols=len(idxs),
        )

    def select_rows(self, idxs):
        return Mat(self.ring, [self.rows[i] for i in idxs], ncols=self.ncols)

    @property
    def is_zero(self):
        return all(not x.terms for row in self.rows for x in row)

    def evaluate(self, point):
        coords = point.coords if isinstance(point, RationalPoint) else point
        return [[x.evaluate(coords) for x in row] for row in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.ncols == other.ncols
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.ncols))

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"[{body}]"


def _entry(ring, x):
    if isinstance(x, Polynomial):
        if x.ring.variables != ring.variables or x.ring.field != ring.field:
            raise ValueError("entry from wrong ring")
        if x.ring is ring or x.ring == ring:
            return x
        return ring.reduce_terms(x.terms)
    if isinstance(x, str):
        return ring.parse(x)
    if isinstance(x, int):
        return ring.const(x)
    return ring.const(x)


# -- rational points ---------------------------------------------------


class RationalPoint:
    """A k-rational point of Spec(ring): one coordinate per variable."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        field = ring.field
        coords = tuple(
            field.from_int(c) if isinstance(c, int) else c for c in coords
        )
        if len(coords) != ring.nvars:
            raise ValueError(
                f"expected {ring.nvars} coordinates, got {len(coords)}"
            )
        for q in ring.quotient_gb:
            if q.evaluate(coords) != field.zero:
                raise ValueError(
                    f"point {coords} is not on the vanishing locus: {q} does not vanish"
                )
        self.ring = ring
        self.coords = coords

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


def evaluate_matrix(mat, point):
    """Entry-wise evaluation; rejects points off the ring's locus."""
    if isinstance(point, RationalPoint):
        if point.ring.variables != mat.ring.variables:
            raise ValueError("point from a different ring")
        if point.ring != mat.ring:
            point = RationalPoint(mat.ring, point.coords)  # re-validate locus
        return mat.evaluate(point)
    return mat.evaluate(RationalPoint(mat.ring, point))


# -- ring-level Gröbner API --------------------------------------------


def _column_to_vec(col):
    """A column of Polynomials as a raw {(pos, mono): coeff} vector."""
    return {(i, m): c for i, p in enumerate(col) for m, c in p.terms.items()}


def _vec_to_rows(vec, nrows):
    """A raw vector split into one {mono: coeff} dict per position."""
    rows = [{} for _ in range(nrows)]
    for (pos, m), c in vec.items():
        rows[pos][m] = c
    return rows


def _as_vectors(gens, ring):
    """Accept Polynomials (rank 1) or lists of Polynomials (vectors)."""
    vecs = []
    rank = 1
    for g in gens:
        if isinstance(g, Polynomial):
            g = [g]
        rank = max(rank, len(g))
        vecs.append(_column_to_vec(g))
    return vecs, rank


def groebner_basis(gens, ring):
    """Interreduced deterministic Gröbner basis; quotient-aware.

    Input: ring elements, or equal-length lists of ring elements for
    free-module columns.  Output mirrors the input shape.
    """
    gens = list(gens)
    if not gens:
        return []
    vecs, rank = _as_vectors(gens, ring)
    extra = ring.quotient_extra_vectors(rank)
    basis = gb.buchberger(vecs + extra, ring.field, ring.module_key)
    # The interreduced combined basis is already entrywise reduced mod
    # the quotient; reduce_terms only zeroes out the pure quotient part.
    out = []
    for v in basis:
        polys = [ring.reduce_terms(t) for t in _vec_to_rows(v, rank)]
        if all(p.is_zero for p in polys):
            continue
        out.append(polys[0] if rank == 1 else polys)
    return out


def normal_form(element, basis, ring):
    """Unique remainder of element against a Gröbner basis."""
    vecs, rank = _as_vectors(list(basis) + [element], ring)
    vec = vecs.pop()
    extra = ring.quotient_extra_vectors(rank)
    red = gb.reduce_vector(vec, gb._Basis(ring.field, ring.module_key, vecs + extra))
    polys = [Polynomial(ring, t) for t in _vec_to_rows(red, rank)]
    return polys[0] if isinstance(element, Polynomial) else polys


class MatrixGB:
    """Gröbner/lifting data for the column span of a matrix (quotient-aware)."""

    def __init__(self, mat):
        self.mat = mat
        ring = mat.ring
        self.ring = ring
        vecs = mat.column_vecs()
        extra = ring.quotient_extra_vectors(mat.nrows)
        self._gb = gb.ModuleGB(
            vecs,
            mat.nrows,
            ring.nvars,
            ring.field,
            ring.order.key,
            extra=extra,
        )

    def contains_column(self, col):
        return self._gb.contains(_column_to_vec(col))

    def normal_form_column(self, col):
        red = self._gb.normal_form(_column_to_vec(col))
        return [Polynomial(self.ring, t) for t in _vec_to_rows(red, self.mat.nrows)]

    def lift_column(self, col):
        """x with mat·x = col (mod quotient), or None."""
        coeffs = self._gb.lift(_column_to_vec(col))
        if coeffs is None:
            return None
        return [self.ring.reduce_terms(dict(c)) for c in coeffs]

    def lift_matrix(self, target):
        cols = []
        for j in range(target.ncols):
            x = self.lift_column(target.column(j))
            if x is None:
                return None
            cols.append(x)
        if not cols:
            return Mat.zero(self.ring, self.mat.ncols, 0)
        return Mat.from_columns(self.ring, cols, self.mat.ncols)

    def leading_terms(self):
        """Leading (position, monomial) pairs of the module GB."""
        return list(self._gb.basis.lts)


def syzygy_matrix(mat):
    """Matrix whose columns generate ker(mat : R^c -> R^r); quotient-aware.

    Columns that reduce to zero in a quotient ring are dropped.
    """
    ring = mat.ring
    vecs = mat.column_vecs()
    extra = ring.quotient_extra_vectors(mat.nrows)
    syz = gb.syzygy_basis(
        vecs, mat.nrows, ring.nvars, ring.field, ring.order.key, extra=extra
    )
    out = Mat.from_column_vecs(ring, syz, mat.ncols)
    keep = [
        j
        for j in range(out.ncols)
        if any(not out.rows[i][j].is_zero for i in range(out.nrows))
    ]
    if len(keep) != out.ncols:
        out = out.select_columns(keep)
    return out


def points_on(ring, coord_lists):
    return [RationalPoint(ring, c) for c in coord_lists]
