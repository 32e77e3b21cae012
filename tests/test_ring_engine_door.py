"""The ring layer builds its Gröbner bases through `groebner.ModuleGB`.

The oracles are the direct engine routes the ring layer took before:
`buchberger` with a split loop for `groebner_basis`, a `_Basis`
remainder for `normal_form`, and a quotient ring's own `buchberger` run
with its `_Basis` for `quotient_gb`, `reduce_terms` and products.  Every
answer must be equal bit for bit: the same terms in the same order, with
coefficients of the same type.
"""

import random

import pytest

from perfx.fields import GF, QQ
from perfx.groebner import _Basis, buchberger, reduce_vector
from perfx.orders import GREVLEX, LEX
from perfx.rings import PolyRing, Polynomial, groebner_basis, normal_form

FIELDS = [QQ, GF(32003), GF(7)]


def bits(x):
    """Terms, order and coefficient types of an element or a list of them."""
    if isinstance(x, Polynomial):
        return [(t, type(c), c) for t, c in x.terms.items()]
    return [bits(p) for p in x]


def vectors(gens, ring):
    """The parent's `_as_vectors`: elements or lists as engine vectors."""
    vecs, rank = [], 1
    for g in gens:
        g = [g] if isinstance(g, Polynomial) else g
        rank = max(rank, len(g))
        vecs.append(ring.vector(enumerate(g)))
    return vecs, rank


def oracle_groebner_basis(gens, ring):
    vecs, rank = vectors(gens, ring)
    order = ring.module_order
    out = []
    for v in buchberger(vecs + ring.quotient_extra_vectors(rank), ring.field, order):
        parts = order.split(v)
        polys = [ring.reduce_terms(parts.get(i, {})) for i in range(rank)]
        if not all(p.is_zero for p in polys):
            out.append(polys[0] if rank == 1 else polys)
    return out


def oracle_normal_form(element, basis, ring):
    vecs, rank = vectors([*basis, element], ring)
    vec = vecs.pop()
    order = ring.module_order
    reducer = _Basis(ring.field, order, vecs + ring.quotient_extra_vectors(rank))
    parts = order.split(reduce_vector(vec, reducer))
    polys = [Polynomial(ring, parts.get(i, {})) for i in range(rank)]
    return polys[0] if isinstance(element, Polynomial) else polys


class OracleQuotient:
    """The parent's quotient ring data: its `buchberger` basis and `_Basis`."""

    def __init__(self, ring, ideal):
        raw = [q.terms for q in map(ring.ambient_coerce, ideal) if q.terms]
        self.ring = ring
        self.basis = buchberger(raw, ring.field, ring.module_order)
        self.reducer = _Basis(ring.field, ring.module_order, self.basis)

    def reduce(self, terms):
        terms = {t: c for t, c in terms.items() if c}
        if self.basis and terms:
            terms = reduce_vector(terms, self.reducer)
        return Polynomial(self.ring, terms)


def make_ring(field, order, quotient, rng):
    names = ["x", "y", "z"]
    ambient = PolyRing(field, names, order=order)
    if not quotient:
        return ambient, ()
    ideal = [ambient.random_poly(rng, nterms=3, homogeneous=2) for _ in range(2)]
    return PolyRing(field, names, order=order, quotient=ideal), ideal


def random_gens(ring, rng, rank, count):
    def poly():
        return ring.random_poly(rng, max_degree=2, nterms=2)

    if rank == 1:
        return [poly() for _ in range(count)]
    return [[poly() for _ in range(rank)] for _ in range(count)]


CASES = [
    (field, order, quotient)
    for field in FIELDS
    for order in (GREVLEX, LEX)
    for quotient in (False, True)
]


@pytest.mark.parametrize(
    "field, order, quotient", CASES,
    ids=[f"{f!r}-{o!r}-{'quotient' if q else 'plain'}" for f, o, q in CASES],
)
def test_ring_gb_answers_match_the_direct_engine_routes(field, order, quotient):
    rng = random.Random(f"{field!r}-{order!r}-{quotient}-door")
    ring, ideal = make_ring(field, order, quotient, rng)
    if quotient:
        oracle = OracleQuotient(ring, ideal)
        assert bits(ring.quotient_gb) == bits(
            [Polynomial(ring.ambient, v) for v in oracle.basis]
        )
        # the basis is held once, and the raw input is not held at all
        assert ring._quotient.plain_gb is ring._quotient.basis.elements
        assert ring._quotient.gens is ring._quotient.plain_gb
        for _ in range(4):
            a = ring.random_poly(rng, max_degree=3, nterms=4)
            b = ring.random_poly(rng, max_degree=3, nterms=4)
            raw = ring.ambient_coerce(a) * ring.ambient_coerce(b)
            assert bits(ring.reduce_terms(raw.terms)) == bits(oracle.reduce(raw.terms))
            assert bits(a * b) == bits(oracle.reduce(raw.terms))
    for rank in (1, 2, 3):
        for _ in range(2):
            gens = random_gens(ring, rng, rank, 3)
            basis = groebner_basis(gens, ring)
            assert bits(basis) == bits(oracle_groebner_basis(gens, ring))
            for element in random_gens(ring, rng, rank, 3):
                assert bits(normal_form(element, basis, ring)) == bits(
                    oracle_normal_form(element, basis, ring)
                )


def test_normal_form_is_canonical_for_any_generating_set():
    """Against a generating set that is not a Gröbner basis the remainder
    is the one against its reduced basis, so two generating sets of one
    ideal give one answer."""
    ring = PolyRing(QQ, ["x", "y"])
    gens = [ring.parse("x^2 - y"), ring.parse("x*y - 1")]
    other = [gens[0] + gens[1], gens[1]]
    element = ring.parse("x^3 + y^2")
    nf = normal_form(element, gens, ring)
    assert nf == normal_form(element, other, ring)
    assert nf == normal_form(element, groebner_basis(gens, ring), ring)
    assert normal_form(ring.parse("y^2*x - y"), gens, ring).is_zero
