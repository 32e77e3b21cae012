"""Ring kernel: Gröbner bases, normal forms, syzygies, evaluation.

Expected values come from independent oracles where they are not
immediate: the univariate case against the Euclidean gcd, elimination
against parametrization, and syzygy completeness against a brute-force
degree-bounded kernel search over the coefficient field.
"""

import random
import time
from fractions import Fraction
from math import comb
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from perfx import groebner, linalg
from perfx.derived import tor_profile
from perfx.fields import GF, QQ
from perfx.groebner import (
    ModuleGB,
    _Basis,
    _tagged,
    buchberger,
    interreduce,
    mono_divides,
    reduce_vector,
    syzygy_basis,
)
from perfx.modules import ModulePresentation, syzygies
from perfx.orders import CAP, GREVLEX, LEX, BlockOrder, GrevLex, Lex, restriction_order
from perfx.rings import (
    Mat,
    MatrixGB,
    PolyRing,
    Polynomial,
    RationalPoint,
    embed_poly,
    groebner_basis,
    normal_form,
    point_of,
    recast,
    syzygy_matrix,
)


def mono_mul(a, b):
    return tuple(map(add, a, b))


def poly_gcd_univariate(a, b):
    """Euclidean algorithm on coefficient lists over QQ (oracle)."""
    def degree(c):
        return len(c) - 1

    def rem(f, g):
        f = list(f)
        while len(f) >= len(g) and any(f):
            factor = f[-1] / g[-1]
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] -= factor * c
            while f and f[-1] == 0:
                f.pop()
        return f or [Fraction(0)]

    while any(b):
        a, b = b, rem(a, b)
    lead = a[-1]
    return [c / lead for c in a]


def test_univariate_gb_is_gcd():
    ring = PolyRing(QQ, ["x"])
    basis = groebner_basis([ring.parse("x^2 - 1"), ring.parse("x^3 - 1")], ring)
    oracle = poly_gcd_univariate(
        [Fraction(-1), Fraction(0), Fraction(1)],
        [Fraction(-1), Fraction(0), Fraction(0), Fraction(1)],
    )
    assert oracle == [Fraction(-1), Fraction(1)]  # x - 1
    assert len(basis) == 1
    assert basis[0] == ring.parse("x - 1")


def test_empty_generating_set():
    ring = PolyRing(QQ, ["x", "y"])
    assert groebner_basis([], ring) == []


def test_twisted_cubic_elimination():
    ring = PolyRing(QQ, ["x", "y", "z"], order=LEX)
    basis = groebner_basis([ring.parse("y - x^2"), ring.parse("z - x^3")], ring)
    # oracle: xz - y^2 vanishes on the parametrization (x, x^2, x^3)
    rel = ring.parse("x*z - y^2")
    r1 = PolyRing(QQ, ["x"])
    x = r1.var("x")
    assert rel.substitute([x, x * x, x * x * x]).is_zero
    assert normal_form(rel, basis, ring).is_zero


def test_normal_form_examples():
    ring = PolyRing(QQ, ["x"])
    basis = groebner_basis([ring.parse("x - 1")], ring)
    assert normal_form(ring.parse("x^2"), basis, ring) == ring.one
    assert normal_form(ring.zero, basis, ring).is_zero
    # substitution order: y dominates, so y - x^2 rewrites y into x^2
    ryx = PolyRing(QQ, ["y", "x"], order=LEX)
    basis2 = groebner_basis([ryx.parse("y - x^2")], ryx)
    assert normal_form(ryx.parse("x*y"), basis2, ryx) == ryx.parse("x^3")


def brute_force_syzygy_dim(mat, degree):
    """Dimension of {v : mat . v = 0, deg(entries) <= degree} over k.

    Enumerates coefficient unknowns for each entry and solves the
    resulting exact linear system; independent of the Buchberger route.
    """
    ring = mat.ring
    monos = []
    for d in range(degree + 1):
        monos.extend(ring.monomials_of_degree(d))
    unknowns = [(j, m) for j in range(mat.ncols) for m in monos]
    # rows: for each ambient row i and each monomial of the product
    equations = {}
    for col, (j, m) in enumerate(unknowns):
        for i in range(mat.nrows):
            entry = mat.rows[i][j]
            for t, ec in entry.terms.items():
                key = (i, mono_mul(ring.exponents(t), m))
                equations.setdefault(key, {})[col] = equations.setdefault(
                    key, {}
                ).get(col, ring.field.zero) + ec
    rows = []
    for key in sorted(equations):
        row = [equations[key].get(c, ring.field.zero) for c in range(len(unknowns))]
        rows.append(row)
    if not rows:
        return len(unknowns)
    return len(unknowns) - linalg.rank(rows, ring.field)


def computed_syzygy_span_dim(mat, syz, degree):
    """Dimension of the degree-bounded span of the computed syzygies."""
    ring = mat.ring
    monos = []
    for d in range(degree + 1):
        monos.extend(ring.monomials_of_degree(d))
    unknowns = {(j, m): idx for idx, (j, m) in enumerate(
        (j, m) for j in range(mat.ncols) for m in monos
    )}
    vectors = []
    for col in range(syz.ncols):
        col_deg = max(
            (sum(ring.exponents(t)) for i in range(syz.nrows) for t in syz.rows[i][col].terms),
            default=0,
        )
        for m in monos:
            if sum(m) + max(col_deg, 0) > degree:
                continue
            vec = [ring.field.zero] * len(unknowns)
            fits = True
            for i in range(syz.nrows):
                for t, ec in syz.rows[i][col].terms.items():
                    key = (i, mono_mul(ring.exponents(t), m))
                    if key not in unknowns:
                        fits = False
                        break
                    vec[unknowns[key]] = ring.field.add(vec[unknowns[key]], ec)
                if not fits:
                    break
            if fits and any(x != ring.field.zero for x in vec):
                vectors.append(vec)
    if not vectors:
        return 0
    return linalg.rank(vectors, ring.field)


@pytest.mark.parametrize("seed", range(4))
def test_syzygy_soundness_and_completeness(seed):
    rng = random.Random(seed)
    ring = PolyRing(QQ, ["x", "y"])
    mat = Mat(
        ring,
        [
            [ring.random_poly(rng, max_degree=2, nterms=2) for _ in range(3)]
            for _ in range(2)
        ],
        ncols=3,
    )
    syz = syzygy_matrix(mat)
    assert (mat * syz).is_zero
    degree = 3
    expected = brute_force_syzygy_dim(mat, degree)
    got = computed_syzygy_span_dim(mat, syz, degree)
    assert got == expected


# -- syzygies modulo a span against the projection of the full syzygies ------

MODULO_RINGS = {
    "QQ": PolyRing(QQ, ["x", "y"]),
    "GF32003": PolyRing(GF(32003), ["x", "y"]),
    "QQ_quotient": PolyRing(QQ, ["x", "y"], quotient=["x^2 - y"]),
}


def projected_syzygies(a, b):
    """Reference: the syzygies of [a | b], projected to the rows of a."""
    return syzygy_matrix(a.hstack(b)).select_rows(range(a.ncols)).drop_zero_columns()


def spans_columns(mat, cols):
    contains = MatrixGB(mat).contains_column
    return all(contains(cols.column(j)) for j in range(cols.ncols))


def random_mat(ring, rng, nrows, ncols):
    return Mat(ring, [[ring.random_poly(rng, 2, 2) for _ in range(ncols)]
                      for _ in range(nrows)], ncols=ncols)


def check_modulo(a, b):
    got = syzygy_matrix(a, modulo=b)
    want = projected_syzygies(a, b)
    assert got.nrows == a.ncols
    assert spans_columns(got, want) and spans_columns(want, got)
    assert spans_columns(b, a * got)
    return got


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(MODULO_RINGS)), st.integers(0, 10**6))
def test_syzygies_modulo_match_the_projected_syzygies(name, seed):
    ring = MODULO_RINGS[name]
    rng = random.Random(seed)
    nrows = rng.randint(1, 2)
    a = random_mat(ring, rng, nrows, rng.randint(1, 3))
    b = random_mat(ring, rng, nrows, rng.randint(0, 2))
    check_modulo(a, b)


@pytest.mark.parametrize("name", sorted(MODULO_RINGS))
def test_syzygies_modulo_edge_cases(name):
    ring = MODULO_RINGS[name]
    rng = random.Random(5)
    a = random_mat(ring, rng, 2, 3)
    b = random_mat(ring, rng, 2, 2)
    # no columns to work modulo: the plain kernel
    none = check_modulo(a, Mat.zero(ring, 2, 0))
    assert spans_columns(none, syzygy_matrix(a)) and spans_columns(syzygy_matrix(a), none)
    # every column of a in the span of b: every x qualifies
    inside = check_modulo(b * random_mat(ring, rng, 2, 3), b)
    assert spans_columns(inside, Mat.identity(ring, 3))
    # a zero column of a is a syzygy on its own
    zero_col = check_modulo(a.hstack(Mat.zero(ring, 2, 1)), b)
    assert MatrixGB(zero_col).contains_column([ring.zero] * 3 + [ring.one])
    with pytest.raises(ValueError, match="row mismatch"):
        syzygy_matrix(a, modulo=Mat.zero(ring, 3, 1))


def test_syzygies_examples():
    ring = PolyRing(QQ, ["x", "y"])
    pres = syzygies([ring.var("x"), ring.var("y")], ring)
    assert pres.ambient_rank == 2
    assert pres.relations.ncols == 1
    col = pres.relations.column(0)
    # the relation is (y, -x) up to sign and scaling
    assert col[0] * ring.var("x") + col[1] * ring.var("y") == ring.zero

    r1 = PolyRing(QQ, ["x"])
    single = syzygies([r1.var("x")], r1)
    assert single.relations.ncols == 0

    dup = syzygies([ring.var("x"), ring.var("x")], ring)
    cols = [dup.relations.column(j) for j in range(dup.relations.ncols)]
    assert any(
        c[0].constant_value() is not None and c[0] == -c[1] for c in cols
    )


def test_buchberger_criterion_on_outputs():
    """All S-pair remainders of a returned basis reduce to zero."""
    rng = random.Random(11)
    for ring in (PolyRing(QQ, ["x", "y"]), PolyRing(GF(5), ["x", "y", "z"])):
        gens = [ring.random_poly(rng, max_degree=2, nterms=3) for _ in range(3)]
        basis = groebner_basis(gens, ring)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                a, b = basis[i], basis[j]
                if a.is_zero or b.is_zero:
                    continue
                ma, mb = a.leading_monomial(), b.leading_monomial()
                ea, eb = ring.exponents(ma), ring.exponents(mb)
                lcm = tuple(max(x, y) for x, y in zip(ea, eb))
                sa = ring.monomial(tuple(l - m for l, m in zip(lcm, ea)))
                sb = ring.monomial(tuple(l - m for l, m in zip(lcm, eb)))
                spair = sa * a.scale(ring.field.inv(a.terms[ma])) - sb * b.scale(
                    ring.field.inv(b.terms[mb])
                )
                assert normal_form(spair, basis, ring).is_zero


def test_determinism():
    rng = random.Random(3)
    ring = PolyRing(QQ, ["x", "y"])
    gens = [ring.random_poly(rng, max_degree=3, nterms=3) for _ in range(3)]
    b1 = groebner_basis(gens, ring)
    b2 = groebner_basis(list(reversed(gens)), ring)
    assert b1 == b2


def test_quotient_ring_canonical_forms():
    ring = PolyRing(QQ, ["x", "y"], quotient=["x*y"])
    assert ring.parse("x*y + x") == ring.parse("x")
    assert (ring.var("x") * ring.var("y")).is_zero
    # syzygies over the quotient see the annihilator
    mat = Mat(ring, [["x"]], ncols=1)
    syz = syzygy_matrix(mat)
    products = [(mat * syz).rows[0][j] for j in range(syz.ncols)]
    assert all(p.is_zero for p in products)
    assert any(
        not syz.rows[0][j].is_zero for j in range(syz.ncols)
    )  # y annihilates x


def qq_form(x):
    """Whether x is a QQ value in the one form QQ holds: a plain int
    exactly when it is integral, otherwise a Fraction with denominator
    above 1 (never a float, a bool or an integral Fraction)."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def test_evaluate_examples_and_errors():
    ring = PolyRing(QQ, ["x", "y"])
    mat = Mat(ring, [["x", "y"]], ncols=2)
    # one sparse row per matrix row, holding only the nonzero values
    assert mat.evaluate(RationalPoint(ring, (0, 0))) == [{}]
    assert mat.evaluate(RationalPoint(ring, (0, 3))) == [{1: Fraction(3)}]
    r1 = PolyRing(QQ, ["x"])
    assert Mat(r1, [["x - 1"]], ncols=1).evaluate(RationalPoint(r1, (1,))) == [{}]
    assert Mat.zero(r1, 2, 0).evaluate(RationalPoint(r1, (1,))) == [{}, {}]
    assert Mat.zero(r1, 0, 2).evaluate(RationalPoint(r1, (1,))) == []
    m2 = Mat(ring, [["x", "y"], ["y", "x"]], ncols=2)
    rows = m2.evaluate(RationalPoint(ring, (1, 2)))
    assert rows == [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(1)}]
    half = m2.evaluate(RationalPoint(ring, (Fraction(1, 2), 2)))
    assert half == [{0: Fraction(1, 2), 1: 2}, {0: 2, 1: Fraction(1, 2)}]
    assert all(qq_form(x) for row in rows + half for x in row.values())
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    assert det == -3
    quotient = PolyRing(QQ, ["x", "y"], quotient=["x*y - 1"])
    with pytest.raises(ValueError, match="vanishing locus"):
        RationalPoint(quotient, (0, 0))
    # point_of checks a point against the matrix's ring
    with pytest.raises(ValueError, match="vanishing locus"):
        point_of(quotient, RationalPoint(ring, (0, 0)))
    with pytest.raises(ValueError, match="different ring"):
        point_of(r1, RationalPoint(ring, (0, 0)))
    assert point_of(quotient, RationalPoint(ring, (2, Fraction(1, 2)))).ring is quotient
    assert point_of(ring, (1, 2)) == RationalPoint(ring, (1, 2))


QQ_INPUTS = st.one_of(
    st.integers(-9, 9), st.booleans(), st.fractions(-9, 9, max_denominator=6),
    st.integers(-9, 9).map(Fraction),
)
FORM_RINGS = {
    "plain": PolyRing(QQ, ["x", "y"]),
    "quotient": PolyRing(QQ, ["x", "y"], quotient=["x^2 - 2*y"]),
}


@settings(max_examples=60, deadline=None)
@given(QQ_INPUTS, QQ_INPUTS, st.sampled_from(sorted(FORM_RINGS)), st.integers(0, 10**6))
def test_qq_values_are_ints_exactly_when_integral(a, b, name, seed):
    """Every QQ value the field and the ring layer hand out is in
    `qq_form`, whatever form (bool, int, integral Fraction) came in."""
    rng = random.Random(seed)
    values = [QQ.coerce(a), QQ.coerce(b), QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a),
              QQ.from_int(a if isinstance(a, int) else a.numerator), QQ.parse(str(Fraction(a))),
              QQ.random(rng), QQ.zero, QQ.one]
    if b:
        values.append(QQ.inv(b))
    assert all(qq_form(x) for x in values), values
    ring = FORM_RINGS[name]
    f, g = ring.random_poly(rng) * a + ring.var(0), ring.random_poly(rng) * b + ring.var(1)
    h, u, v = (ring.random_poly(rng) for _ in range(3))
    gens = [f, g]
    polys = [*groebner_basis(gens, ring), normal_form(h, gens, ring)]
    lifted = MatrixGB(Mat(ring, [gens])).lift_column([f * u + g * v])
    assert lifted is not None
    polys += lifted
    assert all(qq_form(c) for p in polys for c in p.terms.values())
    x = QQ.coerce(a)
    point = RationalPoint(ring, (x, QQ.div(QQ.mul(x, x), 2) if name == "quotient" else b))
    rows = Mat(ring, [gens, [h, u]]).evaluate(point)
    assert all(qq_form(c) for row in rows for c in row.values())


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_evaluate_is_multiplicative(seed):
    rng = random.Random(seed)
    ring = PolyRing(QQ, ["x", "y"])
    a = Mat(ring, [[ring.random_poly(rng, 2, 2) for _ in range(2)] for _ in range(2)], ncols=2)
    b = Mat(ring, [[ring.random_poly(rng, 2, 2) for _ in range(2)] for _ in range(2)], ncols=2)
    point = RationalPoint(ring, (QQ.random(rng), QQ.random(rng)))
    left = (a * b).evaluate(point)
    ea, eb = a.evaluate(point), b.evaluate(point)
    right = [
        {j: x for j in range(2)
         if (x := sum(ea[i].get(k, 0) * eb[k].get(j, 0) for k in range(2)))}
        for i in range(2)
    ]
    assert left == right


@pytest.mark.parametrize("text", ["x^2 -", "x^", "(x", "x*", ""])
def test_parse_at_end_of_input_raises_value_error(text):
    with pytest.raises(ValueError, match="unexpected end of input"):
        PolyRing(QQ, ["x", "t"]).parse(text)


def test_powers_take_logarithmically_many_products(monkeypatch):
    ring = PolyRing(QQ, ["x", "y"])
    products = []
    real = Polynomial.__mul__

    def counting(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    assert ring.parse("x^100000") == ring.from_exponents({(100000, 0): QQ.one})
    assert len(products) <= 40


def test_mono_helpers():
    assert mono_divides((1, 0), (2, 1))
    assert not mono_divides((3, 0), (2, 1))


# -- the Gröbner hot path against its former algorithms ------------------------
#
# reference_reduce is the max-scan normal form and reference_interreduce the
# fixpoint interreduction that reduce_vector and interreduce replaced.  Both
# work on (position, exponent tuple) terms ordered by the tuple keys below,
# which are how the module orders were written before terms were packed into
# ints; the engine's packed vectors are converted with the TermOrder.


def grevlex_key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def lex_key(mono):
    return tuple(mono)


def block_key(split):
    def key(mono):
        return grevlex_key(mono[:split]) + grevlex_key(mono[split:])

    return key


def reference_top_key(ring_key):
    """Term over position: monomials first, then low positions."""

    def key(term):
        pos, mono = term
        return (ring_key(mono), -pos)

    return key


def reference_elimination_key(rank, ring_key):
    """Positions below rank dominate; term over position in each block."""

    def key(term):
        pos, mono = term
        return (1 if pos < rank else 0, ring_key(mono), -pos)

    return key


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_iadd_scaled(target, vec, coeff, shift, field):
    """target += coeff * x^shift * vec, in place."""
    for (pos, mono), c in vec.items():
        term = (pos, mono_mul(mono, shift))
        new = field.add(target.get(term, field.zero), field.mul(coeff, c))
        if new == field.zero:
            target.pop(term, None)
        else:
            target[term] = new


def packed(order, vecs):
    return [{order.pack(pos, mono): c for (pos, mono), c in v.items()} for v in vecs]


def unpacked(order, vecs):
    return [{order.unpack(t): c for t, c in v.items()} for v in vecs]


def reference_monic(vec, field, key):
    inv = field.inv(vec[max(vec, key=key)])
    return {t: field.mul(inv, c) for t, c in vec.items()}


def reference_reduce(vec, basis, field, key):
    """Normal form of vec against a list of monic vectors, largest term first.

    Each step rescans the work dict for its largest term and divides by
    the first basis element, in list order, whose leading term divides it.
    """
    lts = [max(b, key=key) for b in basis]
    work = dict(vec)
    remainder = {}
    while work:
        term = max(work, key=key)
        coeff = work[term]
        pos, mono = term
        hit = next(
            (i for i, (p, m) in enumerate(lts) if p == pos and mono_divides(m, mono)),
            None,
        )
        if hit is None:
            del work[term]
            remainder[term] = coeff
            continue
        shift = mono_div(mono, lts[hit][1])
        vec_iadd_scaled(work, basis[hit], field.neg(coeff), shift, field)
    return remainder


def reference_interreduce(elements, field, key):
    """Drop leading-term redundant elements, then tail-reduce to a fixpoint."""
    elems = [reference_monic(e, field, key) for e in elements if e]
    elems.sort(key=lambda v: key(max(v, key=key)))
    kept = []
    kept_lts = []
    for e in elems:
        pos, mono = max(e, key=key)
        if any(p == pos and mono_divides(m, mono) for (p, m) in kept_lts):
            continue
        kept.append(e)
        kept_lts.append((pos, mono))
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            others = [f for j, f in enumerate(kept) if j != i]
            r = reference_monic(reference_reduce(kept[i], others, field, key), field, key)
            if r != kept[i]:
                kept[i] = r
                changed = True
    return kept


ORACLE_FIELDS = [QQ, GF(32003), GF(7)]
# (packed order on 3 variables, the same order as a tuple key)
ORACLE_ORDERS = {
    "grevlex": (GREVLEX.module(3), reference_top_key(grevlex_key)),
    "lex": (LEX.module(3), reference_top_key(lex_key)),
    "block": (BlockOrder(1).module(3), reference_top_key(block_key(1))),
    # position 0 dominates the rest, as the generators do in syzygy_basis
    "elimination": (GREVLEX.module(3).elimination(1), reference_elimination_key(1, grevlex_key)),
}


def random_vector(rng, field, rank, nvars, nterms=3, max_degree=2):
    vec = {}
    for _ in range(nterms):
        mono = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(nvars)] += 1
        coeff = field.random(rng)
        if coeff != field.zero:
            vec[(rng.randrange(rank), tuple(mono))] = coeff
    return vec


def random_member(rng, field, basis, nvars):
    """A random combination of basis elements with monomial multipliers."""
    out = {}
    for g in rng.sample(basis, min(2, len(basis))):
        shift = tuple(rng.randint(0, 1) for _ in range(nvars))
        coeff = field.random(rng)
        if coeff != field.zero:
            vec_iadd_scaled(out, g, coeff, shift, field)
    return out


def as_set(vectors):
    return {frozenset(v.items()) for v in vectors}


def assert_reduced_gb(basis, field, key):
    lts = [max(g, key=key) for g in basis]
    assert len(set(lts)) == len(lts)
    for i, g in enumerate(basis):
        assert g[lts[i]] == field.one
        for j, (pos, mono) in enumerate(lts):
            if j != i:
                assert not any(p == pos and mono_divides(mono, m) for (p, m) in g)


@pytest.mark.parametrize("order", sorted(ORACLE_ORDERS))
@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_interreduce_matches_fixpoint_reference(field, order):
    rng = random.Random(f"{field!r}-{order}")
    order, key = ORACLE_ORDERS[order]
    nvars = 3
    for rank in (1, 2, 3):
        for _ in range(5):
            gens = [random_vector(rng, field, rank, nvars) for _ in range(4)]
            gb = unpacked(order, buchberger(packed(order, gens), field, order))
            assert_reduced_gb(gb, field, key)
            # a Gröbner basis that is neither minimal, reduced nor monic
            noisy = [
                {t: field.mul(field.from_int(3), c) for t, c in g.items()} for g in gb
            ]
            noisy += [random_member(rng, field, gb, nvars) for _ in range(3)]
            rng.shuffle(noisy)
            got = unpacked(order, interreduce(packed(order, noisy), field, order))
            assert_reduced_gb(got, field, key)
            assert as_set(got) == as_set(reference_interreduce(noisy, field, key))
            assert as_set(got) == as_set(gb)


@pytest.mark.parametrize("order", sorted(ORACLE_ORDERS))
@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_reduce_vector_matches_max_scan_reference(field, order):
    rng = random.Random(f"{field!r}-{order}-reduce")
    order, key = ORACLE_ORDERS[order]
    nvars = 3
    for rank in (1, 2, 3):
        for _ in range(4):
            # an arbitrary basis, not a Gröbner basis: the choice of divisor
            # then shows in the remainder
            vecs = [v for v in (random_vector(rng, field, rank, nvars) for _ in range(3)) if v]
            basis = _Basis(field, order, packed(order, vecs))
            monic = [reference_monic(v, field, key) for v in vecs]
            for _ in range(3):
                vec = random_vector(rng, field, rank, nvars, nterms=6, max_degree=4)
                [got] = unpacked(order, [reduce_vector(packed(order, [vec])[0], basis)])
                want = reference_reduce(vec, monic, field, key)
                assert list(got.items()) == list(want.items())


# -- ModuleGB and quotient-ring reduction against their former routes ----------
#
# reference_eager_module_gb is how ModuleGB used to build its membership basis:
# the tagged elimination basis, projected to R^rank and interreduced.  The
# former per-call normal form built a fresh basis for every call and reduced
# against it, which is what reference_reduce does.


def reference_eager_module_gb(gens, rank, nvars, field, ring_order, extra):
    """(tagged basis, plain basis) by the eager elimination route."""
    order = ring_order.module(nvars)
    eliminate = order.elimination(rank)
    tagged = unpacked(eliminate, buchberger(
        _tagged(packed(order, gens), rank, order, field, packed(order, extra)), field, eliminate
    ))
    plain = [
        {t: c for t, c in g.items() if t[0] < rank}
        for g in tagged
        if any(t[0] < rank for t in g)
    ]
    return tagged, unpacked(order, interreduce(packed(order, plain), field, order))


def without_constants(vec):
    """vec without its degree-0 terms, so that the span is a proper submodule."""
    return {t: c for t, c in vec.items() if any(t[1])}


def lifted(order, coeffs, ngens):
    """ModuleGB.lift's packed vector as one poly-dict per generator."""
    if coeffs is None:
        return None
    out = [{} for _ in range(ngens)]
    for (pos, mono), c in unpacked(order, [coeffs])[0].items():
        out[pos][mono] = c
    return out


def reference_lift(vec, tagged, rank, ngens, field, ring_key):
    rem = reference_reduce(vec, tagged, field, reference_elimination_key(rank, ring_key))
    if any(pos < rank for (pos, _m) in rem):
        return None
    coeffs = [{} for _ in range(ngens)]
    for (pos, mono), c in rem.items():
        coeffs[pos - rank][mono] = field.neg(c)
    return coeffs


@pytest.mark.parametrize("quotient", [False, True], ids=["free", "quotient"])
@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_module_gb_matches_eager_reference(field, quotient):
    rng = random.Random(f"{field!r}-{quotient}-module-gb")
    nvars = 3
    ring_key = grevlex_key
    key = reference_top_key(grevlex_key)
    for rank in (1, 2, 3):
        for _ in range(3):
            gens = [without_constants(random_vector(rng, field, rank, nvars)) for _ in range(3)]
            extra = []
            if quotient:
                ideal = [without_constants(random_vector(rng, field, 1, nvars)) for _ in range(2)]
                extra = [
                    {(i, m): c for (_p, m), c in q.items()}
                    for q in ideal
                    for i in range(rank)
                ]
            order = GREVLEX.module(nvars)
            mgb = ModuleGB(packed(order, gens), rank, field, order, packed(order, extra))
            tagged, plain = reference_eager_module_gb(gens, rank, nvars, field, GREVLEX, extra)
            plain_gb = unpacked(mgb.order, mgb.plain_gb)
            assert [list(g.items()) for g in plain_gb] == [list(g.items()) for g in plain]
            nonzero = [g for g in gens if g]
            members = [random_member(rng, field, nonzero, nvars) for _ in range(2)] if nonzero else []
            others = [
                random_vector(rng, field, rank, nvars, nterms=5, max_degree=3) for _ in range(3)
            ]
            for vec in members + others:
                [pvec] = packed(order, [vec])
                [got] = unpacked(order, [mgb.normal_form(pvec)])
                assert list(got.items()) == list(reference_reduce(vec, plain, field, key).items())
                assert lifted(order, mgb.lift(pvec), len(gens)) == reference_lift(
                    vec, tagged, rank, len(gens), field, ring_key
                )
            for vec in members:
                [pvec] = packed(order, [vec])
                assert mgb.contains(pvec)
                assert mgb.lift(pvec) is not None


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=repr)
@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_reduce_terms_matches_per_call_reference(field, order):
    ring_key = {GREVLEX: grevlex_key, LEX: lex_key}[order]
    rng = random.Random(f"{field!r}-{order!r}-quotient-products")
    names = ["x", "y", "z"]
    ambient = PolyRing(field, names, order=order)
    ideal = [ambient.random_poly(rng, nterms=3, homogeneous=2) for _ in range(2)]
    ring = PolyRing(field, names, order=order, quotient=ideal)
    exps = ring.exponents
    qvecs = [{(0, exps(t)): c for t, c in q.terms.items()} for q in ring.quotient_gb]
    key = reference_top_key(ring_key)
    for _ in range(6):
        a = ring.random_poly(rng, max_degree=3, nterms=4)
        b = ring.random_poly(rng, max_degree=3, nterms=4)
        product = {}
        for t1, c1 in a.terms.items():
            for t2, c2 in b.terms.items():
                m = mono_mul(exps(t1), exps(t2))
                product[m] = field.add(product.get(m, field.zero), field.mul(c1, c2))
        product = {m: c for m, c in product.items() if c != field.zero}
        want = reference_reduce({(0, m): c for m, c in product.items()}, qvecs, field, key)
        got = ring.from_exponents(product)
        assert [(exps(t), c) for t, c in got.terms.items()] == [
            (m, c) for (_p, m), c in want.items()
        ]
        assert list((a * b).terms.items()) == list(got.terms.items())


# -- the packed polynomial against its tuple-dict reference --------------------
#
# Polynomial.terms keeps packed ints.  The ref_* functions keep the
# {exponent tuple: coeff} dicts polynomials held before, ordered by the tuple
# keys above; each packed result is read back through `ring.exponents`.


def ref_terms(p):
    return {p.ring.exponents(t): c for t, c in p.terms.items()}


def ref_add(a, b, field):
    out = dict(a)
    for m, c in b.items():
        s = field.add(out.get(m, field.zero), c)
        if s == field.zero:
            out.pop(m, None)
        else:
            out[m] = s
    return out


def ref_neg(a, field):
    return {m: field.neg(c) for m, c in a.items()}


def ref_mul(a, b, field, quotient=(), key=None):
    """The product; with `quotient`, a monic Gröbner basis as tuple dicts
    ordered by the ring key `key`, its normal form."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            out = ref_add(out, {mono_mul(m1, m2): field.mul(c1, c2)}, field)
    if quotient:
        qvecs = [{(0, m): c for m, c in q.items()} for q in quotient]
        vec = {(0, m): c for m, c in out.items()}
        out = {m: c for (_p, m), c in reference_reduce(
            vec, qvecs, field, reference_top_key(key)).items()}
    return out


def ref_evaluate(a, coords, field):
    out = field.zero
    for m, c in a.items():
        for e, x in zip(m, coords):
            for _ in range(e):
                c = field.mul(c, x)
        out = field.add(out, c)
    return out


def ref_substitute(a, images, field, nvars):
    out = {}
    for m, c in a.items():
        term = {(0,) * nvars: c}
        for e, g in zip(m, images):
            for _ in range(e):
                term = ref_mul(term, g, field)
        out = ref_add(out, term, field)
    return out


def ref_repr(a, variables, key, field):
    if not a:
        return "0"
    parts = []
    for m in sorted(a, key=key, reverse=True):
        c = a[m]
        factors = [f"{v}^{e}" if e > 1 else v for v, e in zip(variables, m) if e]
        body = "*".join(factors)
        if not factors:
            parts.append(str(c))
        elif c == field.one:
            parts.append(body)
        elif c == field.neg(field.one):
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


PACKED_ORDERS = {
    "grevlex": (GREVLEX, grevlex_key),
    "lex": (LEX, lex_key),
    "block": (BlockOrder(1), block_key(1)),
}


@pytest.mark.parametrize("quotient", [False, True], ids=["plain", "quotient"])
@pytest.mark.parametrize("order_name", sorted(PACKED_ORDERS))
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
def test_packed_polynomial_matches_tuple_reference(field, order_name, quotient):
    order, key = PACKED_ORDERS[order_name]
    rng = random.Random(f"packed-{field!r}-{order_name}-{quotient}")
    names = ["x", "y", "z"]
    ring = PolyRing(field, names, order=order)
    if quotient:
        ideal = [ring.random_poly(rng, nterms=3, homogeneous=2) for _ in range(2)]
        ring = PolyRing(field, names, order=order, quotient=ideal)
        assert ring.is_quotient
    qref = [ref_terms(q) for q in ring.quotient_gb]
    target = PolyRing(field, ["s", "t"])
    for _ in range(5):
        a = ring.random_poly(rng, max_degree=3, nterms=4)
        b = ring.random_poly(rng, max_degree=3, nterms=4)
        ra, rb = ref_terms(a), ref_terms(b)
        assert ref_terms(a + b) == ref_add(ra, rb, field)
        assert ref_terms(a - b) == ref_add(ra, ref_neg(rb, field), field)
        assert ref_terms(a * b) == ref_mul(ra, rb, field, qref, key)
        cube = ref_mul(ref_mul(ra, ra, field, qref, key), ra, field, qref, key)
        assert ref_terms(a**3) == cube
        images = [target.random_poly(rng, max_degree=2, nterms=2) for _ in names]
        assert ref_terms(a.substitute(images, target)) == ref_substitute(
            ra, [ref_terms(g) for g in images], field, target.nvars
        )
        coords = tuple(field.from_int(rng.randint(-3, 3)) for _ in names)
        assert a.evaluate(coords) == ref_evaluate(ra, coords, field)
        if ra:
            assert ring.exponents(a.leading_monomial()) == max(ra, key=key)
        assert repr(a) == ref_repr(ra, names, key, field)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
def test_recast_and_embed_match_the_tuple_reference(field):
    """recast keeps a polynomial's exponents between a grevlex and a block
    ring over the same variables, and reduces into a quotient ring;
    embed_poly pads the exponents into a longer variable list."""
    rng = random.Random(f"recast-{field!r}")
    names = ["x", "y", "z"]
    grevlex = PolyRing(field, names)
    block = PolyRing(field, names, order=BlockOrder(1))
    quotient = PolyRing(field, names, quotient=["x^2 - y*z"])
    longer = PolyRing(field, ["u", *names, "v"], order=BlockOrder(2))
    for _ in range(5):
        a = grevlex.random_poly(rng, max_degree=3, nterms=4)
        ra = ref_terms(a)
        b = recast(a, block)
        assert b.ring is block and ref_terms(b) == ra
        assert repr(b) == ref_repr(ra, names, block_key(1), field)
        assert recast(b, grevlex) == a
        assert recast(b, quotient) == quotient.from_exponents(ra)
        # mixed orders in one product: the other factor is recast
        assert ref_terms(a * b) == ref_mul(ra, ra, field)
        assert ref_terms(embed_poly(a, longer, 1)) == {
            (0, *m, 0): c for m, c in ra.items()
        }


def test_the_cap_is_checked_where_a_polynomial_is_built():
    ring = PolyRing(QQ, ["x", "y"])
    with pytest.raises(ValueError, match=f"cap {CAP}"):
        ring.parse(f"x^{CAP + 1}")
    big = ring.parse("x^600000")
    with pytest.raises(ValueError, match=rf"degree 1200000 of monomial \(1200000, 0\) .* cap {CAP}"):
        big * big


# -- packed terms: the int order is the term order -----------------------------


def reference_restriction_key(ntv):
    """Position 0 first, then grevlex of the first ntv variables, then low
    positions, then grevlex of the rest."""

    def key(term):
        pos, mono = term
        return (pos == 0, grevlex_key(mono[:ntv]), -pos, grevlex_key(mono[ntv:]))

    return key


# (packed order on 3 variables, the same order as a tuple key, positions)
CERTIFY_ORDERS = {
    "grevlex": (GREVLEX.module(3), reference_top_key(grevlex_key), 2),
    "lex": (LEX.module(3), reference_top_key(lex_key), 2),
    "block": (BlockOrder(1).module(3), reference_top_key(block_key(1)), 2),
    "elimination": (
        GREVLEX.module(3).elimination(1), reference_elimination_key(1, grevlex_key), 3
    ),
    "restriction": (restriction_order(1, 3).elimination(1), reference_restriction_key(1), 3),
}

exponents = st.tuples(*[st.integers(0, 12)] * 3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CERTIFY_ORDERS)),
       st.lists(st.tuples(st.integers(0, 2), exponents), min_size=2, max_size=6),
       exponents)
def test_packed_order_is_the_term_order(name, terms, shift):
    order, key, _npos = CERTIFY_ORDERS[name]
    packs = [order.pack(pos, mono) for pos, mono in terms]
    assert [order.unpack(t) for t in packs] == terms
    assert sorted(terms, key=key) == [order.unpack(t) for t in sorted(packs)]
    for (pos, mono), t in zip(terms, packs):
        # multiplying by a monomial adds its packed value
        assert t + order.monomial(shift) == order.pack(pos, mono_mul(mono, shift))
        # within a position, divisibility is a subtraction and a mask
        for (pos2, mono2), t2 in zip(terms, packs):
            if pos2 == pos:
                assert (not (t2 - t) & order.divmask) == mono_divides(mono, mono2)


def test_packed_fields_past_the_cap_raise():
    ring = PolyRing(QQ, ["x", "y"])
    with pytest.raises(ValueError, match=f"cap {CAP}"):
        ring.from_exponents({(CAP + 1, 0): QQ.one})
    # every exponent fits, but the degree field does not
    half = (CAP + 1) // 2
    with pytest.raises(ValueError, match=f"cap {CAP}"):
        ring.from_exponents({(half, half): QQ.one})
    assert groebner_basis([ring.from_exponents({(CAP, 0): QQ.one})], ring)
    # a reduction that leaves the cap: x^2 -> y^(2 half) modulo x - y^half
    lex = PolyRing(QQ, ["x", "y"], order=LEX)
    basis = groebner_basis([lex.parse("x") - lex.from_exponents({(0, half): QQ.one})], lex)
    with pytest.raises(ValueError, match=f"cap {CAP}"):
        normal_form(lex.parse("x^2"), basis, lex)
    with pytest.raises(ValueError, match=f"position {CAP + 1} exceeds the packed-term cap"):
        GREVLEX.module(2).pack(CAP + 1, (0, 0))


@pytest.mark.parametrize("make_order", [GrevLex, Lex, lambda: BlockOrder(1)],
                         ids=["grevlex", "lex", "block"])
@pytest.mark.parametrize("parse_first", [False, True])
def test_every_edge_agrees_on_the_cap_in_any_order(make_order, parse_first):
    """x^600000*y^600000 packs where every field of the order fits: in
    lex and block(1) each field is one exponent, in grevlex the degree
    field is 1200000.  `monomial`, `from_exponents` and `parse` agree,
    whichever runs first; a fresh order object starts with empty tables."""
    order = make_order()
    ring = PolyRing(QQ, ["x", "y"], order=order)
    mono = (600000, 600000)
    edges = {
        "monomial": lambda: ring.monomial(mono),
        "from_exponents": lambda: ring.from_exponents({mono: QQ.one}),
        "parse": lambda: ring.parse("x^600000*y^600000"),
    }
    calls = ["monomial", "parse", "monomial", "from_exponents"]
    if parse_first:
        calls = ["parse", "monomial", "from_exponents", "parse"]
    for name in calls:
        if order.name == "grevlex":
            with pytest.raises(ValueError, match=f"degree 1200000 .* cap {CAP}"):
                edges[name]()
        else:
            p = edges[name]()
            assert str(p) == "x^600000*y^600000"
            assert ring.exponents(p.leading_monomial()) == mono


# -- the certifier oracle: a returned basis checked from first principles -----


def reference_spair(f, g, field, key):
    """S-vector of two monic vectors with the same leading position."""
    (_, mf), (_, mg) = max(f, key=key), max(g, key=key)
    lcm = tuple(map(max, mf, mg))
    out = {}
    vec_iadd_scaled(out, f, field.one, mono_div(lcm, mf), field)
    vec_iadd_scaled(out, g, field.neg(field.one), mono_div(lcm, mg), field)
    return out


def certify(gens, basis, field, key):
    """Assert that basis is a reduced Gröbner basis containing gens,
    without the engine: every input reduces to 0, every same-position
    S-pair of the basis reduces to 0 (Buchberger's criterion, with no
    chain or product shortcut), and the basis is reduced, monic and
    sorted by ascending leading term."""
    lts = [max(g, key=key) for g in basis]
    assert lts == sorted(lts, key=key) and len(set(lts)) == len(lts)
    assert_reduced_gb(basis, field, key)
    for vec in gens:
        assert not reference_reduce(vec, basis, field, key)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if lts[i][0] == lts[j][0]:
                spair = reference_spair(basis[i], basis[j], field, key)
                assert not reference_reduce(spair, basis, field, key)


def large_height(rng):
    """A rational a/b with 10^4 <= |a| <= 10^6 and b <= 97."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(10**4, 10**6), rng.randint(1, 97))


CERTIFY_FIELDS = {"QQ": QQ, "QQ-height": QQ, "GF32003": GF(32003), "GF5": GF(5)}


def certify_vector(rng, field_name, npos, nterms):
    field = CERTIFY_FIELDS[field_name]
    vec = {}
    for _ in range(nterms):
        mono = [0] * 3
        for _ in range(rng.randint(0, 2)):
            mono[rng.randrange(3)] += 1
        coeff = large_height(rng) if field_name == "QQ-height" else field.random(rng)
        if coeff != field.zero:
            vec[(rng.randrange(npos), tuple(mono))] = coeff
    return vec


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CERTIFY_FIELDS)), st.sampled_from(sorted(CERTIFY_ORDERS)),
       st.integers(0, 10**6))
def test_buchberger_output_certifies(field_name, order_name, seed):
    rng = random.Random(seed)
    field = CERTIFY_FIELDS[field_name]
    order, key, npos = CERTIFY_ORDERS[order_name]
    gens = [certify_vector(rng, field_name, npos, rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))]
    basis = unpacked(order, buchberger(packed(order, gens), field, order))
    certify(gens, basis, field, key)


# x^2 = y*z with y nilpotent: an inhomogeneous elimination over this
# quotient was the normal strategy's worst case (see the syzygy tests below)
NILPOTENT = ["x^2 - y*z", "y^3"]

CERTIFY_RINGS = {
    "QQ": PolyRing(QQ, ["x", "y", "z"]),
    "GF32003": PolyRing(GF(32003), ["x", "y", "z"]),
    "GF5": PolyRing(GF(5), ["x", "y", "z"]),
    "QQ-quotient": PolyRing(QQ, ["x", "y", "z"], quotient=["x*y - z^2"]),
    "GF5-quotient": PolyRing(GF(5), ["x", "y", "z"], quotient=["x*y - z^2"]),
    "QQ-nilpotent": PolyRing(QQ, ["x", "y", "z"], quotient=NILPOTENT),
    "GF32003-nilpotent": PolyRing(GF(32003), ["x", "y", "z"], quotient=NILPOTENT),
}


def height_mat(ring, rng, nrows, ncols):
    """A random matrix; over QQ without a quotient, with large-height
    coefficients (modulo the quotient those make single examples take
    minutes)."""
    def entry():
        p = ring.random_poly(rng, max_degree=2, nterms=2)
        if ring.field is QQ and not ring.is_quotient:
            p = p.scale(large_height(rng))
        return p

    return Mat(ring, [[entry() for _ in range(ncols)] for _ in range(nrows)], ncols=ncols)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CERTIFY_RINGS)), st.integers(0, 10**6))
def test_lift_round_trips_and_syzygies_vanish(name, seed):
    ring = CERTIFY_RINGS[name]
    rng = random.Random(seed)
    nrows = rng.randint(1, 2)
    mat = height_mat(ring, rng, nrows, rng.randint(1, 3))
    # a column in the span lifts to x with mat·x = column (modulo the quotient)
    x = height_mat(ring, rng, mat.ncols, 1)
    target = mat * x
    lifted = MatrixGB(mat).lift_column(target.column(0))
    assert lifted is not None
    assert mat * Mat.from_columns(ring, [lifted], mat.ncols) == target
    # every syzygy maps to 0 modulo the quotient
    syz = syzygy_matrix(mat)
    assert syz.nrows == mat.ncols and (mat * syz).is_zero


# -- sugar selection, Gebauer–Möller and the syzygy block ---------------------


def seeded_mat(ring, rng, nrows, ncols):
    """A matrix of `random_poly(rng, 2, 2)` entries, filled row by row."""
    rows = [[ring.random_poly(rng, max_degree=2, nterms=2) for _ in range(ncols)]
            for _ in range(nrows)]
    return Mat(ring, rows, ncols=ncols)


@pytest.mark.parametrize("field, seed", [(GF(32003), 13), (QQ, 9), (QQ, 11), (QQ, 24)],
                         ids=["GF32003-13", "QQ-9", "QQ-11", "QQ-24"])
def test_syzygies_and_lifts_over_a_nilpotent_quotient_finish(field, seed):
    """Each case took 10 s or more when pairs popped by lcm degree (the
    GF(32003) syzygies about 20 s); with sugar and Gebauer–Möller each
    takes well under a second.  The bound is 5 s per case."""
    ring = PolyRing(field, ["x", "y", "z"], quotient=NILPOTENT)
    rng = random.Random(seed)
    mat = seeded_mat(ring, rng, 2, 3)
    start = time.perf_counter()
    syz = syzygy_matrix(mat)
    target = mat * seeded_mat(ring, rng, 3, 1)
    lifted = MatrixGB(mat).lift_column(target.column(0))
    assert time.perf_counter() - start < 5
    assert syz.nrows == 3 and syz.ncols and (mat * syz).is_zero
    assert lifted is not None
    assert mat * Mat.from_columns(ring, [lifted], 3) == target


def reference_syzygy_basis(gens, rank, field, order, extra):
    """The former route: the whole reduced tagged basis, then the
    elements whose leading term lies in the tag block."""
    eliminate = order.elimination(rank)
    basis = buchberger(_tagged(gens, rank, order, field, extra), field, eliminate)
    return [
        order.repack(g, eliminate, -rank) for g in basis if next(iter(g)) & order.posmask >= rank
    ]


SYZYGY_BLOCK_RINGS = {
    "QQ": PolyRing(QQ, ["x", "y", "z"]),
    "GF32003": PolyRing(GF(32003), ["x", "y", "z"]),
    "QQ-quotient": PolyRing(QQ, ["x", "y", "z"], quotient=["x*y - z^2"]),
    "GF32003-nilpotent": CERTIFY_RINGS["GF32003-nilpotent"],
}


@pytest.mark.parametrize("name", sorted(SYZYGY_BLOCK_RINGS))
def test_syzygy_block_matches_the_whole_tagged_basis(name):
    """Interreducing only the tag block gives the tag-block elements of the
    whole reduced tagged basis, term for term and in the same order."""
    ring = SYZYGY_BLOCK_RINGS[name]
    rng = random.Random(f"syzygy-block-{name}")
    for _ in range(8):
        nrows = rng.randint(1, 2)
        gens = seeded_mat(ring, rng, nrows, rng.randint(1, 3)).column_vecs()
        extra = seeded_mat(ring, rng, nrows, rng.randint(0, 1)).column_vecs()
        extra += ring.quotient_extra_vectors(nrows)
        args = (gens, nrows, ring.field, ring.module_order, extra)
        got = syzygy_basis(*args[:4], extra=extra)
        assert [list(g.items()) for g in got] == [
            list(g.items()) for g in reference_syzygy_basis(*args)
        ]


# S-pairs `buchberger` reduces over the Koszul-route Tor profiles below.
# The route builds no tensor where M_p is 0 or the presentation is
# injective, so every module here has more relations than generators and
# homogeneous entries of degree 1 or 2, which vanish at the origin: all
# eight reach the tensor.
KOSZUL_SPAIRS = 213


def test_koszul_route_spair_count(monkeypatch):
    count = 0
    spair = groebner._spair

    def counting(*args):
        nonlocal count
        count += 1
        return spair(*args)

    monkeypatch.setattr(groebner, "_spair", counting)
    for field in (QQ, GF(32003)):
        ring = PolyRing(field, ["x", "y"])
        origin = RationalPoint(ring, (0, 0))
        rng = random.Random(f"koszul-work-{field!r}")
        for gens, rels in [(1, 2), (2, 3), (2, 4), (3, 4)]:
            rows = [[ring.random_poly(rng, nterms=2, homogeneous=rng.randint(1, 2))
                     for _ in range(rels)] for _ in range(gens)]
            tor_profile(ModulePresentation(ring, gens, Mat(ring, rows, ncols=rels)),
                        origin, 5, "koszul")
    assert 0 < count <= KOSZUL_SPAIRS  # a module still reaches the tensor


# -- the Hilbert-function oracle: standard monomials against Macaulay ranks ---


def macaulay_rank(gens, ring, d):
    """Rank of the degree-d Macaulay matrix of homogeneous gens: one row
    per x^a * g with deg(x^a) + deg(g) = d, one column per monomial."""
    column = {m: j for j, m in enumerate(ring.monomials_of_degree(d))}
    rows = []
    for g in gens:
        for a in ring.monomials_of_degree(d - g.homogeneous_degree()):
            rows.append({column[mono_mul(a, ring.exponents(t))]: c for t, c in g.terms.items()})
    return linalg.rank(rows, ring.field) if rows else 0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("field", [GF(32003), QQ], ids=repr)
def test_hilbert_function_matches_macaulay_ranks(field, nvars, seed):
    ring = PolyRing(field, ["x", "y", "z"][:nvars])
    rng = random.Random(f"hilbert-{field!r}-{nvars}-{seed}")
    gens = [ring.random_poly(rng, nterms=3, homogeneous=rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))]
    gens = [g for g in gens if not g.is_zero]
    lms = [ring.exponents(g.leading_monomial()) for g in groebner_basis(gens, ring)]
    for d in range(7):
        standard = sum(
            1 for m in ring.monomials_of_degree(d) if not any(mono_divides(l, m) for l in lms)
        )
        assert standard == comb(nvars - 1 + d, nvars - 1) - macaulay_rank(gens, ring, d)
