"""Bivariant K0 calculus on formal sums of relatively perfect complexes.

A class over a morphism is a formal integer combination of free-complex
representatives.  Equality in K0 is not decidable here; comparisons are
two-tier and always labeled: literal structural identity of simplified
term lists, else evidence through K0-sound pointwise invariants (Euler
characteristic at sampled points, and the alternating generator-degree
polynomial for graded representatives).  Per-degree fiber dimension
tables are reported as descriptive data but do not decide equality:
they can separate classes that are equal in K0 (a shift against a
negated class, for instance).
"""

from __future__ import annotations

import random

from .complexes import FreeComplex, tensor
from .derived import is_relatively_perfect
from .fields import GF, QQ
from .geometry import (
    ProjectiveFamily,
    derived_pullback,
    pushforward_affine,
    pushforward_projective,
    tor_independent,
)
from .maps import RingMap
from .modules import ModulePresentation
from .resolutions import free_resolution
from .rings import PolyRing, RationalPoint


class K0Class:
    """Formal sum of complexes over the top ring of a morphism."""

    __slots__ = ("morphism", "terms", "certificates")

    def __init__(self, morphism, terms, certificates=None):
        self.morphism = morphism
        self.terms = []
        for coeff, cplx in terms:
            if coeff:
                self.terms.append((coeff, cplx))
        self.certificates = certificates or {}

    @property
    def ring(self):
        return morphism_top_ring(self.morphism)

    @classmethod
    def of_complex(cls, morphism, cplx, coeff=1):
        return cls(morphism, [(coeff, cplx)])

    @classmethod
    def structure_class(cls, morphism):
        ring = morphism_top_ring(morphism)
        return cls(morphism, [(1, FreeComplex.single(ring, 1, at=0, degrees=(0,)))])

    def simplify(self):
        """Merge structurally identical representatives."""
        merged = []
        for coeff, cplx in self.terms:
            for entry in merged:
                if entry[1] == cplx:
                    entry[0] += coeff
                    break
            else:
                merged.append([coeff, cplx])
        return K0Class(self.morphism, [(c, x) for c, x in merged if c])

    def add(self, other):
        _same_morphism(self, other)
        return K0Class(self.morphism, self.terms + other.terms).simplify()

    def negate(self):
        return K0Class(self.morphism, [(-c, x) for c, x in self.terms])

    def shift(self, n):
        return K0Class(self.morphism, [(c, x.shift(n)) for c, x in self.terms])

    def chi_at(self, point):
        total = 0
        for coeff, cplx in self.terms:
            total += coeff * cplx.fiber_euler_characteristic(point)
        return total

    def dims_at(self, point):
        """Signed per-degree fiber dimensions (descriptive data only)."""
        out = {}
        for coeff, cplx in self.terms:
            for i, d in cplx.fiber_dims(point).items():
                out[i] = out.get(i, 0) + coeff * d
        return {i: v for i, v in out.items() if v}

    def k_polynomial(self):
        """Alternating generator-degree polynomial, or None if ungraded.

        Invariant of the graded quasi-isomorphism class (split exact
        pairs cancel), and turns a shift into a sign.
        """
        out = {}
        for coeff, cplx in self.terms:
            if cplx.degrees is None:
                return None
            for i in cplx.ranks:
                sign = -1 if i % 2 else 1
                for a in cplx.degrees[i]:
                    out[a] = out.get(a, 0) + coeff * sign
        return {a: v for a, v in out.items() if v}

    def __repr__(self):
        parts = " + ".join(f"{c}*[{x}]" for c, x in self.terms) or "0"
        return f"K0Class({parts})"


def morphism_top_ring(morphism):
    if isinstance(morphism, ProjectiveFamily):
        return morphism.total
    return morphism.target


def _same_morphism(a, b):
    if not _morphism_equal(a.morphism, b.morphism):
        raise ValueError("classes over different morphisms")


def _morphism_equal(f, g):
    if isinstance(f, ProjectiveFamily) or isinstance(g, ProjectiveFamily):
        return f is g
    return (
        f.source == g.source
        and f.target == g.target
        and all(a == b for a, b in zip(f.images, g.images))
    )


# -- operations ---------------------------------------------------------------


def product(alpha, beta, depth=6):
    """[E] . [F] = [E tensor Lf*F] over the composite morphism.

    alpha lives over f: X -> Y, beta over g: Y -> Z (ring maps in the
    opposite direction); the result lives over g o f.
    """
    f = alpha.morphism
    g = beta.morphism
    if isinstance(f, ProjectiveFamily) or isinstance(g, ProjectiveFamily):
        raise ValueError("product is implemented for affine morphisms")
    if f.source != g.target:
        raise ValueError("morphisms do not compose: codomain of f is not domain of g")
    composite = f.compose(g)
    terms = []
    for c1, e in alpha.terms:
        for c2, ff in beta.terms:
            pulled = f.apply_complex(free_resolution(ff, depth))
            terms.append((c1 * c2, _unit_aware_tensor(e, pulled)))
    return K0Class(composite, terms).simplify()


def _is_unit_complex(c):
    return (
        c.ranks == {0: 1}
        and not c.diffs
        and (c.degrees is None or c.degrees.get(0) in ((0,),))
    )


def _unit_aware_tensor(e, f):
    """Tensor with literal unit simplification, so unit laws hold on
    the nose (orientation multiplicativity is a complex identity)."""
    if _is_unit_complex(f):
        return e
    if _is_unit_complex(e):
        return f
    return tensor(e, f)


def pushforward(alpha, f, g, depth=6):
    """f_star: K0(g o f) -> K0(g) by termwise direct image along f.

    f must be confined here: module-finite affine, or a projective
    family whose total ring carries the class.
    """
    if isinstance(f, ProjectiveFamily):
        if not _morphism_equal(alpha.morphism, f):
            raise ValueError("class does not live over the projective family")
        terms = []
        for c, e in alpha.terms:
            pushed, _report = pushforward_projective(f, e)
            terms.append((c, pushed))
        return K0Class(g, terms).simplify()
    if not f.is_module_finite():
        raise ValueError(
            "pushforward needs a confined map: module-finite affine or a "
            "projective family (general quasi-proper images are out of reach here)"
        )
    if not _morphism_equal(alpha.morphism, f.compose(g)):
        raise ValueError("class does not live over the composite g o f")
    terms = []
    for c, e in alpha.terms:
        terms.append((c, pushforward_affine(f, e, depth=depth)))
    return K0Class(g, terms).simplify()


class IndependentSquare:
    """A base-change square with its transversality evidence."""

    __slots__ = ("f", "g", "f_prime", "g_prime", "report")

    def __init__(self, f, g, f_prime, g_prime, points, depth=4):
        self.f = f
        self.g = g
        self.f_prime = f_prime
        self.g_prime = g_prime
        self.report = tor_independent(f, g, points, depth=depth)

    @property
    def independent(self):
        return self.report["transverse"]


def pullback(alpha, square, depth=6):
    """g_star: K0(f) -> K0(f') through a verified independent square."""
    if not square.independent:
        raise ValueError(
            "square not verified independent; tor_independent sampling failed"
        )
    if not _morphism_equal(alpha.morphism, square.f):
        raise ValueError("class does not live over the square's f leg")
    terms = []
    for c, e in alpha.terms:
        terms.append((c, derived_pullback(square.g_prime, e, depth)))
    return K0Class(square.f_prime, terms).simplify()


def orientation(f, points, max_depth=None):
    """o(f) = [structure sheaf], legitimate when f has finite flat
    dimension; the evidence is a relative-perfection run at the points.
    Rejected with the failing point otherwise."""
    ring = morphism_top_ring(f)
    if isinstance(f, ProjectiveFamily):
        report = is_relatively_perfect(
            ModulePresentation.free(ring, 1), f.structure_map, points, max_depth=max_depth
        )
    else:
        report = is_relatively_perfect(
            ModulePresentation.free(ring, 1), f, points, max_depth=max_depth
        )
    if not (report.verdict in ("relatively_perfect", "relatively_perfect_evidence")):
        witnesses = report.witness_points()
        raise ValueError(
            f"orientation rejected: finite-flat-dimension evidence fails at "
            f"{witnesses[0] if witnesses else 'a sampled point'}"
        )
    cls = K0Class.structure_class(f)
    cls.certificates["orientation"] = report
    return cls


# -- comparisons --------------------------------------------------------------


def k0_evidence_equal(alpha, beta, points):
    """Two-tier comparison of classes over the same morphism.

    Tier 1: literal equality of simplified term lists.  Tier 2:
    equality of K0-sound invariants (chi at each sampled point; the
    graded alternating degree polynomial when available).  The verdict
    'equal_evidence' is explicitly evidence, not a proof of equality
    in K0; 'distinguished' carries a concrete witness.
    """
    _same_morphism(alpha, beta)
    a = alpha.simplify()
    b = beta.simplify()
    report = {"tier": None, "verdict": None, "witness": None, "tables": {}}
    if _term_lists_equal(a.terms, b.terms):
        report["tier"] = "literal"
        report["verdict"] = "equal_evidence"
        report["literal"] = True
        return report
    report["tier"] = "pointwise"
    for p in points:
        chi_a, chi_b = a.chi_at(p), b.chi_at(p)
        report["tables"][str(p)] = {
            "chi": (chi_a, chi_b),
            "dims_left": a.dims_at(p),
            "dims_right": b.dims_at(p),
        }
        if chi_a != chi_b:
            report["verdict"] = "distinguished"
            report["witness"] = {"point": p, "chi": (chi_a, chi_b)}
            return report
    ka, kb = a.k_polynomial(), b.k_polynomial()
    if ka is not None and kb is not None and ka != kb:
        report["verdict"] = "distinguished"
        report["witness"] = {"graded_degree_polynomial": (ka, kb)}
        return report
    report["verdict"] = "equal_evidence"
    report["chain_level"] = all(
        t["dims_left"] == t["dims_right"] for t in report["tables"].values()
    )
    return report


def _term_lists_equal(t1, t2):
    if len(t1) != len(t2):
        return False
    used = set()
    for c1, x1 in t1:
        for j, (c2, x2) in enumerate(t2):
            if j in used:
                continue
            if c1 == c2 and x1 == x2:
                used.add(j)
                break
        else:
            return False
    return True


# -- seeded regression diagrams ------------------------------------------------


def _random_bounded_class(ring, morphism, rng, sample_points=(), allow_sum=True):
    """A small random bounded free complex (or short formal sum).

    Elements are biased to vanish at a sample point so the fiber
    invariants the axiom battery compares are not identically zero.
    """
    from .complexes import two_term, koszul

    def element():
        if sample_points and rng.random() < 0.7:
            pt = rng.choice(sample_points)
            i = rng.randrange(ring.nvars)
            return ring.var(i) - ring.const(pt.coords[i])
        return ring.random_poly(rng, max_degree=1, nterms=2)

    def one_complex():
        kind = rng.choice(["unit", "two", "tensor", "shiftkoszul"])
        if kind == "unit":
            return FreeComplex.single(ring, 1, at=0, degrees=(0,))
        if kind == "two":
            return two_term(ring, element())
        if kind == "tensor":
            return tensor(two_term(ring, element()), two_term(ring, element()))
        return koszul(ring, [element()]).shift(rng.choice([-1, 0, 1]))

    terms = [(1, one_complex())]
    if allow_sum and rng.random() < 0.4:
        terms.append((rng.choice([1, -1]), one_complex()))
    return K0Class(morphism, terms)


def regression_suite(seed=0, count=10):
    """Fixed battery of small diagrams with finite flat double covers.

    Each entry: chain of scheme maps X -f-> Y -g-> Z -h-> W with f, g
    finite flat (adjoined square roots), classes for the axioms, five
    sample points per ring, and an independent square for A123.
    Alternates between QQ and GF(5) coefficients.
    """
    suite = []
    for index in range(count):
        rng = random.Random(seed * 1_000_003 + index)
        field = QQ if index % 2 == 0 else GF(5)
        c = rng.randint(-2, 2)
        d = rng.randint(-2, 2)
        w_ring = PolyRing(field, ["s"])
        z_ring = PolyRing(field, ["t"])
        y_ring = PolyRing(field, ["t", "u"], quotient=[f"u^2 - t - {c}".replace("- -", "+ ")])
        x_ring = PolyRing(
            field,
            ["t", "u", "v"],
            quotient=[
                f"u^2 - t - {c}".replace("- -", "+ "),
                f"v^2 - u - {d}".replace("- -", "+ "),
            ],
        )
        h = RingMap(w_ring, z_ring, [z_ring.parse("t^2")])
        g = RingMap(z_ring, y_ring, [y_ring.var("t")])
        f = RingMap(y_ring, x_ring, [x_ring.var("t"), x_ring.var("u")])

        # rational points: v free, u = v^2 - d, t = u^2 - c
        x_points = []
        vs = list(range(-3, 7))
        rng.shuffle(vs)
        for v in vs:
            vv = field.from_int(v)
            uu = field.sub(field.mul(vv, vv), field.from_int(d))
            tt = field.sub(field.mul(uu, uu), field.from_int(c))
            try:
                pt = RationalPoint(x_ring, (tt, uu, vv))
            except ValueError:
                continue
            if pt not in x_points:
                x_points.append(pt)
            if len(x_points) == 5:
                break
        y_points = []
        z_points = []
        for pt in x_points:
            yp = RationalPoint(y_ring, pt.coords[:2])
            zp = RationalPoint(z_ring, pt.coords[:1])
            if yp not in y_points:
                y_points.append(yp)
            if zp not in z_points:
                z_points.append(zp)

        alpha_f = _random_bounded_class(x_ring, f, rng, x_points)
        beta_g = _random_bounded_class(y_ring, g, rng, y_points)
        gamma_h = _random_bounded_class(z_ring, h, rng, z_points)
        alpha_gf = _random_bounded_class(x_ring, f.compose(g), rng, x_points)
        alpha_hgf = _random_bounded_class(x_ring, f.compose(g).compose(h), rng, x_points)
        beta_h = _random_bounded_class(z_ring, h, rng, z_points)

        # independent square for A123: base change of f along a point of Y
        u0 = y_points[0].coords[1]
        y_prime = y_ring.quotient_by([y_ring.var("u") - y_ring.const(u0)])
        x_prime = x_ring.quotient_by([x_ring.var("u") - x_ring.const(u0)])
        g_leg = RingMap(y_ring, y_prime, y_prime.gens())
        g_prime = RingMap(x_ring, x_prime, x_prime.gens())
        f_prime = RingMap(y_prime, x_prime, [x_prime.var("t"), x_prime.var("u")])
        sq_points = []
        for pt in x_points:
            if pt.coords[1] == u0:
                xq = RationalPoint(x_prime, pt.coords)
                yq = RationalPoint(y_prime, pt.coords[:2])
                sq_points.append((xq, yq))
        if not sq_points:
            yq = RationalPoint(y_prime, y_points[0].coords)
            vv_candidates = [field.from_int(v) for v in range(-4, 9)]
            for vv in vv_candidates:
                try:
                    xq = RationalPoint(x_prime, (y_points[0].coords[0], u0, vv))
                except ValueError:
                    continue
                sq_points.append((xq, yq))
                break
        square = IndependentSquare(f, g_leg, f_prime, g_prime, sq_points)
        yp_points = [q for _x, q in sq_points]
        beta_hg = _random_bounded_class(
            y_prime, g_leg.compose(g.compose(h)), rng, yp_points
        )

        suite.append(
            {
                "index": index,
                "field": field,
                "maps": {"f": f, "g": g, "h": h},
                "rings": {"X": x_ring, "Y": y_ring, "Z": z_ring, "W": w_ring},
                "points": {"X": x_points, "Y": y_points, "Z": z_points},
                "classes": {
                    "alpha_f": alpha_f,
                    "beta_g": beta_g,
                    "gamma_h": gamma_h,
                    "alpha_gf": alpha_gf,
                    "alpha_hgf": alpha_hgf,
                    "beta_h": beta_h,
                    "beta_hg": beta_hg,
                },
                "square": square,
            }
        )
    return suite


# -- axiom verification -------------------------------------------------------


def run_axiom_battery(entry, axioms=("A1", "A2", "A12", "A123"), depth=6):
    """Verify the requested axioms on one regression entry."""
    f, g, h = entry["maps"]["f"], entry["maps"]["g"], entry["maps"]["h"]
    cls = entry["classes"]
    results = {}
    for axiom in axioms:
        if axiom == "A1":
            report = verify_axiom(
                "A1",
                {"alpha": cls["alpha_f"], "beta": cls["beta_g"], "gamma": cls["gamma_h"]},
                entry["points"]["X"],
                depth,
            )
        elif axiom == "A2":
            report = verify_axiom(
                "A2",
                {"alpha": cls["alpha_hgf"], "f": f, "g": g, "h": h},
                entry["points"]["Z"],
                depth,
            )
        elif axiom == "A12":
            report = verify_axiom(
                "A12",
                {"alpha": cls["alpha_gf"], "beta": cls["beta_h"], "f": f, "g": g},
                entry["points"]["Y"],
                depth,
            )
        elif axiom == "A123":
            report = verify_axiom(
                "A123",
                {
                    "alpha": cls["alpha_f"],
                    "beta": cls["beta_hg"],
                    "square": entry["square"],
                    "g": entry["square"].g,
                    "h": g.compose(h),
                },
                entry["points"]["X"],
                depth,
            )
        else:
            raise ValueError(axiom)
        results[axiom] = report
    return results


def orientation_multiplicativity(entry):
    """o(f) . o(g) equals o(g o f) as a literal complex identity."""
    f, g = entry["maps"]["f"], entry["maps"]["g"]
    of = K0Class.structure_class(f)
    og = K0Class.structure_class(g)
    prod = product(of, og)
    composite = K0Class.structure_class(f.compose(g))
    return _term_lists_equal(prod.terms, composite.terms)


def verify_axiom(which, classes, points, depth=6):
    """Evaluate both sides of a bivariant axiom and compare.

    classes: the greek letters and structural maps/squares the axiom's
    diagram needs (ring maps run opposite to the scheme arrows, so the
    scheme composite g o f is the ring map f.compose(g)).  points:
    sample points of the ring both sides live over.
    """
    which = which.upper()
    if which == "A1":
        alpha, beta, gamma = classes["alpha"], classes["beta"], classes["gamma"]
        left = product(product(alpha, beta, depth), gamma, depth)
        right = product(alpha, product(beta, gamma, depth), depth)
    elif which == "A2":
        # X -f-> Y -g-> Z -h-> W, f and g confined, alpha over h o g o f
        alpha = classes["alpha"]
        f, g, h = classes["f"], classes["g"], classes["h"]
        left = pushforward(alpha, f.compose(g), h, depth)
        right = pushforward(pushforward(alpha, f, g.compose(h), depth), g, h, depth)
    elif which == "A3":
        # pullbacks along Y'' -h-> Y' -g-> Y; squares for g, h, g o h
        alpha = classes["alpha"]
        left = pullback(alpha, classes["square_combined"], depth)
        right = pullback(pullback(alpha, classes["square_g"], depth), classes["square_h"], depth)
    elif which == "A12":
        # X -f-> Y -g-> Z -h-> W, f confined, alpha over g o f, beta over h
        alpha, beta = classes["alpha"], classes["beta"]
        f, g = classes["f"], classes["g"]
        h = beta.morphism
        left = pushforward(product(alpha, beta, depth), f, g.compose(h), depth)
        right = product(pushforward(alpha, f, g, depth), beta, depth)
    elif which == "A13":
        # alpha over f: X->Y, beta over g: Y->Z, pulled along h: Z'->Z
        alpha, beta = classes["alpha"], classes["beta"]
        left = pullback(
            product(alpha, beta, depth), classes["square_combined"], depth
        )
        right = product(
            pullback(alpha, classes["square_top"], depth),
            pullback(beta, classes["square_bottom"], depth),
            depth,
        )
    elif which == "A23":
        # alpha over g o f with f confined; pulled along h: Z'->Z
        alpha = classes["alpha"]
        f, g = classes["f"], classes["g"]
        f_prime, g_prime = classes["f_prime"], classes["g_prime"]
        pulled = pullback(alpha, classes["square_combined"], depth)
        left = pushforward(pulled, f_prime, g_prime, depth)
        right = pullback(pushforward(alpha, f, g, depth), classes["square_bottom"], depth)
    elif which == "A123":
        # projection formula: alpha over f: X->Y, beta over h o g: Y'->Z,
        # square d on (f, g) with g confined
        alpha, beta = classes["alpha"], classes["beta"]
        square = classes["square"]
        g, h = classes["g"], classes["h"]
        f = alpha.morphism
        left = pushforward(
            product(pullback(alpha, square, depth), beta, depth),
            square.g_prime,
            f.compose(h),
            depth,
        )
        right = product(alpha, pushforward(beta, g, h, depth), depth)
    else:
        raise ValueError(f"unknown axiom {which!r}")
    report = k0_evidence_equal(left, right, points)
    report["axiom"] = which
    return report
