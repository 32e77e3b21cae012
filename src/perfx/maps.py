"""Ring homomorphisms between polynomial quotients.

A RingMap sends each source variable to an element of the target ring;
well-definedness on the quotient is checked at construction.  The
module-finiteness test, rewriting and the A-module presentation of a
module-finite target all run in one combined quotient ring k[target
vars, source vars], built once per map, with a block elimination
order: a pure power of every target variable among the leading terms
certifies finiteness.  The kernel of A^(basis) -> B is read off that
basis when each of its leading monomials involves only target or only
source variables: its elements free of target variables then form a
Gröbner basis G_a of I n k[a], the standard monomials are the basis
monomials times those of G_a, and so sum c_j * m_j lies in I exactly
when every c_j lies in I n k[a] (Cox, Little and O'Shea, Ideals,
Varieties, and Algorithms, 3.1 and 5.3).  Otherwise it is the part free
of target variables of the syzygies of the basis monomials modulo the
combined ideal, one `syzygy_basis` call under
`orders.restriction_order`.

Rewriting a target element over the source basis is linear, so a map
keeps one table, filled as monomials come up and kept for the map's
lifetime: a target monomial's row is its normal form in the combined
ring, split as {basis index: source terms}.  A rewrite is a sum of
coefficient times row over the element's terms, and restriction of
scalars reads the row of each product t * m_j of an entry term and a
basis monomial without forming the product in the target.  The rows
are exact for any monomial, reduced in the target or not: the combined
ideal contains the target quotient, so a monomial and its target
normal form have one normal form in the combined ring.  (This is the
multiplication-table view of a finite algebra: Cox, Little and O'Shea,
Using Algebraic Geometry, ch. 2.)
"""

from __future__ import annotations

from .complexes import FreeComplex
from .groebner import mono_divides, syzygy_basis
from .modules import ModulePresentation, prune_redundant_columns
from .orders import BlockOrder, restriction_order
from .rings import Mat, PolyRing, RationalPoint, embed_poly, recast


class RingMap:
    __slots__ = (
        "source", "target", "images", "_finite_cache", "_ring", "_presentation", "_rows",
    )

    def __init__(self, source, target, images):
        if len(images) != source.nvars:
            raise ValueError("one image per source variable")
        self.source = source
        self.target = target
        self.images = tuple(
            target.parse(im) if isinstance(im, str) else im for im in images
        )
        for q in source.quotient_gb:
            if not self.apply(q).is_zero:
                raise ValueError(
                    f"map not well defined: quotient generator {q} has nonzero image"
                )
        self._finite_cache = None
        self._ring = None
        self._presentation = None
        self._rows = {}  # packed target monomial -> ((basis index, source terms), ...)

    def apply(self, p):
        if p.ring.variables != self.source.variables:
            raise ValueError("element not from the source ring")
        return p.substitute(self.images, target=self.target)

    def apply_point(self, point):
        """Image in Spec(source) of a rational point of Spec(target)."""
        coords = tuple(im.evaluate(point.coords) for im in self.images)
        return RationalPoint(self.source, coords)

    def apply_complex(self, complex_, keep_degrees=None):
        """Entrywise image of a free complex.  A ring map keeps d o d = 0,
        so only the grading, when it is kept, is checked again."""
        diffs = {i: m.map(self.apply, self.target) for i, m in complex_.diffs.items()}
        degrees = None
        if complex_.degrees is not None:
            if keep_degrees is None:
                keep_degrees = self.preserves_grading()
            if keep_degrees:
                degrees = dict(complex_.degrees)
        image = FreeComplex._make(
            self.target, dict(complex_.ranks), diffs, degrees, complex_.floor
        )
        image._check_grading()
        return image

    def preserves_grading(self):
        """True when each image is homogeneous of its variable's weight."""
        for i, im in enumerate(self.images):
            if im.is_zero:
                continue
            d = im.homogeneous_degree()
            if d is None or d != self.source.weights[i]:
                return False
        return True

    def is_identity(self):
        if self.source != self.target:
            return False
        return all(self.images[i] == self.target.var(i) for i in range(self.source.nvars))

    def compose(self, other):
        """self o other: other's source ring, mapped through both."""
        if other.target.variables != self.source.variables:
            raise ValueError("maps do not compose")
        images = [self.apply(im) for im in other.images]
        return RingMap(other.source, self.target, images)

    @classmethod
    def identity(cls, ring):
        return cls(ring, ring, ring.gens())

    def __repr__(self):
        ims = ", ".join(
            f"{v}->{im}" for v, im in zip(self.source.variables, self.images)
        )
        return f"RingMap({self.source} -> {self.target}; {ims})"

    # -- module finiteness and restriction of scalars --------------------

    def _combined_ring(self):
        """k[target vars, source vars] with the block order, modulo the
        target quotient, src_var - image and the source quotient."""
        tvars = self.target.variables
        svars = tuple(f"{v}__src" if v in tvars else v for v in self.source.variables)
        ring = PolyRing(self.target.field, tvars + svars, BlockOrder(len(tvars)))
        ntv = len(tvars)
        gens = [embed_poly(q, ring, 0) for q in self.target.quotient_gb]
        gens += [
            ring.var(ntv + i) - embed_poly(im, ring, 0)
            for i, im in enumerate(self.images)
        ]
        gens += [embed_poly(q, ring, ntv) for q in self.source.quotient_gb]
        return ring.quotient_by(gens)

    def finiteness(self):
        """(is_finite, basis monomials of the target over the source).

        Builds the combined ring, which rewrite_to_source and
        source_module_presentation reuse.  The basis, present only in
        the finite case, is a spanning set of target monomials.
        """
        if self._finite_cache is not None:
            return self._finite_cache
        self._ring = self._combined_ring()
        ntv = self.target.nvars
        box = [None] * ntv
        tfree_lms = []
        for q in self._ring.quotient_gb:
            m = q.ring.exponents(q.leading_monomial())
            if any(m[ntv:]):
                continue
            tfree_lms.append(m[:ntv])
            support = [i for i in range(ntv) if m[i]]
            if len(support) == 1:
                i = support[0]
                if box[i] is None or m[i] < box[i]:
                    box[i] = m[i]
        if any(b is None for b in box) and ntv > 0:
            self._finite_cache = (False, None)
            return self._finite_cache
        monos = [()]
        for i in range(ntv):
            monos = [m + (e,) for m in monos for e in range(box[i])]
        keep = []
        for m in monos:
            if not any(mono_divides(lm, m) for lm in tfree_lms):
                keep.append(m)
        keep.sort(key=self.target.module_order.monomial)
        self._finite_cache = (True, keep)
        return self._finite_cache

    def is_module_finite(self):
        return self.finiteness()[0]

    def module_basis(self):
        finite, basis = self.finiteness()
        if not finite:
            raise ValueError("target is not module-finite over the source")
        return basis

    def _row(self, t):
        """The table row of the target monomial packed as t: its normal
        form in the combined ring as ((basis index, source terms), ...)."""
        row = self._rows.get(t)
        if row is None:
            basis = self.module_basis()
            ring, ntv = self._ring, self.target.nvars
            pad = (0,) * (ring.nvars - ntv)
            parts = {}
            for u, c in ring.monomial(self.target.exponents(t) + pad).terms.items():
                m = ring.exponents(u)
                parts.setdefault(m[:ntv], {})[m[ntv:]] = c
            if any(u_part not in basis for u_part in parts):
                raise AssertionError("normal form left the spanning box")
            row = self._rows[t] = tuple(
                (basis.index(u_part), self.source.from_exponents(terms).terms)
                for u_part, terms in parts.items()
            )
        return row

    def _rewrite(self, element, shifts):
        """{(k, j): a} with element * m_j = sum over k of a * basis[k],
        where shifts[j] is the packed target monomial m_j."""
        row = self._row
        terms = recast(element, self.target).terms.items()
        return self.source.combine(
            ((k, j), c, a)
            for j, shift in enumerate(shifts)
            for t, c in terms
            for k, a in row(t + shift)
        )

    def rewrite_to_source(self, element):
        """Write a target element as sum a_m(source) * basis monomial m.

        Returns a dict {basis monomial: source ring element}, nonzero
        elements only.
        """
        basis = self.module_basis()
        # 0 is the packed value of the monomial 1
        return {basis[k]: a for (k, _j), a in self._rewrite(element, [0]).items()}

    def basis_products(self, element):
        """{(k, j): a} with element * m_j = sum over k of a * m_k, for
        the basis monomials m_j: restriction of scalars of one entry."""
        mono = self.target.module_order.monomial
        return self._rewrite(element, [mono(m) for m in self.module_basis()])

    def source_module_presentation(self):
        """The target as a finitely presented module over the source.

        Returns (basis monomials, ModulePresentation over the source),
        built once per map.  When every leading monomial of the combined
        basis G lies in the target or in the source variables alone, G is
        G_x and G_a, with G_a a Gröbner basis of I n k[a] (under the block
        order a leading term free of target variables leaves none in its
        tail).  The standard monomials are then x^alpha * a^beta with
        x^alpha a basis monomial and a^beta standard for G_a, so
        sum c_j(a) * m_j lies in I exactly when every c_j lies in I n k[a]:
        the relations are h * e_j for h in G_a, nonzero modulo the source
        quotient, in the column order the syzygy route gives (basis index
        descending, then G_a in basis order).  Otherwise the relations are
        the syzygies of the basis monomials modulo the combined ideal,
        under `restriction_order`'s elimination at 1, that involve no
        target variable.
        """
        if self._presentation is not None:
            return self._presentation
        basis = self.module_basis()
        ring, ntv = self._ring, self.target.nvars
        nb = len(basis)
        exps = ring.exponents
        source_part, split = [], True
        for q in ring.quotient_gb:
            m = exps(q.leading_monomial())
            if any(m[ntv:]):
                if any(m[:ntv]):
                    split = False
                    break
                source_part.append(q)
        if split:
            hs = [self.source.from_exponents({exps(t)[ntv:]: c for t, c in q.terms.items()})
                  for q in source_part]
            rel_entries = [
                (k, i * len(hs) + j, h)
                for i, k in enumerate(reversed(range(nb)))
                for j, h in enumerate(hs)
            ]
            ncols = nb * len(hs)
        else:
            order = restriction_order(ntv, ring.nvars)
            pad = (0,) * (ring.nvars - ntv)
            gens = [{order.pack(0, m + pad): ring.field.one} for m in basis]
            extra = [{order.pack(0, exps(t)): c for t, c in q.terms.items()}
                     for q in ring.quotient_gb]
            rel_entries = []
            ncols = 0
            for v in syzygy_basis(gens, 1, ring.field, order, extra):
                terms = [(order.unpack(t), c) for t, c in v.items()]
                if any(any(m[:ntv]) for (_pos, m), _c in terms):
                    continue
                rel_entries += [
                    (pos, ncols, self.source.from_exponents({m[ntv:]: c}))
                    for (pos, m), c in terms
                ]
                ncols += 1
        rel = Mat.from_entries(self.source, nb, ncols, rel_entries).drop_zero_columns()
        if rel.ncols:
            rel = prune_redundant_columns(rel)
        self._presentation = (basis, ModulePresentation(self.source, nb, rel))
        return self._presentation
