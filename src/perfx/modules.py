"""Finitely presented modules as cokernels of matrices.

A presentation is coker(relations : R^s -> R^ambient_rank); optional
generator degrees make it graded.  Dimension queries (fibers at
rational points, graded pieces) reduce to exact linear algebra; the
canonical-form machinery is the module Gröbner basis of the relation
columns together with the quotient ideal block.
"""

from __future__ import annotations

from . import linalg
from .rings import (
    Mat,
    MatrixGB,
    RationalPoint,
    column_matrix,
    hilbert_numerator,
    hilbert_value,
    point_of,
    syzygy_matrix,
)


class ModulePresentation:
    __slots__ = ("ring", "ambient_rank", "relations", "degrees", "_gb", "_numerators")

    def __init__(self, ring, ambient_rank, relations=None, degrees=None):
        if ambient_rank < 0:
            raise ValueError(f"rank must be at least 0, got {ambient_rank}")
        self.ring = ring
        self.ambient_rank = ambient_rank
        if relations is None:
            relations = Mat.zero(ring, ambient_rank, 0)
        if relations.nrows != ambient_rank:
            raise ValueError("relation rows must match ambient rank")
        self.relations = relations
        if degrees is not None:
            degrees = tuple(degrees)
            if len(degrees) != ambient_rank:
                raise ValueError("one degree per ambient generator")
            _check_homogeneous_columns(relations, degrees)
        self.degrees = degrees
        self._gb = None
        self._numerators = None  # per-generator Hilbert numerators, made by the first graded_dim

    # -- constructors ----------------------------------------------------

    @classmethod
    def free(cls, ring, rank, degrees=None):
        return cls(ring, rank, Mat.zero(ring, rank, 0), degrees)

    @classmethod
    def zero(cls, ring):
        return cls(ring, 0, Mat.zero(ring, 0, 0), ())

    @classmethod
    def cyclic(cls, ring, ideal_gens, degrees=None):
        """R/(ideal_gens) as a presentation with one generator."""
        gens = [ring.parse(g) if isinstance(g, str) else g for g in ideal_gens]
        return cls(ring, 1, Mat(ring, [gens], ncols=len(gens)), degrees)

    @classmethod
    def residue_field(cls, ring, point=None):
        """kappa(point) presented over the ring (default: the origin)."""
        if point is None:
            point = RationalPoint(ring, (0,) * ring.nvars)
        gens = [ring.var(i) - ring.const(point.coords[i]) for i in range(ring.nvars)]
        degrees = (0,) if all(c == ring.field.zero for c in point.coords) else None
        return cls(ring, 1, Mat(ring, [gens], ncols=ring.nvars), degrees)

    # -- canonical data ----------------------------------------------------

    @property
    def gb(self):
        if self._gb is None:
            self._gb = MatrixGB(self.relations)
        return self._gb

    def reduced(self):
        """The same module presented by the reduced Gröbner basis of its
        relations (`MatrixGB.reduced_basis`), which depends only on the
        relation module, not on the generating set given.  Built from
        `gb`, so a presentation whose `gb` is already built pays no new
        Gröbner basis."""
        relations = self.gb.reduced_basis()
        return ModulePresentation(self.ring, self.ambient_rank, relations, self.degrees)

    def is_zero(self):
        """M = 0 exactly when every generator e_i is a relation, that is,
        when every position carries a leading term with monomial 1: only
        such a leading term divides e_i."""
        if self.ambient_rank == 0:
            return True
        units = {pos for pos, mono in self.gb.leading_terms() if not any(mono)}
        return len(units) == self.ambient_rank

    def contains(self, column):
        return self.gb.contains_column(column)

    def fiber_dim(self, point):
        """dim over kappa(point) of the fiber M (x) kappa(point)."""
        if self.ambient_rank == 0:
            return 0
        rel = self.relations
        point = point_of(rel.ring, point)  # rejects other rings and off-locus points
        field = self.ring.field
        residues = {0: rel.residues(point, linalg.modulus(field))}
        dims = {0: rel.ncols, 1: self.ambient_rank}
        rank = linalg.complex_ranks(residues, lambda i: rel.evaluate(point), dims, field)[0]
        return self.ambient_rank - rank

    def split_at(self, point):
        """A presentation of the same module near the point, by a
        submatrix of the relations: N with N_p = M_p over the local ring.

        An entry u with u(point) != 0 is a unit there.  If it is the only
        nonzero entry of its column, its generator e_i is 0 near the
        point; if it is the only one of its row, its relation expresses
        e_i through the other generators, and no other relation mentions
        e_i.  Either way dropping u's row and column keeps M_p.  The
        first such (row, column) is dropped, the counts are updated, and
        this repeats until none is left; then zero columns go, and the
        kept generators keep their degrees.  Each entry is evaluated
        once, and every kept entry is an input entry.  Returns self when
        nothing is dropped.  A point of another ring, or off the ring's
        locus, raises ValueError (`point_of`).
        """
        rel = self.relations
        point = point_of(self.ring, point)
        units = sorted((i, j) for i, row in enumerate(rel.evaluate(point)) for j in row)
        row_cols = [set() for _ in range(self.ambient_rank)]
        col_rows = [set() for _ in range(rel.ncols)]
        for i, j, _ in rel.entries():
            row_cols[i].add(j)
            col_rows[j].add(i)
        dropped = []
        while pivot := next(((i, j) for i, j in units if j in row_cols[i]
                             and (len(row_cols[i]) == 1 or len(col_rows[j]) == 1)), None):
            i, j = pivot
            dropped.append(pivot)
            for k in row_cols[i]:
                col_rows[k].discard(i)
            for k in col_rows[j]:
                row_cols[k].discard(j)
            row_cols[i] = col_rows[j] = set()
        if not dropped:
            return self
        rows, cols = (set(side) for side in zip(*dropped))
        keep = [i for i in range(self.ambient_rank) if i not in rows]
        relations = rel.select_columns([j for j in range(rel.ncols) if j not in cols])
        degrees = None if self.degrees is None else [self.degrees[i] for i in keep]
        return ModulePresentation(
            self.ring, len(keep), relations.select_rows(keep).drop_zero_columns(), degrees)

    def graded_dim(self, d):
        """dim over k of the degree-d piece (graded presentations only).

        The relation module (quotient ideal included) and the monomial
        module of its Gröbner basis's leading terms have the same Hilbert
        function, so generator i contributes HF_i(d - deg_i), HF_i that of
        k[x]/(the leading monomials at position i), read from its Hilbert
        numerator (`hilbert_numerator`, `hilbert_value`), computed once per
        presentation.  Every weight must be 1 unless there are no
        generators.
        """
        if self.degrees is None:
            raise ValueError("presentation is not graded")
        if not self.degrees:
            return 0
        ring = self.ring
        ring.require_unit_weights()
        if self._numerators is None:
            lt_by_pos = {}
            for pos, mono in self.gb.leading_terms():
                lt_by_pos.setdefault(pos, []).append(mono)
            self._numerators = [hilbert_numerator(lt_by_pos.get(i, ()), ring.nvars)
                                for i in range(self.ambient_rank)]
        return sum(hilbert_value(num, ring.nvars, d - deg)
                   for num, deg in zip(self._numerators, self.degrees))

    def direct_sum(self, other):
        if other.ring != self.ring:
            raise ValueError("mixed rings")
        degrees = None
        if self.degrees is not None and other.degrees is not None:
            degrees = self.degrees + other.degrees
        return ModulePresentation(
            self.ring,
            self.ambient_rank + other.ambient_rank,
            self.relations.direct_sum(other.relations),
            degrees,
        )

    def twist(self, shift):
        """Add `shift` to every generator degree (graded only)."""
        if self.degrees is None:
            raise ValueError("presentation is not graded")
        return ModulePresentation(
            self.ring,
            self.ambient_rank,
            self.relations,
            tuple(d + shift for d in self.degrees),
        )

    def __repr__(self):
        grading = f", degrees={self.degrees}" if self.degrees is not None else ""
        return (
            f"Module(rank {self.ambient_rank}, {self.relations.ncols} relations"
            f" over {self.ring}{grading})"
        )


def prune_redundant_columns(mat, extra=None, degrees=None):
    """Greedy irredundant subset of the columns of mat.

    A column is dropped when it lies in the span of the kept and
    remaining ones plus the optional extra block.  With column degrees
    the scan runs from high degree down, which over graded rings
    produces a minimal generating set.
    """
    if mat.ncols <= 1:
        return mat
    order = list(range(mat.ncols))
    if degrees is not None:
        col_degs = _column_degrees(mat, degrees)
        if col_degs is not None:
            order.sort(key=lambda j: (col_degs[j], j), reverse=True)
    drop = set()
    for j in order:
        candidates = [k for k in range(mat.ncols) if k != j and k not in drop]
        basis = mat.select_columns(candidates)
        if extra is not None and extra.ncols:
            basis = basis.hstack(extra) if basis.ncols else extra
        if basis.ncols == 0:
            continue
        if MatrixGB(basis).contains_column(mat.column(j)):
            drop.add(j)
    if not drop:
        return mat
    return mat.select_columns([j for j in range(mat.ncols) if j not in drop])


def _column_degrees(mat, row_degrees):
    """Degree of each (homogeneous) column given target generator degrees."""
    degs = []
    for j in range(mat.ncols):
        d = None
        for i, p in mat.column_entries(j):
            pd = p.homogeneous_degree()
            if pd is None:
                return None
            cand = pd + row_degrees[i]
            if d is None:
                d = cand
            elif d != cand:
                return None
        degs.append(d if d is not None else 0)
    return tuple(degs)


def _check_homogeneous_columns(mat, row_degrees):
    if _column_degrees(mat, row_degrees) is None:
        raise ValueError("relations are not homogeneous for the given degrees")


def syzygies(gens, ring):
    """Relation module of a list of free-module elements (spec op).

    gens: ring elements or equal-length lists of ring elements.
    Returns the ModulePresentation whose ambient generators correspond
    to the input generators and whose relations generate all syzygies.
    """
    gens = list(gens)
    if not gens:
        return ModulePresentation.zero(ring)
    mat = column_matrix(gens, ring)
    # relations field = the syzygy matrix, so gens-matrix . relations = 0
    return ModulePresentation(ring, mat.ncols, syzygy_matrix(mat))
