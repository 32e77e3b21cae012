"""Finitely presented modules: dimensions, gradings, constructions."""

import pytest

from perfx.fields import QQ
from perfx.modules import ModulePresentation, prune_redundant_columns, syzygies
from perfx.rings import Mat, PolyRing, RationalPoint, syzygy_matrix


@pytest.fixture
def rxy():
    return PolyRing(QQ, ["x", "y"])


def test_graded_dim_matches_monomial_count(rxy):
    free = ModulePresentation.free(rxy, 1, degrees=(0,))
    for d in range(5):
        assert free.graded_dim(d) == d + 1
    twisted = free.twist(-2)
    assert twisted.graded_dim(0) == 3  # generator now in degree -2


def test_graded_dim_of_quotient(rxy):
    m = ModulePresentation.cyclic(rxy, ["x^2", "y^2"], degrees=(0,))
    assert [m.graded_dim(d) for d in range(4)] == [1, 2, 1, 0]


def test_graded_dim_respects_ring_quotient():
    ring = PolyRing(QQ, ["x", "y"], quotient=["x*y"])
    m = ModulePresentation.free(ring, 1, degrees=(0,))
    # monomials of degree d avoiding xy: x^d and y^d only
    assert [m.graded_dim(d) for d in range(1, 4)] == [2, 2, 2]


def test_homogeneity_validation(rxy):
    with pytest.raises(ValueError, match="homogeneous"):
        ModulePresentation(
            rxy, 1, Mat(rxy, [["x + x^2"]], ncols=1), degrees=(0,)
        )


def test_fiber_dim_and_zero(rxy):
    m = ModulePresentation.cyclic(rxy, ["x", "y"])
    assert m.fiber_dim(RationalPoint(rxy, (0, 0))) == 1
    assert m.fiber_dim(RationalPoint(rxy, (1, 0))) == 0
    assert not m.is_zero()
    unit = ModulePresentation.cyclic(rxy, ["x", "x - 1"])
    assert unit.is_zero()


def test_direct_sum_and_syzygy_module(rxy):
    a = ModulePresentation.cyclic(rxy, ["x"], degrees=(0,))
    b = ModulePresentation.cyclic(rxy, ["y"], degrees=(1,))
    s = a.direct_sum(b)
    assert s.ambient_rank == 2
    assert s.degrees == (0, 1)
    assert s.graded_dim(0) == 1
    relations = ModulePresentation.cyclic(rxy, ["x", "y"]).relations
    syz = ModulePresentation(rxy, relations.ncols, syzygy_matrix(relations))
    assert syz.ambient_rank == 2
    assert syz.relations.ncols == 1


def test_residue_field_presentation(rxy):
    k = ModulePresentation.residue_field(rxy, RationalPoint(rxy, (1, 2)))
    assert k.fiber_dim(RationalPoint(rxy, (1, 2))) == 1
    assert k.fiber_dim(RationalPoint(rxy, (0, 0))) == 0


def test_prune_redundant_columns(rxy):
    mat = Mat(rxy, [["x", "x^2", "y", "x + y"]], ncols=4)
    pruned = prune_redundant_columns(mat)
    assert pruned.ncols == 2


def test_syzygies_of_vectors(rxy):
    # columns (x, y) and (y, x) in R^2: relations only in the singular locus
    gens = [[rxy.var("x"), rxy.var("y")], [rxy.var("y"), rxy.var("x")]]
    pres = syzygies(gens, rxy)
    assert pres.ambient_rank == 2
    # (x^2 - y^2) kernel: x*(x,y) - y*(y,x) = (x^2-y^2, 0)... the kernel
    # of the 2x2 matrix [[x, y], [y, x]] is zero (determinant nonzero)
    assert pres.relations.ncols == 0
