"""Correctness of the exact linear algebra kernels."""

import random
from fractions import Fraction

import pytest

from perfx import linalg
from perfx.fields import GF, QQ


def random_matrix(rng, m, n, p=None):
    if p is None:
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]


def frac_rank(rows):
    red, pivots = linalg.rref_frac([[Fraction(x) for x in r] for r in rows])
    return len(pivots)


@pytest.mark.parametrize("seed", range(6))
def test_rank_int_matches_fraction_rank(seed):
    rng = random.Random(seed)
    a = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
    assert linalg.rank_int(a) == frac_rank(a)


@pytest.mark.parametrize("seed", range(6))
def test_rank_modp_by_nullity(seed):
    rng = random.Random(100 + seed)
    p = 10007
    a = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), p)
    rank = linalg.rank_modp(a, p)
    kernel = linalg.nullspace_modp(a, p)
    assert rank + len(kernel) == len(a[0])
    for vec in kernel:
        for row in a:
            assert sum(x * v for x, v in zip(row, vec)) % p == 0


def test_field_dispatch():
    rows_q = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(1)]]
    assert linalg.rank(rows_q, QQ) == 2
    assert linalg.rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], QQ) == 1
    f5 = GF(5)
    assert linalg.rank([[1, 2], [2, 4]], f5) == 1
    ns = linalg.nullspace([[1, 2], [2, 4]], f5)
    assert len(ns) == 1 and (ns[0][0] + 2 * ns[0][1]) % 5 == 0


def test_solve():
    f5 = GF(5)
    x = linalg.solve([[1, 1], [0, 1]], [3, 2], f5)
    assert x == [1, 2]
    assert linalg.solve([[1, 0], [1, 0]], [0, 1], f5) is None
