import random

import pytest

from orbitstar.cohomology import (
    Cochain1,
    Cochain2,
    d1,
    d2,
    extend_c1,
    h2_dimension,
    is_cocycle,
    solve_coboundary,
)
from orbitstar.lie import LieAlgebra
from orbitstar.poly import CPoly, monomials_of_degree
from orbitstar.scalars import H


def rand_poly(rng, n, d):
    out = CPoly.zero(n)
    for exps in monomials_of_degree(n, d):
        out = out + CPoly.monomial(n, exps, rng.randint(-3, 3))
    return out


def rand_c1(rng, L, d):
    return Cochain1(L, [rand_poly(rng, L.dim, d) for _ in range(L.dim)])


@pytest.fixture()
def abelian2():
    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    return LieAlgebra(("A", "B"), zero)


def test_d1_of_zero(su2):
    C = Cochain1(su2, [CPoly.zero(3)] * 3)
    assert d1(su2, C).is_zero()


def test_d1_linear_identity_cochain(su2):
    # C(X_i) = x_i: the action term cancels one bracket copy
    C = Cochain1(su2, [CPoly.variable(3, i) for i in range(3)])
    image = d1(su2, C)
    # (dC)_{ij} = c_ij^k x_k - {x_i, x_j} + {x_j, x_i} = x_[ij] - 2 x_[ij]
    assert image.get(0, 1) == -CPoly.variable(3, 2)
    assert image.get(1, 2) == -CPoly.variable(3, 0)
    assert image.get(0, 2) == CPoly.variable(3, 1)


def test_d1_output_is_antisymmetric(su2):
    rng = random.Random(51)
    C = rand_c1(rng, su2, 2)
    image = d1(su2, C)
    for i in range(3):
        assert image.get(i, i).is_zero()
        for j in range(3):
            assert image.get(i, j) == -image.get(j, i)


@pytest.mark.parametrize("degree", range(5))
def test_d2_after_d1_vanishes(su2, degree):
    rng = random.Random(52 + degree)
    for _ in range(5):
        C = rand_c1(rng, su2, degree)
        assert all(v.is_zero() for v in d2(su2, d1(su2, C)).values())


def test_d2_of_zero(su2):
    C = Cochain2(su2, {})
    assert all(v.is_zero() for v in d2(su2, C).values())


def test_coboundaries_are_cocycles(su2):
    rng = random.Random(53)
    C = d1(su2, rand_c1(rng, su2, 2))
    assert is_cocycle(su2, C)


def test_solve_coboundary_roundtrip(su2):
    rng = random.Random(54)
    for degree in range(4):
        target = d1(su2, rand_c1(rng, su2, degree))
        sol = solve_coboundary(su2, target, degree)
        assert sol is not None
        assert d1(su2, sol) == target


def test_solve_coboundary_rejects_noncocycle(su2):
    # an arbitrary 2-cochain at degree 1 need not be a cocycle
    x = CPoly.variable(3, 0)
    C = Cochain2(su2, {(0, 1): x})
    if not is_cocycle(su2, C):
        with pytest.raises(ValueError):
            solve_coboundary(su2, C, 1)


def test_every_su2_cocycle_is_a_coboundary(su2):
    # rank bookkeeping: dim ker d2 == rank d1 on each component
    for degree in range(5):
        assert h2_dimension(su2, degree) == 0


def test_abelian_h2_nonzero(abelian2):
    assert h2_dimension(abelian2, 0) == 1
    assert h2_dimension(abelian2, 1) == 2
    C = Cochain2(abelian2, {(0, 1): CPoly.one(2)})
    assert is_cocycle(abelian2, C)
    assert solve_coboundary(abelian2, C, 0) is None


def test_negative_degree_is_empty(su2):
    assert h2_dimension(su2, -1) == 0


def test_cochain_validation(su2):
    x = CPoly.variable(3, 0)
    mixed = x + x * x
    with pytest.raises(ValueError):
        Cochain1(su2, [mixed, CPoly.zero(3), CPoly.zero(3)])
    with pytest.raises(ValueError):
        Cochain1(su2, [x, x * x, CPoly.zero(3)])
    with pytest.raises(ValueError):
        Cochain1(su2, [x * H, CPoly.zero(3), CPoly.zero(3)])
    with pytest.raises(ValueError):
        Cochain2(su2, {(1, 0): x})


def test_extend_c1(su2):
    x = CPoly.variable(3, 0)
    z = CPoly.variable(3, 2)
    C = Cochain1(su2, [z, CPoly.zero(3), CPoly.zero(3)])
    op = extend_c1(C)
    assert op(x) == z
    assert op(x * x) == x * z * 2
    rng = random.Random(55)
    for _ in range(10):
        f = rand_poly(rng, 3, 2)
        g = rand_poly(rng, 3, 3)
        assert op(f * g) == op(f) * g + f * op(g)


def test_d1_columns_computed_once_per_degree(monkeypatch):
    from orbitstar import cohomology
    from orbitstar.lie import predefined

    L = LieAlgebra(("X", "Y", "Z"), predefined("su2").c)
    target = d1(L, rand_c1(random.Random(3), L, 2))
    calls = []

    def counting_d1(algebra, C):
        calls.append(C.degree)
        return d1(algebra, C)

    monkeypatch.setattr(cohomology, "d1", counting_d1)
    assert h2_dimension(L, 2) == 0
    columns = 3 * len(monomials_of_degree(3, 2))
    assert calls == [2] * columns
    assert solve_coboundary(L, target, 2) is not None
    assert h2_dimension(L, 2) == 0
    assert calls == [2] * columns
    assert solve_coboundary(L, target, 2) is not None
    h2_dimension(L, 1)
    assert len(calls) == columns + 3 * 3
