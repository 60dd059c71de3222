from fractions import Fraction

import pytest

from orbitstar import CPoly, HPoly, LieAlgebra, NCPoly, predefined, sphere_orbit
from orbitstar.scalars import I


def rand_coeff(rng):
    """A nonzero Q(i)[h] coefficient with mixed denominators."""
    while True:
        c = HPoly([
            Fraction(rng.randint(-4, 4), rng.randint(1, 6))
            + Fraction(rng.randint(-3, 3), rng.randint(1, 6)) * I
            for _ in range(rng.randint(1, 3))
        ])
        if c:
            return c


def named_algebra(name, scale=1):
    """su2, sl2, so(4) as su2 + su2, or su3 in the rational compact basis of
    test_lie, with every structure constant times `scale` (an isomorphic
    algebra: the Jacobi identity is homogeneous in the constants)."""
    from test_lie import direct_sum, su3_compact

    if name == "so4":
        cube = direct_sum(predefined("su2").c, predefined("su2").c)
    elif name == "su3":
        cube = su3_compact()[0]
    else:
        cube = predefined(name).c
    cube = [[[v * scale for v in row] for row in plane] for plane in cube]
    return LieAlgebra([f"T{k}" for k in range(len(cube))], cube)


@pytest.fixture(scope="session")
def su2():
    return predefined("su2")


@pytest.fixture(scope="session")
def sl2():
    return predefined("sl2")


@pytest.fixture(scope="session")
def xyz(su2):
    n = su2.dim
    return tuple(CPoly.variable(n, i) for i in range(n))


@pytest.fixture(scope="session")
def sphere(su2):
    return sphere_orbit(1, algebra=su2)


@pytest.fixture(scope="session")
def casimir_poly(xyz):
    x, y, z = xyz
    return x * x + y * y + z * z


@pytest.fixture(scope="session")
def casimir_word(su2):
    return NCPoly(su2, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
