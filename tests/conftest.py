from fractions import Fraction

import pytest

from orbitstar import CPoly, HPoly, NCPoly, predefined, sphere_orbit
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
