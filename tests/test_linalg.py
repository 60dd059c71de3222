import random
from fractions import Fraction

import pytest

from orbitstar import linalg
from orbitstar.poly import CPoly, monomials_up_to
from orbitstar.scalars import GR_ZERO, GaussianRational


def test_det_and_invert():
    m = linalg.mat([[1, 2], [3, 4]])
    assert linalg.det(m) == GaussianRational(-2)
    inv = linalg.invert(m)
    assert linalg.mat_mul(m, inv) == linalg.mat_identity(2)
    singular = linalg.mat([[1, 2], [2, 4]])
    assert linalg.det(singular) == GR_ZERO
    assert linalg.invert(singular) is None


def test_det_with_imaginary_entries():
    i = GaussianRational(0, 1)
    m = linalg.mat([[i, 0], [0, i]])
    assert linalg.det(m) == GaussianRational(-1)


def test_infeasible_system():
    system = linalg.LinearSystem(1)
    assert system.add({0: 1}, GaussianRational(1))
    assert not system.add({0: 1}, GaussianRational(2), tag="clash")
    assert system.conflict == "clash"
    assert system.solve() is None


def test_free_variables_default_to_zero():
    system = linalg.LinearSystem(3)
    system.add({0: 1, 2: 1}, GaussianRational(5))
    sol = system.solve()
    assert sol[0] == GaussianRational(5)
    assert sol[1] == GR_ZERO
    assert sol[2] == GR_ZERO


def test_rank():
    assert linalg.rank_dense([[1, 2], [2, 4], [0, 1]]) == 2
    assert linalg.rank_dense([[0, 0]]) == 0


def test_scalar_matrix_detection():
    m = linalg.mat_scale(Fraction(-3, 4), linalg.mat_identity(3))
    assert linalg.mat_is_scalar(m) == GaussianRational(Fraction(-3, 4))
    m2 = linalg.mat([[1, 1], [0, 1]])
    assert linalg.mat_is_scalar(m2) is None


class _RecordingSystem(linalg.LinearSystem):
    def __init__(self, ncols):
        super().__init__(ncols)
        self.calls = []

    def add(self, row, rhs, tag=None):
        self.calls.append((row, rhs, tag))
        return super().add(row, rhs, tag=tag)


def test_add_polys_sorted_rows_and_tags():
    x, y = CPoly.variable(2, 0), CPoly.variable(2, 1)
    system = _RecordingSystem(2)
    assert system.add_polys({0: x * x + 3 * y, 1: 2 * y + 1}, x * x + 3 * y,
                            tag="eq")
    g = GaussianRational
    assert system.calls == [
        ({1: g(1)}, GR_ZERO, ("eq", (0, 0))),
        ({0: g(3), 1: g(2)}, g(3), ("eq", (0, 1))),
        ({0: g(1)}, g(1), ("eq", (2, 0))),
    ]
    assert system.solve() == [g(1), GR_ZERO]


def test_add_polys_untouched_key_is_a_conflict():
    x, y = CPoly.variable(2, 0), CPoly.variable(2, 1)
    system = linalg.LinearSystem(1)
    assert not system.add_polys({0: x}, x + 2 * y * y, tag="t")
    assert system.conflict == ("t", (0, 2))
    assert system.solve() is None


@pytest.mark.parametrize("seed", range(6))
def test_add_polys_rank_matches_hand_flattened_rows(seed):
    # few monomials against up to 7 columns, so many systems are rank-deficient
    rng = random.Random(seed)
    keys = monomials_up_to(3, 1)

    def rand_poly():
        return CPoly(3, {e: rng.randint(-2, 2) for e in rng.sample(keys, 2)})

    ncols = rng.randint(2, 7)
    system = linalg.LinearSystem(ncols)
    dense = []
    for _ in range(rng.randint(1, 3)):
        lin = {col: rand_poly() for col in range(ncols) if rng.random() < 0.7}
        system.add_polys(lin, CPoly.zero(3))
        for e in keys:
            dense.append([lin[col].coeff(e).as_scalar() if col in lin else GR_ZERO
                          for col in range(ncols)])
    assert system.rank == linalg.rank_dense(dense)
