import random
from fractions import Fraction

import pytest

from gaussian_oracle import GaussianRational as gr
from orbitstar import linalg
from orbitstar.poly import CPoly, monomials_up_to
from orbitstar.scalars import H_ZERO, I


def test_det_and_invert():
    m = linalg.mat([[1, 2], [3, 4]])
    assert linalg.det(m) == -2
    inv = linalg.invert(m)
    assert linalg.mat_mul(m, inv) == linalg.mat_identity(2)
    singular = linalg.mat([[1, 2], [2, 4]])
    assert linalg.det(singular) == H_ZERO
    assert linalg.invert(singular) is None


def test_det_with_imaginary_entries():
    m = linalg.mat([[I, 0], [0, I]])
    assert linalg.det(m) == -1


@pytest.mark.parametrize("rows", [[[1, 2]], [[1], [2]], [[1, 2], [3]]],
                         ids=["wide", "tall", "ragged"])
def test_det_and_invert_reject_non_square(rows):
    with pytest.raises(ValueError, match="not square"):
        linalg.det(linalg.mat(rows))
    with pytest.raises(ValueError, match="not square"):
        linalg.invert(linalg.mat(rows))


def test_mat_mul_rejects_mismatched_inner_dimensions():
    with pytest.raises(ValueError, match="cannot multiply a 1x2 by a 1x1 matrix"):
        linalg.mat_mul(linalg.mat([[1, 2]]), linalg.mat([[1]]))


@pytest.mark.parametrize("op", [linalg.mat_add, linalg.mat_sub], ids=["add", "sub"])
def test_entrywise_ops_reject_mismatched_shapes(op):
    with pytest.raises(ValueError, match="shapes differ"):
        op(linalg.mat([[1, 2]]), linalg.mat([[1]]))
    with pytest.raises(ValueError, match="rows differ in length"):
        op(linalg.mat([[1, 2], [3]]), linalg.mat([[1, 2], [3]]))


def test_mat_is_scalar_rejects_non_square():
    with pytest.raises(ValueError, match="not square"):
        linalg.mat_is_scalar(linalg.mat([[1, 0, 5]]))


def _cofactor_det(m):
    """Laplace expansion along the first row, on oracle values: shares no
    code with the engine's elimination."""
    if not m:
        return gr(1)
    total = gr(0)
    for j, x in enumerate(m[0]):
        if x:
            term = x * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
            total = total - term if j % 2 else total + term
    return total


def _from_oracle(g):
    return g.re + g.im * I


@pytest.mark.parametrize("seed", range(3))
def test_det_and_invert_against_cofactor_oracle(seed):
    # random Q(i) matrices, ones whose top-left entry is zero (the first
    # pivot needs a row swap), and ones whose last row is a combination of
    # the others; invert is None exactly when the oracle's determinant is 0
    rng = random.Random(700 + seed)

    def rand_gauss():
        return gr(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                  Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    for n in range(1, 6):
        for shape in ("random", "zero-corner", "singular"):
            m = [[rand_gauss() for _ in range(n)] for _ in range(n)]
            if shape == "zero-corner":
                m[0][0] = gr(0)
            elif shape == "singular":
                coeffs = [rand_gauss() for _ in range(n - 1)]
                m[-1] = [sum((c * row[j] for c, row in zip(coeffs, m)), gr(0))
                         for j in range(n)]
            a = linalg.mat([[_from_oracle(x) for x in row] for row in m])
            want = _cofactor_det(m)
            assert shape != "singular" or not want
            assert linalg.det(a) == _from_oracle(want)
            inv = linalg.invert(a)
            assert (inv is None) == (not want)
            if inv is not None:
                assert linalg.mat_mul(a, inv) == linalg.mat_identity(n)


def test_infeasible_system():
    system = linalg.LinearSystem(1)
    assert system.add({0: 1}, 1)
    assert not system.add({0: 1}, 2, tag="clash")
    assert system.conflict == "clash"
    assert system.solve() is None


def test_free_variables_default_to_zero():
    system = linalg.LinearSystem(3)
    system.add({0: 1, 2: 1}, 5)
    sol = system.solve()
    assert sol[0] == 5
    assert sol[1] == H_ZERO
    assert sol[2] == H_ZERO


def _rank(rows):
    """The rank of dense rows, read from a LinearSystem fed one per row."""
    system = linalg.LinearSystem(max(len(r) for r in rows))
    for row in rows:
        system.add({j: v for j, v in enumerate(row) if v}, H_ZERO)
    return system.rank


def test_rank():
    assert _rank([[1, 2], [2, 4], [0, 1]]) == 2
    assert _rank([[0, 0]]) == 0


def test_scalar_matrix_detection():
    m = linalg.mat_scale(Fraction(-3, 4), linalg.mat_identity(3))
    assert linalg.mat_is_scalar(m) == Fraction(-3, 4)
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
    assert system.calls == [
        ({1: 1}, 0, ("eq", (0, 0))),
        ({0: 3, 1: 2}, 3, ("eq", (0, 1))),
        ({0: 1}, 1, ("eq", (2, 0))),
    ]
    assert system.solve() == [1, 0]


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
            dense.append([lin[col].coeff(e).as_scalar() if col in lin else H_ZERO
                          for col in range(ncols)])
    assert system.rank == _rank(dense)
