import json
import random

import pytest

from orbitstar import linalg
from orbitstar.lie import (
    BasisChange,
    LieAlgebra,
    adjoint_rep,
    algebra_from_json,
    change_basis,
    check_jacobi,
    is_semisimple,
    killing_det,
    killing_form,
    predefined,
)
from orbitstar.reps import validate_rep
from orbitstar.scalars import GR_ZERO, GaussianRational


def zero_cube(n):
    return [[[0] * n for _ in range(n)] for _ in range(n)]


def test_su2_jacobi(su2):
    assert check_jacobi(su2)


def test_abelian_jacobi():
    assert check_jacobi(zero_cube(3))


def test_rescaled_bracket_still_satisfies_jacobi(su2):
    # [X,Y] = 2Z, [Y,Z] = X, [Z,X] = Y: every double bracket pairs off
    # ([[X,Y],Z] + [[Y,Z],X] + [[Z,X],Y] = 0 + 0 + 0, mixed triples cancel
    # in pairs), so the rescaling is still a Lie algebra
    c = [[[v for v in row] for row in plane] for plane in su2.c]
    c[0][1][2] = GaussianRational(2)
    c[1][0][2] = GaussianRational(-2)
    assert check_jacobi(c)


def test_corrupted_su2_fails_jacobi(su2):
    # adding X to [X,Y] breaks Jacobi: the (X,Y,Z,l=1) component of the sum
    # expands to c_01^0 * c_02^1 = -1 != 0
    c = [[[v for v in row] for row in plane] for plane in su2.c]
    c[0][1][0] = GaussianRational(1)
    c[1][0][0] = GaussianRational(-1)
    assert not check_jacobi(c)
    with pytest.raises(ValueError):
        LieAlgebra(("X", "Y", "Z"), c)


def test_antisymmetry_enforced():
    c = zero_cube(2)
    c[0][1][0] = 1  # missing the antisymmetric partner
    with pytest.raises(ValueError):
        LieAlgebra(("A", "B"), c)


def test_killing_su2(su2):
    K = killing_form(su2)
    assert K == linalg.mat_scale(-2, linalg.mat_identity(3))
    assert killing_det(su2) == GaussianRational(-8)
    assert is_semisimple(su2)


def test_killing_abelian():
    ab = LieAlgebra(("A", "B"), zero_cube(2))
    assert killing_form(ab) == linalg.mat([[0, 0], [0, 0]])
    assert not is_semisimple(ab)


def test_killing_sl2(sl2):
    # generator order is F, H, E
    K = killing_form(sl2)
    F, H, E = 0, 1, 2
    assert K[H][H] == GaussianRational(8)
    assert K[E][F] == GaussianRational(4)
    assert K[F][E] == GaussianRational(4)
    assert K[F][F] == GR_ZERO and K[E][E] == GR_ZERO
    assert K[F][H] == GR_ZERO and K[E][H] == GR_ZERO


def test_adjoint_rep(su2):
    rep = adjoint_rep(su2)
    assert validate_rep(su2, rep)
    ad_x = rep.matrices[0]
    # (ad_X)[k][j] = c[X][j][k]: rotation in the Y,Z plane
    assert ad_x[2][1] == GaussianRational(1)
    assert ad_x[1][2] == GaussianRational(-1)
    assert all(ad_x[k][0] == GR_ZERO for k in range(3))


def test_adjoint_rep_abelian():
    ab = LieAlgebra(("A", "B"), zero_cube(2))
    rep = adjoint_rep(ab)
    assert all(
        all(v == GR_ZERO for row in m for v in row) for m in rep.matrices
    )
    assert validate_rep(ab, rep)


def test_change_basis_to_sl2(su2, sl2):
    i = GaussianRational(0, 1)
    # columns F = iX + Y, H = 2iZ, E = iX - Y
    M = BasisChange([[i, 0, i], [1, 0, -1], [0, 2 * i, 0]])
    moved = change_basis(su2, M, names=("F", "H", "E"))
    assert moved.c == sl2.c
    assert check_jacobi(moved)


def test_change_basis_identity(su2):
    M = BasisChange(linalg.mat_identity(3))
    assert change_basis(su2, M).c == su2.c


def test_change_basis_scaling(su2):
    M = BasisChange(linalg.mat_scale(2, linalg.mat_identity(3)))
    scaled = change_basis(su2, M)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert scaled.c[i][j][k] == su2.c[i][j][k] * 2


def test_singular_basis_change_rejected():
    with pytest.raises(ValueError):
        BasisChange([[1, 1], [1, 1]])


def test_killing_transforms_covariantly(su2):
    rng = random.Random(3)
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        try:
            M = BasisChange(rows)
            break
        except ValueError:
            continue
    moved = change_basis(su2, M)
    want = linalg.mat_mul(
        linalg.mat_transpose(M.matrix),
        linalg.mat_mul(killing_form(su2), M.matrix),
    )
    assert killing_form(moved) == want


def test_predefined_unknown():
    with pytest.raises(ValueError):
        predefined("so5")


def test_predefined_is_cached():
    assert predefined("su2") is predefined("su2")


def test_sl2_varname_fallback(sl2):
    # lowercased generator names would collide with the reserved h
    assert sl2.varnames == ("x0", "x1", "x2")


def test_json_loader(su2):
    data = {
        "dim": 3,
        "names": ["X", "Y", "Z"],
        "brackets": [
            [0, 1, [[2, "1"]]],
            [1, 2, [[0, "1"]]],
            [0, 2, [[1, "-1"]]],
        ],
    }
    loaded = algebra_from_json(json.dumps(data))
    assert loaded.c == su2.c
    bad = dict(data)
    bad["brackets"] = [[1, 0, [[2, "1"]]]]
    with pytest.raises(ValueError):
        algebra_from_json(bad)
