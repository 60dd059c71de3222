import json
import random
from fractions import Fraction

import pytest

from orbitstar import linalg
from orbitstar.envelope import NCPoly
from orbitstar.exprs import format_ncpoly, parse_expression
from orbitstar.lie import (
    BasisChange,
    _constants_from,
    LieAlgebra,
    adjoint_rep,
    algebra_from_json,
    change_basis,
    check_jacobi,
    is_antisymmetric,
    is_semisimple,
    killing_det,
    killing_form,
    predefined,
)
from orbitstar.reps import validate_rep
from orbitstar.scalars import H_ZERO, I


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
    c[0][1][2] = 2
    c[1][0][2] = -2
    assert check_jacobi(c)


def test_corrupted_su2_fails_jacobi(su2):
    # adding X to [X,Y] breaks Jacobi: the (X,Y,Z,l=1) component of the sum
    # expands to c_01^0 * c_02^1 = -1 != 0
    c = [[[v for v in row] for row in plane] for plane in su2.c]
    c[0][1][0] = 1
    c[1][0][0] = -1
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
    assert killing_det(su2) == -8
    assert is_semisimple(su2)


def test_killing_abelian():
    ab = LieAlgebra(("A", "B"), zero_cube(2))
    assert killing_form(ab) == linalg.mat([[0, 0], [0, 0]])
    assert not is_semisimple(ab)


def test_killing_sl2(sl2):
    # generator order is F, H, E
    K = killing_form(sl2)
    F, H, E = 0, 1, 2
    assert K[H][H] == 8
    assert K[E][F] == 4
    assert K[F][E] == 4
    assert K[F][F] == H_ZERO and K[E][E] == H_ZERO
    assert K[F][H] == H_ZERO and K[E][H] == H_ZERO


def test_adjoint_rep(su2):
    rep = adjoint_rep(su2)
    assert validate_rep(su2, rep)
    ad_x = rep.matrices[0]
    # (ad_X)[k][j] = c[X][j][k]: rotation in the Y,Z plane
    assert ad_x[2][1] == 1
    assert ad_x[1][2] == -1
    assert all(ad_x[k][0] == H_ZERO for k in range(3))


def test_adjoint_rep_abelian():
    ab = LieAlgebra(("A", "B"), zero_cube(2))
    rep = adjoint_rep(ab)
    assert all(
        all(v == H_ZERO for row in m for v in row) for m in rep.matrices
    )
    assert validate_rep(ab, rep)


def test_change_basis_to_sl2(su2, sl2):
    # columns F = iX + Y, H = 2iZ, E = iX - Y
    M = BasisChange([[I, 0, I], [1, 0, -1], [0, 2 * I, 0]])
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
        tuple(zip(*M.matrix)),
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


@pytest.mark.parametrize("k", [3, 5, -1])
def test_json_loader_rejects_component_out_of_range(k):
    # an unchecked -1 would index the last generator and read [X, Y] = Z as su2
    data = {"dim": 3, "brackets": [[0, 1, [[k, "1"]]], [1, 2, [[0, "1"]]],
                                   [0, 2, [[1, "-1"]]]]}
    with pytest.raises(ValueError, match=f"bracket component {k} must"):
        algebra_from_json(data)


_SU2_BRACKETS = [[0, 1, [[2, "1"]]], [1, 2, [[0, "1"]]], [0, 2, [[1, "-1"]]]]


@pytest.mark.parametrize("data, message", [
    ({"dim": 3.9, "brackets": [[0, 1.7, [[2.6, "1"]]], [1, 2, [[0, "1"]]],
                               [0, 2, [[1, "-1"]]]]},
     "dim must be an integer, not 3.9"),
    ({"dim": True, "brackets": []}, "dim must be an integer, not True"),
    ({"dim": "3", "brackets": _SU2_BRACKETS}, "dim must be an integer, not '3'"),
    ({"dim": 3, "brackets": [[0, 1.0, [[2, "1"]]]]},
     "bracket index must be an integer, not 1.0"),
    ({"dim": 3, "brackets": [[0, 1, [[True, "1"]]]]},
     "bracket component must be an integer, not True"),
], ids=["float-dim-and-indices", "bool-dim", "string-dim", "float-index",
        "bool-component"])
def test_json_loader_rejects_non_integers(data, message):
    # int() would truncate 3.9 to 3 and read the first case as su2
    with pytest.raises(ValueError, match=f"^{message}$"):
        algebra_from_json(data)


@pytest.mark.parametrize("field, value, what", [
    ("names", "XYZ", "names"), ("varnames", "abc", "varnames"),
    ("brackets", "abc", "brackets"), ("brackets", ["ab"], "bracket entry"),
    ("brackets", [[0, 1, "ab"]], "bracket terms"), ("names", None, "names"),
], ids=["names", "varnames", "brackets", "bracket-entry", "bracket-terms",
        "names-null"])
def test_json_loader_rejects_non_lists(field, value, what):
    # a string is iterable: unchecked, "XYZ" would name three generators
    data = {"dim": 3, "names": ["X", "Y", "Z"], "brackets": _SU2_BRACKETS,
            field: value}
    with pytest.raises(ValueError, match=f"^{what} must be a JSON list, not "):
        algebra_from_json(data)


def test_json_loader_reads_an_empty_names_list_as_the_default():
    assert algebra_from_json({"dim": 2, "names": []}).names == ("X0", "X1")


@pytest.mark.parametrize("names", [("X1", "H", "Z"), ("a_b", "Y", "Z2")])
def test_names_that_reparse_are_accepted(su2, names):
    L = LieAlgebra(names, su2.c)
    assert L.names == names
    u = NCPoly.word(L, (2, 0)).normal_form()
    assert parse_expression(format_ncpoly(u), "noncommutative", L).normal_form() == u


@pytest.mark.parametrize("label", ["1X", "X-1", "", "h", "i", " X", "X@"])
def test_labels_that_do_not_reparse_are_rejected(su2, label):
    with pytest.raises(ValueError, match=f"^generator name {label!r} must be one name"):
        LieAlgebra([label, "Y", "Z"], su2.c)
    with pytest.raises(ValueError, match=f"^variable name {label!r} must be one name"):
        LieAlgebra(su2.names, su2.c, varnames=[label, "y", "z"])


def test_repeated_labels_are_rejected(su2):
    with pytest.raises(ValueError, match="^generator names are not distinct$"):
        LieAlgebra(["X", "X", "Z"], su2.c)
    with pytest.raises(ValueError, match="^variable names are not distinct$"):
        LieAlgebra(su2.names, su2.c, varnames=["a", "a", "c"])


def test_default_varnames_fall_back_when_lowercasing_breaks_them(su2):
    assert LieAlgebra(["X", "Y", "Z"], su2.c).varnames == ("x", "y", "z")
    # "İ" is a name, but its lowercase is "i" and a combining dot, which is not
    assert LieAlgebra(["\u0130", "Y", "Z"], su2.c).varnames == ("x0", "x1", "x2")


# ---------------------------------------------------------------------------
# Sparse checks against the dense loops they replaced.

def dense_jacobiator(c):
    """Every nonzero J(i, j, k)_l, over all ordered (i, j, k): the dense
    n^4 * 3n loop that check_jacobi ran before it went sparse (products
    with a zero first factor are skipped, to keep it fast)."""
    n = len(c)
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    s = H_ZERO
                    for m in range(n):
                        for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                            if c[a][b][m]:
                                s = s + c[a][b][m] * c[m][d][l]
                    if s:
                        out[i, j, k, l] = s
    return out


def dense_killing(c):
    """The dense n^4 Killing form that killing_form computed before."""
    n = len(c)
    return tuple(
        tuple(
            sum((c[i][k][l] * c[j][l][k] for k in range(n) for l in range(n)), H_ZERO)
            for j in range(n)
        )
        for i in range(n)
    )


# small Q(i) entries, zero most often
ENTRIES = (0, 0, 0, 0, 0, 1, -1, 2, I, -I, 1 + I)

# bracket tables {(i, j): {k: c_ij^k}} of Lie algebras of dimension <= 4
SMALL_ALGEBRAS = (
    {},                                                   # abelian
    {(0, 1): {1: 1}},                                     # ax + b
    {(0, 1): {2: 1}},                                     # Heisenberg
    {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}},     # su2
    {(0, 1): {0: 2}, (1, 2): {2: 2}, (2, 0): {1: 1}},     # sl2
    {(0, 1): {2: 1}, (0, 2): {3: 1}},                     # filiform
    {(0, 1): {1: 1}, (2, 3): {3: 1}},                     # ax + b, twice
    {(0, 1): {1: 1, 2: I}, (0, 2): {2: -1}},              # a solvable one
)


def cube_of(n, table):
    c = zero_cube(n)
    for (i, j), row in table.items():
        for k, v in row.items():
            c[i][j][k], c[j][i][k] = v, -v
    return c


def perturb(rng, c):
    """Add one small constant to a random c[i][j][k], partner kept."""
    n = len(c)
    i, j = rng.sample(range(n), 2)
    k = rng.randrange(n)
    d = rng.choice(ENTRIES[5:])
    c[i][j][k] += d
    c[j][i][k] -= d


def oracle_cube(rng, n):
    """A sparse antisymmetric cube over Q(i): a random one, or a small Lie
    algebra in a permuted and rescaled basis; from dim 2 on, half of them
    perturbed."""
    if rng.random() < 0.4:
        c = zero_cube(n)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    v = rng.choice(ENTRIES + (0,) * 8)
                    c[i][j][k], c[j][i][k] = v, -v
    else:
        table = rng.choice([t for t in SMALL_ALGEBRAS
                            if all(max(p + tuple(r)) < n for p, r in t.items())])
        perm = rng.sample(range(n), n)
        scale = [rng.choice((1, -1, 2, I, -I)) for _ in range(n)]
        M = [[scale[j] if perm[j] == a else 0 for j in range(n)] for a in range(n)]
        c = [[list(row) for row in plane] for plane in
             change_basis(LieAlgebra([f"X{k}" for k in range(n)], cube_of(n, table)),
                          BasisChange(M)).c]
    if n > 1 and rng.random() < 0.5:
        perturb(rng, c)
    return c


def test_sparse_checks_match_dense_references():
    rng = random.Random(14)
    holds = fails = single = 0
    for n, count in ((1, 20), (2, 40), (3, 60), (4, 40)):
        for _ in range(count):
            c = oracle_cube(rng, n)
            failing = {key for key in dense_jacobiator(c) if key[0] < key[1] < key[2]}
            assert check_jacobi(c) == (not failing)
            assert killing_form(c) == dense_killing(c)
            holds += not failing
            fails += bool(failing)
            single += len(failing) == 1
    # the seeded draw has both outcomes, and failures in a single
    # component that a skipped triple or term would miss
    assert holds >= 90 and fails >= 30 and single >= 15


def test_non_antisymmetric_cube_is_never_jacobi():
    # [X0, X0] = X1 has a zero Jacobiator by the dense loop, yet no
    # alternating argument applies to it
    c = zero_cube(2)
    c[0][0][1] = 1
    assert not dense_jacobiator(c)
    assert not check_jacobi(c)
    rng = random.Random(15)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            c = zero_cube(n)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        c[i][j][k] = rng.choice(ENTRIES)
            if not is_antisymmetric(_constants_from(c)):
                assert not check_jacobi(c)


def direct_sum(a, b):
    n, m = len(a), len(b)
    c = zero_cube(n + m)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = a[i][j][k]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                c[n + i][n + j][n + k] = b[i][j][k]
    return c


def su3_compact():
    """su3 in the rational compact basis i(E_jk + E_kj), E_jk - E_kj
    (j < k) and i*diag(1,-1,0), i*diag(0,1,-1), with the defining
    matrices; brackets are read off the matrix commutators."""
    def unit(j, k):
        m = [[0] * 3 for _ in range(3)]
        m[j][k] = 1
        return m

    pairs = ((0, 1), (0, 2), (1, 2))
    basis = [linalg.mat_scale(I, linalg.mat_add(unit(j, k), unit(k, j))) for j, k in pairs]
    basis += [linalg.mat_sub(unit(j, k), unit(k, j)) for j, k in pairs]
    basis += [linalg.mat_scale(I, linalg.mat_sub(unit(d, d), unit(d + 1, d + 1)))
              for d in (0, 1)]

    def coords(m):
        # the coefficients of a traceless anti-Hermitian matrix
        # (an entry (re + im*i) / den is read from its integer fields)
        re = lambda v: Fraction(v.num[0][0], v.den) if v.num else 0
        im = lambda v: Fraction(v.num[0][1], v.den) if v.num else 0
        return ([im(m[j][k]) for j, k in pairs] + [re(m[j][k]) for j, k in pairs]
                + [im(m[0][0]), -im(m[2][2])])

    c = zero_cube(8)
    for a in range(8):
        for b in range(8):
            br = linalg.mat_sub(linalg.mat_mul(basis[a], basis[b]),
                                linalg.mat_mul(basis[b], basis[a]))
            c[a][b] = coords(br)
            back = linalg.mat([[H_ZERO] * 3] * 3)
            for k, v in enumerate(c[a][b]):
                back = linalg.mat_add(back, linalg.mat_scale(v, basis[k]))
            assert back == br
    return c, basis


def test_rank_two_algebras_through_the_sparse_path(su2, sl2):
    su3, basis = su3_compact()
    cubes = {
        "su2": su2.c,
        "sl2": sl2.c,
        "so4": direct_sum(su2.c, su2.c),
        "su3": su3,
    }
    for name, cube in cubes.items():
        L = LieAlgebra([f"T{k}" for k in range(len(cube))], cube)
        assert check_jacobi(L) and check_jacobi(cube), name
        assert killing_det(L), name
        # one structure constant moved, its antisymmetric partner kept
        c = [[list(row) for row in plane] for plane in cube]
        c[0][1][0] += 1
        c[1][0][0] -= 1
        assert not check_jacobi(c), name
        with pytest.raises(ValueError, match="Jacobi"):
            LieAlgebra([f"T{k}" for k in range(len(c))], c)
    # the Killing form of su3 is 6 tr(XY) in its defining representation
    K = killing_form(LieAlgebra([f"T{k}" for k in range(8)], su3))
    assert K == tuple(
        tuple(6 * sum((linalg.mat_mul(a, b)[d][d] for d in range(3)), H_ZERO)
              for b in basis)
        for a in basis
    )
    assert killing_det(LieAlgebra([f"T{k}" for k in range(6)], cubes["so4"])) == 64
