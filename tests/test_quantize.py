import itertools
import random
from fractions import Fraction

import pytest

from conftest import rand_coeff
from orbitstar import quantize
from orbitstar.envelope import NCPoly, word_exps
from orbitstar.lie import LieAlgebra, predefined
from orbitstar.orbit import sphere_orbit
from orbitstar.poly import CPoly, acc_term, monomials_up_to
from orbitstar.quantize import (
    StarProduct,
    check_deformation_axioms,
    gauge_step,
    pbw_basis_product,
    sym_inverse,
    symmetrize,
    symmetrizer_product,
)
from orbitstar.scalars import H, H_ONE, HPoly


def brute_symmetrize(L, exps):
    """Average over all p! orderings; oracle for the multiset version."""
    letters = [i for i, e in enumerate(exps) for _ in range(e)]
    total = NCPoly.zero(L)
    count = 0
    for perm in itertools.permutations(letters):
        total = total + NCPoly.word(L, perm)
        count += 1
    return (total * Fraction(1, count)).normal_form()


@pytest.mark.parametrize("name", ["su2", "sl2"])
def test_symmetrize_against_permutation_oracle(name):
    L = predefined(name)
    for exps in monomials_up_to(L.dim, 5):
        mono = CPoly.monomial(L.dim, exps)
        assert symmetrize(L, mono) == brute_symmetrize(L, exps)


def test_sym_roundtrip_degree_nine(su2):
    mono = CPoly.monomial(3, (3, 3, 3))
    u = symmetrize(su2, mono)
    top = {w: c for w, c in u.terms.items() if len(w) == 9}
    assert top == {(0, 0, 0, 1, 1, 1, 2, 2, 2): H_ONE}
    assert sym_inverse(su2, u) == mono


def test_symmetrize_goldens(su2, xyz):
    x, y, z = xyz
    assert symmetrize(su2, x * y) == NCPoly(
        su2, {(0, 1): H_ONE, (2,): H * Fraction(-1, 2)}
    )
    assert symmetrize(su2, x * x) == NCPoly.word(su2, (0, 0))


def test_symmetrized_invariant_is_central(su2, casimir_poly, casimir_word):
    P = symmetrize(su2, casimir_poly)
    assert P == casimir_word
    assert P.is_central()


def test_symmetrize_is_degree_graded(su2):
    for exps in monomials_up_to(3, 5):
        if sum(exps) == 0:
            continue
        img = symmetrize(su2, CPoly.monomial(3, exps))
        assert img.is_graded_homogeneous()
        assert img.graded_degree() == sum(exps)


def test_sym_inverse_goldens(su2, xyz):
    x, y, z = xyz
    assert sym_inverse(su2, NCPoly.word(su2, (0, 1))) == x * y + z * (
        H * Fraction(1, 2)
    )
    assert sym_inverse(su2, NCPoly.word(su2, (0, 0))) == x * x


def test_sym_roundtrip_random(su2):
    rng = random.Random(21)
    monos = monomials_up_to(3, 5)
    for _ in range(20):
        f = CPoly.zero(3)
        for _ in range(4):
            f = f + CPoly.monomial(
                3, rng.choice(monos), HPoly([rng.randint(-3, 3), rng.randint(-1, 1)])
            )
        assert sym_inverse(su2, symmetrize(su2, f)) == f


def peel_sym_inverse(L, u):
    """Triangular descent on word length: the longest words coincide with the
    top-degree part of the symmetrization of the matching monomials, so
    subtracting that strictly lowers the maximal word length.  Oracle for
    the per-word table behind sym_inverse."""
    n = L.dim
    rem = dict(u.terms)
    out = {}
    while rem:
        top = max(len(w) for w in rem)
        layer = {word_exps(w, n): c for w, c in rem.items() if len(w) == top}
        for exps, c in layer.items():
            acc_term(out, exps, c)
        for w, c in symmetrize(L, CPoly(n, layer)).terms.items():
            acc_term(rem, w, -c)
    return CPoly(n, out)


@pytest.mark.parametrize("name", ["su2", "sl2"])
def test_sym_inverse_against_peeling_oracle(name):
    L = predefined(name)
    words = [tuple(i for i, e in enumerate(exps) for _ in range(e))
             for exps in monomials_up_to(L.dim, 6)]
    assert len(words) == 84
    for w in words:
        u = NCPoly.word(L, w)
        assert sym_inverse(L, u) == peel_sym_inverse(L, u), w
    rng = random.Random(8)
    for _ in range(12):
        u = NCPoly(L, {rng.choice(words): rand_coeff(rng) for _ in range(5)})
        assert sym_inverse(L, u) == peel_sym_inverse(L, u)
        assert symmetrize(L, sym_inverse(L, u)) == u


def test_sym_inverse_table_filled_once_per_word(monkeypatch):
    L = LieAlgebra(("X", "Y", "Z"), predefined("su2").c)
    assert L._sym_inv_cache == {} and L._sym_cache == {}
    word = (0, 0, 1, 2, 2)
    sym_inverse(L, NCPoly.word(L, word))
    table = dict(L._sym_inv_cache)
    assert word in table and (0, 2) in table and (1,) in table
    # kept apart from the symmetrizer memo, whose keys are exponent vectors:
    # the word Y^3 and the monomial xyz share the key (1, 1, 1)
    assert (1, 1, 1) in table and (1, 1, 1) in L._sym_cache
    assert all(isinstance(u, NCPoly) for u in L._sym_cache.values())
    assert all(isinstance(t, dict) for t in table.values())
    assert {word_exps(w, 3) for w in table} <= set(L._sym_cache)
    # a second pass reads the table and symmetrizes nothing
    u = NCPoly(L, {word: 3, (0, 2): H, (1,): 1})
    want = peel_sym_inverse(L, u)
    calls = []
    monkeypatch.setattr(quantize, "_sym_monomial",
                        lambda *args: calls.append(args))
    assert sym_inverse(L, u) == want
    assert calls == []
    assert L._sym_inv_cache == table
    assert all(L._sym_inv_cache[w] is t for w, t in table.items())


def test_sym_inverse_rejects_bad_input(su2, sl2):
    with pytest.raises(ValueError, match="canonical"):
        sym_inverse(su2, NCPoly.word(su2, (1, 0)))
    with pytest.raises(ValueError, match="different algebra"):
        sym_inverse(su2, NCPoly.word(sl2, (0,)))


def test_star_goldens(su2, xyz):
    x, y, z = xyz
    star = symmetrizer_product(su2)
    assert star.star(x, y) == x * y + z * (H * Fraction(1, 2))
    assert star.star(x, y) - star.star(y, x) == z * H
    assert star.star(CPoly.one(3), x * y + z) == x * y + z


def test_bn_goldens(su2, xyz):
    x, y, z = xyz
    star = symmetrizer_product(su2)
    assert star.bn(x, y, 1) == z * Fraction(1, 2)
    assert star.bn(x * y, y, 0) == x * y * y
    assert star.bn(x, y, 1) - star.bn(y, x, 1) == z


def test_bn_vanishes_beyond_total_degree(su2):
    # grading: every h power is traded for one polynomial degree, so the
    # h-degree of f*g never exceeds deg f + deg g
    star = symmetrizer_product(su2)
    rng = random.Random(22)
    monos = monomials_up_to(3, 4)
    for _ in range(15):
        e1, e2 = rng.choice(monos), rng.choice(monos)
        f, g = CPoly.monomial(3, e1), CPoly.monomial(3, e2)
        total = sum(e1) + sum(e2)
        for n in (total + 1, total + 2):
            assert star.bn(f, g, n).is_zero()


def test_bn_can_exceed_left_degree(su2, xyz):
    # the h-degree is not bounded by deg f alone: B2(x, y^2) = -x/6
    x, y, _ = xyz
    star = symmetrizer_product(su2)
    assert star.bn(x, y * y, 2) == x * Fraction(-1, 6)


def test_bn_requires_h_free(su2, xyz):
    star = symmetrizer_product(su2)
    with pytest.raises(ValueError):
        star.bn(xyz[0] * H, xyz[1], 1)


def test_axiom_checker_passes(su2):
    report = check_deformation_axioms(symmetrizer_product(su2), 3, assoc_degree=3)
    assert report["passed"]
    assert report["failures"] == []


def test_axiom_checker_catches_fault(su2):
    x = CPoly.variable(3, 0)
    good = symmetrizer_product(su2)
    from orbitstar.quantize import StarProduct, sym_inverse as inv, symmetrize as fwd

    broken = StarProduct(
        su2,
        lambda f: fwd(su2, f),
        lambda u: inv(su2, u) + x,  # corrupted inverse
        name="broken",
    )
    report = check_deformation_axioms(broken, 2, assoc_degree=0)
    assert not report["passed"]
    assert any(f["property"] == "product-mod-h" for f in report["failures"])


def test_pbw_product_roundtrip(su2):
    star = pbw_basis_product(su2)
    f = CPoly.monomial(3, (1, 2, 0)) + CPoly.monomial(3, (0, 0, 1))
    assert star.backward(star.forward(f)) == f


def test_gauge_step_identity(su2):
    star = symmetrizer_product(su2)
    res = gauge_step(star, star, 1, 3)
    assert res["feasible"]
    assert all(v.is_zero() for v in res["operator"].values())


def _apply(images, f):
    out = CPoly.zero(f.nvars)
    for exps, c in f.terms.items():
        out = out + images[exps] * c
    return out


def test_gauge_step_sym_vs_pbw(su2):
    star_s = symmetrizer_product(su2)
    pbw = pbw_basis_product(su2)
    res = gauge_step(star_s, pbw, 1, 3)
    assert res["feasible"]
    assert (res["rank"], res["unknowns"]) == (0, 60)
    T1 = res["operator"]
    assert any(not v.is_zero() for v in T1.values())
    # the found operator must intertwine the products at first order
    for e1 in star_s.monomial_basis(3):
        for e2 in star_s.monomial_basis(3):
            if sum(e1) + sum(e2) > 3:
                continue
            a, b = CPoly.monomial(3, e1), CPoly.monomial(3, e2)
            lhs = _apply(T1, star_s.bn(a, b, 0)) + star_s.bn(a, b, 1)
            rhs = pbw.bn(a, b, 1) + _apply(T1, a) * b + a * _apply(T1, b)
            assert lhs == rhs


def test_gauge_step_orbit_lifts(su2):
    # same level, different lifts: the particular solution (free columns
    # zero) is pinned, and it must satisfy the order-1 equations
    orb_a = sphere_orbit(1)
    orb_b = sphere_orbit(1, lift=H_ONE + H)
    star_a, star_b = orb_a.star_product(), orb_b.star_product()
    res = gauge_step(star_a, star_b, 1, 2)
    assert res["order"] == 1
    assert res["feasible"]
    assert (res["rank"], res["unknowns"]) == (16, 27)
    T1 = res["operator"]
    for i in range(3):
        e = tuple(int(j == i) for j in range(3))
        assert T1[e] == CPoly.monomial(3, e, Fraction(-1, 2))
    for e1 in star_a.monomial_basis(2):
        for e2 in star_a.monomial_basis(2):
            if sum(e1) + sum(e2) > 2:
                continue
            a = CPoly.monomial(3, e1)
            b = CPoly.monomial(3, e2)
            lhs = _apply(T1, star_a.bn(a, b, 0)) + star_a.bn(a, b, 1)
            rhs = (
                star_b.bn(a, b, 1)
                + star_b.bn(_apply(T1, a), b, 0)
                + star_b.bn(a, _apply(T1, b), 0)
            )
            assert lhs == rhs


def test_gauge_step_sym_vs_pbw_order_2(su2):
    star_s = symmetrizer_product(su2)
    pbw = pbw_basis_product(su2)
    T1 = gauge_step(star_s, pbw, 1, 3)["operator"]
    res = gauge_step(star_s, pbw, 2, 3, t_partial=[T1])
    assert res["feasible"]
    assert (res["rank"], res["unknowns"]) == (0, 60)
    ops = [None, T1, res["operator"]]
    T = lambda i, f: f if i == 0 else _apply(ops[i], f)
    # sum_{i+j+k=2} B_pbw,k(T_i a, T_j b) == sum_{i+k=2} T_i(B_sym,k(a, b))
    for e1 in star_s.monomial_basis(3):
        for e2 in star_s.monomial_basis(3):
            if sum(e1) + sum(e2) > 3:
                continue
            a, b = CPoly.monomial(3, e1), CPoly.monomial(3, e2)
            lhs = sum((T(i, star_s.bn(a, b, 2 - i)) for i in range(3)), CPoly.zero(3))
            rhs = sum((pbw.bn(T(i, a), T(j, b), 2 - i - j)
                       for i in range(3) for j in range(3 - i)), CPoly.zero(3))
            assert lhs == rhs


def test_gauge_step_orbit_lifts_order_2(su2):
    star_a = sphere_orbit(1).star_product()
    star_b = sphere_orbit(1, lift=H_ONE + H).star_product()
    T1 = gauge_step(star_a, star_b, 1, 2)["operator"]
    res = gauge_step(star_a, star_b, 2, 2, t_partial=[T1])
    assert not res["feasible"]
    assert res["unknowns"] == 27
    assert res["witness_pair"] == (((0, 1, 0), (1, 0, 0)), (0, 0, 1))


def test_gauge_step_rejects_bad_partial(su2):
    star_s = symmetrizer_product(su2)
    pbw = pbw_basis_product(su2)
    # a wrong T_1 cannot make the products agree at order h
    basis = star_s.monomial_basis(2)
    bogus = {e: CPoly.monomial(3, e) for e in basis}  # T_1 = Id, not a fix
    with pytest.raises(ValueError):
        gauge_step(star_s, pbw, 2, 2, t_partial=[bogus])


def _bilinear_star(star, f, g):
    """The star product summed term by term with plain CPoly arithmetic."""
    out = CPoly.zero(star.nvars)
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            out = out + star._star_monomials(e1, e2) * (c1 * c2)
    return out


@pytest.mark.parametrize("kind", ["sym", "orbit"])
def test_star_against_bilinear_oracle(kind, su2):
    if kind == "sym":
        star = symmetrizer_product(su2)
    else:
        star = sphere_orbit(2, lift=HPoly([2, Fraction(1, 3)]),
                            algebra=su2).star_product()
    basis = star.monomial_basis(3)
    rng = random.Random(43)
    for _ in range(12):
        f, g = (
            CPoly(3, {
                e: H_ONE if rng.random() < 0.3 else rand_coeff(rng)
                for e in rng.sample(basis, rng.randint(1, 4))
            })
            for _ in range(2)
        )
        for left, right in ((f, g), (g, f), (f, f - f), (f + g, f - g)):
            got = star.star(left, right)
            assert got == _bilinear_star(star, left, right)
            assert all(got.terms.values())


def test_orbit_star_domain_memo_still_rejects(su2, xyz):
    x, y, z = xyz
    star = sphere_orbit(1, algebra=su2).star_product()
    assert star.star(x * z, y) == star.star(x * z, y)
    for _ in range(2):
        with pytest.raises(ValueError):
            star.star(z * z, x)
        with pytest.raises(ValueError):
            star.star(x, x + z * z)


@pytest.mark.parametrize("kind", ["sym", "orbit"])
def test_forward_image_built_once_per_monomial(kind):
    L = predefined("su2")
    if kind == "sym":
        forward, backward = (lambda f: symmetrize(L, f)), (lambda u: sym_inverse(L, u))
        extra = {}
    else:
        orb = sphere_orbit(2, lift=HPoly((2, Fraction(1, 3))), algebra=L)
        forward = orb.word_lift
        backward = lambda u: orb.word_lower(orb.ideal_reduce(u))
        extra = {"poly_reduce": orb.orbit_reduce}
    calls = {}

    def counting(f):
        (exps,) = f.terms
        calls[exps] = calls.get(exps, 0) + 1
        return forward(f)

    star = StarProduct(L, counting, backward, **extra)
    basis = star.monomial_basis(2)
    for e1 in basis:
        for e2 in basis:
            got = star.star(CPoly.monomial(3, e1), CPoly.monomial(3, e2))
            fresh = StarProduct(L, forward, backward, **extra)
            assert got == fresh.star(CPoly.monomial(3, e1), CPoly.monomial(3, e2))
    assert calls == {e: 1 for e in basis}
