import random
from fractions import Fraction

import pytest

from conftest import rand_coeff
from orbitstar.poly import (
    CPoly,
    ReductionSystem,
    is_invariant,
    kirillov_bracket,
    leading_term,
    monomials_of_degree,
    monomials_up_to,
    reduce,
)
from orbitstar.scalars import H, GaussianRational


def test_product_of_conjugate_binomials(xyz):
    x, y, _ = xyz
    assert (x + y) * (x - y) == x * x - y * y


def test_sum_of_squares(xyz, casimir_poly):
    x, y, z = xyz
    assert casimir_poly == x ** 2 + y ** 2 + z ** 2


def test_multiply_by_zero(xyz):
    x, _, _ = xyz
    assert (x * CPoly.zero(3)).is_zero()


def test_variable_count_mismatch(xyz):
    x, _, _ = xyz
    with pytest.raises(ValueError):
        x * CPoly.one(2)


def test_partials(xyz, casimir_poly):
    x, y, z = xyz
    assert (x * x * y).partial(0) == x * y * 2
    assert casimir_poly.partial(2) == z * 2
    assert CPoly.one(3).partial(1).is_zero()
    with pytest.raises(IndexError):
        x.partial(5)


def test_kirillov_bracket_table(su2, xyz):
    x, y, z = xyz
    assert kirillov_bracket(su2, x, y) == z
    assert kirillov_bracket(su2, y, z) == x
    assert kirillov_bracket(su2, z, x) == y


def test_bracket_antisymmetry(su2, xyz, casimir_poly):
    f = xyz[0] * xyz[1] + casimir_poly
    assert kirillov_bracket(su2, f, f).is_zero()


def test_bracket_kills_invariant(su2, xyz, casimir_poly):
    x = xyz[0]
    assert kirillov_bracket(su2, x, casimir_poly).is_zero()


def test_bracket_jacobi_on_monomials(su2):
    rng = random.Random(11)
    monos = monomials_up_to(3, 4)
    for _ in range(25):
        f, g, k = (
            CPoly.monomial(3, rng.choice(monos)) for _ in range(3)
        )
        total = (
            kirillov_bracket(su2, f, kirillov_bracket(su2, g, k))
            + kirillov_bracket(su2, g, kirillov_bracket(su2, k, f))
            + kirillov_bracket(su2, k, kirillov_bracket(su2, f, g))
        )
        assert total.is_zero()


def test_bracket_leibniz(su2):
    rng = random.Random(12)
    monos = monomials_up_to(3, 3)
    for _ in range(25):
        f, g, k = (
            CPoly.monomial(3, rng.choice(monos)) for _ in range(3)
        )
        lhs = kirillov_bracket(su2, f, g * k)
        rhs = kirillov_bracket(su2, f, g) * k + g * kirillov_bracket(su2, f, k)
        assert lhs == rhs


def test_invariance(su2, xyz, casimir_poly):
    assert is_invariant(su2, casimir_poly)
    assert not is_invariant(su2, xyz[0])
    assert is_invariant(su2, CPoly.constant(3, Fraction(5, 3)))


def _unit_sphere_rule():
    # z highest so the generator rewrites z^2 -> 1 - x^2 - y^2
    x, y, z = (CPoly.variable(3, i) for i in range(3))
    p = x * x + y * y + z * z - CPoly.one(3)
    return ReductionSystem.from_polynomials([p], priority=(2, 0, 1))


def test_reduce_single_step(xyz):
    x, y, z = xyz
    system = _unit_sphere_rule()
    _, rem = reduce(z * z, system)
    assert rem == CPoly.one(3) - x * x - y * y


def test_reduce_z_cubed(xyz):
    x, y, z = xyz
    system = _unit_sphere_rule()
    _, rem = reduce(z ** 3, system)
    assert rem == z - x * x * z - y * y * z


def test_reduce_leaves_small_monomials(xyz):
    x = xyz[0]
    system = _unit_sphere_rule()
    quots, rem = reduce(x, system)
    assert rem == x and quots[0].is_zero()


def test_reduce_idempotent_and_reconstructs(xyz):
    rng = random.Random(13)
    system = _unit_sphere_rule()
    rules = [CPoly.monomial(3, lead) - repl for lead, repl in system.rules]
    for _ in range(20):
        f = CPoly.zero(3)
        for _ in range(4):
            exps = tuple(rng.randint(0, 3) for _ in range(3))
            f = f + CPoly.monomial(3, exps, rng.randint(-4, 4))
        quots, rem = reduce(f, system)
        again_quots, again = reduce(rem, system)
        assert again == rem
        assert all(q.is_zero() for q in again_quots)
        rebuilt = rem
        for q, rule in zip(quots, rules):
            rebuilt = rebuilt + q * rule
        assert rebuilt == f


def test_rule_validation(xyz):
    x, y, z = xyz
    # replacement not smaller than the lead is rejected
    with pytest.raises(ValueError):
        ReductionSystem(3, [((0, 0, 1), z * z)], priority=(2, 0, 1))
    # h-dependent leading coefficient is rejected
    with pytest.raises(ValueError):
        ReductionSystem.from_polynomials([z * z * H + x], priority=(2, 0, 1))


def test_leading_term_priority(xyz, casimir_poly):
    exps, _ = leading_term(casimir_poly, (2, 0, 1))
    assert exps == (0, 0, 2)
    exps, _ = leading_term(casimir_poly, None)
    assert exps == (2, 0, 0)


def test_monomial_enumeration():
    assert monomials_of_degree(3, 0) == [(0, 0, 0)]
    assert len(monomials_of_degree(3, 2)) == 6
    assert len(monomials_up_to(3, 4)) == 35
    # ascending graded order, z-significant ordering puts y^2 before z^2
    d2 = monomials_of_degree(3, 2, priority=(2, 0, 1))
    assert d2.index((0, 2, 0)) < d2.index((0, 0, 2))


def test_h_coefficient_and_truncate(xyz):
    x, y, _ = xyz
    f = x * H + y * (H * H) + x * y
    assert f.h_coefficient(0) == x * y
    assert f.h_coefficient(1) == x
    assert f.truncate_h(2) == x * H + x * y


def _two_rule_system():
    # z^2 -> 3/2 - x^2 - y^2, then x*z -> (2/3)(y^2 - (1/2 + i) h y)
    x, y, z = (CPoly.variable(3, i) for i in range(3))
    sphere = x * x + y * y + z * z - CPoly.constant(3, Fraction(3, 2))
    tail = y * H * GaussianRational(Fraction(1, 2), 1)
    second = x * z * Fraction(3, 2) - y * y + tail
    return ReductionSystem.from_polynomials([sphere, second], priority=(2, 0, 1))


@pytest.mark.parametrize("rules", ["sphere", "two-rule"])
def test_reduce_division_identity(rules):
    system = _unit_sphere_rule() if rules == "sphere" else _two_rule_system()
    rule_polys = [CPoly.monomial(3, lead) - repl for lead, repl in system.rules]
    leads = [lead for lead, _ in system.rules]
    rng = random.Random(44)
    for _ in range(25):
        f = CPoly(3, {
            tuple(rng.randint(0, 3) for _ in range(3)): rand_coeff(rng)
            for _ in range(rng.randint(1, 6))
        })
        quots, rem = reduce(f, system)
        rebuilt = rem
        for q, rule in zip(quots, rule_polys):
            rebuilt = rebuilt + q * rule
        assert rebuilt == f
        for e in rem.terms:
            assert not any(all(a <= b for a, b in zip(lead, e)) for lead in leads)
        assert all(rem.terms.values())
        assert all(all(q.terms.values()) for q in quots)
