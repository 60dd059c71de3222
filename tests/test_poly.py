import random
from fractions import Fraction

import pytest

from conftest import named_algebra, rand_coeff
from orbitstar import scalars
from orbitstar.poly import (
    CPoly,
    ReductionSystem,
    grlex_key,
    is_invariant,
    kirillov_bracket,
    leading_term,
    monomials_of_degree,
    monomial_mul,
    monomials_up_to,
    product,
    reduce,
)
from orbitstar.scalars import H, H_ONE, H_ZERO, HPoly, I, acc_scaled, acc_term


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


def kirillov_oracle(L, f, g):
    """{f, g} by operator arithmetic on whole polynomials: the partials of f
    and g, their product, times x_k and the structure constant, summed."""
    n = L.dim
    out = CPoly.zero(n)
    for i in range(n):
        for j in range(n):
            for k, v in L.bracket_terms(i, j):
                out = out + f.partial(i) * g.partial(j) * CPoly.variable(n, k) * v
    return out


def _bracket_operand(rng, n):
    """Up to four terms of degree <= 3, each coefficient the interned H_ONE,
    a small integer, or a nonzero Q(i)[h] value (fractional, complex, with
    several powers of h)."""
    out = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * n
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(n)] += 1
        roll = rng.random()
        out[tuple(exps)] = (H_ONE if roll < 0.3 else rng.choice((-2, 2, 3))
                            if roll < 0.5 else rand_coeff(rng))
    return CPoly(n, out)


@pytest.mark.parametrize("name", ["su2", "sl2", "so4", "su3"])
def test_kirillov_bracket_against_operator_oracle(name):
    L = named_algebra(name)
    rng = random.Random(f"bracket-{name}")
    for _ in range(30):
        f, g = _bracket_operand(rng, L.dim), _bracket_operand(rng, L.dim)
        assert kirillov_bracket(L, f, g) == kirillov_oracle(L, f, g)


def test_invariance(su2, xyz, casimir_poly):
    assert is_invariant(su2, casimir_poly)
    assert not is_invariant(su2, xyz[0])
    assert is_invariant(su2, CPoly.constant(3, Fraction(5, 3)))


def _unit_sphere_rule(priority=(2, 0, 1)):
    # z highest so the generator rewrites z^2 -> 1 - x^2 - y^2
    x, y, z = (CPoly.variable(3, i) for i in range(3))
    p = x * x + y * y + z * z - CPoly.one(3)
    return ReductionSystem.from_polynomials([p], priority=priority)


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


def _two_rule_system(priority=(2, 0, 1)):
    # z^2 -> 3/2 - x^2 - y^2, then x*z -> (2/3)(y^2 - (1/2 + i) h y)
    x, y, z = (CPoly.variable(3, i) for i in range(3))
    sphere = x * x + y * y + z * z - CPoly.constant(3, Fraction(3, 2))
    tail = y * H * (Fraction(1, 2) + I)
    second = x * z * Fraction(3, 2) - y * y + tail
    return ReductionSystem.from_polynomials([sphere, second], priority=priority)


def _max_scan_reduce(f, system):
    """Multivariate division that rescans the work dict for its grlex-largest
    monomial at every step: the quadratic reference for reduce."""
    quotients = [{} for _ in system.rules]
    remainder = {}
    work = dict(f.terms)
    while work:
        exps = max(work, key=lambda e: grlex_key(e, system.priority))
        coeff = work.pop(exps)
        for r, (lead, repl) in enumerate(system.rules):
            if all(a <= b for a, b in zip(lead, exps)):
                break
        else:
            remainder[exps] = coeff
            continue
        shift = tuple(a - b for a, b in zip(exps, lead))
        quotients[r][shift] = coeff
        acc_scaled(work, {
            tuple(a + b for a, b in zip(shift, e)): c
            for e, c in repl.terms.items()
        }, coeff)
    return [CPoly(f.nvars, q) for q in quotients], CPoly(f.nvars, remainder)


@pytest.mark.parametrize("priority", [(2, 0, 1), None], ids=["z-first", "natural"])
@pytest.mark.parametrize("rules", ["sphere", "two-rule"])
def test_reduce_against_max_scan_oracle(rules, priority):
    system = (_unit_sphere_rule if rules == "sphere" else _two_rule_system)(priority)
    rng = random.Random(45)
    for _ in range(25):
        f = CPoly(3, {
            tuple(rng.randint(0, 4) for _ in range(3)): rand_coeff(rng)
            for _ in range(rng.randint(1, 8))
        })
        assert reduce(f, system) == _max_scan_reduce(f, system)


def test_priority_orders_every_variable_once():
    z = CPoly.variable(3, 2)
    for priority in [(2, 0), (2, 0, 0), (2, 0, 3), (0, 1, 2, 3)]:
        with pytest.raises(ValueError, match="not an ordering"):
            ReductionSystem(3, [((0, 0, 2), z)], priority=priority)
    assert ReductionSystem(3, [((0, 0, 2), z)], priority=[2, 0, 1]).priority == (2, 0, 1)


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


def _acc_coeff(rng):
    """A nonzero coefficient for the accumulation oracle: the interned H_ONE,
    a single power at the edges of the shared table, a single power c*h^k
    (denominator 1 or not, valuation 0 or not, with or without an imaginary
    part) or one with several powers of h."""
    if rng.random() < 0.15:
        return H_ONE
    if rng.random() < 0.3:
        return _edge_coeff(rng)
    den = rng.choice((1, 1, 2, 3, 6))
    low = [0] * rng.choice((0, 0, 1, 2))
    while True:
        p = HPoly(low + [
            Fraction(rng.randint(-4, 4), den)
            + Fraction(rng.choice((0, rng.randint(-3, 3))), den) * I
            for _ in range(1 if rng.random() < 0.7 else rng.randint(2, 3))
        ])
        if p:
            return p


def _edge_coeff(rng):
    """An integer single power r*h^k at the edges of scalars._SMALL: |r| at
    or next to its bound R (or a factor whose products reach it), k at V - 1
    or V, now and then over a denominator or with an imaginary part."""
    R, V = scalars._R, scalars._V
    re = rng.choice((1, 2, 4, R - 1, R, R + 1)) * rng.choice((1, -1))
    c = Fraction(re, rng.choice((1, 1, 1, 2))) + rng.choice((0, 0, 0, 1)) * I
    return HPoly([0] * rng.choice((0, 1, V - 1, V)) + [c])


def _table_edge_updates():
    """(d, terms, c) updates whose results sit at the edges of
    scalars._SMALL: a computed 1 on each path (a product, a product over a
    denominator the gcd removes, a unit sum, a complex product), |r| at R
    and R + 1, k at V - 1 and V, and sums that cancel."""
    R, V = scalars._R, scalars._V
    key = (0, 0)
    hp = lambda r, k=0: HPoly([0] * k + [r])
    return [
        ({}, {key: hp(Fraction(1, 2))}, hp(2)),
        ({}, {key: hp(-1)}, hp(-1)),
        ({key: hp(R + 1)}, {key: hp(-R)}, H_ONE),
        ({key: hp(Fraction(1, 2))}, {key: hp(Fraction(1, 2))}, H_ONE),
        ({}, {key: hp(I)}, hp(-I)),
        ({}, {key: hp(1 + I)}, hp(1 - I)),
        ({key: hp(R - 1, V - 1)}, {key: hp(1, V - 1)}, H_ONE),
        ({key: hp(R, V - 1)}, {key: hp(1, V - 1)}, H_ONE),
        ({}, {key: hp(-R, 1)}, hp(1, V - 2)),
        ({}, {key: hp(-R, 1)}, hp(1, V - 1)),
        ({}, {key: hp(4), (0, 1): hp(-4)}, hp(-4)),
        ({}, {key: hp(R + 1)}, hp(-1)),
        ({key: hp(Fraction(R, 2))}, {key: hp(Fraction(1, 2))}, hp(1)),
        ({key: hp(3)}, {key: hp(3)}, hp(-1)),
        ({key: hp(R)}, {key: hp(-R)}, H_ONE),
    ]


def _single_power(p):
    return p is not None and len(p.num) == 1


@pytest.mark.parametrize("seed", range(3))
def test_acc_scaled_against_acc_term(seed):
    rng = random.Random(700 + seed)
    keys = [(a, b) for a in range(3) for b in range(3)]
    R, V, table = scalars._R, scalars._V, scalars._SMALL
    updates = cancelled = shared = ones = 0
    edges = _table_edge_updates()
    while updates < 2000:
        if edges:
            d, terms, c = edges.pop()
        else:
            d = {k: _acc_coeff(rng) for k in rng.sample(keys, rng.randint(0, 9))}
            c = _acc_coeff(rng)
            terms = {k: _acc_coeff(rng) for k in rng.sample(keys, rng.randint(1, 9))}
            for k, v in terms.items():
                if rng.random() < 0.25:
                    d[k] = -(c * v)  # the update cancels, so the key must go
                    cancelled += 1
        want = dict(d)
        for k, v in terms.items():
            acc_term(want, k, c if v is H_ONE else c * v)
        got = dict(d)
        acc_scaled(got, terms, c)
        assert got == want and list(got) == list(want)
        for k, v in got.items():
            assert (v.num, v.den, v.val) == (want[k].num, want[k].den, want[k].val)
        # a value formed on the integer fields (single powers in, and not a
        # term stored as it is) that is r*h^k in range is the table's entry
        for k, v in terms.items():
            cur, p = d.get(k), got.get(k)
            if not (_single_power(p) and _single_power(c) and _single_power(v)):
                continue
            if cur is None and c is H_ONE or cur is not None and not _single_power(cur):
                continue
            (re, im), = p.num
            if p.den == 1 and not im and p.val < V and abs(re) <= R:
                assert p is table[p.val][re], p
                shared += 1
            assert p != 1 or p is H_ONE, "a computed 1 is not H_ONE"
            ones += p == 1
        updates += len(terms)
    assert cancelled and shared and ones
    # the table: V rows of 2R + 1, entry r*h^k at row k, index r (a negative
    # r from the end of its row), canonical; index 0 (zero) is never filled
    assert table[0][1] is H_ONE and table[1][1] is H
    assert len(table) == V and all(len(row) == 2 * R + 1 for row in table)
    filled = 0
    for k, row in enumerate(table):
        assert row[0] is None
        for index, p in enumerate(row):
            if p is not None:
                filled += 1
                (re, im), = p.num
                assert (im, p.den, p.val) == (0, 1, k) and 0 < abs(re) <= R
                assert index == re % (2 * R + 1) and row[re] is p
                assert (p.num, p.den, p.val) == scalars._canonical(p.num, p.den, p.val)
    assert 2 < filled <= (2 * R + 1) * V


def _exponent_add_product(f, g):
    """The term dict of f * g by the schoolbook loop: each pair's exponent
    vectors added entry by entry, its coefficients multiplied and summed
    through HPoly arithmetic."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple([a + b for a, b in zip(e1, e2)])
            out[e] = out.get(e, H_ZERO) + c1 * c2
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("seed", range(3))
def test_product_against_exponent_add_loop(seed):
    rng = random.Random(900 + seed)
    keys = monomials_up_to(3, 2)
    x, y = CPoly.variable(3, 0), CPoly.variable(3, 1)
    null = (x + y) * (x - y) - x * x + y * y  # cancels to zero in the product
    assert null.is_zero()
    for _ in range(40):
        f, g = (CPoly(3, {e: H_ONE if rng.random() < 0.3 else _acc_coeff(rng)
                          for e in rng.sample(keys, rng.randint(0, 6))})
                for _ in range(2))
        # g + f*(x - y) and f*(x + y) share monomials whose terms cancel
        for a, b in ((f, g), (g, f), (f, x - y), (f * (x + y), x - y)):
            want = _exponent_add_product(a, b)
            got = product(a.terms, b.terms, monomial_mul)
            assert got == want and (a * b).terms == want
            for e, c in got.items():
                assert (c.num, c.den, c.val) == (want[e].num, want[e].den, want[e].val)
