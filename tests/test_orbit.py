import random
from fractions import Fraction

import pytest

from orbitstar import orbit as orbit_module
from orbitstar.envelope import NCPoly
from orbitstar.orbit import Orbit, orbit_from_json, sphere_orbit
from orbitstar.poly import (
    CPoly,
    acc_scaled,
    acc_term,
    kirillov_bracket,
    monomials_up_to,
    reduce as poly_reduce,
)
from orbitstar.quantize import check_deformation_axioms, symmetrizer_product
from orbitstar.scalars import H, H_ONE

from conftest import rand_coeff


def test_orbit_validation(su2, xyz):
    x, y, z = xyz
    with pytest.raises(ValueError):
        Orbit(su2, [x], [Fraction(1)])  # not invariant
    with pytest.raises(ValueError):
        sphere_orbit(0)  # irregular level
    with pytest.raises(ValueError):
        sphere_orbit(1, lift=H)  # lift misses the constant at h=0
    p = x * x + y * y + z * z
    # invariant, but not the sphere's single sum-of-squares generator
    for invariants, constants in (([p, p * p], [1, 2]), ([2 * p], [2]),
                                  ([p * p], [1])):
        with pytest.raises(ValueError):
            Orbit(su2, invariants, constants)


def test_orbit_reduce_goldens(sphere, xyz):
    x, y, z = xyz
    assert sphere.orbit_reduce(z * z) == CPoly.one(3) - x * x - y * y
    assert sphere.orbit_reduce(x) == x
    assert sphere.orbit_reduce(z ** 3) == z - x * x * z - y * y * z


def test_ideal_reduce_goldens(sphere, su2):
    X2 = NCPoly.word(su2, (0, 0))
    Y2 = NCPoly.word(su2, (1, 1))
    Z2 = NCPoly.word(su2, (2, 2))
    red = sphere.ideal_reduce(Z2)
    assert red == NCPoly.one(su2) - X2 - Y2
    # the ideal generator reduces to zero
    gen = X2 + Y2 + Z2 - NCPoly.one(su2)
    assert sphere.ideal_reduce(gen).is_zero()


def test_ideal_reduce_engine_value(sphere, su2):
    # golden value fixed by the engine and cross-checked below
    u = NCPoly.word(su2, (2, 2, 0)).normal_form()
    red = sphere.ideal_reduce(u)
    want = NCPoly(su2, {
        (0,): H_ONE - H * H,
        (0, 0, 0): -H_ONE,
        (0, 1, 1): -H_ONE,
        (1, 2): H * 2,
    })
    assert red == want
    # the difference is a left multiple of the shifted central element
    q, r = sphere.ideal_reduce(u, track_quotient=True)
    assert r == want
    assert q * sphere.casimir_minus_lift() + r == u
    assert q == NCPoly.generator(su2, 0)


def test_ideal_reduce_is_projection(sphere, su2):
    rng = random.Random(32)
    for _ in range(20):
        w = tuple(sorted(rng.randrange(3) for _ in range(rng.randint(0, 5))))
        u = NCPoly.word(su2, w)
        once = sphere.ideal_reduce(u)
        assert sphere.ideal_reduce(once) == once
        q, r = sphere.ideal_reduce(u, track_quotient=True)
        assert q * sphere.casimir_minus_lift() + r == u


def test_ideal_reduce_with_lift(su2):
    orb = sphere_orbit(1, lift=H_ONE + H)
    Z2 = NCPoly.word(su2, (2, 2))
    X2 = NCPoly.word(su2, (0, 0))
    Y2 = NCPoly.word(su2, (1, 1))
    assert orb.ideal_reduce(Z2) == NCPoly.scalar(su2, H_ONE + H) - X2 - Y2


def _rescan_ideal_reduce(orb, u, lift):
    """The ideal reduction as a plain rescanning loop: rewrite the largest
    word ending in Z Z until none is left."""
    z = orb.algebra.dim - 1
    terms, quotient = dict(u.terms), {}
    while True:
        cand = [w for w in terms if len(w) >= 2 and w[-2] == z]
        if not cand:
            break
        w = max(cand)
        coeff = terms.pop(w)
        base = w[:-2]
        acc_term(quotient, base, coeff)
        acc_term(terms, base, coeff * lift)
        squares = NCPoly(orb.algebra, {base + (i, i): H_ONE for i in range(z)})
        acc_scaled(terms, squares.normal_form().terms, -coeff)
    return NCPoly(orb.algebra, quotient), NCPoly(orb.algebra, terms)


@pytest.mark.parametrize(
    "lift", [None, H_ONE * 2 + H * Fraction(1, 3)], ids=["level", "h-part"]
)
def test_ideal_reduce_against_rescan_oracle(su2, lift):
    rng = random.Random(35)
    orb = sphere_orbit(2, lift=lift)
    for _ in range(4):
        u = NCPoly.zero(su2)
        for _ in range(3):
            w = tuple(sorted(rng.randrange(3) for _ in range(rng.randint(8, 10))))
            u = u + NCPoly.word(su2, w, rand_coeff(rng))
        q, r = orb.ideal_reduce(u, track_quotient=True)
        assert (q, r) == _rescan_ideal_reduce(orb, u, orb.lifts[0])
        assert q * orb.casimir_minus_lift() + r == u
        assert all(len(w) < 2 or w[-2] != 2 for w in r.terms)


def test_ideal_reduce_memoizes_sums_of_squares(su2, monkeypatch):
    orb = sphere_orbit(2, lift=H_ONE * 2 + H * Fraction(1, 3), algebra=su2)
    u = NCPoly.word(su2, (0, 1, 2, 2, 2, 2), Fraction(2, 3)) + NCPoly.word(
        su2, (1, 1, 2, 2, 2))
    first = orb.ideal_reduce(u)
    assert (0, 1, 2, 2) in orb._squares and (1, 1, 2) in orb._squares
    for base, nf in orb._squares.items():
        want = NCPoly(su2, {base + (0, 0): 1, base + (1, 1): 1}).normal_form()
        assert nf == want.terms
    monkeypatch.setattr(orbit_module, "_nf_word", None)
    assert orb.ideal_reduce(u) == first


def test_h0_limit_of_deformed_reduction(su2):
    # with any lift through the level, h -> 0 recovers the orbit reduction
    orb = sphere_orbit(1, lift=H_ONE + H)
    for exps in monomials_up_to(3, 4):
        m = CPoly.monomial(3, exps)
        deformed = orb.ideal_reduce(orb.word_lift(m))
        assert deformed.project_h0() == orb.orbit_reduce(m)


def test_split_embed_goldens(sphere, su2, xyz):
    x, y, z = xyz
    p = x * x + y * y + z * z
    assert sphere.split_embed(x) == NCPoly.generator(su2, 0)
    want = (
        NCPoly.word(su2, (2, 2))
        * (sphere.casimirs[0] - NCPoly.one(su2))
    ).normal_form()
    assert sphere.split_embed(z * z * (p - CPoly.one(3))) == want


def test_split_embed_kills_its_ideal(sphere, xyz):
    x, y, z = xyz
    p = x * x + y * y + z * z
    gen = p - CPoly.one(3)
    for exps in monomials_up_to(3, 4):
        g = CPoly.monomial(3, exps)
        assert sphere.ideal_reduce(sphere.split_embed(g * gen)).is_zero()


def test_split_embed_inverse_roundtrip(sphere):
    rng = random.Random(33)
    for _ in range(20):
        f = CPoly.zero(3)
        for _ in range(4):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            f = f + CPoly.monomial(3, exps, rng.randint(-3, 3))
        assert sphere.split_embed_inverse(sphere.split_embed(f)) == f


def test_tangential_embed_goldens(sphere, su2, xyz):
    x, y, z = xyz
    p = x * x + y * y + z * z
    assert sphere.tangential_embed(p - CPoly.one(3)) == sphere.casimir_minus_lift()
    assert sphere.tangential_embed(x * z) == NCPoly.word(su2, (0, 2))


def test_tangential_embed_inverse_roundtrip(sphere):
    rng = random.Random(34)
    for _ in range(20):
        f = CPoly.zero(3)
        for _ in range(4):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            f = f + CPoly.monomial(3, exps, rng.randint(-3, 3))
        assert sphere.tangential_embed_inverse(sphere.tangential_embed(f)) == f


def _fresh_tangential_embed(orb, f):
    """The tangential embedding with (P - c(h))^k multiplied out afresh."""
    out, power, work = NCPoly.zero(orb.algebra), NCPoly.one(orb.algebra), f
    while not work.is_zero():
        quots, rem = poly_reduce(work, orb.basis_rule)
        out = out + orb.word_lift(rem) * power
        power = power * orb.casimir_minus_lift()
        work = quots[0]
    return out


def test_tangential_powers_kept_on_the_orbit(su2, xyz):
    x, y, z = xyz
    orb = sphere_orbit(2, lift=H_ONE * 2 + H * Fraction(1, 3), algebra=su2)
    powers = orb._shifted_powers
    assert len(powers) == 2
    gen = x * x + y * y + z * z - CPoly.constant(3, 2)
    f = x * gen * gen * gen + z
    assert orb.tangential_embed(f) == _fresh_tangential_embed(orb, f)
    assert len(powers) == 4
    cubed = powers[3]
    rng = random.Random(36)
    for _ in range(8):
        f = CPoly.zero(3)
        for _ in range(3):
            exps = tuple(rng.randint(0, 3) for _ in range(3))
            f = f + CPoly.monomial(3, exps, rand_coeff(rng))
        assert orb.tangential_embed(f) == _fresh_tangential_embed(orb, f)
    assert orb._shifted_powers is powers and powers[3] is cubed
    assert powers[:2] == [NCPoly.one(su2), orb.casimir_minus_lift()]
    assert all(powers[k] * powers[1] == powers[k + 1]
               for k in range(len(powers) - 1))


def test_tangential_embed_preserves_nearby_ideals(sphere):
    for shift in (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2)):
        res = sphere.tangentiality_check(
            sphere.tangential_embed, 1 + shift, 4
        )
        assert res["passed"]


def test_split_embed_fails_off_its_orbit(sphere, su2, xyz):
    res = sphere.tangentiality_check(sphere.split_embed, Fraction(5, 4), 5)
    assert not res["passed"]
    witness = res["witness"]
    assert witness["cofactor"] == CPoly.monomial(3, (0, 1, 2))
    want = NCPoly(su2, {(0, 2): H * Fraction(1, 2), (1,): H * H * Fraction(1, 4)})
    assert witness["remainder"] == want


def test_split_embed_passes_on_its_orbit(sphere):
    res = sphere.tangentiality_check(sphere.split_embed, 1, 4)
    assert res["passed"]


def test_reduction_compatibility(sphere):
    for embed in (sphere.split_embed, sphere.tangential_embed):
        assert sphere.reduction_compatibility_check(embed, 4)["passed"]


def test_orbit_star_goldens(sphere, xyz):
    x, y, z = xyz
    star = sphere.star_product()
    assert star.star(z, z) == CPoly.one(3) - x * x - y * y
    assert star.star(y, x) == x * y - z * H
    assert star.star(x * y, CPoly.one(3)) == x * y


def test_orbit_star_rejects_nonbasis_input(sphere, xyz):
    z = xyz[2]
    with pytest.raises(ValueError):
        sphere.star_product().star(z * z, z)


def test_orbit_star_axioms(sphere):
    report = check_deformation_axioms(sphere.star_product(), 3, assoc_degree=3)
    assert report["passed"]


def test_orbit_bracket_matches_reduced_kirillov(sphere, su2, xyz):
    x, y, z = xyz
    star = sphere.star_product()
    for f, g in [(z, z), (x, z), (x * y, z), (y, x * z)]:
        comm = star.star(f, g) - star.star(g, f)
        want = sphere.orbit_reduce(kirillov_bracket(su2, f, g))
        assert comm.h_coefficient(1) == want
        assert comm.h_coefficient(0).is_zero()


def test_first_order_rule(sphere, xyz):
    x, y, z = xyz
    res = sphere.first_order_check(y, x)
    assert res["passed"]
    assert res["got"] == x * y - z * H
    assert sphere.first_order_check(x * y, x)["passed"]
    assert sphere.first_order_check(CPoly.one(3), y * y)["passed"]
    with pytest.raises(ValueError):
        sphere.first_order_check(z, x)


def test_invariant_product_checks(sphere, su2, xyz):
    x, y, z = xyz
    p = x * x + y * y + z * z
    assert sphere.invariant_product_check(sphere.tangential_product(), 3)["passed"]
    star_s = symmetrizer_product(su2)
    res = sphere.invariant_product_check(star_s, 3)
    assert not res["passed"]
    # the first-failing witness has a nonzero h^2 discrepancy
    got = res["witness"]["got"] - res["witness"]["expected"]
    assert not got.h_coefficient(2).is_zero()
    assert star_s.star(x, p) - x * p == x * (H * H * Fraction(-1, 3))


def test_bidifferential_obstruction(sphere, xyz):
    x, y, z = xyz
    res = sphere.bidifferential_obstruction(3)
    assert not res["feasible"]
    assert res["certificate"] == -(x * y * z)
    assert res["coefficients"][(1, 0)] == -z
    assert res["coefficients"][(0, 1)].is_zero()
    ctrl = sphere.bidifferential_obstruction(3, zz_data=-(x * y * z))
    assert ctrl["feasible"]
    assert ctrl["certificate"] is None


def test_tangential_product_works_with_any_lift(su2, xyz):
    x, y, z = xyz
    p = x * x + y * y + z * z
    orb = sphere_orbit(1, lift=H_ONE + H * H)
    assert orb.tangential_product().star(x * y, p) == x * y * p


def test_orbit_from_json(su2, sphere):
    orb = orbit_from_json(
        {
            "algebra": "su2",
            "invariants": ["x^2+y^2+z^2"],
            "constants": ["1"],
            "lifts": ["1"],
        }
    )
    assert orb.constants == sphere.constants
    assert orb.lifts == sphere.lifts
    assert orb.invariants == sphere.invariants
