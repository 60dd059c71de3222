import random
from fractions import Fraction

import pytest

from orbitstar import orbit as orbit_module
from orbitstar.envelope import NCPoly
from orbitstar.exprs import parse_hpoly
from orbitstar.lie import LieAlgebra
from orbitstar.linalg import LinearSystem
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
from orbitstar.scalars import H, H_ONE, HPoly, I

from conftest import named_algebra, rand_coeff


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
    # one lift per constant: none, or two for the one level
    for lifts in ([], [1, 1 + H]):
        with pytest.raises(ValueError, match="one lift per constant"):
            Orbit(su2, [p], [1], lifts)
    # a dimension-0 algebra has no coordinates to square
    with pytest.raises(ValueError, match="positive dimension"):
        Orbit(LieAlgebra([], {}), [CPoly.zero(0)], [1])
    # every polynomial is invariant on an abelian algebra, so the sum of
    # squares passes as an invariant, but its level set is no regular
    # coadjoint orbit of a compact semisimple group
    for dim in (1, 3):
        zero = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        abelian = LieAlgebra([f"A{i}" for i in range(dim)], zero)
        with pytest.raises(ValueError, match="^an orbit needs a semisimple algebra$"):
            sphere_orbit(1, algebra=abelian)
    # so(4) = su2 + su2 is semisimple of rank two: its sum of squares cuts out
    # a union of S^2 x S^2 orbits, not one regular orbit
    so4 = named_algebra("so4")
    with pytest.raises(ValueError, match="^only rank-one orbits .* dimension 6, not 3$"):
        sphere_orbit(1, algebra=so4)


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


_LIFT_H2_I = H_ONE * 2 + H * Fraction(1, 3) - H * H * I * Fraction(1, 5)


@pytest.mark.parametrize("lift, neighbor", [
    (None, None),
    (H_ONE * 2 + H * Fraction(1, 3), None),
    (_LIFT_H2_I, None),
    # an explicit lift= argument, as tangentiality_check passes it
    (_LIFT_H2_I, Fraction(5, 2)),
    # the level-0 neighbour of an h-free lift: every power of t but the
    # first evaluates to zero
    (None, 0),
], ids=["level", "h-part", "h2-and-i", "neighbor-lift", "zero-lift"])
def test_ideal_reduce_against_rescan_oracle(su2, lift, neighbor):
    rng = random.Random(35)
    orb = sphere_orbit(2, lift=lift)
    c = orb.lifts[0] if neighbor is None else orb.neighbor_lift(neighbor)
    kwargs = {} if neighbor is None else {"lift": c}
    for _ in range(4):
        u = NCPoly.zero(su2)
        for _ in range(3):
            w = tuple(sorted(rng.randrange(3) for _ in range(rng.randint(8, 10))))
            u = u + NCPoly.word(su2, w, rand_coeff(rng))
        q, r = orb.ideal_reduce(u, track_quotient=True, **kwargs)
        assert (q, r) == _rescan_ideal_reduce(orb, u, c)
        assert orb.ideal_reduce(u, **kwargs) == r
        assert q * orb.casimir_minus_lift(c) + r == u
        assert all(len(w) < 2 or w[-2] != 2 for w in r.terms)


def test_ideal_reduce_adds_single_powers_under_a_multi_power_lift(su2, monkeypatch):
    # the lift is held as a formal t, so no update adds a value of several
    # powers of h; multiplying it in at each rewrite would
    orb = sphere_orbit(2, lift=_LIFT_H2_I, algebra=su2)
    u = NCPoly.word(su2, (0, 1, 2, 2, 2, 2, 2, 2), Fraction(2, 3)) + NCPoly.word(
        su2, (1, 2, 2, 2, 2, 2), H)
    want = _rescan_ideal_reduce(orb, u, orb.lifts[0])
    sums = []
    add = HPoly.__add__
    monkeypatch.setattr(HPoly, "__add__", lambda a, b: sums.append((a, b)) or add(a, b))
    assert orb.ideal_reduce(u, track_quotient=True) == want
    assert sums and all(len(a.num) == len(b.num) == 1 for a, b in sums)


def test_ideal_reduce_memoizes_sums_of_squares(su2, monkeypatch):
    orb = sphere_orbit(2, lift=H_ONE * 2 + H * Fraction(1, 3), algebra=su2)
    u = NCPoly.word(su2, (0, 1, 2, 2, 2, 2), Fraction(2, 3)) + NCPoly.word(
        su2, (1, 1, 2, 2, 2))
    first = orb.ideal_reduce(u)
    assert (0, 1, 2, 2) in orb._squares and (1, 1, 2) in orb._squares
    for base, (nf, entries) in orb._squares.items():
        want = NCPoly(su2, {base + (0, 0): 1, base + (1, 1): 1}).normal_form()
        assert nf == want.terms
        # the heap entries: each word of base and nf that ends in Z Z
        assert [w for _, w in entries] == [
            w for w in (base, *nf) if len(w) >= 2 and w[-2] == 2]
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


@pytest.mark.parametrize("c0, lift", [(1, None), (2, HPoly((2, Fraction(1, 3))))])
def test_embeddings_return_canonical_elements(c0, lift):
    # split_embed and tangential_embed add products of ordered words and
    # normal-formed Casimir shifts, so neither needs a final normal form, and
    # the checks pass their images to ideal_reduce as they are
    orb = sphere_orbit(c0, lift=lift)
    for exps in monomials_up_to(3, 5):
        m = CPoly.monomial(3, exps)
        for embed in (orb.split_embed, orb.tangential_embed):
            u = embed(m)
            assert u.is_canonical()
            assert u == u.normal_form()


def _fresh_tangential_embed(orb, f):
    """The tangential embedding with (P - c(h))^k multiplied out afresh."""
    out, power, work = NCPoly.zero(orb.algebra), NCPoly.one(orb.algebra), f
    while not work.is_zero():
        quots, rem = poly_reduce(work, orb.basis_rule)
        out = out + orb.word_lift(rem) * power
        power = power * orb.casimir_minus_lift()
        work = quots[0]
    return out


def test_tangential_embed_against_fresh_powers(su2, xyz):
    x, y, z = xyz
    orb = sphere_orbit(2, lift=H_ONE * 2 + H * Fraction(1, 3), algebra=su2)
    gen = x * x + y * y + z * z - CPoly.constant(3, 2)
    f = x * gen * gen * gen + z
    assert orb.tangential_embed(f) == _fresh_tangential_embed(orb, f)
    rng = random.Random(36)
    for _ in range(8):
        f = CPoly.zero(3)
        for _ in range(3):
            exps = tuple(rng.randint(0, 3) for _ in range(3))
            f = f + CPoly.monomial(3, exps, rand_coeff(rng))
        assert orb.tangential_embed(f) == _fresh_tangential_embed(orb, f)


def _reducing_tangential_inverse(orb, u):
    """The tangential inverse as a loop of reductions: peel off the
    remainder modulo (P - c(h)) and go on with the quotient."""
    n = orb.algebra.dim
    out, power, work = CPoly.zero(n), CPoly.one(n), u
    while not work.is_zero():
        q, r = orb.ideal_reduce(work, track_quotient=True)
        out = out + orb.word_lower(r) * power
        power = power * orb.generator
        work = q
    return out


def _non_images(orb, rng):
    """Canonical elements that are not embedding images: products of two
    tangential images, and sums of nondecreasing words of length 6-10."""
    su2 = orb.algebra
    for _ in range(3):
        a, b = (orb.tangential_embed(CPoly.monomial(
            3, tuple(rng.randint(0, 2) for _ in range(3)), rand_coeff(rng)))
            for _ in range(2))
        yield a * b
    for _ in range(3):
        u = NCPoly.zero(su2)
        for _ in range(3):
            w = tuple(sorted(rng.randrange(3) for _ in range(rng.randint(6, 10))))
            u = u + NCPoly.word(su2, w, rand_coeff(rng))
        yield u


_LIFTS = pytest.mark.parametrize("c0, lift", [
    (1, None),
    (2, H_ONE * 2 + H * Fraction(1, 3)),
    (2, _LIFT_H2_I),
], ids=["unit", "h-part", "h2-and-i"])


@_LIFTS
def test_tangential_inverse_against_reducing_loop(su2, c0, lift):
    orb = sphere_orbit(c0, lift=lift, algebra=su2)
    for u in _non_images(orb, random.Random(37)):
        assert orb.tangential_embed_inverse(u) == _reducing_tangential_inverse(orb, u)


@_LIFTS
def test_expansion_in_powers_of_the_casimir(su2, c0, lift):
    orb = sphere_orbit(c0, lift=lift, algebra=su2)
    P = orb.casimirs[0]
    for u in _non_images(orb, random.Random(38)):
        parts, _ = orb._expand(u)
        total, power = NCPoly.zero(su2), NCPoly.one(su2)
        for part in parts:
            assert all(w.count(2) <= 1 for w in part)
            total = total + power * NCPoly(su2, part)
            power = power * P
        assert total == u


def test_tangential_inverse_expands_once(monkeypatch):
    orb = sphere_orbit(2, lift=_LIFT_H2_I)
    x = CPoly.variable(3, 0)
    f = x * orb.generator * orb.generator + x
    u = orb.tangential_embed(f)
    expand, calls = orb._expand, []
    monkeypatch.setattr(orb, "_expand", lambda *a: calls.append(a) or expand(*a))
    monkeypatch.setattr(orb, "ideal_reduce", None)
    assert orb.tangential_embed_inverse(u) == f
    assert len(calls) == 1


def test_tangential_embed_preserves_nearby_ideals(sphere):
    for shift in (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2)):
        assert sphere.tangentiality_check(
            sphere.tangential_embed, 1 + shift, 4
        ) is None


def test_split_embed_fails_off_its_orbit(sphere, su2, xyz):
    witness = sphere.tangentiality_check(sphere.split_embed, Fraction(5, 4), 5)
    assert set(witness) == {"cofactor", "remainder"}
    assert witness["cofactor"] == CPoly.monomial(3, (0, 1, 2))
    want = NCPoly(su2, {(0, 2): H * Fraction(1, 2), (1,): H * H * Fraction(1, 4)})
    assert witness["remainder"] == want


def test_split_embed_passes_on_its_orbit(sphere):
    assert sphere.tangentiality_check(sphere.split_embed, 1, 4) is None


def test_reduction_compatibility(sphere):
    for embed in (sphere.split_embed, sphere.tangential_embed):
        assert sphere.reduction_compatibility_check(embed, 4) is None


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
    assert report["failures"] == []


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
    assert sphere.first_order_check(y, x) == {"got": x * y - z * H,
                                               "expected": x * y - z * H}
    for p1, p2 in ((x * y, x), (CPoly.one(3), y * y)):
        res = sphere.first_order_check(p1, p2)
        assert res["got"] == res["expected"]
    with pytest.raises(ValueError):
        sphere.first_order_check(z, x)


def test_invariant_product_checks(sphere, su2, xyz):
    x, y, z = xyz
    p = x * x + y * y + z * z
    assert sphere.invariant_product_check(sphere.tangential_product(), 3) is None
    star_s = symmetrizer_product(su2)
    w = sphere.invariant_product_check(star_s, 3)
    assert set(w) == {"factor", "invariant", "got", "expected"}
    # the first-failing witness has a nonzero h^2 discrepancy
    got = w["got"] - w["expected"]
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


def _bidiff_by_linear_solve(orb, bound, zz_data):
    """bidifferential_obstruction's report from a linear solve: one column
    per ansatz coefficient b_uv times a basis monomial of degree <= bound,
    pinned by the coordinate pairs to the engine's B1(x_u, x_v), then the
    cleared (z, z) equation sum_uv b_uv x_u x_v = cleared value."""
    n = orb.algebra.dim
    star = orb.star_product()
    x, y, z = (CPoly.variable(n, i) for i in range(n))
    coords = [(0, x), (1, y)]
    b_values = {(iu, iv): star.bn(u, v, 1) for iu, u in coords for iv, v in coords}
    cleared_zz = zz_data if zz_data is not None else orb.orbit_reduce(z * z * star.bn(z, z, 1))
    cols = [(uv, exps) for uv in b_values for exps in star.monomial_basis(bound)]
    chart = {
        col: orb.orbit_reduce(CPoly.monomial(n, exps) * CPoly.variable(n, iu)
                              * CPoly.variable(n, iv))
        for col, ((iu, iv), exps) in enumerate(cols)
    }
    system = LinearSystem(len(cols))
    feasible = all(
        system.add_polys({col: CPoly.monomial(n, exps)
                          for col, (key, exps) in enumerate(cols) if key == uv}, val)
        for uv, val in b_values.items()
    ) and system.add_polys(chart, cleared_zz)
    forced = CPoly.zero(n)
    for (iu, iv), val in b_values.items():
        forced = forced + val * CPoly.variable(n, iu) * CPoly.variable(n, iv)
    return {
        "feasible": feasible,
        "certificate": None if feasible else orb.orbit_reduce(forced - cleared_zz),
        "coefficients": b_values,
        "degree_bound": bound,
    }


@pytest.mark.parametrize("level, lift", [
    (1, None), (2, None), (2, "2 + 1/3*h"), ("1/4", None), (1, "1 + h^2"),
], ids=["unit", "level-2", "level-2-lift", "level-1/4", "lift-1+h^2"])
def test_bidifferential_obstruction_against_linear_solve(xyz, level, lift):
    # the bound-0 row with the -x*y*z control is feasible only if the degree
    # test is skipped: the forced b_yx = -z has degree 1
    x, y, z = xyz
    orb = sphere_orbit(level, lift=None if lift is None else parse_hpoly(lift))
    controls = [None, x * y * z, -(x * y * z), CPoly.zero(3), x * x, z * z * x, z ** 3]
    for bound in range(6):
        for zz_data in controls:
            assert (orb.bidifferential_obstruction(bound, zz_data)
                    == _bidiff_by_linear_solve(orb, bound, zz_data)), (bound, zz_data)


def test_tangential_product_works_with_any_lift(su2, xyz):
    x, y, z = xyz
    p = x * x + y * y + z * z
    orb = sphere_orbit(1, lift=H_ONE + H * H)
    assert orb.tangential_product().star(x * y, p) == x * y * p


def test_level_strings_follow_the_expression_grammar(sphere):
    # a Python caller's level string reads as --c and a config constant do
    assert sphere_orbit("1/4").constants == (Fraction(1, 4),)
    assert sphere.neighbor_lift("3/2") == Fraction(3, 2)
    for text in ("1.5", "1_0"):
        with pytest.raises(ValueError):
            sphere_orbit(text)
    with pytest.raises(ValueError):
        sphere.neighbor_lift("1e1")


@pytest.mark.parametrize("field, value", [
    ("invariants", "x^2+y^2+z^2"), ("constants", "2"), ("lifts", "2"),
    ("constants", 2),
], ids=["invariants", "constants", "lifts", "constants-number"])
def test_orbit_from_json_rejects_non_lists(field, value):
    # "constants": "2" would otherwise load as ["2"], and "12" as ["1", "2"]
    data = {"algebra": "su2", "invariants": ["x^2+y^2+z^2"], "constants": ["2"],
            field: value}
    with pytest.raises(ValueError, match=f"^{field} must be a JSON list, not "):
        orbit_from_json(data)


def test_orbit_from_json_without_lifts_lifts_the_constant(sphere):
    for extra in ({}, {"lifts": []}):
        orb = orbit_from_json({"invariants": ["x^2+y^2+z^2"], "constants": ["1"],
                               **extra})
        assert orb.lifts == sphere.lifts


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
