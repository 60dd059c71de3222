import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import named_algebra, rand_coeff
from orbitstar import quantize, scalars
from orbitstar.envelope import NCPoly, word_exps
from orbitstar.exprs import format_cpoly, parse_expression
from orbitstar.lie import LieAlgebra, predefined
from orbitstar.orbit import sphere_orbit
from orbitstar.poly import CPoly, acc_term, monomials_up_to
from orbitstar.quantize import (
    StarProduct,
    check_deformation_axioms,
    gauge_defect,
    gauge_step,
    pbw_basis_product,
    sym_inverse,
    symmetrize,
    symmetrizer_product,
)
from orbitstar.scalars import H, H_ONE, HPoly, I


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


@pytest.mark.parametrize("name, scale, degree", [
    ("su3", Fraction(2, 3), 3),
    ("so4", Fraction(1, 2), 4),
], ids=["su3-2/3", "so4-1/2"])
def test_symmetrize_against_permutation_oracle_non_integer_constants(name, scale, degree):
    # the compact su3 and so(4) constants are integers; scaled, the
    # recursion's 1/p weights meet fractional brackets
    L = named_algebra(name, scale)
    assert any(v.den != 1 for plane in L.c for row in plane for v in row)
    for exps in monomials_up_to(L.dim, degree):
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


@pytest.mark.parametrize("name, length", [
    ("su2", 6), ("sl2", 6), ("so4", 4), ("su3", 4),
], ids=["su2", "sl2", "so4", "su3"])
def test_sym_inverse_against_peeling_oracle(name, length):
    # the table's integer rows against the descent, on every ordered word of
    # the given length or less and on seeded combinations of them
    L = named_algebra(name)
    words = [tuple(i for i, e in enumerate(exps) for _ in range(e))
             for exps in monomials_up_to(L.dim, length)]
    assert len(words) == math.comb(L.dim + length, length)
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
    assert all(isinstance(den, int) and isinstance(items, tuple) for den, items in table.values())
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


def _direct_sym(L):
    """The symmetrizer product built directly: it computes every ordered
    pair, with no mirrored rows."""
    return StarProduct(L, lambda f: symmetrize(L, f), lambda u: sym_inverse(L, u))


def _count_u_products(monkeypatch):
    """A list that gains an entry per product of two NCPolys."""
    calls = []
    mul = NCPoly.__mul__
    monkeypatch.setattr(NCPoly, "__mul__", lambda u, v: (
        calls.append(1) if isinstance(v, NCPoly) else None) or mul(u, v))
    return calls


@pytest.mark.parametrize("name, scale, degree", [
    ("su2", 1, 3), ("sl2", 1, 3), ("so4", 1, 3), ("su3", 1, 2),
    ("su2", Fraction(1, 2) + I, 3),
], ids=["su2", "sl2", "so4", "su3", "su2-complex"])
def test_sym_parity_against_direct_product(name, scale, degree, monkeypatch):
    # B_n(a, b) = (-1)^n B_n(b, a): read (a, b) and then (b, a), so the
    # second row is mirrored from the first, and compare both with the
    # product built directly
    L = named_algebra(name, scale)
    sym = symmetrizer_product(L)
    direct = _direct_sym(L)
    basis = monomials_up_to(L.dim, degree)
    calls = _count_u_products(monkeypatch)
    for a, b in itertools.combinations_with_replacement(basis, 2):
        for pair in ((a, b), (b, a)):
            assert sym.pair_product(*pair) == direct.pair_product(*pair), pair
    n = len(basis)
    # one U-product per unordered pair for sym, one per ordered pair directly
    assert len(calls) == n * (n + 1) // 2 + n * n


def test_sym_mirrors_nothing_without_jacobi(monkeypatch):
    # the broken su2's rewriting is not confluent, so parity may fail: its
    # product builds every ordered pair and agrees with a direct product
    from test_verify import _broken_su2

    L = _broken_su2()
    sym = symmetrizer_product(L)
    direct = _direct_sym(L)
    basis = monomials_up_to(3, 2)
    calls = _count_u_products(monkeypatch)
    for a, b in itertools.product(basis, repeat=2):
        assert sym.pair_product(a, b) == direct.pair_product(a, b)
    assert len(calls) == 2 * len(basis) ** 2


def test_sym_fills_one_u_product_per_unordered_pair(su2, monkeypatch):
    calls = _count_u_products(monkeypatch)
    star = symmetrizer_product(su2)
    f = parse_expression("x + y*z - 2*x^2 + h*z", algebra=su2)
    g = parse_expression("y^2 + (1 + i)*x*z - 3", algebra=su2)
    star.star(f, g)
    assert len(calls) == len(f.terms) * len(g.terms) == 12
    # every pair of g * f is the reverse of a stored one
    gf = star.star(g, f)
    assert len(calls) == 12
    axioms = symmetrizer_product(su2)
    assert check_deformation_axioms(axioms, 4, 5)["failures"] == []
    unordered = {tuple(sorted(pair)) for pair in axioms._pair_cache}
    assert len(calls) - 12 == len(unordered) < len(axioms._pair_cache)
    assert gf == _direct_sym(su2).star(g, f)


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
    assert report["failures"] == []
    assert "passed" not in report


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
    assert any(f["property"] == "product-mod-h" for f in report["failures"])


def _reference_axioms(star, degree_bound, assoc_degree):
    """check_deformation_axioms' report from a plain loop that multiplies
    every pair and both sides of every triple afresh."""
    fmt = lambda p: format_cpoly(p, star.algebra.varnames)
    basis = star.monomial_basis(max(degree_bound, assoc_degree))
    mono = lambda e: CPoly.monomial(star.nvars, e)
    failures, pairs, triples = [], 0, 0
    for e1, e2 in itertools.product(basis, repeat=2):
        if sum(e1) + sum(e2) > degree_bound:
            continue
        pairs += 1
        f, g = mono(e1), mono(e2)
        fg, want0 = star.star(f, g), star.b0(f, g)
        if fg.h_coefficient(0) != want0:
            failures.append({"property": "product-mod-h", "pair": (fmt(f), fmt(g)),
                             "expected": fmt(want0), "got": fmt(fg.h_coefficient(0))})
        comm, want1 = fg - star.star(g, f), star.bracket(f, g)
        if not comm.h_coefficient(0).is_zero() or comm.h_coefficient(1) != want1:
            failures.append({"property": "commutator-mod-h2", "pair": (fmt(f), fmt(g)),
                             "expected": fmt(want1), "got": fmt(comm.h_coefficient(1))})
    for e1, e2, e3 in itertools.product(basis, repeat=3):
        if sum(e1) + sum(e2) + sum(e3) > assoc_degree:
            continue
        triples += 1
        f, g, k = mono(e1), mono(e2), mono(e3)
        left, right = star.star(star.star(f, g), k), star.star(f, star.star(g, k))
        if left != right:
            failures.append({"property": "associativity", "pair": (fmt(f), fmt(g), fmt(k)),
                             "expected": fmt(right), "got": fmt(left)})
    return {"failures": failures, "pairs": pairs, "triples": triples}


def _inject(star, pair, fault):
    """Add the text fault to the pair table's x^e1 * x^e2, written as a row
    through the conversion star itself uses; returns the faulty product."""
    wrong = star.pair_product(*pair) + parse_expression(fault, algebra=star.algebra)
    star._pair_cache[pair] = quantize._row(wrong.terms)
    assert star.pair_product(*pair) == wrong
    return wrong


def test_axiom_checker_report_matches_plain_loop(su2):
    star = symmetrizer_product(su2)
    # x * y gains h^2 z in the pair table: the pair checks (mod h, and the
    # commutator mod h^2) still pass, but associativity fails
    _inject(star, ((1, 0, 0), (0, 1, 0)), "h^2*z")
    report = check_deformation_axioms(star, 2, assoc_degree=3)
    assert {f["property"] for f in report["failures"]} == {"associativity"}
    assert report == _reference_axioms(star, 2, 3)


@pytest.mark.parametrize("pair, fault, properties", [
    (((1, 0, 0), (0, 1, 0)), "(2 + i)*h^3*y", {"associativity"}),
    # x * y gains h z: its commutator with y * x is off at h^1
    (((1, 0, 0), (0, 1, 0)), "1/3*h*z", {"commutator-mod-h2", "associativity"}),
    # x * x gains z at h^0: the product is off mod h, its commutator is not
    (((1, 0, 0), (1, 0, 0)), "-i*z", {"product-mod-h", "associativity"}),
], ids=["associativity", "commutator-mod-h2", "product-mod-h"])
@pytest.mark.parametrize("kind", ["sym", "orbit"])
def test_axiom_checker_reports_each_injected_fault(kind, su2, pair, fault, properties):
    # the checker's integer sums find the fault and report it as the plain
    # loop of star products does, witnesses included
    star = _product(kind, su2)
    _inject(star, pair, fault)
    report = check_deformation_axioms(star, 2, assoc_degree=3)
    assert {f["property"] for f in report["failures"]} == properties
    assert report == _reference_axioms(star, 2, 3)


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


def _gauge_report_text(res):
    """Every field of a gauge_step report, operator images printed."""
    lines = [f"{k}={res[k]!r}" for k in ("feasible", "order", "degree_bound", "unknowns")]
    if res["feasible"]:
        lines.append(f"rank={res['rank']}")
        for e in sorted(res["operator"]):
            lines.append(f"{e}: {format_cpoly(res['operator'][e], 'xyz')}")
    else:
        lines.append(f"witness={res['witness_pair']!r}")
    return "\n".join(lines)


def _gauge_pair(su2, name):
    if name == "sym-pbw":
        return symmetrizer_product(su2), pbw_basis_product(su2)
    orb = sphere_orbit(1).star_product()
    if name == "orbit-lifts":
        return orb, sphere_orbit(1, lift=H_ONE + H).star_product()
    if name == "lifts-h2":
        return orb, sphere_orbit(1, lift=H_ONE + H ** 2).star_product()
    if name == "lifts-h3":
        return orb, sphere_orbit(1, lift=H_ONE + H ** 3).star_product()
    if name == "sym-sym":
        return symmetrizer_product(su2), symmetrizer_product(su2)
    return orb, orb


def _gauge_chain(star_a, star_b, bound, order):
    """gauge_step at orders 1..order, each extending the operators found
    before; the reports, ending at the first infeasible one."""
    reports, t_ops = [], []
    for n in range(1, order + 1):
        reports.append(gauge_step(star_a, star_b, n, bound, t_partial=t_ops))
        if not reports[-1]["feasible"]:
            break
        t_ops.append(reports[-1]["operator"])
    return reports


@pytest.mark.parametrize("name, bound, order, digest", [
    ("sym-pbw", 2, 1, "ec33c6424a7b61cec6f7afc79b6b56de81d028e50ecd93314c2069cf1941da9a"),
    ("sym-pbw", 2, 2, "687d7c8315c49c4ce18fbcda1ea2a7efcf9f522a624b7f570557e86c16bb1bc5"),
    ("sym-pbw", 3, 1, "819d884e62117b28690ad92a3a43932e4623f0fe18dae5a6f6e691b5e12e5905"),
    ("sym-pbw", 3, 2, "6aa68b11bae7c7c0c8b07d70a64174d6f32a39ffd8b458824ad2d4c8b9f65db3"),
    ("orbit-lifts", 2, 1, "b30f9c5e00134411fd6a3d7054b6f6b44d83797ac63c79213e637a97a3c3d5db"),
    ("orbit-lifts", 2, 2, "f8a75fceb48c6f31a39a1372a4f72527471392849cbaded1cb01d2e2dd011a9c"),
    ("orbit-lifts", 3, 1, "702bea0ff8360ed281fe0965b95f1ddeb270851cfd027c29d6f9da1dee380980"),
    ("orbit-lifts", 3, 2, "a504693aa28ff1c0cfdade81c8d948e13d1ce453c7f1148d301efb04f3ba60d9"),
    ("sym-sym", 3, 1, "9f6d578a2058843ae1988098a8d5082353ed0630f01f41e6c7bd56daa79aa1be"),
    ("orbit-orbit", 2, 1, "38217b53f35ecb6d8a4d2dc974f34a2370221a12bca449fd7ce18058af63d3de"),
    # order 3: sym-pbw feasible (rank 0, 60 unknowns); lifts 1 vs 1 + h^2
    # infeasible at ((y, x), z); lifts 1 vs 1 + h^3 feasible (rank 36, 75
    # unknowns) at order 3 and infeasible at ((y, x), z) at order 4
    ("sym-pbw", 3, 3, "ca32bf0eaa77f38ed57f6b9033d2c8b5b1cafcdd69af97a25724ee5803581664"),
    ("lifts-h2", 3, 3, "16c71f254d3bd08c8e6a0593df90d7ac93563ed25729d321cda74eae13920b2e"),
    ("lifts-h3", 4, 3, "aa8a36ac4675f90c4286d02c38c84fd6cc6d3d41062f7c5bde3dec23360ff03b"),
    ("lifts-h3", 4, 4, "33db75a7269be9a45410bdd0737bfdfc6880a199de6c52ff53415b15097a6233"),
])
def test_gauge_step_report_digests(su2, name, bound, order, digest):
    # the whole report (images, rank, unknowns, witness) is pinned byte for
    # byte, so a rewrite of the solver must reproduce it exactly
    reports = _gauge_chain(*_gauge_pair(su2, name), bound, order)
    assert len(reports) == order
    text = _gauge_report_text(reports[-1])
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


def test_gauge_chain_fills_one_b0_table(su2):
    # the products b0(x^b, x^f) of basis monomials are kept on the product,
    # so the chain 1 vs 1 + h^3 at bound 4 computes each of them once over
    # orders 1-4 (one table per gauge_step made 575, 575, 575 and 494 calls)
    star_a, star_b = _gauge_pair(su2, "lifts-h3")
    calls = []
    b0 = star_a.b0
    star_a.b0 = lambda f, g: calls.append((f, g)) or b0(f, g)
    reports = _gauge_chain(star_a, star_b, 4, 4)
    assert [res["feasible"] for res in reports] == [True, True, True, False]
    assert len(calls) == 575


def _reference_defect(star_a, star_b, t_ops, m, f, g):
    """The order-m gauge defect summed term by term, one star product per
    (i, j): sum_{i+j+k=m} B_b,k(T_i f, T_j g) - sum_{i+k=m} T_i(B_a,k(f, g)),
    T_0 the identity and T_i = t_ops[i - 1] for i <= len(t_ops)."""
    top = min(m, len(t_ops))
    T = lambda i, p: p if i == 0 else _apply(t_ops[i - 1], p)
    acc = CPoly.zero(f.nvars)
    for i in range(top + 1):
        for j in range(min(m - i, len(t_ops)) + 1):
            acc = acc + star_b.bn(T(i, f), T(j, g), m - i - j)
    for i in range(top + 1):
        acc = acc - T(i, star_a.bn(f, g, m - i))
    return acc


@pytest.mark.parametrize("name", ["sym-pbw", "lifts-h2"])
def test_gauge_defect_matches_the_term_by_term_sum(su2, name):
    # every order-n step of the chain at bound 3, every pair in the bound:
    # each h^m coefficient, m = 0..n, of the one series equals the sum
    star_a, star_b = _gauge_pair(su2, name)
    reports = _gauge_chain(star_a, star_b, 3, 3)
    assert len(reports) == 3
    basis = star_a.monomial_basis(3)
    for n in range(1, 4):
        t_ops = [res["operator"] for res in reports[:n - 1]]
        for e1 in basis:
            for e2 in basis:
                if sum(e1) + sum(e2) > 3:
                    continue
                f, g = CPoly.monomial(3, e1), CPoly.monomial(3, e2)
                series = gauge_defect(star_a, star_b, t_ops, f, g)
                for m in range(n + 1):
                    assert series.h_coefficient(m) == _reference_defect(
                        star_a, star_b, t_ops, m, f, g), (n, m, e1, e2)


def test_gauge_step_rejects_bad_partial(su2):
    star_s = symmetrizer_product(su2)
    pbw = pbw_basis_product(su2)
    # a wrong T_1 cannot make the products agree at order h
    basis = star_s.monomial_basis(2)
    bogus = {e: CPoly.monomial(3, e) for e in basis}  # T_1 = Id, not a fix
    with pytest.raises(ValueError) as err:
        gauge_step(star_s, pbw, 2, 2, t_partial=[bogus])
    assert str(err.value) == ("inconsistent t_partial: products disagree at "
                              "order h^1 on (0, 0, 0), (0, 0, 0)")


def _bad_partial(star_s, pbw, case):
    """Operators T_1..T_{n-1} that do not intertwine sym and pbw, and n."""
    T1 = gauge_step(star_s, pbw, 1, 2)["operator"]
    T2 = gauge_step(star_s, pbw, 2, 2, t_partial=[T1])["operator"]
    mono = lambda e: CPoly.monomial(3, e)
    wrong_y = {**T1, (0, 1, 0): T1[(0, 1, 0)] + mono((1, 0, 0))}
    wrong_x = {**T1, (1, 0, 0): T1[(1, 0, 0)] + mono((0, 1, 0))}
    wrong_z = {**T2, (0, 0, 1): T2[(0, 0, 1)] + 1}
    return {"T1 at y": (2, [wrong_y]),
            "T2 at z": (3, [T1, wrong_z]),
            "T1 at x, T2 at z": (3, [wrong_x, wrong_z])}[case]


@pytest.mark.parametrize("case, message", [
    ("T1 at y", "order h^1 on (0, 0, 1), (0, 1, 0)"),
    ("T2 at z", "order h^2 on (0, 0, 1), (0, 0, 1)"),
    # order h^2 fails first at ((0, 0, 1), (0, 0, 1)), an earlier pair, but
    # order h^1 is checked on every pair before order h^2
    ("T1 at x, T2 at z", "order h^1 on (0, 0, 1), (1, 0, 0)"),
])
def test_gauge_step_reports_the_first_disagreement(su2, case, message):
    # lowest order first, then pairs in basis order
    star_s = symmetrizer_product(su2)
    pbw = pbw_basis_product(su2)
    n, t_ops = _bad_partial(star_s, pbw, case)
    with pytest.raises(ValueError) as err:
        gauge_step(star_s, pbw, n, 2, t_partial=t_ops)
    assert str(err.value) == f"inconsistent t_partial: products disagree at {message}"


@pytest.mark.parametrize("n", [0, -1])
def test_gauge_step_rejects_order_below_one(su2, n):
    star = symmetrizer_product(su2)
    with pytest.raises(ValueError) as err:
        gauge_step(star, star, n, 2)
    assert str(err.value) == f"gauge order must be at least 1, not {n}"


def _bilinear_star(star, f, g):
    """The star product summed term by term with plain CPoly arithmetic."""
    out = CPoly.zero(star.nvars)
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            out = out + star.pair_product(e1, e2) * (c1 * c2)
    return out


PRODUCTS = ["sym", "pbw", "orbit", "tangential", "split"]


def _product(kind, L):
    if kind == "sym":
        return symmetrizer_product(L)
    if kind == "pbw":
        return pbw_basis_product(L)
    orb = sphere_orbit(2, lift=HPoly([2, Fraction(1, 3)]), algebra=L)
    return {"orbit": orb.star_product, "tangential": orb.tangential_product,
            "split": orb.split_product}[kind]()


# Inputs in the orbit products' basis.  star sums the rows of its pairs as
# integers, each row's powers of h shifted by the weight's; each case names
# what the sum does.
STAR_CASES = [
    # several weights, h-carrying coefficients
    ("x + 1/2*y^2 + h*z", "3/4*x*z - 2/3*y + (1+h)*x"),
    # multi-power coefficients on both sides
    ("(1 + h + 1/3*h^2)*x + h^2*y - (2/5 - h)*x*y", "(2 - h)*z + 1/5*h*x*y + (i + h)"),
    # under sym, x^2 gets 1 + h at weight 2 and -h at weight 3: h cancels
    ("(1+h)*x - h", "x + x^2"),
    # under sym, a key cancels across weights and another keeps one power
    ("(1 - h)*x^2*z - h*x*y*z + y^2*z", "-h*x^2 - h*x*y"),
    # under orbit, x*y^2 cancels across weights
    ("h*x + h*y + h*x*z", "(1+h)*y^2 - x*y"),
    # a single monomial pair: one weight, returned as summed
    ("x*y", "-1/2*h*z"),
    # x*y cancels to exact zero between the pairs (x, -y) and (y, x)
    ("x + y", "x - y"),
    # complex weights: the cross terms cancel the real part of x*y
    ("x + i*y", "x - i*y"),
    # h-carrying weights shift each row's powers of h, and cancel at h^0
    ("h^2*x + (1/3 - h)*y", "i*h*y - 1/3*x"),
]


def _against_bilinear_oracle(star, L):
    """star agrees with the term-by-term sum on STAR_CASES and on seeded
    draws whose coefficients carry h, and keeps no zero coefficient."""
    basis = star.monomial_basis(3)
    rng = random.Random(43)
    pairs = [tuple(parse_expression(t, algebra=L) for t in case)
             for case in STAR_CASES]
    for _ in range(12):
        f, g = (
            CPoly(3, {
                e: H_ONE if rng.random() < 0.3 else rand_coeff(rng) * H ** rng.randint(0, 2)
                for e in rng.sample(basis, rng.randint(1, 4))
            })
            for _ in range(2)
        )
        pairs.append((f, g))
    for f, g in pairs:
        for left, right in ((f, g), (g, f), (f, f - f), (f + g, f - g)):
            got = star.star(left, right)
            assert got == _bilinear_star(star, left, right)
            assert all(got.terms.values())
    return pairs


@pytest.mark.parametrize("kind", PRODUCTS)
def test_star_against_bilinear_oracle(kind, su2):
    star = _product(kind, su2)
    pairs = _against_bilinear_oracle(star, su2)
    if kind == "sym":
        f, g = pairs[2]
        assert star.star(f, g) == parse_expression("x^2 + (1+h)*x^3 - h*x",
                                                   algebra=su2)


@pytest.mark.parametrize("kind", PRODUCTS)
def test_star_against_bilinear_oracle_complex_brackets(kind, su2):
    # su2 with every bracket times 1/2 + i: a row with a bracket term has
    # imaginary parts, so complex weights meet it in both cross terms
    scale = Fraction(1, 2) + I
    L = LieAlgebra(su2.names, [[[v * scale for v in row] for row in plane]
                               for plane in su2.c])
    star = _product(kind, L)
    _, items = star._star_monomials((0, 1, 0), (1, 0, 0))
    assert any(im for _, _, im in items)
    _against_bilinear_oracle(star, L)


@pytest.mark.parametrize("kind", ["sym", "pbw"])
def test_graded_star_adds_each_update_at_one_power(kind, su2):
    # in a graded product (deg x_i = deg h = 1) every item of a pair's row
    # sits at the pair's weight, |exps| + k = |e1| + |e2|, so one weight of
    # c1*c2 puts each update of star at one power of h
    star = _product(kind, su2)
    f = parse_expression("x + h*y + 1/2*h^2*z + 3*x*y - 2/3*h*y*z", algebra=su2)
    g = parse_expression("y + x - h + 1/3*h*x^2 + 5/7*h^2*z", algebra=su2)
    assert star.star(f, g) == _bilinear_star(star, f, g)
    assert len(star._pair_cache) == len(f.terms) * len(g.terms)
    for (e1, e2), (_, items) in star._pair_cache.items():
        assert {sum(exps) + k for (exps, k), _, _ in items} == {sum(e1) + sum(e2)}


@pytest.mark.parametrize("kind", PRODUCTS)
def test_warm_star_does_no_hpoly_arithmetic(kind, su2, monkeypatch):
    # on a warm pair table star is one integer multiply-accumulate over the
    # rows: no Q(i)[h] product or sum, only one HPoly built per monomial
    star = _product(kind, su2)
    f = parse_expression("x + h*y + 1/2*h^2*z + 3*x*y - 2/3*h*y*z", algebra=su2)
    g = parse_expression("y + (i - h)*x - h + 1/3*h*x^2 + 5/7*h^2*z", algebra=su2)
    want = _bilinear_star(star, f, g)

    def refuse(*args):
        raise AssertionError("HPoly arithmetic in a warm star")

    for name in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__"):
        monkeypatch.setattr(scalars.HPoly, name, refuse)
    monkeypatch.setattr(scalars, "_sum", refuse)
    monkeypatch.setattr(scalars, "_canonical", refuse)
    assert star.star(f, g) == want


def test_orbit_star_domain_memo_still_rejects(su2, xyz):
    x, y, z = xyz
    star = sphere_orbit(1, algebra=su2).star_product()
    assert star.star(x * z, y) == star.star(x * z, y)
    for _ in range(2):
        with pytest.raises(ValueError):
            star.star(z * z, x)
        with pytest.raises(ValueError):
            star.star(x, x + z * z)


def test_orbit_star_domain_is_its_image_table(su2, xyz):
    # a monomial enters the product through its image table, which checks the
    # domain on a miss: a fresh product and one whose tables are warm both
    # reject z^2 on either side, also against a zero factor
    x, y, z = xyz
    zero = CPoly.zero(3)
    star = sphere_orbit(1, algebra=su2).star_product()
    for warm in (False, True):
        for f, g in ((z * z, zero), (zero, z * z), (x, z * z)):
            with pytest.raises(ValueError, match=r"basis span: \(0, 0, 2\)$"):
                star.star(f, g)
        if not warm:
            assert not check_deformation_axioms(star, 2, assoc_degree=3)["failures"]
    assert star._images
    assert all(e[-1] <= 1 for e in star._images)


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
