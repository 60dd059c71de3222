import operator
import random
from fractions import Fraction

import pytest

from orbitstar.envelope import NCPoly, multiply_at, substitute_generators
from orbitstar.lie import algebra_from_json, predefined
from orbitstar.poly import CPoly, product
from conftest import rand_coeff
from orbitstar.scalars import H, H_ONE, HPoly, I


def test_normal_form_goldens(su2):
    assert NCPoly.word(su2, (1, 0)).normal_form() == NCPoly(
        su2, {(0, 1): H_ONE, (2,): -H}
    )
    assert NCPoly.word(su2, (2, 0)).normal_form() == NCPoly(
        su2, {(0, 2): H_ONE, (1,): H}
    )
    assert NCPoly.word(su2, (2, 1)).normal_form() == NCPoly(
        su2, {(1, 2): H_ONE, (0,): -H}
    )


def test_sorted_word_is_fixed(su2):
    xx = NCPoly.word(su2, (0, 0))
    assert xx.normal_form() == xx
    assert xx.is_canonical()


def test_commutator_golden(su2):
    X = NCPoly.generator(su2, 0)
    Y = NCPoly.generator(su2, 1)
    Z = NCPoly.generator(su2, 2)
    assert X * Y - Y * X == Z * H


def test_unit(su2):
    a = NCPoly.word(su2, (2, 1, 0))
    assert NCPoly.one(su2) * a == a.normal_form()


def test_multiply_matches_reassociation(su2):
    X = NCPoly.generator(su2, 0)
    Y = NCPoly.generator(su2, 1)
    Z = NCPoly.generator(su2, 2)
    assert (X * Y) * Z == X * (Y * Z)


def test_associativity_random_words(su2):
    rng = random.Random(5)
    for _ in range(60):
        words = [
            tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
            for _ in range(3)
        ]
        a, b, c = (NCPoly.word(su2, w) for w in words)
        assert (a * b) * c == a * (b * c)


def test_confluence_on_random_words(su2):
    rng = random.Random(6)
    for _ in range(80):
        w = tuple(rng.randrange(3) for _ in range(rng.randint(2, 6)))
        e = NCPoly.word(su2, w)
        assert e.normal_form("leftmost") == e.normal_form("rightmost")


def test_confluence_witness_yxz(su2):
    e = NCPoly.word(su2, (1, 0, 2))
    assert e.normal_form("leftmost") == e.normal_form("rightmost")


def test_is_central(su2, casimir_word):
    assert casimir_word.is_central()
    assert NCPoly.one(su2).is_central()
    assert not NCPoly.generator(su2, 0).is_central()


def test_graded_degree(su2):
    assert NCPoly(su2, {(2,): H}).graded_degree() == 2
    assert NCPoly.word(su2, (0, 0, 1)).graded_degree() == 3
    nf = NCPoly.word(su2, (1, 0)).normal_form()
    assert nf.graded_degree() == 2
    assert nf.is_graded_homogeneous()
    assert NCPoly.zero(su2).graded_degree() is None


def test_grading_preserved_on_homogeneous_input(su2):
    rng = random.Random(7)
    for _ in range(40):
        w = tuple(rng.randrange(3) for _ in range(rng.randint(1, 6)))
        nf = NCPoly.word(su2, w).normal_form()
        assert nf.is_graded_homogeneous()
        assert nf.graded_degree() == len(w)


def test_specialize_examples(su2):
    nf = NCPoly.word(su2, (1, 0)).normal_form()  # XY - hZ
    assert nf.specialize(1) == NCPoly(su2, {(0, 1): H_ONE, (2,): -H_ONE})
    assert NCPoly(su2, {(2,): H}).specialize(Fraction(1, 2)) == NCPoly(
        su2, {(2,): Fraction(1, 2)}
    )
    # at h=0 only the commutative shadow survives
    assert nf.specialize(0) == NCPoly(su2, {(0, 1): H_ONE})


def test_specialize_commutes_with_multiplication(su2):
    rng = random.Random(8)
    for _ in range(25):
        terms_a = {
            tuple(rng.randrange(3) for _ in range(rng.randint(0, 3))):
                HPoly([rng.randint(-2, 2), rng.randint(-2, 2)])
            for _ in range(3)
        }
        terms_b = {
            tuple(rng.randrange(3) for _ in range(rng.randint(0, 3))):
                HPoly([rng.randint(-2, 2)])
            for _ in range(3)
        }
        a, b = NCPoly(su2, terms_a), NCPoly(su2, terms_b)
        h0 = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        assert (a * b).specialize(h0) == multiply_at(
            a.specialize(h0), b.specialize(h0), h0
        )


def test_project_h0(su2, casimir_word):
    nf = NCPoly.word(su2, (1, 0)).normal_form()
    x, y = CPoly.variable(3, 0), CPoly.variable(3, 1)
    assert nf.project_h0() == x * y
    p = CPoly.variable(3, 0) ** 2 + CPoly.variable(3, 1) ** 2 + CPoly.variable(3, 2) ** 2
    assert casimir_word.project_h0() == p
    assert NCPoly(su2, {(2,): H}).project_h0().is_zero()


def test_project_h0_is_multiplicative(su2):
    rng = random.Random(9)
    for _ in range(30):
        a = NCPoly(su2, {
            tuple(rng.randrange(3) for _ in range(rng.randint(0, 4))):
                HPoly([rng.randint(-3, 3), rng.randint(-1, 1)])
            for _ in range(3)
        })
        b = NCPoly(su2, {
            tuple(rng.randrange(3) for _ in range(rng.randint(0, 4))):
                HPoly([rng.randint(-3, 3)])
            for _ in range(3)
        })
        assert (a * b).project_h0() == a.project_h0() * b.project_h0()


def test_substitute_generators_is_multiplicative(su2, sl2):
    X, Y, Z = (NCPoly.generator(su2, k) for k in range(3))
    images = [X * I + Y, Z * (2 * I), X * I - Y]  # F, H, E
    rng = random.Random(10)
    for _ in range(15):
        a = NCPoly.word(sl2, tuple(rng.randrange(3) for _ in range(rng.randint(1, 3))))
        b = NCPoly.word(sl2, tuple(rng.randrange(3) for _ in range(rng.randint(1, 3))))
        lhs = substitute_generators(a * b, images)
        rhs = substitute_generators(a, images) * substitute_generators(b, images)
        assert lhs == rhs


def test_algebra_mismatch_rejected(su2, sl2):
    with pytest.raises(ValueError):
        NCPoly.generator(su2, 0) * NCPoly.generator(sl2, 0)


def test_word_exps_requires_canonical(su2):
    # colliding words, and a single out-of-order word with no collision
    for terms in ({(1, 0): H_ONE, (0, 1): H_ONE}, {(1, 0): H_ONE}):
        with pytest.raises(ValueError):
            NCPoly(su2, terms).word_exps()


def _rand_element(rng, L):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = tuple(rng.randrange(L.dim) for _ in range(rng.randint(0, 4)))
        terms[word] = H_ONE if rng.random() < 0.3 else rand_coeff(rng)
    # c*(X_i X_j - X_j X_i) makes the X_i X_j terms cancel in the product
    i, j = rng.sample(range(L.dim), 2)
    c = rand_coeff(rng)
    terms[(i, j)] = c
    terms[(j, i)] = -c
    return NCPoly(L, terms)


@pytest.mark.parametrize("name", ["su2", "sl2"])
def test_product_against_concat_oracle(name, su2, sl2):
    L = {"su2": su2, "sl2": sl2}[name]
    rng = random.Random(41)
    X, Y = NCPoly.generator(L, 0), NCPoly.generator(L, 1)
    # Y X - X Y + h [X, Y]: zero in the algebra, not as a sum of words
    null = NCPoly(L, {(1, 0): H_ONE, (0, 1): -H_ONE}) + (X * Y - Y * X)
    assert len(null.terms) >= 3 and null.normal_form().is_zero()
    for _ in range(25):
        a, b = _rand_element(rng, L), _rand_element(rng, L)
        for left, right in ((a, b), (b, a), (a, null), (null, b)):
            got = left * right
            raw = NCPoly(L, product(left.terms, right.terms, operator.add))
            assert got == raw.normal_form("rightmost")
            assert all(got.terms.values())
            assert got.is_canonical()
    assert (a * null).is_zero()


def test_unit_coefficient_identity_is_only_a_shortcut(su2):
    rng = random.Random(42)
    fresh_one = HPoly((1,))
    assert fresh_one == H_ONE and fresh_one is not H_ONE
    for _ in range(10):
        a, b = _rand_element(rng, su2), _rand_element(rng, su2)
        a_fresh = NCPoly(su2, {w: fresh_one if c is H_ONE else c
                               for w, c in a.terms.items()})
        assert a_fresh * b == a * b
        assert b * a_fresh == b * a
        assert a * fresh_one == a * H_ONE == a * 1 == a
        assert a.normal_form() == a_fresh.normal_form()
        assert (a + a_fresh * -1).is_zero()
        assert not (a * 0).terms


# -- the engine's multiplication table against the reference rewriter --------

def _su2_scaled(factor, minus_factor):
    """su2 with every bracket scaled by factor, loaded from its JSON form."""
    return algebra_from_json({
        "dim": 3,
        "names": ["X", "Y", "Z"],
        "brackets": [[0, 1, [[2, factor]]], [1, 2, [[0, factor]]],
                     [0, 2, [[1, minus_factor]]]],
    })


def _sl2_plus_central():
    """sl2 (F, H, E) with a central W placed between F and H, so the
    ordering of words interleaves the central letter."""
    return algebra_from_json({
        "dim": 4,
        "names": ["F", "W", "H", "E"],
        "brackets": [[0, 2, [[0, 2]]], [2, 3, [[3, 2]]], [0, 3, [[2, -1]]]],
    })


ORACLE_ALGEBRAS = {
    "su2": lambda: algebra_from_json({
        "dim": 3, "names": ["X", "Y", "Z"],
        "brackets": [[0, 1, [[2, 1]]], [1, 2, [[0, 1]]], [0, 2, [[1, -1]]]]}),
    "sl2": lambda: algebra_from_json({
        "dim": 3, "names": ["F", "H", "E"],
        "brackets": [[0, 1, [[0, 2]]], [1, 2, [[2, 2]]], [0, 2, [[1, -1]]]]}),
    "su2-half": lambda: _su2_scaled("1/2", "-1/2"),
    "su2-i": lambda: _su2_scaled("i", "-i"),
    "sl2+W": _sl2_plus_central,
}


def _assert_engine_matches_reference(L, words):
    for w in words:
        e = NCPoly.word(L, w)
        engine = e.normal_form()
        assert engine == e.normal_form("leftmost"), w
        assert engine == e.normal_form("rightmost"), w
        assert engine.is_canonical()


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_engine_normal_form_matches_reference_short_words(name):
    L = ORACLE_ALGEBRAS[name]()
    words = [()]
    layer = [()]
    for _ in range(6):
        layer = [w + (g,) for w in layer for g in range(L.dim)]
        words.extend(layer)
    _assert_engine_matches_reference(L, words)


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_engine_normal_form_matches_reference_long_words(name):
    L = ORACLE_ALGEBRAS[name]()
    rng = random.Random(sorted(ORACLE_ALGEBRAS).index(name) + 70)
    words = [tuple(rng.randrange(L.dim) for _ in range(rng.randint(10, 12)))
             for _ in range(8)]
    _assert_engine_matches_reference(L, words)


def test_oracle_algebras_are_the_intended_ones():
    su2 = ORACLE_ALGEBRAS["su2"]()
    assert su2.c == predefined("su2").c
    assert ORACLE_ALGEBRAS["sl2"]().c == predefined("sl2").c
    half = Fraction(1, 2)
    assert ORACLE_ALGEBRAS["su2-half"]().c == tuple(
        tuple(tuple(v * half for v in row) for row in plane) for plane in su2.c)
    assert ORACLE_ALGEBRAS["su2-i"]().c == tuple(
        tuple(tuple(v * I for v in row) for row in plane) for plane in su2.c)
    L = _sl2_plus_central()
    W = NCPoly.generator(L, 1)
    assert W.is_central()
    assert not NCPoly.generator(L, 0).is_central()


def test_engine_memos_are_separate_from_the_reference():
    L = _sl2_plus_central()
    assert set(L._nf_cache) == {"engine", "leftmost", "rightmost"}
    e = NCPoly.word(L, (3, 2, 1, 0, 3))
    e.normal_form()
    # one engine memo holds both a table word X_1 X^(0, 3) and a longer word
    memo = L._nf_cache["engine"]
    assert (1, 0, 3) in memo and (3, 2, 1, 0, 3) in memo
    assert not L._nf_cache["leftmost"]
    assert not L._nf_cache["rightmost"]
    e.normal_form("leftmost")
    assert not L._nf_cache["rightmost"]


def test_unknown_strategy_rejected(su2):
    with pytest.raises(ValueError):
        NCPoly.word(su2, (1, 0)).normal_form("middle")
