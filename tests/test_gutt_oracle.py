"""Gutt's closed form for left multiplication by a generator, as an
independent oracle for the symmetrizer star product.

Under the symmetrizer, left multiplication by X in U_h pulls back to

    L_X(P) = x P + sum_{k>=1} (B_k h^k / k!) sum_{i_1..i_k}
             <[X_i1, [X_i2, ... [X_ik, X]]]> d_i1 ... d_ik P,

where <sum c_m X_m> = sum c_m x_m and B_k are the Bernoulli numbers
(B_1 = -1/2, B_2 = 1/6, B_4 = -1/30, the odd ones past B_1 zero).  Since
Sym(x^a) averages X_i Sym(x^(a - e_i)) over its letters, 1 * g = g and
x^a * g = (1/|a|) sum_i a_i L_{X_i}(x^(a - e_i) * g).  The oracle builds
those products from CPoly arithmetic and partial derivatives alone: it
uses no NCPoly, normal form or symmetrizer table.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest

from orbitstar.lie import predefined
from orbitstar.poly import CPoly, monomials_up_to
from orbitstar.quantize import symmetrizer_product
from orbitstar.scalars import H

# enough for the pairs below: their products have degree <= 5, where every
# sixth derivative vanishes
BERNOULLI = {1: Fraction(-1, 2), 2: Fraction(1, 6), 4: Fraction(-1, 30)}


def _ad(L, i, v):
    """[X_i, v] for v a dict {m: coefficient} over the generators."""
    out = {}
    for m, c in v.items():
        for k, b in L.bracket_terms(i, m):
            out[k] = out.get(k, 0) + b * c
    return {k: c for k, c in out.items() if c}


def _pairing(n, v):
    """<sum_m c_m X_m> = sum_m c_m x_m."""
    return CPoly(n, {tuple(int(m == l) for l in range(n)): c for m, c in v.items()})


def left_multiplication(L, j, P, bernoulli):
    """L_{X_j}(P): the k-th level pairs each index sequence i_1..i_k with
    its nested bracket and the derivative d_i1 ... d_ik P."""
    n = L.dim
    out = CPoly.variable(n, j) * P
    level = [({j: 1}, P)]
    for k in itertools.count(1):
        level = [(w, d) for v, D in level for i in range(n)
                 if (w := _ad(L, i, v)) and (d := D.partial(i))]
        if not level:
            return out
        if bernoulli.get(k):
            scale = H ** k * (bernoulli[k] / math.factorial(k))
            for v, D in level:
                out = out + _pairing(n, v) * D * scale


def gutt_products(L, g, bernoulli, degree):
    """x^a * g for every exponent vector a of degree <= `degree`."""
    table = {(0,) * L.dim: g}
    for a in monomials_up_to(L.dim, degree):
        if a in table:
            continue
        out = CPoly.zero(L.dim)
        for i, ai in enumerate(a):
            if ai:
                lower = a[:i] + (ai - 1,) + a[i + 1:]
                step = left_multiplication(L, i, table[lower], bernoulli)
                out = out + step * Fraction(ai, sum(a))
        table[a] = out
    return table


@functools.cache
def _engine_products(name, degree):
    """The symmetrizer product on every ordered monomial pair."""
    L = predefined(name)
    star = symmetrizer_product(L)
    basis = monomials_up_to(L.dim, degree)
    mono = {e: CPoly.monomial(L.dim, e) for e in basis}
    return {(a, b): star.star(mono[a], mono[b]) for a in basis for b in basis}


def _mismatches(name, degree, bernoulli):
    """The ordered pairs of degree <= `degree` where the oracle and the
    engine disagree."""
    L = predefined(name)
    engine = _engine_products(name, degree)
    bad = 0
    for b in monomials_up_to(L.dim, degree):
        table = gutt_products(L, CPoly.monomial(L.dim, b), bernoulli, degree)
        bad += sum(engine[a, b] != table[a] for a in monomials_up_to(L.dim, degree))
    return bad


@pytest.mark.parametrize("name", ["su2", "sl2"])
def test_symmetrizer_product_matches_gutt_closed_form(name):
    # all 400 ordered pairs of monomials of degree <= 3
    assert len(_engine_products(name, 3)) == 400
    assert _mismatches(name, 3, BERNOULLI) == 0


@pytest.mark.parametrize("k, value, degree, broken", [
    (1, Fraction(1, 2), 2, 66),
    (2, 0, 3, 322),
    (4, 0, 3, 187),
], ids=["B1-sign", "B2-zero", "B4-zero"])
def test_gutt_oracle_sees_a_wrong_bernoulli_number(k, value, degree, broken):
    # the oracle is not vacuous: a wrong B_1, or a dropped B_2 or B_4 term,
    # disagrees with the engine on many pairs
    assert _mismatches("su2", degree, {**BERNOULLI, k: value}) == broken
