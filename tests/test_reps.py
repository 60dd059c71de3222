import random
from fractions import Fraction

import pytest

from orbitstar import linalg
from orbitstar.envelope import NCPoly
from orbitstar.lie import adjoint_rep
from orbitstar.poly import CPoly
from orbitstar.reps import (
    MatrixRep,
    casimir_scalar,
    casimir_spectrum,
    evaluate,
    highest_weight_casimir,
    nonisomorphism_witness,
    sl2_casimir,
    su2_defining_rep,
    validate_rep,
)
from orbitstar.scalars import H, H_ONE, HPoly


def test_validate_defining_and_adjoint(su2):
    assert validate_rep(su2, su2_defining_rep())
    assert validate_rep(su2, adjoint_rep(su2))


def test_zero_matrices_are_the_trivial_rep(su2):
    # bracket compatibility reads 0 == 0, so the zero images form the
    # (non-faithful) trivial representation
    zero = MatrixRep(2, [[[0, 0], [0, 0]]] * 3)
    assert validate_rep(su2, zero)


def test_scaled_matrices_are_not_a_rep(su2):
    # doubling the defining matrices breaks [X, Y] = Z: the commutator
    # picks up a factor 4 while the right side only doubles
    good = su2_defining_rep()
    bad = MatrixRep(2, [linalg.mat_scale(2, m) for m in good.matrices])
    assert not validate_rep(su2, bad)


def test_defining_relation_evaluates_to_zero(su2):
    X = NCPoly.generator(su2, 0)
    Y = NCPoly.generator(su2, 1)
    Z = NCPoly.generator(su2, 2)
    rel = X * Y - Y * X - Z
    m = evaluate(rel, su2_defining_rep(), 1)
    assert m == linalg.mat([[0, 0], [0, 0]])


def test_casimir_scalars(su2, casimir_word):
    assert casimir_scalar(casimir_word, su2_defining_rep(), 1) == Fraction(-3, 4)
    assert casimir_scalar(casimir_word, adjoint_rep(su2), 1) == -2
    assert casimir_scalar(NCPoly.one(su2), su2_defining_rep(), 1) == 1


def test_casimir_scalar_rejects_noncentral(su2):
    with pytest.raises(ValueError):
        casimir_scalar(NCPoly.generator(su2, 0), su2_defining_rep(), 1)


def test_evaluate_scales_with_h(su2, casimir_word):
    # generators map to h0 * rho, so the quadratic element scales by h0^2
    val = casimir_scalar(casimir_word, su2_defining_rep(), Fraction(1, 2))
    assert val == Fraction(-3, 16)


def test_evaluate_is_multiplicative(su2):
    rng = random.Random(41)
    rep = su2_defining_rep()
    for _ in range(20):
        a = NCPoly.word(su2, tuple(rng.randrange(3) for _ in range(rng.randint(0, 3))))
        b = NCPoly.word(su2, tuple(rng.randrange(3) for _ in range(rng.randint(0, 3))))
        h0 = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        lhs = evaluate(a * b, rep, h0)
        rhs = linalg.mat_mul(evaluate(a, rep, h0), evaluate(b, rep, h0))
        assert lhs == rhs


def test_highest_weight_casimir(sl2):
    omega = sl2_casimir(sl2)
    hw = highest_weight_casimir(sl2, omega)
    want = CPoly(1, {(2,): HPoly.const(Fraction(1, 2)), (1,): H})
    assert hw == want
    assert highest_weight_casimir(sl2, NCPoly.one(sl2)) == CPoly.one(1)
    # adjoint-weight cross-check: lambda = 2 at h = 1 gives 4
    assert hw.evaluate((2,)).evaluate(1) == 4


def test_highest_weight_rejects_noncentral(sl2):
    with pytest.raises(ValueError):
        highest_weight_casimir(sl2, NCPoly.generator(sl2, 0))  # bare F


def test_highest_weight_needs_triangular_order(su2):
    with pytest.raises(ValueError):
        sl2_casimir(su2)


def test_cross_identity_with_casimir_scalars(su2, sl2, casimir_word):
    # omega = -2 P, so hw values at lambda = d-1, h = 1 match -2 * scalar
    omega = sl2_casimir(sl2)
    hw = highest_weight_casimir(sl2, omega)
    for d, rep in ((2, su2_defining_rep()), (3, adjoint_rep(su2))):
        hw_val = hw.evaluate((d - 1,)).evaluate(1)
        assert hw_val == casimir_scalar(casimir_word, rep, 1) * (-2)


def test_spectrum_witness(sl2):
    report = nonisomorphism_witness(
        HPoly.const(4), HPoly.const(4) + H * Fraction(1, 3), 20
    )
    assert report["spectrum_a"] == [2]
    assert report["spectrum_b"] == []
    assert report["witness_found"]
    assert report["lambda_bound"] == 20


def test_spectrum_witness_equal_lifts(sl2):
    report = nonisomorphism_witness(HPoly.const(4), HPoly.const(4), 20)
    assert report["spectrum_a"] == report["spectrum_b"] == [2]
    assert not report["witness_found"]


def test_zero_lift_admits_trivial_weight(sl2):
    omega = sl2_casimir(sl2)
    assert casimir_spectrum(sl2, omega, HPoly.const(0), 20) == [0]


def test_h_dependent_lift_spectrum(sl2):
    # value at h=1 of 2 + 2h is 4, matched by lambda = 2
    omega = sl2_casimir(sl2)
    lift = HPoly.const(2) + H * 2
    assert casimir_spectrum(sl2, omega, lift, 20) == [2]
