import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from gaussian_oracle import GaussianRational as gr
from orbitstar import cli, linalg, reps
from orbitstar.envelope import NCPoly
from orbitstar.lie import predefined
from orbitstar.scalars import (
    H,
    HPoly,
    H_ONE,
    H_ZERO,
    I,
    as_hpoly,
    format_hpoly,
    format_scalar,
    format_terms,
    merge_sums,
)


def test_conjugate_product():
    a = Fraction(1, 2) + I
    b = Fraction(1, 2) - I
    assert a * b == Fraction(5, 4)


def test_difference_of_squares_in_h():
    one_plus = H_ONE + H
    one_minus = H_ONE - H
    assert one_plus * one_minus == H_ONE - H * H


def test_monomial_product():
    assert (H * 2) * (H * H * 3) == H ** 3 * 6


def test_division():
    a = 1 + I
    assert a / a == H_ONE
    with pytest.raises(ZeroDivisionError):
        a / H_ZERO


def test_evaluate_examples():
    p = HPoly([3, 2, -1])  # 3 + 2h - h^2
    assert p.evaluate(1) == 4
    assert p.evaluate(0) == 3
    assert (H ** 3).evaluate(Fraction(1, 2)) == Fraction(1, 8)


def test_truncate_examples():
    p = HPoly([1, 1, 0, 1])  # 1 + h + h^3
    assert p.truncate(2) == HPoly([1, 1])
    assert p.truncate(0) == H_ZERO
    assert (H * H).truncate(3) == H * H


def test_degree_markers():
    assert H_ZERO.degree is None
    assert H_ONE.degree == 0
    assert (H ** 4).degree == 4
    assert HPoly([1, 0, 0]).degree == 0  # trailing zeros dropped


def test_as_scalar_rejects_h():
    with pytest.raises(ValueError):
        (H_ONE + H).as_scalar()
    assert HPoly.const(7).as_scalar() == 7


def test_h_free_hpoly_is_a_scalar_everywhere(tmp_path, capsys):
    two = HPoly.const(2)
    X = NCPoly.generator(predefined("su2"), 0)
    rho = reps.su2_defining_rep()
    assert H / two == H * Fraction(1, 2)
    assert (1 + H).evaluate(two) == 3
    assert reps.evaluate(X, rho, two) == reps.evaluate(X, rho, 2)
    assert reps.evaluate(X, rho, two)[0][1] == -I
    assert linalg.mat([[two]]) == ((2,),)
    assert HPoly.const(two) is two
    assert HPoly((two,)) == two
    # an h-carrying value is refused with one error wherever a scalar is taken
    for refuse in (lambda: H_ONE / H, lambda: linalg.mat([[H]]),
                   lambda: (1 + H).evaluate(H), lambda: reps.evaluate(X, rho, H),
                   lambda: HPoly.const(H), lambda: HPoly((H,))):
        with pytest.raises(TypeError, match="^h is not h-free$"):
            refuse()
    config = tmp_path / "h.json"
    config.write_text('{"dim": 3, "brackets": [[0, 1, [[2, "h"]]]]}')
    assert cli.main(["algebra", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: config {config}: h is not h-free\n"


@pytest.mark.parametrize("seed", range(3))
def test_ring_axioms_randomized(seed):
    rng = random.Random(seed)

    def rand_scalar():
        return (Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                + Fraction(rng.randint(-6, 6), rng.randint(1, 4)) * I)

    def rand_poly():
        return HPoly([rand_scalar() for _ in range(rng.randint(0, 4))])

    for _ in range(40):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("seed", range(3))
def test_evaluate_is_ring_map(seed):
    rng = random.Random(100 + seed)
    for _ in range(30):
        a = HPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
        b = HPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
        h0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert (a * b).evaluate(h0) == a.evaluate(h0) * b.evaluate(h0)
        assert (a + b).evaluate(h0) == a.evaluate(h0) + b.evaluate(h0)


def test_truncate_compatible_with_products():
    rng = random.Random(7)
    for _ in range(30):
        a = HPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
        b = HPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
        k = rng.randint(0, 5)
        assert (a * b).truncate(k) == (a.truncate(k) * b.truncate(k)).truncate(k)


def test_formatting():
    assert format_scalar(Fraction(3, 2)) == "3/2"
    assert format_scalar(I) == "i"
    assert format_scalar(Fraction(1, 2) - 3 * I) == "1/2 - 3*i"
    assert format_hpoly(Fraction(1, 2) - 3 * I) == "(1/2 - 3*i)"
    assert format_hpoly(HPoly([3, 2, -1])) == "3 + 2*h - h^2"
    assert format_hpoly(H_ZERO) == "0"
    assert format_hpoly(HPoly([0, 2 * I])) == "2*i*h"


# ---------------------------------------------------------------------------
# HPoly against a coefficient-wise oracle.  The oracle keeps a polynomial as a
# plain list of Fraction-based GaussianRationals (tests/gaussian_oracle.py)
# and shares no code with the integer-numerator kernel; values cross between
# the two only through to_hpoly and from_hpoly.

def to_hpoly(g):
    """The oracle value g as an h-free HPoly."""
    return g.re + g.im * I


def from_hpoly(c):
    """An h-free HPoly as an oracle value, read from its integer fields."""
    assert not c.val and len(c.num) <= 1
    re, im = c.num[0] if c.num else (0, 0)
    return gr(Fraction(re, c.den), Fraction(im, c.den))


def hpoly_of(cs):
    """The HPoly with the oracle coefficients cs of h^0, h^1, ..."""
    return HPoly([to_hpoly(x) for x in cs])


def _strip(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _oracle_add(a, b):
    n = max(len(a), len(b))
    pad = lambda cs: list(cs) + [gr(0)] * (n - len(cs))
    return _strip(x + y for x, y in zip(pad(a), pad(b)))


def _oracle_mul(a, b):
    out = [gr(0)] * max(len(a) + len(b) - 1, 0)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            out[j + k] = out[j + k] + x * y
    return _strip(out)


def _oracle_evaluate(a, h0):
    total, power = gr(0), gr(1)
    for x in a:
        total = total + x * power
        power = power * h0
    return total


def _assert_canonical(p):
    assert p.den > 0 and p.val >= 0
    assert not p.num or (p.num[0] != (0, 0) and p.num[-1] != (0, 0))
    assert math.gcd(p.den, *(v for pair in p.num for v in pair)) == 1
    if not p.num:
        assert (p.den, p.val) == (1, 0)


@pytest.mark.parametrize("seed", range(4))
def test_hpoly_against_gaussian_oracle(seed):
    rng = random.Random(500 + seed)

    def rand_gauss():
        return gr(
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
            Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), rng.randint(1, 12)),
        )

    def rand_coeffs():
        # Dense, a single power c*h^k, or dense above a run of low zeros,
        # so operands also differ in h-adic valuation.
        low = [gr(0)] * rng.randint(1, 4)
        shape = rng.randrange(3)
        if shape == 1:
            return low + [rand_gauss()]
        return _strip(
            (low if shape == 2 else [])
            + [rand_gauss() if rng.random() < 0.8 else gr(0)
               for _ in range(rng.randint(0, 5))]
        )

    for _ in range(60):
        ca, cb = rand_coeffs(), rand_coeffs()
        a, b = hpoly_of(ca), hpoly_of(cb)
        assert [from_hpoly(c) for c in a.coeffs] == ca
        neg_b = [-x for x in cb]
        j = rng.randint(0, len(ca))
        cases = [
            (a + b, _oracle_add(ca, cb)),
            (a - b, _oracle_add(ca, neg_b)),
            (-b, neg_b),
            (a * b, _oracle_mul(ca, cb)),
            # the low-order terms cancel
            (a - hpoly_of(ca[:j]), _strip([gr(0)] * j + ca[j:])),
        ]
        g = rand_gauss()
        cases.append((a / to_hpoly(g), [x / g for x in ca]))
        k = rng.randint(0, 5)
        cases.append((a.truncate(k), _strip(ca[:k])))
        for got, want in cases:
            _assert_canonical(got)
            assert [from_hpoly(c) for c in got.coeffs] == want
            assert got == hpoly_of(want)
        h0 = rand_gauss()
        value = a.evaluate(to_hpoly(h0))
        _assert_canonical(value)
        assert from_hpoly(value) == _oracle_evaluate(ca, h0)


def _fields(p):
    return p.num, p.den, p.val


@pytest.mark.parametrize("seed", range(4))
def test_merge_sums_against_gaussian_oracle(seed):
    """merge_sums, a + b and HPoly(coeffs) share one summation kernel: each
    is checked against the oracle, and the three agree field for field."""
    rng = random.Random(800 + seed)

    def rand_value():
        # mixed denominators, a run of low zeros (the valuation) and one to
        # four powers of h
        while True:
            cs = _strip([gr(0)] * rng.randint(0, 3) + [
                gr(Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6])),
                   Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5])))
                for _ in range(rng.randint(1, 4))])
            if cs:
                return cs

    parts = [{} for _ in range(5)]
    want, pairs = {}, {}
    cancelled = raised = 0
    for key in range(120):
        cs = [rand_value() for _ in range(rng.randint(1, 5))]
        rest = reduce(_oracle_add, cs[:-1], [])
        low = next((k for k, x in enumerate(rest) if x), None)
        if key % 3 == 1 and low is not None:
            cs[-1] = [-x for x in rest]  # the sum cancels to zero
            cancelled += 1
        elif key % 3 == 2 and low is not None and low + 1 < len(rest):
            cut = rng.randint(low + 1, len(rest) - 1)
            cs[-1] = [-x for x in rest[:cut]]  # the low end cancels: val rises
            raised += 1
        for part, cs_k in zip(parts, cs):
            part[key] = hpoly_of(cs_k)
        want[key] = reduce(_oracle_add, cs, [])
        if len(cs) == 2:
            pairs[key] = [part[key] for part in parts[:2]]
    got = merge_sums(parts)
    assert cancelled and raised and len(pairs) > 5
    assert set(got) == {key for key, cs in want.items() if cs}
    for key, value in got.items():
        _assert_canonical(value)
        assert [from_hpoly(c) for c in value.coeffs] == want[key]
    for key, (a, b) in pairs.items():
        one = merge_sums([{key: a}, {key: b}]).get(key, H_ZERO)
        assert _fields(a + b) == _fields(one) == _fields(hpoly_of(want[key]))


def test_hpoly_canonical_form():
    half = HPoly([Fraction(1, 2)])
    assert half + half == H_ONE
    assert hash(half + half) == hash(H_ONE)
    assert ((half + half).num, (half + half).den) == (((1, 0),), 1)

    a = HPoly([Fraction(1, 3) + 2 * I, I * Fraction(-1, 4)])
    b = HPoly([Fraction(5, 6), Fraction(2, 7) + I])
    c = Fraction(3, 5) - I * Fraction(1, 2)
    left, right = (a * b) / c, a * (b / c)
    assert left == right
    assert hash(left) == hash(right)
    assert (left.num, left.den) == (right.num, right.den)

    zero = HPoly([0, 0])
    assert zero == H_ZERO
    assert (zero.num, zero.den) == ((), 1)
    assert a - a == H_ZERO and (a - a).den == 1
    assert HPoly([Fraction(2, 4), Fraction(6, 4)]).den == 2

    # h^val * num / den: a single power is one numerator pair.
    h2 = HPoly([0, 0, 1])
    assert (h2.num, h2.den, h2.val) == (((1, 0),), 1, 2)
    for left, right in ((H * H, h2), ((H_ONE + H) - 1, H)):
        assert left == right
        assert hash(left) == hash(right)
        assert (left.num, left.den, left.val) == (right.num, right.den, right.val)
    assert (h2 * Fraction(1, 3)).truncate(2) == H_ZERO
    assert (h2 * Fraction(1, 3)).truncate(1) == H_ZERO
    assert (h2 + H).truncate(2) == H
    p = HPoly([0, Fraction(1, 2) + I, 0, -3])  # (1/2 + i) h - 3 h^3
    assert p.evaluate(0) == 0
    assert HPoly([5, 1]).evaluate(0) == 5
    assert p.evaluate(Fraction(-2, 3)) == Fraction(5, 9) - I * Fraction(2, 3)
    assert p.evaluate(2 * I) == -2 + 25 * I


def test_equal_scalars_hash_alike():
    for x in (0, 1, -3, Fraction(1, 2), Fraction(-7, 3)):
        for form in (Fraction(x), HPoly.const(x), HPoly((x,)), as_hpoly(x),
                     (x + I) - I, (H + x).coeff(0)):
            assert form == x and hash(form) == hash(x)
    z = Fraction(1, 2) - I
    assert HPoly((z,)) == z and hash(HPoly((z,))) == hash(z)
    assert {1: "a"}.get(H_ONE) == "a"
    assert {Fraction(1, 2): "b"}.get(H_ONE / 2) == "b"


@pytest.mark.parametrize("divisor", [0, Fraction(0), H_ZERO])
def test_hpoly_division_by_zero(divisor):
    with pytest.raises(ZeroDivisionError):
        HPoly([1, I]) / divisor
    with pytest.raises(ZeroDivisionError):
        H_ZERO / divisor


# ---------------------------------------------------------------------------
# The printers against the oracle: each coefficient is an oracle value, a
# pair of Fractions rendered with str(Fraction), sharing no code with the
# integer-field printers.

def _oracle_scalar(s):
    if not s:
        return "0"
    if not s.im:
        return str(s.re)
    im = "i" if s.im == 1 else "-i" if s.im == -1 else f"{s.im}*i"
    if not s.re:
        return im
    mag = abs(s.im)
    im = "i" if mag == 1 else f"{mag}*i"
    return f"{s.re} {'+' if s.im > 0 else '-'} {im}"


def _oracle_term(s, k, tail):
    """(sign, text) of s*h^k as a product prefix; "" when s*h^k is exactly
    1 and a monomial follows."""
    neg = False
    if not s.im:
        neg, mag = s.re < 0, abs(s.re)
        head = "" if mag == 1 and (tail or k > 0) else str(mag)
    elif not s.re:
        neg, mag = s.im < 0, abs(s.im)
        head = "i" if mag == 1 else f"{mag}*i"
    else:
        head = f"({_oracle_scalar(s)})"
    parts = [head] if head else []
    if k:
        parts.append("h" if k == 1 else f"h^{k}")
    if not parts and not tail:
        parts.append("1")
    return ("-" if neg else "+", "*".join(parts))


def _oracle_join(pieces):
    sign, text = pieces[0]
    out = text if sign == "+" else f"-{text}"
    return out + "".join(f" {sign} {text}" for sign, text in pieces[1:])


def _oracle_hpoly(cs):
    pieces = [_oracle_term(s, k, False) for k, s in enumerate(cs) if s]
    return _oracle_join(pieces) if pieces else "0"


def _oracle_coeff_pieces(cs, monomial_text):
    nonzero = [(k, s) for k, s in enumerate(cs) if s]
    if not monomial_text or not nonzero:
        return [_oracle_term(s, k, False) for k, s in nonzero]
    if len(nonzero) > 1:
        return [("+", f"({_oracle_hpoly(cs)})*{monomial_text}")]
    sign, head = _oracle_term(nonzero[0][1], nonzero[0][0], True)
    return [(sign, f"{head}*{monomial_text}" if head else monomial_text)]


@pytest.mark.parametrize("seed", range(4))
def test_printers_against_gaussian_oracle(seed):
    rng = random.Random(900 + seed)
    units = [gr(1), gr(-1), gr(0, 1), gr(0, -1)]

    def rand_gauss():
        shape = rng.randrange(5)
        if shape == 0:
            return rng.choice(units)
        q = lambda: Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 12]))
        return gr(q(), 0) if shape == 1 else gr(0, q()) if shape == 2 else gr(q(), q())

    seen = set()
    for _ in range(150):
        # a run of low zeros gives val > 0; several powers share one den
        coeffs = [gr(0)] * rng.choice([0, 0, 1, 3])
        coeffs += [rand_gauss() if rng.random() < 0.8 else gr(0)
                   for _ in range(rng.randint(1, 4))]
        p = hpoly_of(coeffs)
        seen.add((p.den > 1, p.val > 0, len([s for s in coeffs if s]) > 1))
        assert format_hpoly(p) == _oracle_hpoly(coeffs)
        for k, s in enumerate(coeffs):
            assert format_scalar(p.coeff(k)) == _oracle_scalar(s)
        for mono in ("", "x", "X^2*Y"):
            pieces = _oracle_coeff_pieces(coeffs, mono)
            assert format_terms([(p, mono)]) == (_oracle_join(pieces) if pieces else "0")
    assert len(seen) == 8


def test_printer_units_and_signs():
    cases = {
        (1,): ("1", [("+", "x")]),
        (-1,): ("-1", [("-", "x")]),
        (I,): ("i", [("+", "i*x")]),
        (-I,): ("-i", [("-", "i*x")]),
        (0, -1): ("-h", [("-", "h*x")]),
        (0, 0, I * Fraction(-2, 3)): ("-2/3*i*h^2", [("-", "2/3*i*h^2*x")]),
        (Fraction(-1, 2) + I,): ("(-1/2 + i)", [("+", "(-1/2 + i)*x")]),
        (I * Fraction(3, 4), 0, Fraction(5, 6)):
            ("3/4*i + 5/6*h^2", [("+", "(3/4*i + 5/6*h^2)*x")]),
    }
    for coeffs, (text, pieces) in cases.items():
        p = HPoly(coeffs)
        assert format_hpoly(p) == text
        assert format_terms([(p, "x")]) == _oracle_join(pieces)
    assert format_terms([(H_ZERO, "x")]) == "0" and format_terms([(H_ZERO, "")]) == "0"
    assert format_terms([(HPoly([-1, 0, 2]), "")]) == "-1 + 2*h^2"
    assert format_terms([(-H_ONE, "x"), (HPoly([0, 1]), "y"), (I, "")]) == "-x + h*y + i"
