"""Seeded oracle for the printers.

exprs.format_cpoly and format_ncpoly print each polynomial as one list of
pieces, with monomial and word texts read from a memo keyed by the names
and the key, and scalars.format_terms folds the signs of every term into
that one pass.  The reference below is the printer they replaced: a sort
key per term, a fresh monomial text per term, a list of (sign, text)
pieces per coefficient, and a join that grows one string.  Both must agree
byte for byte, under two names tuples with the same exponents, and what
they print must parse back to the same value.  The parser's power step (a
power of one term is one key power and one coefficient power) must equal
repeated multiplication.
"""

import random
from fractions import Fraction

import pytest

from orbitstar import exprs
from orbitstar.envelope import NCPoly
from orbitstar.exprs import format_cpoly, format_ncpoly, parse_expression
from orbitstar.lie import LieAlgebra
from orbitstar.poly import CPoly
from orbitstar.scalars import H, H_ONE, H_ZERO, HPoly, I, _complex_text, format_hpoly


# ---------------------------------------------------------------------------
# The reference printer.

def _hterm_pieces(p):
    den = p.den
    pieces = []
    for k, (re, im) in enumerate(p.num, p.val):
        sign = "+"
        if re and im:
            head = f"({_complex_text(re, im, den)})"
        elif re or im:
            if re + im < 0:
                sign, re, im = "-", -re, -im
            head = "" if re == den and k else _complex_text(re, im, den)
        else:
            continue
        if k:
            power = "h" if k == 1 else f"h^{k}"
            head = f"{head}*{power}" if head else power
        pieces.append((sign, head))
    return pieces


def _join_signed(pieces):
    sign, text = pieces[0]
    out = text if sign == "+" else f"-{text}"
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out


def _coeff_pieces(c, monomial_text):
    pieces = _hterm_pieces(c)
    if not monomial_text or not pieces:
        return pieces
    if len(pieces) > 1:
        return [("+", f"({_join_signed(pieces)})*{monomial_text}")]
    (sign, text), = pieces
    return [(sign, monomial_text if text == "1" else f"{text}*{monomial_text}")]


def reference_hpoly(p):
    return _join_signed(_hterm_pieces(p)) if p.num else "0"


def _monomial_text(exps, names):
    pieces = []
    for name, e in zip(names, exps):
        if e == 0:
            continue
        pieces.append(name if e == 1 else f"{name}^{e}")
    return "*".join(pieces)


def reference_cpoly(f, names):
    if f.is_zero():
        return "0"
    names = tuple(names)

    def order(item):
        exps, _ = item
        return (sum(exps), tuple(-e for e in exps))

    pieces = []
    for exps, coeff in sorted(f.terms.items(), key=order):
        pieces.extend(_coeff_pieces(coeff, _monomial_text(exps, names)))
    return _join_signed(pieces)


def _word_text(word, names):
    pieces = []
    run_name, run = None, 0
    for g in word:
        nm = names[g]
        if nm == run_name:
            run += 1
            continue
        if run_name is not None:
            pieces.append(run_name if run == 1 else f"{run_name}^{run}")
        run_name, run = nm, 1
    if run_name is not None:
        pieces.append(run_name if run == 1 else f"{run_name}^{run}")
    return "*".join(pieces)


def reference_ncpoly(u):
    if u.is_zero():
        return "0"
    names = u.algebra.names
    pieces = []
    for word, coeff in sorted(u.terms.items(), key=lambda kv: (-len(kv[0]), kv[0])):
        pieces.extend(_coeff_pieces(coeff, _word_text(word, names)))
    return _join_signed(pieces)


# ---------------------------------------------------------------------------
# Seeded values.

def _gaussian(rng):
    q = lambda: Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3, 4, 6, 9]))
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice([1, -1, I, -I])
    if kind == 1:
        return q()
    if kind == 2:
        return q() * I
    return q() + q() * I


def _coefficient(rng):
    """Real, imaginary or complex, a unit, h alone, one power of h or
    several; zero now and then."""
    shape = rng.randrange(6)
    if shape == 0:
        return rng.choice([H, -H, H_ZERO])
    if shape <= 2:
        return HPoly.const(_gaussian(rng)) * H ** rng.randrange(4)
    return HPoly([_gaussian(rng) if rng.random() < 0.7 else 0
                  for _ in range(rng.randint(1, 4))])


def _cpoly(rng, nvars):
    terms = {}
    for _ in range(rng.choice([0, 1, 1, 2, 3, 5, 8])):
        exps = tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(nvars))
        terms[exps] = _coefficient(rng)
    return CPoly(nvars, terms)


def _ncpoly(rng, algebra):
    terms = {}
    for _ in range(rng.choice([0, 1, 1, 2, 3, 5, 8])):
        word = tuple(rng.randrange(algebra.dim) for _ in range(rng.randint(0, 5)))
        terms[word] = _coefficient(rng)
    return NCPoly(algebra, terms)


@pytest.fixture(scope="module")
def renamed(su2):
    """su2 under other generator and coordinate names."""
    return LieAlgebra(("Alpha", "B_2", "C"), su2.c, varnames=("a", "bb", "c_1"))


def test_cpoly_printer_matches_reference(su2, renamed):
    rng = random.Random(3201)
    seen = set()
    for _ in range(1000):
        f = _cpoly(rng, 3)
        for c in f.terms.values():
            (re, im), = c.num[:1]
            seen.add(("den > 1", c.den > 1))
            seen.add(("powers", len(c.num) > 1))
            seen.add(("kind", bool(re), bool(im)))
            seen.add(("h", c == H))
        seen.add(("constant", (0, 0, 0) in f.terms))
        seen.add(("zero", f.is_zero()))
        # the same exponents under two names tuples, printed in turn
        for names in (su2.varnames, renamed.varnames):
            text = format_cpoly(f, names)
            assert text == reference_cpoly(f, names)
            assert parse_expression(text, names=names) == f, text
    assert len(seen) == 13, seen


def test_ncpoly_printer_matches_reference(su2, renamed):
    rng = random.Random(3202)
    for _ in range(500):
        u = _ncpoly(rng, su2)
        v = NCPoly(renamed, u.terms)
        for w in (u, v):
            text = format_ncpoly(w)
            assert text == reference_ncpoly(w)
            assert parse_expression(text, mode="noncommutative", algebra=w.algebra) == w
    assert format_ncpoly(NCPoly(su2, {(0, 0, 1, 1, 1, 0): 1})) == "X^2*Y^3*X"


def test_hpoly_printer_matches_reference():
    rng = random.Random(3203)
    for _ in range(1000):
        c = _coefficient(rng)
        assert format_hpoly(c) == reference_hpoly(c)
        assert exprs.parse_hpoly(format_hpoly(c)) == c


def test_text_memo_stays_bounded(su2):
    f = CPoly(3, {(a, b, a % 3): H_ONE for a in range(70) for b in range(70)})
    assert len(f.terms) > exprs._TEXT_CAP
    for names in (su2.varnames, "uvw"):
        assert format_cpoly(f, names) == reference_cpoly(f, names)
        assert len(exprs._MONOMIAL_TEXTS) <= exprs._TEXT_CAP


def test_cpoly_printer_needs_one_name_per_variable():
    # a names tuple one short would print z^2 as "1"
    f = CPoly(3, {(0, 0, 2): 1, (1, 0, 0): 2})
    for names in (("x", "y"), ("x", "y", "z", "w")):
        with pytest.raises(ValueError, match=f"{len(names)} names for 3 variables"):
            format_cpoly(f, names)


@pytest.mark.parametrize("mode", ["commutative", "noncommutative"])
def test_power_step_equals_repeated_multiplication(su2, mode):
    rng = random.Random(3204)
    parse = lambda t: parse_expression(t, mode=mode, algebra=su2)
    for trial in range(150):
        base = _cpoly(rng, 3) if mode == "commutative" else _ncpoly(rng, su2)
        if trial % 2:  # every other base is one term
            base = base._new(dict(list(base.terms.items())[:1]))
        if mode == "commutative":
            text = format_cpoly(base, su2.varnames)
        else:
            text = format_ncpoly(base)
        for n in range(5 if len(base.terms) <= 3 else 3):
            repeated = "*".join([f"({text})"] * n) or "1"
            assert parse(f"({text})^{n}") == parse(repeated), (text, n)
