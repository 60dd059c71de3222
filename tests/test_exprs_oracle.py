"""Seeded oracle for the expression parser.

exprs._Parser builds term dicts on HPoly's integer fields.  The reference
below is the parser it replaced: every atom is a CPoly or NCPoly and values
combine through their arithmetic (Fraction literals, Sparse sums, CPoly
products and the raw word product poly.product(..., operator.add)).  Both
share the tokenizer and the grammar, so they must agree on every value,
field for field, and on every syntax error.
A power is repeated use of the mode's product, so in noncommutative mode
(Y*X)^2 is the raw word Y*X*Y*X, as Y*X*Y*X is (the replaced parser took
powers through NCPoly.__mul__, which normal-forms).
"""

import operator
import random
from fractions import Fraction

import pytest

from orbitstar.envelope import NCPoly
from orbitstar.exprs import MAX_EXPONENT, ExprSyntaxError, _tokenize, parse_expression
from orbitstar.poly import CPoly, product
from orbitstar.scalars import H, I


class _ReferenceParser:
    def __init__(self, text, one, i_value, h_value, lookup, multiply):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.one = one
        self.i_value = i_value
        self.h_value = h_value
        self.lookup = lookup
        self.multiply = multiply

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}", tok[2])
        return self.advance()

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError("unexpected trailing input", tok[2])
        return value

    def expr(self):
        negate = self.peek()[0] == "-"
        if negate:
            self.advance()
        value = self.term()
        if negate:
            value = -value
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = self.multiply(value, self.factor())
        return value

    def factor(self):
        value = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("number")
            if "/" in tok[1]:
                raise ExprSyntaxError("exponent must be a natural number", tok[2])
            n = int(tok[1])
            if n > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent above {MAX_EXPONENT}", tok[2])
            power = self.one
            for _ in range(n):
                power = self.multiply(power, value)
            value = power
        return value

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "number":
            self.advance()
            den = text.partition("/")[2]
            if den and not int(den):
                raise ExprSyntaxError("zero denominator", pos)
            return self.one * Fraction(text)
        if kind == "name":
            self.advance()
            if text == "i":
                return self.i_value
            if text == "h":
                return self.h_value
            value = self.lookup(text)
            if value is None:
                raise ExprSyntaxError(f"unknown name {text!r}", pos)
            return value
        if kind == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        raise ExprSyntaxError("syntax error", pos)


def reference_parse(text, mode, algebra, names=None):
    if mode == "commutative":
        names = tuple(algebra.varnames if names is None else names)
        nvars = len(names)
        index = {nm: k for k, nm in enumerate(names)}
        parser = _ReferenceParser(
            text,
            one=CPoly.one(nvars),
            i_value=CPoly.constant(nvars, I),
            h_value=CPoly.constant(nvars, H),
            lookup=lambda nm: CPoly.variable(nvars, index[nm]) if nm in index else None,
            multiply=lambda a, b: a * b,
        )
    else:
        index = {nm: k for k, nm in enumerate(algebra.names)}
        parser = _ReferenceParser(
            text,
            one=NCPoly.one(algebra),
            i_value=NCPoly.scalar(algebra, I),
            h_value=NCPoly.scalar(algebra, H),
            lookup=lambda nm: NCPoly.generator(algebra, index[nm]) if nm in index else None,
            multiply=lambda a, b: a._new(product(a.terms, b.terms, operator.add)),
        )
    return parser.parse()


def _random_expr(rng, names, depth=0):
    def atom():
        roll = rng.random()
        if roll < 0.3:
            num = rng.choice([0, 1, 2, 3, 4, 6, 12])
            return str(num) if rng.random() < 0.5 else f"{num}/{rng.choice([1, 2, 3, 6, 9])}"
        if roll < 0.45:
            return rng.choice("ih")
        if roll < 0.8 and names:
            return rng.choice(names)
        if depth < 2:
            return f"({_random_expr(rng, names, depth + 1)})"
        return rng.choice("ih")

    def factor():
        text = atom()
        if rng.random() < 0.3:
            text += f"^{rng.randint(0, 3)}"
        return text

    def term():
        return "*".join(factor() for _ in range(rng.randint(1, 3)))

    sep = lambda: " " * rng.randint(0, 1)
    text = ("-" if rng.random() < 0.3 else "") + term()
    for _ in range(rng.randint(0, 3)):
        text += sep() + rng.choice("+-") + sep() + term()
    return text


_MODES = [
    ("commutative", None),
    ("noncommutative", None),
    ("commutative", ()),
]


def _names(algebra, mode, names):
    if names is not None:
        return names
    return algebra.varnames if mode == "commutative" else algebra.names


def _outcome(parse, text):
    """("value", type, space, {key: (num, den, val)}) or ("error", message, position)."""
    try:
        value = parse(text)
    except ExprSyntaxError as exc:
        return ("error", str(exc), exc.position)
    space = value.nvars if isinstance(value, CPoly) else id(value.algebra)
    fields = {k: (c.num, c.den, c.val) for k, c in value.terms.items()}
    return ("value", type(value), space, fields)


def _both(text, mode, algebra, names):
    new = _outcome(lambda t: parse_expression(t, mode=mode, algebra=algebra, names=names), text)
    ref = _outcome(lambda t: reference_parse(t, mode, algebra, names), text)
    return new, ref


@pytest.mark.parametrize("mode, names", _MODES, ids=["cpoly", "ncpoly", "hpoly"])
def test_parser_matches_reference_on_random_expressions(su2, mode, names):
    rng = random.Random(20260)
    pool = _names(su2, mode, names)
    for _ in range(300):
        text = _random_expr(rng, pool)
        new, ref = _both(text, mode, su2, names)
        assert new[0] == "value", text
        assert new == ref, text


def _mutate(rng, text):
    pos = rng.randrange(len(text) + 1)
    edit = rng.choice("dir")
    char = rng.choice("+-*^()/ 0xXiqh_1")
    if edit == "d":
        return text[:pos] + text[pos + 1:]
    if edit == "i":
        return text[:pos] + char + text[pos:]
    return text[:pos] + char + text[pos + 1:]


def _small_exponents(text):
    # Merged digits can make an exponent like 33; beyond 9 the reference's
    # expansion of a nested power gets slow, so such samples are drawn again.
    try:
        tokens = _tokenize(text)
    except ExprSyntaxError:
        return True
    return all(
        b[0] != "number" or int(b[1].partition("/")[0]) <= 9
        for a, b in zip(tokens, tokens[1:]) if a[0] == "^"
    )


@pytest.mark.parametrize("mode, names", _MODES, ids=["cpoly", "ncpoly", "hpoly"])
def test_parser_matches_reference_on_malformed_input(su2, mode, names):
    rng = random.Random(77)
    pool = _names(su2, mode, names)
    messages = set()
    checked = 0
    while checked < 400:
        text = _random_expr(rng, pool)
        for _ in range(rng.randint(1, 2)):
            text = _mutate(rng, text)
        if not _small_exponents(text):
            continue
        new, ref = _both(text, mode, su2, names)
        assert new == ref, text
        if new[0] == "error":
            messages.add(new[1].split(" ")[0])
        checked += 1
    # The mutations reach the grammar's common rejections; the list below
    # adds zero denominators and the exponent rules.
    assert {"expected", "syntax", "unexpected", "unknown"} <= messages


@pytest.mark.parametrize(
    "text",
    ["", "x +", "(x", "x)", "x^", "x^y", "x^1/2", "x^65", "1/0", "2/0*x", "x y",
     "--x", "x + w", "3x", "x^٣", "٣*x", "2²", "x*(y+)", "0/0", "x^-1"],
)
def test_parser_errors_match_reference(su2, text):
    new, ref = _both(text, "commutative", su2, None)
    assert new[0] == "error"
    assert new == ref
