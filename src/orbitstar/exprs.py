"""Expression text: a recursive-descent parser and matching printers.

Grammar (shared by the CLI and config loaders):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' natural)?
    atom   := rational | 'i' | 'h' | name | '(' expr ')'

In commutative mode names are coordinate variables and the result is a
CPoly; in noncommutative mode names are generator labels, the product is
order-preserving, and the result is an unnormalized NCPoly.  Printing any
engine value yields text that parses back to the same value.
"""

from __future__ import annotations

from fractions import Fraction

from .envelope import NCPoly
from .lie import LieAlgebra
from .poly import CPoly
from .scalars import (
    GR_I,
    GaussianRational,
    H,
    HPoly,
    coeff_pieces,
    join_signed,
)


class ExprSyntaxError(ValueError):
    """A parse failure, carrying the offset where it happened."""

    def __init__(self, message, position):
        super().__init__(f"{message} at offset {position}")
        self.position = position


_OPS = set("+-*^()")


def _tokenize(text):
    tokens = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < size and text[pos].isdigit():
                pos += 1
            if pos < size and text[pos] == "/" and pos + 1 < size and text[pos + 1].isdigit():
                pos += 1
                while pos < size and text[pos].isdigit():
                    pos += 1
            tokens.append(("number", text[start:pos], start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < size and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("name", text[start:pos], start))
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", size))
    return tokens


class _Parser:
    """Parses straight into ring values, so the AST is implicit."""

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
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

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
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
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
            value = value ** int(tok[1])
        return value

    def atom(self):
        tok = self.peek()
        kind, text, pos = tok
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


def parse_expression(text, mode="commutative", algebra: LieAlgebra | None = None,
                     names=None):
    """Parse text into a CPoly (commutative) or raw NCPoly (noncommutative).

    Names resolve against the algebra's varnames or generator names; an
    explicit names sequence overrides the commutative variables.
    """
    if mode == "commutative":
        if names is None:
            if algebra is None:
                raise ValueError("commutative parsing needs an algebra or names")
            names = algebra.varnames
        names = tuple(names)
        nvars = len(names)
        index = {nm: k for k, nm in enumerate(names)}
        parser = _Parser(
            text,
            one=CPoly.one(nvars),
            i_value=CPoly.constant(nvars, GR_I),
            h_value=CPoly.constant(nvars, H),
            lookup=lambda nm: (
                CPoly.variable(nvars, index[nm]) if nm in index else None
            ),
            multiply=lambda a, b: a * b,
        )
        return parser.parse()
    if mode == "noncommutative":
        if algebra is None:
            raise ValueError("noncommutative parsing needs an algebra")
        index = {nm: k for k, nm in enumerate(algebra.names)}
        parser = _Parser(
            text,
            one=NCPoly.one(algebra),
            i_value=NCPoly.scalar(algebra, GR_I),
            h_value=NCPoly.scalar(algebra, H),
            lookup=lambda nm: (
                NCPoly.generator(algebra, index[nm]) if nm in index else None
            ),
            multiply=lambda a, b: a.concat(b),
        )
        return parser.parse()
    raise ValueError(f"unknown parse mode {mode!r}")


def parse_hpoly(text) -> HPoly:
    """Parse an expression in h (and i) only."""
    value = parse_expression(text, mode="commutative", names=())
    return value.coeff(())


def parse_scalar(text) -> GaussianRational:
    """Parse an h-free scalar expression."""
    return parse_hpoly(text).as_scalar()


def parse_rational(text) -> Fraction:
    s = parse_scalar(text)
    if s.im:
        raise ValueError(f"{text!r} is not a real rational")
    return s.re


# ---------------------------------------------------------------------------
# Printing.

def _monomial_text(exps, names) -> str:
    pieces = []
    for name, e in zip(names, exps):
        if e == 0:
            continue
        pieces.append(name if e == 1 else f"{name}^{e}")
    return "*".join(pieces)


def format_cpoly(f: CPoly, names) -> str:
    """Canonical text, low degree first, re-parseable by parse_expression."""
    if f.is_zero():
        return "0"
    names = tuple(names)

    def order(item):
        exps, _ = item
        return (sum(exps), tuple(-e for e in exps))

    pieces = []
    for exps, coeff in sorted(f.terms.items(), key=order):
        pieces.extend(coeff_pieces(coeff, _monomial_text(exps, names)))
    return join_signed(pieces)


def _word_text(word, names) -> str:
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


def format_ncpoly(u: NCPoly) -> str:
    """Canonical text for words, longest words first."""
    if u.is_zero():
        return "0"
    names = u.algebra.names
    pieces = []
    for word, coeff in sorted(u.terms.items(), key=lambda kv: (-len(kv[0]), kv[0])):
        pieces.extend(coeff_pieces(coeff, _word_text(word, names)))
    return join_signed(pieces)
