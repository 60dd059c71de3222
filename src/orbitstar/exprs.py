"""Expression text: a recursive-descent parser and matching printers.

Grammar (shared by the CLI and config loaders):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' natural)?
    atom   := rational | 'i' | 'h' | name | '(' expr ')'

Numbers are ASCII digits (a rational is natural or natural/natural), each
digit run within Python's integer-string limit, and an exponent is at most
MAX_EXPONENT.  The parser works straight on term dicts
(key -> nonzero HPoly) and wraps the result once: in commutative mode names
are coordinate variables, keys are exponent vectors and the result is a
CPoly; in noncommutative mode names are generator labels, keys are words,
the product concatenates them in order, and the result is an unnormalized
NCPoly.  Printing any engine value yields text that parses back to the same
value.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, mul

from .envelope import NCPoly
from .lie import LieAlgebra
from .poly import CPoly, monomial_mul, product
from .scalars import (
    H,
    H_ONE,
    HPoly,
    I,
    _hpoly,
    acc_scaled,
    format_terms,
)


class ExprSyntaxError(ValueError):
    """A parse failure, carrying the offset where it happened."""

    def __init__(self, message, position):
        super().__init__(f"{message} at offset {position}")
        self.position = position


_OPS = set("+-*^()")
_DIGITS = set("0123456789")
MAX_EXPONENT = 64
_H_MINUS_ONE = -H_ONE


def _monomial_pow(exps, n):
    return tuple([e * n for e in exps])


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
        if ch in _DIGITS:
            start = pos
            while pos < size and text[pos] in _DIGITS:
                pos += 1
            if pos < size and text[pos] == "/" and pos + 1 < size and text[pos + 1] in _DIGITS:
                pos += 1
                while pos < size and text[pos] in _DIGITS:
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


def _natural(text, pos):
    """The value of a run of ASCII digits.  int refuses a run longer than
    Python's integer-string limit (sys.get_int_max_str_digits), leading
    zeros included; that is bad input, reported at the token's offset."""
    try:
        return int(text)
    except ValueError:
        raise ExprSyntaxError("number too long", pos) from None


class _Parser:
    """Parses straight into term dicts (key -> nonzero HPoly), so the AST is
    implicit.  The mode supplies the unit key, the key product, the key
    power and the key of each name; sums accumulate in place, every product
    of factors is one dict product, and so is each step of a power, except
    that a power of one term is one key power and one coefficient power."""

    def __init__(self, text, unit, key_mul, key_pow, keys):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.unit = unit
        self.key_mul = key_mul
        self.key_pow = key_pow
        self.keys = keys

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
        negate = self.peek()[0] == "-"
        if negate:
            self.advance()
        value = self.term()
        if negate:
            value = {k: -c for k, c in value.items()}
        while self.peek()[0] in ("+", "-"):
            sign = H_ONE if self.advance()[0] == "+" else _H_MINUS_ONE
            acc_scaled(value, self.term(), sign)
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = product(value, self.factor(), self.key_mul)
        return value

    def factor(self):
        value = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            _, text, pos = self.expect("number")
            if "/" in text:
                raise ExprSyntaxError("exponent must be a natural number", pos)
            n = _natural(text, pos)
            if n > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent above {MAX_EXPONENT}", pos)
            if len(value) == 1:
                (key, c), = value.items()
                return {self.key_pow(key, n): c if c is H_ONE else c ** n}
            power = value if n else {self.unit: H_ONE}
            for _ in range(n - 1):
                power = product(value, power, self.key_mul)
            return power
        return value

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "number":
            self.advance()
            num, _, den = text.partition("/")
            num, den = _natural(num, pos), _natural(den or "1", pos)
            if not den:
                raise ExprSyntaxError("zero denominator", pos)
            if not num:
                return {}
            g = gcd(num, den)
            return {self.unit: _hpoly(((num // g, 0),), den // g, 0)}
        if kind == "name":
            self.advance()
            if text == "i":
                return {self.unit: I}
            if text == "h":
                return {self.unit: H}
            key = self.keys.get(text)
            if key is None:
                raise ExprSyntaxError(f"unknown name {text!r}", pos)
            return {key: H_ONE}
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
    explicit names sequence overrides the commutative variables.  An
    exponent above MAX_EXPONENT is a syntax error; this caps the parser
    only, so a small input such as (X+Y+Z)^16 still expands to 3^16 words.
    """
    if mode == "commutative":
        if names is None:
            if algebra is None:
                raise ValueError("commutative parsing needs an algebra or names")
            names = algebra.varnames
        names = tuple(names)
        nvars = len(names)
        keys = {nm: tuple([int(j == k) for j in range(nvars)])
                for k, nm in enumerate(names)}
        terms = _Parser(text, (0,) * nvars, monomial_mul, _monomial_pow, keys).parse()
        return CPoly.zero(nvars)._new(terms)
    if mode == "noncommutative":
        if algebra is None:
            raise ValueError("noncommutative parsing needs an algebra")
        keys = {nm: (k,) for k, nm in enumerate(algebra.names)}
        terms = _Parser(text, (), add, mul, keys).parse()
        return NCPoly.zero(algebra)._new(terms)
    raise ValueError(f"unknown parse mode {mode!r}")


def parse_hpoly(text) -> HPoly:
    """Parse an expression in h (and i) only."""
    value = parse_expression(text, mode="commutative", names=())
    return value.coeff(())


def parse_scalar(text) -> HPoly:
    """Parse an h-free scalar expression."""
    return parse_hpoly(text).as_scalar()


def parse_rational(text) -> Fraction:
    s = parse_scalar(text)
    (re, im), = s.num or ((0, 0),)
    if im:
        raise ValueError(f"{text!r} is not a real rational")
    return Fraction(re, s.den)


# ---------------------------------------------------------------------------
# Printing.

def _monomial_text(exps, names) -> str:
    pieces = []
    for name, e in zip(names, exps):
        if e == 0:
            continue
        pieces.append(name if e == 1 else f"{name}^{e}")
    return "*".join(pieces)


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


# The printed text of a monomial or word, by (names, key): the same key prints
# differently under other names.  A memo is cleared when it holds _TEXT_CAP
# entries, so each stays bounded.
_TEXT_CAP = 4096
_MONOMIAL_TEXTS = {}
_WORD_TEXTS = {}


def _format(terms, keys, names, memo, key_text):
    """The text of the term dict, its keys in the given order."""
    pairs = []
    for key in keys:
        text = memo.get((names, key))
        if text is None:
            if len(memo) >= _TEXT_CAP:
                memo.clear()
            text = memo[names, key] = key_text(key, names)
        pairs.append((terms[key], text))
    return format_terms(pairs)


def format_cpoly(f: CPoly, names) -> str:
    """Canonical text, low degree first (then the higher exponent of the
    first variable first), re-parseable by parse_expression; names holds
    one name per variable."""
    names = tuple(names)
    if len(names) != f.nvars:
        raise ValueError(f"{len(names)} names for {f.nvars} variables")
    keys = sorted(f.terms, reverse=True)
    keys.sort(key=sum)
    return _format(f.terms, keys, names, _MONOMIAL_TEXTS, _monomial_text)


def format_ncpoly(u: NCPoly) -> str:
    """Canonical text for words, longest words first."""
    keys = sorted(u.terms)
    keys.sort(key=len, reverse=True)
    return _format(u.terms, keys, u.algebra.names, _WORD_TEXTS, _word_text)
