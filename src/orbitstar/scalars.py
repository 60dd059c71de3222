"""Exact arithmetic over the ring Q(i)[h], whose h-free values are the scalars.

Every coefficient in the engine lives in Q(i)[h]: polynomials in the
deformation parameter h whose coefficients have exact rational real and
imaginary parts.  HPoly stores such a polynomial as h^val * num / den:
Gaussian-integer numerators over one shared positive denominator, in lowest
terms (the layout of FLINT's fmpq_poly), times a power of h (its h-adic
valuation).  Its sums and products are plain int arithmetic, and skip every
gcd when the denominator is 1, as it is for all PBW rewriting over su2 and
sl2.  The deformed relations are graded in h, so PBW rewriting yields only
single powers c*h^k; with the valuation held apart these are one numerator
pair, and they multiply and add in constant time.  HPoly is the one type of
Q(i): a Gaussian rational is an h-free HPoly (val == 0 and at most one
numerator pair), the scalar of the linear algebra, the structure constants
and the representations, and the form in which coefficients are read out.
HPoly.const makes one from an int, a Fraction or an h-free HPoly, and
refuses anything else.
acc_scaled, the one step that adds c*v into a term dict (every sum and
product of CPoly and NCPoly, the orbit ideal's substitution and the row
eliminations of LinearSystem), lives here because it reads HPoly's fields: a
product of two single powers c*h^k, and its sum with a stored single power
of the same h-degree, are a few int operations and one HPoly per key, shared
from a bounded, process-wide table (_SMALL) when it is a small integer times
a power of h, so that equal small coefficients are one object.
Every other sum (HPoly(coeffs), HPoly.__add__) is one _sum per value, per
power of h over the lcm of denominators.
The printers read HPoly's integer fields directly, reducing each numerator
against the denominator with one gcd.  Values are immutable after
construction; equality is exact structural equality.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm


class HPoly:
    """Polynomial in h over the Gaussian rationals, stored as h^val * num / den.

    num[k] = (re, im) holds the Gaussian-integer numerator of the h^(val+k)
    coefficient, den > 0 is one denominator shared by all of them, and val
    >= 0 is the h-adic valuation.  The form is canonical: gcd(den, every re
    and im) == 1, num[0] and num[-1] are not (0, 0), and zero is ((), 1, 0).
    Equal values therefore have equal fields, and a single power c*h^k is
    one numerator pair.  The degree of zero is None (a stand-in for minus
    infinity).
    """

    __slots__ = ("num", "den", "val")

    def __init__(self, coeffs=()):
        cs = [HPoly.const(c) for c in coeffs]
        p = _sum([_hpoly(c.num, c.den, k) for k, c in enumerate(cs)] or [H_ZERO])
        self.num, self.den, self.val = p.num, p.den, p.val

    @staticmethod
    def const(x):
        """x as an h-free HPoly: x is an int, a Fraction or an h-free HPoly;
        anything else, an HPoly in which h occurs included, is a TypeError."""
        p = as_hpoly(x)
        if p is None:
            raise TypeError(f"not a scalar: {x!r}")
        if p.val or len(p.num) > 1:
            raise TypeError(f"{p} is not h-free")
        return p

    @property
    def coeffs(self):
        """The coefficients of h^0, h^1, ... as h-free HPolys."""
        return tuple(self.coeff(k) for k in range(self.val + len(self.num)))

    @property
    def degree(self):
        return self.val + len(self.num) - 1 if self.num else None

    def coeff(self, k):
        """The coefficient of h^k, as an h-free HPoly."""
        k -= self.val
        if 0 <= k < len(self.num):
            return _hpoly(*_canonical(self.num[k:k + 1], self.den, 0))
        return H_ZERO

    def is_zero(self):
        return not self.num

    def as_scalar(self):
        """The value itself, checked h-free; raises if h actually occurs."""
        if self.val or len(self.num) > 1:
            raise ValueError(f"{self} is not h-free")
        return self

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        if other.__class__ is not HPoly:
            other = as_hpoly(other)
            if other is None:
                return NotImplemented
        a, b = self.num, other.num
        den, val = self.den, self.val
        if len(a) == 1 and len(b) == 1 and val == other.val and den == other.den:
            (ar, ai), (br, bi) = a[0], b[0]
            re, im = ar + br, ai + bi
            if den == 1:
                return _hpoly(((re, im),), 1, val) if re or im else H_ZERO
            return _hpoly(*_canonical(((re, im),), den, val))
        return _sum((self, other))

    __radd__ = __add__

    def __sub__(self, other):
        other = as_hpoly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = as_hpoly(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _hpoly(tuple((-re, -im) for re, im in self.num), self.den, self.val)

    def __mul__(self, other):
        if other.__class__ is not HPoly:
            other = as_hpoly(other)
            if other is None:
                return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return H_ZERO
        val = self.val + other.val
        den = self.den * other.den
        if len(a) == 1 and len(b) == 1:
            (ar, ai), = a
            (br, bi), = b
            re, im = ar * br - ai * bi, ar * bi + ai * br
            if den != 1:
                g = gcd(den, re, im)
                if g != 1:
                    re, im, den = re // g, im // g, den // g
            return _hpoly(((re, im),), den, val)
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            (ar, ai), = a
            num = tuple([(ar * br - ai * bi, ar * bi + ai * br) for br, bi in b])
        else:
            n = len(a) + len(b) - 1
            res = [0] * n
            ims = [0] * n
            for j, (ar, ai) in enumerate(a):
                for k, (br, bi) in enumerate(b):
                    res[j + k] += ar * br - ai * bi
                    ims[j + k] += ar * bi + ai * br
            num = tuple(zip(res, ims))
        # Z[i] has no zero divisors, so the end coefficients are nonzero.
        if den == 1:
            return _hpoly(num, 1, val)
        return _hpoly(*_canonical(num, den, val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = HPoly.const(other)
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(i)")
        # p / g == p * s * (a - b*i) / (a^2 + b^2), with g = (a + b*i) / s.
        (a, b), = other.num
        s, norm = other.den, a * a + b * b
        num = [((re * a + im * b) * s, (im * a - re * b) * s) for re, im in self.num]
        return _hpoly(*_canonical(num, self.den * norm, self.val))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = H_ONE
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if other.__class__ is not HPoly:
            other = as_hpoly(other)
            if other is None:
                return NotImplemented
        return (self.num, self.den, self.val) == (other.num, other.den, other.val)

    def __hash__(self):
        # A real h-free value equals its int or Fraction, so it hashes like it.
        if not self.val and len(self.num) <= 1:
            re, im = self.num[0] if self.num else (0, 0)
            if not im:
                return hash(Fraction(re, self.den))
        return hash((self.num, self.den, self.val))

    def evaluate(self, h0):
        """The h-free value at h := h0, an h-free value (Horner on the
        integer numerators)."""
        h0 = HPoly.const(h0)
        if not self.num:
            return H_ZERO
        # With h0 = (a + b*i) / s, s^(n-1) * sum num[k] h0^k is the Gaussian
        # integer that Horner's rule builds from num[k] * s^(n-1-k).
        (a, b), = h0.num or ((0, 0),)
        s = h0.den
        re, im = self.num[-1]
        scale = 1
        for cr, ci in reversed(self.num[:-1]):
            scale *= s
            re, im = re * a - im * b + cr * scale, re * b + im * a + ci * scale
        for _ in range(self.val):
            re, im = re * a - im * b, re * b + im * a
        den = self.den * s ** (len(self.num) - 1 + self.val)
        return _hpoly(*_canonical(((re, im),), den, 0))

    def truncate(self, k):
        """Drop all terms of h-degree >= k."""
        if k <= self.val:
            return H_ZERO
        return _hpoly(*_canonical(self.num[:k - self.val], self.den, self.val))

    def __str__(self):
        return format_hpoly(self)

    def __repr__(self):
        return format_hpoly(self)


def _hpoly(num, den, val):
    """An HPoly from fields already in canonical form."""
    p = object.__new__(HPoly)
    p.num = num
    p.den = den
    p.val = val
    return p


def _sum(values):
    """The sum of a nonempty sequence of HPolys, per power of h on the
    integer fields, over the lcm of their denominators: the one general
    addition in Q(i)[h]."""
    den, val = 1, values[0].val
    for c in values:
        if c.den != den:
            den = lcm(den, c.den)
        if c.val < val:
            val = c.val
    out = []
    for c in values:
        s, k = den // c.den, c.val - val
        n = k + len(c.num) - len(out)
        if n > 0:
            out += [(0, 0)] * n
        for re, im in c.num:
            ore, oim = out[k]
            out[k] = (ore + re * s, oim + im * s)
            k += 1
    return _hpoly(*_canonical(out, den, val))


def _canonical(num, den, val):
    """(num, den, val) with the (0, 0) pairs at both ends dropped, val raised
    by the number dropped at the low end, and the gcd divided out."""
    n = len(num)
    while n and num[n - 1] == (0, 0):
        n -= 1
    lo = 0
    while lo < n and num[lo] == (0, 0):
        lo += 1
    if lo == n:
        return (), 1, 0
    num = tuple(num[lo:n])
    val += lo
    if den == 1:
        return num, 1, val
    g = den
    for re, im in num:
        g = gcd(g, re, im)
        if g == 1:
            return num, den, val
    return tuple((re // g, im // g) for re, im in num), den // g, val


def as_hpoly(x):
    """Coerce an int, a Fraction or an HPoly to HPoly, or None for anything
    else; 1 gives the interned H_ONE, whose products the kernels skip."""
    if isinstance(x, HPoly):
        return x
    if isinstance(x, int):
        return H_ONE if x == 1 else _hpoly(((x, 0),), 1, 0) if x else H_ZERO
    if isinstance(x, Fraction):
        return _hpoly(((x.numerator, 0),), x.denominator, 0) if x else H_ZERO
    return None


H_ZERO = _hpoly((), 1, 0)
H_ONE = _hpoly(((1, 0),), 1, 0)
H = _hpoly(((1, 0),), 1, 1)
I = _hpoly(((0, 1),), 1, 0)

# _SMALL[val][re] is the canonical re*h^val for 0 < |re| <= _R and val < _V (a
# negative re indexes from the end of its row), made on first use; never 0.
_R, _V = 16, 8
_SMALL = [[None] * (2 * _R + 1) for _ in range(_V)]
_SMALL[0][1], _SMALL[1][1] = H_ONE, H


# ---------------------------------------------------------------------------
# Accumulation into term dicts (key -> nonzero HPoly), the inner step of
# every sum and product of CPoly and NCPoly.

def acc_term(d, key, c):
    """Add c to d[key] (a monomial or a word), dropping the key on cancellation."""
    cur = d.get(key)
    new = c if cur is None else cur + c
    if new:
        d[key] = new
    else:
        d.pop(key, None)


def acc_scaled(d, terms, c):
    """Add c times each of terms (key -> coefficient) to d in place, dropping
    keys that cancel.  c must be nonzero.  With c the interned H_ONE a term
    whose key d lacks is stored as it is; a product of two single powers
    c*h^k, and its sum with a stored single power of the same h-degree, are
    formed on the integer fields, a small one read from _SMALL; other
    coefficients go through HPoly arithmetic."""
    one, small = H_ONE, _SMALL
    if len(c.num) != 1:
        for key, v in terms.items():
            acc_term(d, key, c if v is one else c * v)
        return
    unit = c is one
    (cr, ci), = c.num
    cden, cval = c.den, c.val
    for key, v in terms.items():
        cur = d.get(key)
        if unit and cur is None:
            d[key] = v
            continue
        vnum = v.num
        if len(vnum) != 1:
            acc_term(d, key, v if unit else c * v)
            continue
        (vr, vi), = vnum
        re, im = cr * vr - ci * vi, cr * vi + ci * vr
        den, val = cden * v.den, cval + v.val
        if cur is not None and len(cur.num) == 1 and cur.val == val:
            (ur, ui), = cur.num
            uden = cur.den
            if uden == den:
                re, im = re + ur, im + ui
            else:
                re, im, den = re * uden + ur * den, im * uden + ui * den, den * uden
            if not (re or im):
                del d[key]
                continue
            cur = None
        if den != 1:
            g = gcd(den, re, im)
            if g != 1:
                re, im, den = re // g, im // g, den // g
        if den == 1 and not im and val < _V and -_R <= re <= _R:
            p = small[val][re]
            if p is None:
                p = small[val][re] = _hpoly(((re, 0),), 1, val)
        else:
            p = _hpoly(((re, im),), den, val)
        if cur is None:
            d[key] = p
        else:
            acc_term(d, key, p)


# ---------------------------------------------------------------------------
# Text form.  The printed form of every value re-parses to the same value
# under the expression grammar used by the CLI.

def format_scalar(s) -> str:
    """The text of an h-free value, re + im*i without parentheses."""
    s = HPoly.const(s)
    if not s.num:
        return "0"
    (re, im), = s.num
    return _complex_text(re, im, s.den)


def _complex_text(re: int, im: int, den: int) -> str:
    """The text of (re + im*i) / den, not both of re and im zero."""
    if not im:
        return _ratio_text(re, den)
    mag = abs(im)
    text = "i" if mag == den else f"{_ratio_text(mag, den)}*i"
    if not re:
        return text if im > 0 else f"-{text}"
    return f"{_ratio_text(re, den)} {'+' if im > 0 else '-'} {text}"


def _ratio_text(n: int, den: int) -> str:
    """str(Fraction(n, den)) for den > 0, without building the Fraction.
    Python refuses to print an integer longer than its integer-string limit,
    which the parser keeps to as well, so a longer coefficient has no
    printed form that re-parses: that is bad input, said plainly."""
    g = gcd(n, den)
    try:
        return str(n // g) if g == den else f"{n // g}/{den // g}"
    except ValueError:
        raise ValueError("coefficient too long to print: more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


def format_terms(terms) -> str:
    """The text of the sum of c*m over the (c, m) in terms, c an HPoly and m
    the text of a monomial ("" for 1), built as one list of pieces and
    joined once.  Each nonzero c*h^k of c is a signed piece read from its
    integer fields: a leading minus is folded out of a real or imaginary
    coefficient, a real unit prints as nothing before h^k or m, and a c of
    several powers of h is kept in parentheses before m, so the printed
    expression re-parses to the same value."""
    out = []
    for c, mono in terms:
        group = mono and len(c.num) > 1
        pieces = [] if group else out
        put = pieces.append
        tail = "" if group else mono
        den = c.den
        for k, (re, im) in enumerate(c.num, c.val):
            sep = " + "
            if not im:
                if not re:
                    continue
                if re < 0:
                    sep, re = " - ", -re
                head = "" if re == den else _ratio_text(re, den)
            elif not re:
                if im < 0:
                    sep, im = " - ", -im
                head = _complex_text(0, im, den)
            else:
                head = f"({_complex_text(re, im, den)})"
            if k:
                power = "h" if k == 1 else f"h^{k}"
                head = f"{head}*{power}" if head else power
            if tail:
                head = f"{head}*{tail}" if head else tail
            put(sep)
            put(head or "1")
        if group:
            out.append(" + ")
            out.append(f"({_signed_join(pieces)})*{mono}")
    return _signed_join(out)


def _signed_join(pieces) -> str:
    """The text of the alternating separators and terms in pieces, its
    leading " + " dropped and a leading " - " printed as "-"."""
    if not pieces:
        return "0"
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


def format_hpoly(p: HPoly) -> str:
    return format_terms(((p, ""),))
