"""Exact arithmetic over the Gaussian rationals and the ring Q(i)[h].

Every coefficient in the engine lives in Q(i)[h]: polynomials in the
deformation parameter h whose coefficients have exact rational real and
imaginary parts.  Values are immutable after construction; equality is
exact structural equality.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class GaussianRational:
    """A number re + im*i with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_zero(self):
        return not self

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __add__(self, other):
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = GR_ONE
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return format_scalar(self)


def as_gauss(x):
    """Coerce x to GaussianRational, or None if it is not scalar-like."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


class HPoly:
    """Polynomial in h over the Gaussian rationals.

    coeffs[k] is the coefficient of h^k; the sequence carries no trailing
    zeros, and the zero polynomial is the empty sequence.  The degree of
    zero is None (a stand-in for minus infinity).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = []
        for c in coeffs:
            g = as_gauss(c)
            if g is None:
                raise TypeError(f"bad coefficient {c!r}")
            cs.append(g)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, x):
        g = as_gauss(x)
        if g is None:
            raise TypeError(f"bad constant {x!r}")
        return cls((g,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, k):
        """The coefficient of h^k."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GR_ZERO

    def is_zero(self):
        return not self.coeffs

    def as_scalar(self):
        """The value as a GaussianRational; raises if h actually occurs."""
        if len(self.coeffs) > 1:
            raise ValueError(f"{self} is not h-free")
        return self.coeff(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        other = as_hpoly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return HPoly(out)

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
        return HPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        other = as_hpoly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return H_ZERO
        out = [GR_ZERO] * (len(a) + len(b) - 1)
        for j, cj in enumerate(a):
            if not cj:
                continue
            for k, ck in enumerate(b):
                if ck:
                    out[j + k] = out[j + k] + cj * ck
        return HPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = as_gauss(other)
        if g is None:
            return NotImplemented
        return HPoly([c / g for c in self.coeffs])

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = H_ONE
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = as_hpoly(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def evaluate(self, h0):
        """Substitute h := h0 exactly (Horner)."""
        g = as_gauss(h0)
        if g is None:
            raise TypeError(f"bad substitution value {h0!r}")
        out = GR_ZERO
        for c in reversed(self.coeffs):
            out = out * g + c
        return out

    def truncate(self, k):
        """Drop all terms of h-degree >= k."""
        return HPoly(self.coeffs[:k])

    def __str__(self):
        return format_hpoly(self)

    def __repr__(self):
        return format_hpoly(self)


def as_hpoly(x):
    """Coerce x to HPoly, or None if it is not coefficient-like."""
    if isinstance(x, HPoly):
        return x
    g = as_gauss(x)
    if g is None:
        return None
    return HPoly((g,))


H_ZERO = HPoly()
H_ONE = HPoly((GR_ONE,))
H = HPoly((GR_ZERO, GR_ONE))


# ---------------------------------------------------------------------------
# Text form.  The printed form of every value re-parses to the same value
# under the expression grammar used by the CLI.

def _frac_text(q: Fraction) -> str:
    return str(q)


def format_scalar(s: GaussianRational) -> str:
    if not s:
        return "0"
    if not s.im:
        return _frac_text(s.re)
    if s.im == 1:
        im = "i"
    elif s.im == -1:
        im = "-i"
    else:
        im = f"{_frac_text(s.im)}*i"
    if not s.re:
        return im
    if s.im > 0:
        im = im if s.im != 1 else "i"
        return f"{_frac_text(s.re)} + {im}"
    mag = -s.im
    im = "i" if mag == 1 else f"{_frac_text(mag)}*i"
    return f"{_frac_text(s.re)} - {im}"


def _hterm_sign_split(s: GaussianRational):
    """(negative, magnitude) when a leading minus can be folded out, else None."""
    if not s.im:
        return (s.re < 0, GaussianRational(abs(s.re)))
    if not s.re:
        return (s.im < 0, GaussianRational(0, abs(s.im)))
    return None


def _scalar_factor_text(s: GaussianRational, tail: bool) -> str:
    """Render s as a leading factor of a product; tail says more factors follow."""
    if not s.im:
        if s.re == 1 and tail:
            return ""
        return _frac_text(s.re)
    if not s.re:
        txt = "i" if s.im == 1 else f"{_frac_text(s.im)}*i"
        return txt
    return f"({format_scalar(s)})"


def _hterm_text(s: GaussianRational, k: int, tail: bool) -> str:
    """Render s*h^k as a product prefix; tail says a monomial follows.

    Returns "" when the factor is exactly 1 and a monomial follows.
    """
    parts = []
    head = _scalar_factor_text(s, tail or k > 0)
    if head:
        parts.append(head)
    if k == 1:
        parts.append("h")
    elif k > 1:
        parts.append(f"h^{k}")
    if not parts and not tail:
        parts.append("1")
    return "*".join(parts)


def format_hpoly(p: HPoly) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for k, s in enumerate(p.coeffs):
        if not s:
            continue
        split = _hterm_sign_split(s)
        if split is None:
            neg, mag = False, s
        else:
            neg, mag = split
        text = _hterm_text(mag, k, tail=False)
        pieces.append(("-" if neg else "+", text))
    return join_signed(pieces)


def join_signed(pieces) -> str:
    """Join (sign, text) pieces into an expression string."""
    sign, text = pieces[0]
    out = text if sign == "+" else f"-{text}"
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out


def coeff_pieces(c: HPoly, monomial_text: str):
    """Signed pieces for the term c*monomial, folding signs where possible.

    Returns a list of (sign, text) suitable for join_signed.  A coefficient
    with several h-terms is kept in parentheses so the printed expression
    re-parses to the same value.
    """
    nonzero = [(k, s) for k, s in enumerate(c.coeffs) if s]
    if not nonzero:
        return []
    if not monomial_text:
        return [piece for k, s in nonzero for piece in _const_pieces(s, k)]
    if len(nonzero) == 1:
        k, s = nonzero[0]
        split = _hterm_sign_split(s)
        if split is None:
            neg, mag = False, s
        else:
            neg, mag = split
        head = _hterm_text(mag, k, tail=True)
        text = f"{head}*{monomial_text}" if head else monomial_text
        return [("-" if neg else "+", text)]
    return [("+", f"({format_hpoly(c)})*{monomial_text}")]


def _const_pieces(s: GaussianRational, k: int):
    split = _hterm_sign_split(s)
    if split is None:
        neg, mag = False, s
    else:
        neg, mag = split
    return [("-" if neg else "+", _hterm_text(mag, k, tail=False))]
