"""A Fraction-based Gaussian rational: the oracle the HPoly kernel and its
printers are tested against.

It shares no code with orbitstar.scalars.  A value is a pair of Fractions
and each operation is the schoolbook formula on them, so an error in the
integer-field kernel (a sign, a missed gcd, a wrong denominator) shows up as
a disagreement.  It holds only what the oracle tests call.
"""

from fractions import Fraction


class GaussianRational:
    """A number re + im*i with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational((self.re * other.re + self.im * other.im) / norm,
                                (self.im * other.re - self.re * other.im) / norm)

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im
