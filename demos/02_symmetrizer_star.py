#!/usr/bin/env python3
"""The symmetrizer star product on polynomials.

The symmetrizer sends a monomial of degree p to the average of its p!
orderings; it is a linear isomorphism onto the deformed enveloping algebra
and pulls the noncommutative product back to a star product
f * g = fg + h B_1(f, g) + h^2 B_2(f, g) + ...
"""

from orbitstar import (
    CPoly,
    check_deformation_axioms,
    format_cpoly,
    format_ncpoly,
    kirillov_bracket,
    predefined,
    sym_inverse,
    symmetrize,
    symmetrizer_product,
)

su2 = predefined("su2")
V = su2.varnames
x, y, z = (CPoly.variable(3, i) for i in range(3))

print("The symmetrizer and its inverse:")
print(f"  Sym(x*y)    = {format_ncpoly(symmetrize(su2, x * y))}")
print(f"  Sym(x^2)    = {format_ncpoly(symmetrize(su2, x * x))}")
p = x * x + y * y + z * z
P = symmetrize(su2, p)
print(f"  Sym(p)      = {format_ncpoly(P)}   central: {P.is_central()}")
roundtrip = sym_inverse(su2, symmetrize(su2, x * y * z))
print(f"  Sym^-1(Sym(x*y*z)) = {format_cpoly(roundtrip, V)}")

star = symmetrizer_product(su2)
print("\nThe induced star product:")
print(f"  x * y         = {format_cpoly(star.star(x, y), V)}")
print(f"  x * y - y * x = {format_cpoly(star.star(x, y) - star.star(y, x), V)}")
print(f"  {{x, y}}        = {format_cpoly(kirillov_bracket(su2, x, y), V)}")

print("\nOrder coefficients B_n:")
for n in range(3):
    print(f"  B_{n}(x, y^2) = {format_cpoly(star.bn(x, y * y, n), V)}")

print("\nDeformation axioms swept over monomials (exact):")
report = check_deformation_axioms(star, 3, assoc_degree=4)
print(f"  pairs checked: {report['pairs']}, triples: {report['triples']},",
      f"all pass: {not report['failures']}")
