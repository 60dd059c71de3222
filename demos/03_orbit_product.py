#!/usr/bin/env python3
"""The star product on the unit sphere orbit p = 1.

Polynomials on the orbit have a basis of monomials x^r y^s z^v with v <= 1;
the product maps basis monomials to ordered words, multiplies in the
deformed algebra, reduces modulo the lifted ideal (P - c(h)), and reads the
result back.  Its first order is pinned down on x,y-polynomials by
p1 * p2 = p1 p2 - h z (dp1/dy)(dp2/dx) mod h^2.
"""

from orbitstar import CPoly, NCPoly, format_cpoly, format_ncpoly, predefined, sphere_orbit

su2 = predefined("su2")
V = su2.varnames
x, y, z = (CPoly.variable(3, i) for i in range(3))
orb = sphere_orbit(1)
star = orb.star_product()

print("Reduction to the orbit basis (z^2 -> 1 - x^2 - y^2):")
print(f"  z^2   -> {format_cpoly(orb.orbit_reduce(z * z), V)}")
print(f"  z^3   -> {format_cpoly(orb.orbit_reduce(z ** 3), V)}")

print("\nThe deformed side: words with Z-exponent >= 2 rewrite through the")
print("central element P = X^2 + Y^2 + Z^2 (replaced by the lift c(h) = 1):")
Z2 = NCPoly.word(su2, (2, 2))
print(f"  Z^2   -> {format_ncpoly(orb.ideal_reduce(Z2))}")
u = NCPoly.word(su2, (2, 2, 0)).normal_form()
q, r = orb.ideal_reduce(u, track_quotient=True)
print(f"  Z^2 X -> {format_ncpoly(r)}")
print(f"  with cofactor q = {format_ncpoly(q)} so that q(P-1) + r == Z^2 X:",
      q * orb.casimir_minus_lift() + r == u)

print("\nThe orbit star product:")
print(f"  z * z = {format_cpoly(star.star(z, z), V)}")
print(f"  y * x = {format_cpoly(star.star(y, x), V)}")

print("\nFirst-order rule on x,y-polynomials:")
for p1, p2, label in [(y, x, "y, x"), (x * y, x, "xy, x"), (y * y, x * x, "y^2, x^2")]:
    res = orb.first_order_check(p1, p2)
    print(f"  ({label}): product mod h^2 = {format_cpoly(res['got'], V)}"
          f"   rule agrees: {res['got'] == res['expected']}")
