#!/usr/bin/env python3
"""Two ways to extend the orbit correspondence to all polynomials.

The split embedding sends the cofactor of (p - 1) to the matching cofactor
of (P - 1); it preserves its own orbit ideal but not the ideals of nearby
levels.  The tangential embedding instead rides on powers of (p - 1) and
(P - c(h)) and preserves every nearby ideal, so it restricts to a star
product on every neighboring orbit.  Under it, invariant factors multiply
undeformed: g * p = g p exactly.
"""

from fractions import Fraction

from orbitstar import CPoly, format_cpoly, format_ncpoly, predefined, sphere_orbit, symmetrizer_product

su2 = predefined("su2")
V = su2.varnames
x, y, z = (CPoly.variable(3, i) for i in range(3))
p = x * x + y * y + z * z
orb = sphere_orbit(1)

print("Images of a few polynomials:")
print(f"  split(x)          = {format_ncpoly(orb.split_embed(x))}")
print(f"  split(p - 1)      = {format_ncpoly(orb.split_embed(p - CPoly.one(3)))}")
print(f"  tangential(p - 1) = {format_ncpoly(orb.tangential_embed(p - CPoly.one(3)))}")
print(f"  tangential(x*z)   = {format_ncpoly(orb.tangential_embed(x * z))}")

print("\nIdeal preservation across nearby levels (degree bound 4):")
for level in (1, Fraction(5, 4), Fraction(3, 4)):
    w = orb.tangentiality_check(orb.tangential_embed, level, 4)
    print(f"  tangential embed, level {level}: {'FAILS' if w else 'preserved'}")
for level in (1, Fraction(5, 4)):
    w = orb.tangentiality_check(orb.split_embed, level, 5)
    print(f"  split embed, level {level}: {'FAILS' if w else 'preserved'}")
    if w:
        print(f"    first witness: cofactor {format_cpoly(w['cofactor'], V)},"
              f" remainder {format_ncpoly(w['remainder'])}")

print("\nBoth embeddings commute with reduction onto the level-1 orbit:")
for embed, label in ((orb.split_embed, "split"), (orb.tangential_embed, "tangential")):
    print(f"  {label}: {orb.reduction_compatibility_check(embed, 4) is None}")

print("\nMultiplication by the invariant p (degree bound 3):")
w = orb.invariant_product_check(orb.tangential_product(), 3)
print(f"  tangential product: g * p == g p for all monomials: {w is None}")
star_s = symmetrizer_product(su2)
diff = star_s.star(x, p) - x * p
print(f"  symmetrizer product: x * p - x p = {format_cpoly(diff, V)}  (deformed!)")
