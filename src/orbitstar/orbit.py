"""Orbit algebras: reduction modulo the orbit ideal on both sides of the
quantization, the induced star products, and the checks that probe them.

An Orbit couples the sum of squares p = x_1^2 + ... + x_n^2 (validated
Poisson-invariant) with a nonzero level constant c0 and a lift c(h) with
c(0) = c0.  This rank-one sphere is the only orbit shape implemented, and
the constructor rejects every other invariant and every algebra but a
three-dimensional one.  On the commutative side the
ideal (p - c0) is handled by one confluent rewrite rule with the last
variable leading (z^2 -> c0 - x^2 - y^2); on the deformed side the central
element P = symmetrize(p) drives the analogous word rewrite
Z^2 -> P - X^2 - Y^2 with renormalization, which terminates because each
substitution lowers the generator degree.  P is held as a formal central t,
so one pass expands an element in powers of P; the reduction evaluates that
expansion at P = c(h), and both tangential maps are Horner loops.  Both
reductions pop their next step from a heap: the grlex-largest monomial, and
the largest word in tuple order.
"""

from __future__ import annotations

import json
from heapq import heappop, heappush

from .envelope import NCPoly, _nf_word
from .exprs import parse_expression, parse_hpoly, parse_rational
from .lie import LieAlgebra, _list, is_semisimple, orbit_algebra, predefined
from .poly import (
    CPoly,
    ReductionSystem,
    acc_scaled,
    acc_term,
    is_invariant,
    monomials_up_to,
    reduce as poly_reduce_by,
)
from .quantize import StarProduct, symmetrize
from .scalars import H, H_ONE, HPoly, as_hpoly


class Orbit:
    """The sphere p = c0 (p the sum of the squared coordinates, c0 nonzero)
    of a three-dimensional semisimple algebra, together with a lift c(h) of
    its ideal."""

    def __init__(self, algebra: LieAlgebra, invariants, constants, lifts=None):
        self.algebra = algebra
        n = algebra.dim
        if not n:
            raise ValueError("an orbit needs an algebra of positive dimension")
        if not is_semisimple(algebra):
            raise ValueError("an orbit needs a semisimple algebra")
        # a semisimple algebra has rank one exactly when its dimension is 3
        if n != 3:
            raise ValueError(f"only rank-one orbits are implemented: this "
                             f"semisimple algebra has dimension {n}, not 3")
        self.invariants = tuple(invariants)
        for p in self.invariants:
            if not is_invariant(algebra, p):
                raise ValueError("orbit generator is not an invariant polynomial")
        self.constants = tuple(_scalar(c) for c in constants)
        if len(self.constants) != len(self.invariants):
            raise ValueError("need one constant per invariant")
        # Only the rank-one sphere is implemented: other invariants need a
        # Groebner basis of the Casimirs, which ideal_reduce does not build.
        if self.invariants != (_sum_of_squares(n),):
            raise ValueError(
                "only the sum-of-squares orbit x_1^2 + ... + x_n^2 = c0 is supported"
            )
        if not self.constants[0]:
            raise ValueError("regular orbit needs a nonzero level constant")
        self.lifts = tuple(as_hpoly(c) for c in (self.constants if lifts is None else lifts))
        if len(self.lifts) != len(self.constants):
            raise ValueError("need one lift per constant")
        for lift, c0 in zip(self.lifts, self.constants):
            if lift.coeff(0) != c0:
                raise ValueError("lift must restrict to the orbit constant at h=0")
        # central lifts of the generators: symmetrization intertwines the
        # adjoint actions, so an invariant's image is central
        self.casimirs = tuple(symmetrize(algebra, p) for p in self.invariants)
        # the last variable leads the reduction
        self.priority = (n - 1,) + tuple(range(n - 1))
        # the generator p - c0 of the orbit ideal
        self.generator = self.invariants[0] - CPoly.constant(n, self.constants[0])
        self.basis_rule = ReductionSystem.from_polynomials(
            [self.generator], priority=self.priority)
        self._products = {}
        # per word b: the canonical terms of sum_{i<z} b X_i X_i, and the heap
        # entries of b and of those terms that end in Z Z (_expand)
        self._squares = {}

    # -- commutative side --------------------------------------------------
    def orbit_reduce(self, f: CPoly) -> CPoly:
        """The remainder of f modulo the orbit ideal's rewrite system."""
        _, rem = poly_reduce_by(f, self.basis_rule)
        return rem

    # -- deformed side -----------------------------------------------------
    def neighbor_lift(self, c0_prime) -> HPoly:
        """The ideal lift of the nearby level c0': same h-part, shifted value."""
        return self.lifts[0] + (_scalar(c0_prime) - self.constants[0])

    def ideal_reduce(self, u: NCPoly, lift=None, track_quotient=False):
        """Reduce a canonical element modulo (P - c(h)): its expansion by
        _expand evaluated at P = c(h).  With track_quotient the left cofactor
        q with u = q*(P - c(h)) + r is returned as well."""
        lift = self.lifts[0] if lift is None else as_hpoly(lift)
        parts, quotient = self._expand(u, track_quotient)
        rem = u._new(_substitute(parts, lift))
        if track_quotient:
            return u._new(_substitute(quotient, lift)), rem
        return rem

    def _expand(self, u: NCPoly, track_quotient=False):
        """The unique expansion u = sum_k P^k parts[k] over words with
        leading-variable exponent <= 1 (U_h is free over its centre on them).

        A word ending in Z Z is rewritten through Z^2 = P - X^2 - Y^2 with P
        held as a formal central t: rewriting base*Z*Z in parts[k] moves its
        coefficient to base in parts[k+1] and subtracts its sum of squares,
        so every update stays on the coefficients' own powers of h.  When
        tracked, quotient[k] collects those bases: u = q*(P - c) + r for
        q, r = sum_k c^k quotient[k], sum_k c^k parts[k].  Words pop largest
        first (tuple order) from a heap that holds each at most once.
        """
        if u.algebra is not self.algebra:
            raise ValueError("element lives over a different algebra")
        if not u.is_canonical():
            u = u.normal_form()
        L = self.algebra
        z = L.dim - 1
        squares = self._squares
        parts = [dict(u.terms)]
        quotient = [{}]
        heap, queued = [], set()

        def push(entries):
            for entry in entries:
                if entry[1] not in queued:
                    queued.add(entry[1])
                    heappush(heap, entry)

        push(_rewrites(u.terms, z))
        while heap:
            w = heappop(heap)[1]
            queued.discard(w)
            hits = [(k, part.pop(w)) for k, part in enumerate(parts) if w in part]
            if not hits:
                continue
            base = w[:-2]
            memo = squares.get(base)
            if memo is None:
                nf = {}
                for i in range(z):
                    acc_scaled(nf, _nf_word(L, base + (i, i)), H_ONE)
                memo = squares[base] = (nf, _rewrites((base, *nf), z))
            nf, entries = memo
            for k, coeff in hits:
                if k + 1 < len(parts):
                    acc_term(parts[k + 1], base, coeff)
                else:
                    parts.append({base: coeff})
                    quotient.append({})
                if track_quotient:
                    acc_term(quotient[k], base, coeff)
                acc_scaled(parts[k], nf, -coeff)
            push(entries)
        return parts, quotient

    def casimir_minus_lift(self, lift=None) -> NCPoly:
        lift = self.lifts[0] if lift is None else as_hpoly(lift)
        return self.casimirs[0] - NCPoly.scalar(self.algebra, lift)

    # -- basis correspondences ----------------------------------------------
    def word_lift(self, f: CPoly) -> NCPoly:
        """Monomials to ordered words, x^a y^b z^t -> X^a Y^b Z^t."""
        return NCPoly.ordered_words(self.algebra, f)

    def word_lower(self, u: NCPoly) -> CPoly:
        """Ordered words back to monomials; the inverse of word_lift on the
        reduced span."""
        exps = u.word_exps()
        if any(e[-1] > 1 for e in exps):
            raise ValueError("inputs not in the orbit basis span")
        return CPoly.zero(self.algebra.dim)._new(exps)

    def split_embed(self, f: CPoly) -> NCPoly:
        """Embed along the split f = a*(p - c0) + rem: the cofactor rides on
        the central generator, the remainder maps to ordered words."""
        (a,), rem = poly_reduce_by(f, self.basis_rule)
        out = self.word_lift(rem)
        if not a.is_zero():
            out = out + self.word_lift(a) * self.casimir_minus_lift(self.constants[0])
        return out

    def split_embed_inverse(self, u: NCPoly) -> CPoly:
        q, r = self.ideal_reduce(u, lift=self.constants[0], track_quotient=True)
        n = self.algebra.dim
        return CPoly.zero(n)._new(q.word_exps()) * self.generator + self.word_lower(r)

    def tangential_embed(self, f: CPoly) -> NCPoly:
        """Embed along powers of the generator: (p - c0)^k * b maps to
        (P - c(h))^k times the ordered word of b, summed by Horner over the
        (p - c0)-adic digits b of f."""
        digits = []
        while not f.is_zero():
            (f,), rem = poly_reduce_by(f, self.basis_rule)
            digits.append(rem)
        shift = self.casimir_minus_lift()
        out = NCPoly.zero(self.algebra)
        for rem in reversed(digits):
            out = out * shift + self.word_lift(rem)
        return out

    def tangential_embed_inverse(self, u: NCPoly) -> CPoly:
        """P - c(h) pulls back to p - c0, so P pulls back to p - c0 + c(h):
        evaluate the expansion u = sum_k P^k s_k there by Horner."""
        parts, _ = self._expand(u)
        shift = self.generator + self.lifts[0]
        out = CPoly.zero(self.algebra.dim)
        for part in reversed(parts):
            out = out * shift + self.word_lower(u._new(part))
        return out

    # -- star products -------------------------------------------------------
    def _product(self, name, forward, backward, poly_reduce=None) -> StarProduct:
        if name not in self._products:
            self._products[name] = StarProduct(
                self.algebra, forward, backward, poly_reduce=poly_reduce,
                priority=self.priority, name=name,
            )
        return self._products[name]

    def star_product(self) -> StarProduct:
        """The product on the orbit induced by the ordered-word basis map."""
        return self._product("orbit", self.word_lift,
                             lambda u: self.word_lower(self.ideal_reduce(u)),
                             poly_reduce=self.orbit_reduce)

    def tangential_product(self) -> StarProduct:
        """The ambient product of the tangential embedding."""
        return self._product("tangential", self.tangential_embed,
                             self.tangential_embed_inverse)

    def split_product(self) -> StarProduct:
        """The ambient product of the quotient-split embedding."""
        return self._product("split", self.split_embed, self.split_embed_inverse)

    # -- verification probes ---------------------------------------------------
    def tangentiality_check(self, embed, c0_prime, degree_bound):
        """Does the embedding carry the nearby orbit's ideal into the lifted
        nearby ideal?  Sweeps monomial cofactors g with deg(g) + 2 within the
        bound and reduces embed(g*(p - c0')) modulo (P - lift').  Returns the
        first nonvanishing remainder as {"cofactor", "remainder"}, or None."""
        n = self.algebra.dim
        gen = self.invariants[0] - CPoly.constant(n, _scalar(c0_prime))
        lift = self.neighbor_lift(c0_prime)
        for exps in monomials_up_to(n, max(degree_bound - 2, 0), self.priority):
            g = CPoly.monomial(n, exps)
            rem = self.ideal_reduce(embed(g * gen), lift=lift)
            if not rem.is_zero():
                return {"cofactor": g, "remainder": rem}
        return None

    def reduction_compatibility_check(self, embed, degree_bound):
        """Reducing after embedding must equal embedding the reduction.
        Returns the first monomial where they differ as {"monomial", "lhs",
        "rhs"}, or None."""
        n = self.algebra.dim
        for exps in monomials_up_to(n, degree_bound, self.priority):
            f = CPoly.monomial(n, exps)
            lhs = self.ideal_reduce(embed(f))
            rhs = self.word_lift(self.orbit_reduce(f))
            if lhs != rhs:
                return {"monomial": f, "lhs": lhs, "rhs": rhs}
        return None

    def invariant_product_check(self, star: StarProduct, degree_bound):
        """Multiplication by invariants should be undeformed: g*p = gp.

        Sweeps monomial g within the bound against the invariant p and p^2.
        Returns the first deformed product as {"factor", "invariant", "got",
        "expected"}, or None."""
        n = self.algebra.dim
        p = self.invariants[0]
        fs = [p, p * p]
        for exps in monomials_up_to(n, degree_bound, self.priority):
            g = CPoly.monomial(n, exps)
            for f in fs:
                got, want = star.star(g, f), g * f
                if got != want:
                    return {"factor": g, "invariant": f, "got": got, "expected": want}
        return None

    def first_order_check(self, p1: CPoly, p2: CPoly):
        """For polynomials in x, y on the unit sphere, the product's first
        two orders follow p1*p2 - h z (dp1/dy)(dp2/dx).  Returns both sides
        mod h^2 as {"got", "expected"}; the rule holds where they agree."""
        n = self.algebra.dim
        if self.lifts[0] != H_ONE:
            raise ValueError("the first-order rule is stated on the unit level")
        for p in (p1, p2):
            if any(e[-1] != 0 for e in p.terms):
                raise ValueError("inputs must not involve the leading variable")
        z = CPoly.variable(n, n - 1)
        return {
            "got": self.star_product().star(p1, p2).truncate_h(2),
            "expected": self.orbit_reduce(
                p1 * p2 - z * p1.partial(1) * p2.partial(0) * H).truncate_h(2),
        }

    def bidifferential_obstruction(self, coeff_degree_bound, zz_data=None):
        """Try to express the first-order term through first-order
        derivatives in the chart coordinates x, y.

        The ansatz B1(f, g) = sum_{u,v in {x,y}} b_uv (df/du)(dg/dv) with
        on-orbit polynomial coefficients of bounded degree is matched against
        the engine's first-order values on the coordinate pairs, which force
        b_uv = B1(x_u, x_v), and against the (z, z) value after clearing the
        chart denominators (dz/du = -u/z, so z^2 B1(z, z) = sum b_uv u v).
        zz_data overrides the cleared (z, z) value for fault-injection
        controls.  The ansatz is feasible when every forced b_uv is within
        the degree bound and the forced sum equals the cleared value; if
        not, the certificate is the equation 0 = forced - cleared value.
        """
        n = self.algebra.dim
        star = self.star_product()
        coords = [CPoly.variable(n, i) for i in range(n)]
        b_values = {(iu, iv): star.bn(coords[iu], coords[iv], 1)
                    for iu in (0, 1) for iv in (0, 1)}
        z = coords[-1]
        cleared_zz = (zz_data if zz_data is not None
                      else self.orbit_reduce(z * z * star.bn(z, z, 1)))
        forced = CPoly.zero(n)
        for (iu, iv), val in b_values.items():
            forced = forced + val * coords[iu] * coords[iv]
        # the product's values are orbit-reduced, so each lies in the span of
        # the basis monomials of degree <= bound exactly when its degree does
        feasible = (all(val.is_zero() or val.degree() <= coeff_degree_bound
                        for val in b_values.values())
                    and self.orbit_reduce(forced) == cleared_zz)
        return {
            "feasible": feasible,
            "certificate": None if feasible else self.orbit_reduce(forced - cleared_zz),
            "coefficients": b_values,
            "degree_bound": coeff_degree_bound,
        }

    def __repr__(self):
        return (
            f"Orbit(algebra={self.algebra.names}, constants={self.constants}, "
            f"lifts={self.lifts})"
        )


def _scalar(x):
    """A level constant: a string is read as parse_rational reads it."""
    try:
        return HPoly.const(x if not isinstance(x, str) else parse_rational(x))
    except TypeError:
        raise TypeError(f"bad level constant {x!r}") from None


def _rewrites(words, z):
    """Heap entries for the words ending in Z Z: the negated letters plus a
    sentinel above them, which reverses tuple order, then the word."""
    return [(tuple([-i for i in w]) + (1,), w)
            for w in words if len(w) >= 2 and w[-2] == z]


def _substitute(parts, lift):
    """sum_k lift^k parts[k], the term dicts of t^k, summed into parts[0]."""
    if not lift:
        return parts[0]
    power = H_ONE
    for part in parts[1:]:
        power = power * lift
        acc_scaled(parts[0], part, power)
    return parts[0]


def _sum_of_squares(n) -> CPoly:
    return CPoly(n, {tuple(2 * (j == i) for j in range(n)): 1 for i in range(n)})


def sphere_orbit(c0=1, lift=None, algebra=None) -> Orbit:
    """The standard orbit p = c0 for the compact rank-one algebra."""
    L = algebra if algebra is not None else predefined("su2")
    lifts = None if lift is None else [lift]
    return Orbit(L, [_sum_of_squares(L.dim)], [c0], lifts)


def orbit_from_json(data, algebra=None) -> Orbit:
    """Load an orbit description like {"algebra": "su2", "invariants":
    ["x^2+y^2+z^2"], "constants": ["1"], "lifts": ["1"]}, whose three fields
    are JSON lists; "lifts" is optional."""
    if isinstance(data, str):
        data = json.loads(data)
    L = algebra if algebra is not None else orbit_algebra(data)
    invariants = [
        parse_expression(text, mode="commutative", algebra=L)
        for text in _list(data["invariants"], "invariants")
    ]
    constants = [parse_rational(str(c)) for c in _list(data["constants"], "constants")]
    lifts = [parse_hpoly(str(t)) for t in _list(data.get("lifts", []), "lifts")]
    return Orbit(L, invariants, constants, lifts or None)
