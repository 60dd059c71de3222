"""Symmetrizer quantization and star products.

symmetrize sends a monomial of degree p to the average of its p! orderings,
built by recursion on the first letter and memoized per monomial.
sym_inverse reads a table memoized per ordered word: X^a is the top-length
part of sym(x^a), so its inverse is x^a minus the inverses of the strictly
shorter words of sym(x^a).
A StarProduct packages an invertible basis correspondence between
polynomials and the deformed enveloping algebra; the induced product is
f * g = backward(forward(f) . forward(g)), memoized per monomial pair and
summed bilinearly into one dict in place.  The forward image of each
monomial is computed once per product and shared by every pair it enters.
"""

from __future__ import annotations

from fractions import Fraction

from .envelope import NCPoly, word_exps
from .lie import LieAlgebra
from .linalg import LinearSystem
from .poly import CPoly, acc_scaled, kirillov_bracket, monomials_up_to
from .scalars import H_ONE


def _sym_monomial(L: LieAlgebra, exps) -> NCPoly:
    """The symmetrized monomial x^exps, in canonical form.

    Grouping the orderings by their first letter gives the recurrence
    sym(m) = (1/p) sum_i e_i X_i sym(m / x_i), memoized per exponent vector.
    """
    u = L._sym_cache.get(exps)
    if u is None:
        p = sum(exps)
        u = NCPoly.one(L) if p == 0 else NCPoly.zero(L)
        for i, e in enumerate(exps):
            if e:
                rest = _sym_monomial(L, exps[:i] + (e - 1,) + exps[i + 1:])
                u = u + NCPoly.generator(L, i) * rest * Fraction(e, p)
        L._sym_cache[exps] = u
    return u


def symmetrize(L: LieAlgebra, f: CPoly) -> NCPoly:
    """The symmetrizer map, linearly extended and returned in canonical form."""
    if f.nvars != L.dim:
        raise ValueError("polynomial does not match the algebra's variables")
    out = {}
    for exps, coeff in f.terms.items():
        acc_scaled(out, _sym_monomial(L, exps).terms, coeff)
    return NCPoly(L, out)


def _sym_inv_word(L: LieAlgebra, word):
    """sym_inverse of one nondecreasing word X^a, memoized per word.

    The top-length part of sym(x^a) is exactly X^a and its other words are
    strictly shorter, so inv(X^a) = x^a - sum_w c_w inv(w) over those words.
    """
    hit = L._sym_inv_cache.get(word)
    if hit is None:
        exps = word_exps(word, L.dim)
        hit = {exps: H_ONE}
        for w, c in _sym_monomial(L, exps).terms.items():
            if w != word:
                acc_scaled(hit, _sym_inv_word(L, w), -c)
        L._sym_inv_cache[word] = hit
    return hit


def sym_inverse(L: LieAlgebra, u: NCPoly) -> CPoly:
    """The inverse of symmetrize on canonical elements, summed from the
    per-word table."""
    if u.algebra is not L:
        raise ValueError("element lives over a different algebra")
    if not u.is_canonical():
        raise ValueError("sym_inverse expects a canonical element")
    out = {}
    for w, c in u.terms.items():
        acc_scaled(out, _sym_inv_word(L, w), c)
    return CPoly(L.dim, out)


class StarProduct:
    """An associative deformation of polynomial multiplication.

    forward/backward realize the basis correspondence (an orbit product's
    backward map reduces modulo the orbit ideal first), and poly_reduce
    normalizes the commutative side.  The product is expected to deform the
    Kirillov bracket at first order.
    """

    def __init__(self, algebra: LieAlgebra, forward, backward, *,
                 poly_reduce=None, priority=None, name="star"):
        self.algebra = algebra
        self.nvars = algebra.dim
        self.forward = forward
        self.backward = backward
        self.poly_reduce = poly_reduce
        self.priority = tuple(priority) if priority is not None else None
        self.name = name
        self._pair_cache = {}
        self._images = {}
        self._domain = set()

    # -- the product ------------------------------------------------------
    def _image(self, exps):
        """forward(x^exps), computed once per monomial."""
        u = self._images.get(exps)
        if u is None:
            u = self._images[exps] = self.forward(CPoly.monomial(self.nvars, exps))
        return u

    def _star_monomials(self, e1, e2):
        key = (e1, e2)
        hit = self._pair_cache.get(key)
        if hit is None:
            hit = self.backward(self._image(e1) * self._image(e2))
            self._pair_cache[key] = hit
        return hit

    def star(self, f: CPoly, g: CPoly) -> CPoly:
        """f * g, extended bilinearly over the monomial basis."""
        self._check_domain(f)
        self._check_domain(g)
        out = {}
        for e1, c1 in f.terms.items():
            for e2, c2 in g.terms.items():
                c = c2 if c1 is H_ONE else c1 if c2 is H_ONE else c1 * c2
                acc_scaled(out, self._star_monomials(e1, e2).terms, c)
        return f._new(out)

    def _check_domain(self, f):
        if f.nvars != self.nvars:
            raise ValueError("polynomial over the wrong variables")
        for exps in f.terms:
            if not self._in_domain(exps):
                raise ValueError(f"inputs not in the product's basis span: {exps}")

    def _in_domain(self, exps):
        """Is x^exps reduced under poly_reduce?  Accepted vectors are
        remembered; a rejected one is tested again on every call."""
        if self.poly_reduce is None or exps in self._domain:
            return True
        m = CPoly.monomial(self.nvars, exps)
        if self.poly_reduce(m) != m:
            return False
        self._domain.add(exps)
        return True

    def b0(self, f: CPoly, g: CPoly) -> CPoly:
        """The undeformed product (reduced when the domain is a quotient)."""
        prod = f * g
        if self.poly_reduce is not None:
            prod = self.poly_reduce(prod)
        return prod

    def bracket(self, f: CPoly, g: CPoly) -> CPoly:
        b = kirillov_bracket(self.algebra, f, g)
        if self.poly_reduce is not None:
            b = self.poly_reduce(b)
        return b

    def bn(self, f: CPoly, g: CPoly, n: int) -> CPoly:
        """The coefficient of h^n in f * g, for h-free inputs."""
        if (f.h_degree() or 0) > 0 or (g.h_degree() or 0) > 0:
            raise ValueError("order coefficients are defined for h-free inputs")
        return self.star(f, g).h_coefficient(n)

    def monomial_basis(self, max_degree):
        """Exponent vectors of the product's monomial basis up to a degree."""
        return [
            exps
            for exps in monomials_up_to(self.nvars, max_degree, self.priority)
            if self._in_domain(exps)
        ]


def symmetrizer_product(L: LieAlgebra) -> StarProduct:
    """The star product induced by the symmetrizer correspondence."""
    return StarProduct(
        L,
        lambda f: symmetrize(L, f),
        lambda u: sym_inverse(L, u),
        name="sym",
    )


def pbw_basis_product(L: LieAlgebra) -> StarProduct:
    """The star product of the ordered-word basis map x^a -> X^a."""

    return StarProduct(L, lambda f: NCPoly.ordered_words(L, f),
                       lambda u: CPoly(L.dim, u.word_exps()), name="pbw")


def check_deformation_axioms(star: StarProduct, degree_bound: int,
                             assoc_degree=None):
    """Exhaustively verify the deformation properties on monomials.

    For every ordered pair within the degree bound: f*g agrees with the
    undeformed product mod h, and the commutator agrees with h times the
    bracket mod h^2.  Associativity is checked on every monomial triple
    within assoc_degree (defaults to degree_bound).
    """
    if assoc_degree is None:
        assoc_degree = degree_bound
    basis = star.monomial_basis(max(degree_bound, assoc_degree))
    failures = []
    mono = lambda e: CPoly.monomial(star.nvars, e)
    names = tuple(star.algebra.varnames)

    def fmt(p):
        from .exprs import format_cpoly

        return format_cpoly(p, names)

    pairs = 0
    for e1 in basis:
        for e2 in basis:
            if sum(e1) + sum(e2) > degree_bound:
                continue
            pairs += 1
            f, g = mono(e1), mono(e2)
            fg = star.star(f, g)
            want0 = star.b0(f, g)
            if fg.h_coefficient(0) != want0:
                failures.append({
                    "property": "product-mod-h",
                    "pair": (fmt(f), fmt(g)),
                    "expected": fmt(want0),
                    "got": fmt(fg.h_coefficient(0)),
                })
            comm = fg - star.star(g, f)
            want1 = star.bracket(f, g)
            if not comm.h_coefficient(0).is_zero() or comm.h_coefficient(1) != want1:
                failures.append({
                    "property": "commutator-mod-h2",
                    "pair": (fmt(f), fmt(g)),
                    "expected": fmt(want1),
                    "got": fmt(comm.h_coefficient(1)),
                })
    triples = 0
    for e1 in basis:
        for e2 in basis:
            if sum(e1) + sum(e2) > assoc_degree:
                continue
            for e3 in basis:
                if sum(e1) + sum(e2) + sum(e3) > assoc_degree:
                    continue
                triples += 1
                f, g, k = mono(e1), mono(e2), mono(e3)
                left = star.star(star.star(f, g), k)
                right = star.star(f, star.star(g, k))
                if left != right:
                    failures.append({
                        "property": "associativity",
                        "pair": (fmt(f), fmt(g), fmt(k)),
                        "expected": fmt(right),
                        "got": fmt(left),
                    })
    return {
        "passed": not failures,
        "failures": failures,
        "pairs": pairs,
        "triples": triples,
    }


# ---------------------------------------------------------------------------
# Order-by-order gauge equivalence on degree-bounded subspaces.

def _apply_images(images, f: CPoly) -> CPoly:
    out = CPoly.zero(f.nvars)
    for exps, c in f.terms.items():
        img = images.get(exps)
        if img is None:
            raise ValueError(f"operator undefined on monomial {exps}")
        out = out + img * c
    return out


def _affine(const, parts):
    """const + sum of mul(image) over the (mul, image) in parts.

    An image is an affine function (const, {unknown: poly}) of the gauge
    solver's unknowns and mul a linear map of polynomials; so is the result.
    """
    lin = {}
    for mul, (c, img) in parts:
        const = const + mul(c)
        for u, p in img.items():
            lin[u] = lin[u] + mul(p) if u in lin else mul(p)
    return const, lin


def gauge_step(star_a: StarProduct, star_b: StarProduct, n: int,
               degree_bound: int, t_partial=None):
    """Solve for the order-n gauge operator between two star products.

    Given operators T_1..T_{n-1} (t_partial, images over the monomial basis)
    making the products agree through order h^(n-1) on the degree-bounded
    space, look for a linear endomorphism T_n of that space such that the
    transported products agree mod h^(n+1) on every monomial pair within the
    bound.  The unknown images of products are pinned down by the derivation
    identity T_n(ab) = a T_n(b) + T_n(a) b + R(a, b), which leaves only the
    generator images free; the remaining pairs become an exact linear system.
    Returns a feasibility report; feasibility is a statement about the
    bounded subspace only.  Infeasibility is relative to the supplied
    T_1..T_{n-1}: it says they do not extend, not that the products are
    inequivalent to order n, and another T_1 can move the witness pair.
    """
    if star_a.nvars != star_b.nvars:
        raise ValueError("products over different variable counts")
    basis = star_a.monomial_basis(degree_bound)
    if basis != star_b.monomial_basis(degree_bound):
        raise ValueError("products have different monomial bases")
    t_ops = list(t_partial or [])
    if len(t_ops) != n - 1:
        raise ValueError(f"t_partial must supply T_1..T_{n - 1}")
    nv = star_a.nvars
    mono = lambda e: CPoly.monomial(nv, e)

    def T(i, f):
        return f if i == 0 else _apply_images(t_ops[i - 1], f)

    def defect(m, fa, fb):
        # sum_{i+j+k=m} B_b,k(T_i a, T_j b) - sum_{i+k=m} T_i(B_a,k(a, b)),
        # leaving out the terms with T_n
        top = min(m, n - 1)
        acc = CPoly.zero(nv)
        for i in range(top + 1):
            Ta = T(i, fa)
            for j in range(min(m - i, n - 1) + 1):
                acc = acc + star_b.bn(Ta, T(j, fb), m - i - j)
        for k in range(m - top, m + 1):
            acc = acc - T(m - k, star_a.bn(fa, fb, k))
        return acc

    # precondition: the partial gauge already matches through order n-1
    for m in range(1, n):
        for e1 in basis:
            for e2 in basis:
                if (sum(e1) + sum(e2) <= degree_bound
                        and not defect(m, mono(e1), mono(e2)).is_zero()):
                    raise ValueError(
                        "inconsistent t_partial: products disagree at order "
                        f"h^{m} on {e1}, {e2}"
                    )

    gens = [e for e in basis if sum(e) == 1]
    unknown_index = {}
    for g in gens:
        for b in basis:
            unknown_index[(g, b)] = len(unknown_index)

    b0 = star_a.b0
    unit = tuple([0] * nv)
    images = {unit: (-defect(n, mono(unit), mono(unit)), {})}
    for g in gens:
        images[g] = (CPoly.zero(nv), {unknown_index[(g, b)]: mono(b) for b in basis})
    defining = {unit: (unit, unit)}
    basis_set = set(basis)
    for e in sorted(basis, key=lambda e: (sum(e), e)):
        if sum(e) < 2:
            continue
        v = None
        for i in range(nv):
            if e[i] > 0:
                rest = tuple(x - (1 if j == i else 0) for j, x in enumerate(e))
                if rest in basis_set:
                    v = tuple(1 if j == i else 0 for j in range(nv))
                    break
        if v is None:
            raise ValueError(f"monomial {e} does not factor inside the basis")
        rest = tuple(a - b for a, b in zip(e, v))
        # T_n(v rest) = T_n(rest) v + T_n(v) rest + R(v, rest)
        images[e] = _affine(defect(n, mono(v), mono(rest)), [
            (lambda p, f=mono(v): b0(p, f), images[rest]),
            (lambda p, f=mono(rest): b0(p, f), images[v]),
        ])
        defining[e] = (v, rest)

    system = LinearSystem(len(unknown_index))
    for e1 in basis:
        for e2 in basis:
            if sum(e1) + sum(e2) > degree_bound:
                continue
            prod = b0(mono(e1), mono(e2))
            key = next(iter(prod.terms)) if len(prod.terms) == 1 else None
            if key is not None and defining.get(key) == (e1, e2):
                continue
            # T_n(e1 e2) - T_n(e1) e2 - T_n(e2) e1 - R(e1, e2) = 0
            const, lin = _affine(-defect(n, mono(e1), mono(e2)), [
                *((lambda p, s=c.as_scalar(): p * s, images[exps])
                  for exps, c in prod.terms.items()),
                (lambda p, f=mono(e2): -b0(p, f), images[e1]),
                (lambda p, f=mono(e1): -b0(p, f), images[e2]),
            ])
            if not system.add_polys(lin, -const, tag=(e1, e2)):
                return {
                    "feasible": False,
                    "order": n,
                    "degree_bound": degree_bound,
                    "witness_pair": system.conflict,
                    "unknowns": len(unknown_index),
                }
    solution = system.solve()
    t_n = {e: sum((p * solution[u] for u, p in images[e][1].items()), images[e][0])
           for e in basis}
    return {
        "feasible": True,
        "order": n,
        "degree_bound": degree_bound,
        "operator": t_n,
        "unknowns": len(unknown_index),
        "rank": system.rank,
    }
