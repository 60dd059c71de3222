"""Symmetrizer quantization and star products.

symmetrize sends a monomial of degree p to the average of its p! orderings,
built by recursion on the first letter and memoized per monomial.
sym_inverse reads a table memoized per ordered word: X^a is the top-length
part of sym(x^a), so its inverse is x^a minus the inverses of the strictly
shorter words of sym(x^a).
A StarProduct packages an invertible basis correspondence between
polynomials and the deformed enveloping algebra; the induced product is
f * g = backward(forward(f) . forward(g)), kept per monomial pair in a pair
table as one integer row over one denominator.  star is one integer
multiply-accumulate of its pairs' rows, and the axiom checker tests each
triple by such a sum for exact zero.  Each monomial's forward image is
computed once per product; that image table is the product's domain, and a
monomial that poly_reduce changes raises where it first enters.  The
undeformed products b0 of monomials, which the gauge solver reads across a
chain of orders, have a table of their own.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm

from .envelope import NCPoly, _times, word_exps
from .lie import LieAlgebra
from .linalg import LinearSystem
from .poly import CPoly, acc_scaled, kirillov_bracket, monomials_up_to
from .scalars import H, H_ONE, _hpoly, as_hpoly


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
                c = as_hpoly(Fraction(e, p))
                for w, cw in rest.terms.items():
                    acc_scaled(u.terms, _times(L, i, w), c * cw)
        L._sym_cache[exps] = u
    return u


def symmetrize(L: LieAlgebra, f: CPoly) -> NCPoly:
    """The symmetrizer map, linearly extended and returned in canonical form."""
    if f.nvars != L.dim:
        raise ValueError("polynomial does not match the algebra's variables")
    out = {}
    for exps, coeff in f.terms.items():
        acc_scaled(out, _sym_monomial(L, exps).terms, coeff)
    return NCPoly.zero(L)._new(out)


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
    return CPoly.zero(L.dim)._new(out)


def _row(terms):
    """A term dict as a row (den, items): the lcm of its denominators, and an
    item ((key, k), re, im) per nonzero numerator (re + im*i)/den of h^k key."""
    den = lcm(*[c.den for c in terms.values()])
    return den, tuple(((key, k), re * (den // c.den), im * (den // c.den))
                      for key, c in terms.items()
                      for k, (re, im) in enumerate(c.num, c.val) if re or im)


def _mac(parts):
    """Sum (wr + wi*i)/d h^shift times a row over the (wr, wi, shift, d, row)
    in parts as integers over one denominator: (den, re, im), dicts (key, k)
    -> numerator, im only where an imaginary part reached; zeros are kept."""
    den = lcm(*[d * row[0] for _, _, _, d, row in parts])
    re, im = {}, {}
    get_re, get_im = re.get, im.get
    for wr, wi, shift, d, (rden, items) in parts:
        s = den // (d * rden)
        wr, wi = wr * s, wi * s
        if shift:
            items = [((key, k + shift), a, b) for (key, k), a, b in items]
        for key, a, b in items:
            re[key] = get_re(key, 0) + wr * a - wi * b
            if wi or b:
                im[key] = get_im(key, 0) + wr * b + wi * a
    return den, re, im


def _terms(den, re, im):
    """The term dict of a sum _mac formed: one canonical HPoly per key, its
    gcd taken once."""
    groups = {}
    for (key, k), a, b in zip(re, re.values(), map(im.get, re, repeat(0))):
        if a or b:
            groups.setdefault(key, []).extend((k, a, b))
    terms = {}
    for key, group in groups.items():
        g = gcd(den, *group[1::3], *group[2::3])
        lo = min(group[::3])
        num = [(0, 0)] * (max(group[::3]) - lo + 1)
        for j in range(0, len(group), 3):
            num[group[j] - lo] = (group[j + 1] // g, group[j + 2] // g)
        terms[key] = _hpoly(tuple(num), den // g, lo)
    return terms


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
        self._b0_cache = {}
        self._images = {}

    # -- the product ------------------------------------------------------
    def _image(self, exps):
        """forward(x^exps), computed once per monomial.  A monomial enters
        the product here, so a miss checks that it lies in the domain."""
        u = self._images.get(exps)
        if u is None:
            m = CPoly.monomial(self.nvars, exps)
            if not self._reduced(m):
                raise ValueError(f"inputs not in the product's basis span: {exps}")
            u = self._images[exps] = self.forward(m)
        return u

    def _star_monomials(self, e1, e2):
        """The pair-table row of x^e1 * x^e2 (see _row), built once per pair."""
        hit = self._pair_cache.get((e1, e2))
        if hit is None:
            hit = self._pair_cache[e1, e2] = _row(
                self.backward(self._image(e1) * self._image(e2)).terms)
        return hit

    def pair_product(self, e1, e2) -> CPoly:
        """x^e1 * x^e2, the polynomial view of its pair-table row."""
        return CPoly.zero(self.nvars)._new(
            _terms(*_mac([(1, 0, 0, 1, self._star_monomials(e1, e2))])))

    def star(self, f: CPoly, g: CPoly) -> CPoly:
        """f * g, extended bilinearly over the monomial basis: one _mac of the
        rows of its pairs, each scaled by c1*c2.  Each new monomial of f, then
        of g, enters the image table first, so an out-of-domain input raises
        even when the other factor is zero."""
        if f.nvars != self.nvars or g.nvars != self.nvars:
            raise ValueError("polynomial over the wrong variables")
        for exps in (*f.terms, *g.terms):
            if exps not in self._images:
                self._image(exps)
        pair = self._star_monomials
        parts = [(r1 * r2 - i1 * i2, r1 * i2 + i1 * r2, k1 + k2, c1.den * c2.den, row)
                 for e1, c1 in f.terms.items() for e2, c2 in g.terms.items()
                 for row in [pair(e1, e2)]
                 for k1, (r1, i1) in enumerate(c1.num, c1.val)
                 for k2, (r2, i2) in enumerate(c2.num, c2.val)]
        return f._new(_terms(*_mac(parts)))

    def _reduced(self, m):
        """Is the monomial m reduced under poly_reduce, so in the domain?"""
        return self.poly_reduce is None or self.poly_reduce(m) == m

    def b0(self, f: CPoly, g: CPoly) -> CPoly:
        """The undeformed product (reduced when the domain is a quotient)."""
        return f * g if self.poly_reduce is None else self.poly_reduce(f * g)

    def _b0_monomials(self, e1, e2):
        """b0(x^e1, x^e2), computed once per pair of monomials."""
        hit = self._b0_cache.get((e1, e2))
        if hit is None:
            hit = self._b0_cache[e1, e2] = self.b0(CPoly.monomial(self.nvars, e1),
                                                   CPoly.monomial(self.nvars, e2))
        return hit

    def bracket(self, f: CPoly, g: CPoly) -> CPoly:
        b = kirillov_bracket(self.algebra, f, g)
        return b if self.poly_reduce is None else self.poly_reduce(b)

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
            if self._reduced(CPoly.monomial(self.nvars, exps))
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
                       lambda u: CPoly.zero(L.dim)._new(u.word_exps()), name="pbw")


def check_deformation_axioms(star: StarProduct, degree_bound: int,
                             assoc_degree=None):
    """Exhaustively verify the deformation properties on monomials.

    For every ordered pair within the degree bound: f*g agrees with the
    undeformed product mod h, and the commutator agrees with h times the
    bracket mod h^2.  Associativity is checked on every monomial triple
    within assoc_degree (defaults to degree_bound).  Returns {"failures",
    "pairs", "triples"}: the axioms hold where the failure list is empty.
    """
    if assoc_degree is None:
        assoc_degree = degree_bound
    basis = star.monomial_basis(max(degree_bound, assoc_degree))
    degree = {e: sum(e) for e in basis}
    mono = {e: CPoly.monomial(star.nvars, e) for e in basis}
    pair, view = star._star_monomials, star.pair_product
    failures = []
    names = tuple(star.algebra.varnames)

    def fail(prop, factors, expected, got):
        from .exprs import format_cpoly

        fmt = lambda p: format_cpoly(p, names)
        failures.append({"property": prop, "pair": tuple(map(fmt, factors)),
                         "expected": fmt(expected), "got": fmt(got)})

    pairs = 0
    for e1 in basis:
        for e2 in basis:
            if degree[e1] + degree[e2] > degree_bound:
                continue
            pairs += 1
            f, g, fg = mono[e1], mono[e2], view(e1, e2)
            want0 = star.b0(f, g)
            if fg.h_coefficient(0) != want0:
                fail("product-mod-h", (f, g), want0, fg.h_coefficient(0))
            comm, want1 = fg - view(e2, e1), star.bracket(f, g)
            if not comm.h_coefficient(0).is_zero() or comm.h_coefficient(1) != want1:
                fail("commutator-mod-h2", (f, g), want1, comm.h_coefficient(1))
    # (x^e1 x^e2) x^e3 - x^e1 (x^e2 x^e3) as integers; polynomials only if not 0
    triples = 0
    for e1 in basis:
        for e2 in basis:
            if degree[e1] + degree[e2] > assoc_degree:
                continue
            den12, items12 = pair(e1, e2)
            for e3 in basis:
                if degree[e1] + degree[e2] + degree[e3] > assoc_degree:
                    continue
                triples += 1
                den23, items23 = pair(e2, e3)
                _, re, im = _mac([(a, b, p, den12, pair(m, e3)) for (m, p), a, b in items12]
                                 + [(-a, -b, p, den23, pair(e1, m)) for (m, p), a, b in items23])
                if any(re.values()) or any(im.values()):
                    f, k = mono[e1], mono[e3]
                    fail("associativity", (f, mono[e2], k),
                         star.star(f, view(e2, e3)), star.star(view(e1, e2), k))
    return {"failures": failures, "pairs": pairs, "triples": triples}


# ---------------------------------------------------------------------------
# Order-by-order gauge equivalence on degree-bounded subspaces.

def _apply_gauge(t_ops, f: CPoly) -> CPoly:
    """T f for T = 1 + sum_i h^i T_i, T_i = t_ops[i - 1] given by its images
    of basis monomials, summed into one dict."""
    out = dict(f.terms)
    for i, images in enumerate(t_ops, 1):
        hi = H ** i
        for exps, c in f.terms.items():
            img = images.get(exps)
            if img is None:
                raise ValueError(f"operator undefined on monomial {exps}")
            acc_scaled(out, img.terms, c * hi)
    return f._new(out)


def gauge_defect(star_a: StarProduct, star_b: StarProduct, t_ops,
                 f: CPoly, g: CPoly) -> CPoly:
    """star_b(T f, T g) - T(star_a(f, g)) for T = 1 + sum_i h^i T_i, with
    t_ops = [T_1..T_k] given by their images of basis monomials.  Its h^m
    coefficient is sum_{i+j+l=m} B_b,l(T_i f, T_j g) - sum_{i+l=m} T_i(B_a,l(f, g)):
    zero through m = k where T intertwines the products on (f, g), and at
    m = k + 1 the order-m defect, the terms with T_m left out."""
    return (star_b.star(_apply_gauge(t_ops, f), _apply_gauge(t_ops, g))
            - _apply_gauge(t_ops, star_a.star(f, g)))


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
    R(a, b) is gauge_defect(star_a, star_b, t_partial, a, b).h_coefficient(n).
    Returns a feasibility report; feasibility is a statement about the
    bounded subspace only.  Infeasibility is relative to the supplied
    T_1..T_{n-1}: it says they do not extend, not that the products are
    inequivalent to order n, and another T_1 can move the witness pair.
    """
    if n < 1:
        raise ValueError(f"gauge order must be at least 1, not {n}")
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
    pairs = [(e1, e2) for e1 in basis for e2 in basis
             if sum(e1) + sum(e2) <= degree_bound]
    series = {p: gauge_defect(star_a, star_b, t_ops, mono(p[0]), mono(p[1]))
              for p in pairs}
    # precondition: the partial gauge already matches through order n-1
    for m in range(1, n):
        for e1, e2 in pairs:
            if series[e1, e2].h_coefficient(m):
                raise ValueError("inconsistent t_partial: products disagree "
                                 f"at order h^{m} on {e1}, {e2}")
    defect = {p: d.h_coefficient(n) for p, d in series.items()}

    def affine(const, parts):
        """const + sum of s * b0(image, x^f) over the (s, f, image) in parts;
        an image is affine in the unknowns, {unknown: poly} with the constant
        under None, and so is the result."""
        out = {None: dict(const.terms)}
        for s, f, image in parts:
            for u, p in image.items():
                acc = out.setdefault(u, {})
                for b, c in p.terms.items():
                    acc_scaled(acc, star_a._b0_monomials(b, f).terms, s * c)
        return {u: const._new(t) for u, t in out.items()}

    # the unknowns are the coordinates of the generator images T_n(g)
    gens = [e for e in basis if sum(e) == 1]
    unknowns = len(gens) * len(basis)
    unit = tuple([0] * nv)
    images = {unit: {None: -defect[unit, unit]}}
    for k, g in enumerate(gens):
        images[g] = {k * len(basis) + j: mono(b) for j, b in enumerate(basis)}
    defining = {(unit, unit)}  # the pairs whose equations define an image
    for e in sorted(basis, key=lambda e: (sum(e), e)):
        if sum(e) < 2:
            continue
        for i in range(nv):
            if e[i] > 0:
                v = tuple(int(j == i) for j in range(nv))
                rest = tuple(a - b for a, b in zip(e, v))
                if rest in images:
                    break
        else:
            raise ValueError(f"monomial {e} does not factor inside the basis")
        # T_n(v rest) = T_n(rest) v + T_n(v) rest + R(v, rest)
        images[e] = affine(defect[v, rest], [(H_ONE, v, images[rest]),
                                             (H_ONE, rest, images[v])])
        defining.add((v, rest))

    system = LinearSystem(unknowns)
    for e1, e2 in pairs:
        if (e1, e2) in defining:
            continue
        prod = star_a._b0_monomials(e1, e2).terms
        # T_n(e1 e2) - T_n(e1) e2 - T_n(e2) e1 - R(e1, e2) = 0
        lin = affine(-defect[e1, e2], [
            *((c, unit, images[exps]) for exps, c in prod.items()),
            (-H_ONE, e2, images[e1]),
            (-H_ONE, e1, images[e2]),
        ])
        if not system.add_polys(lin, -lin.pop(None), tag=(e1, e2)):
            return {"feasible": False, "order": n, "degree_bound": degree_bound,
                    "witness_pair": system.conflict, "unknowns": unknowns}
    solution = system.solve()
    t_n = {e: sum((p * solution[u] for u, p in images[e].items() if u is not None),
                  images[e].get(None, CPoly.zero(nv)))
           for e in basis}
    return {"feasible": True, "order": n, "degree_bound": degree_bound,
            "operator": t_n, "unknowns": unknowns, "rank": system.rank}
