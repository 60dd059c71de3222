"""Lie algebra cochains valued in polynomials with the Poisson action.

The module action of a generator on a polynomial is {x_i, .}, which
preserves total degree, so the complex splits into finite-dimensional
homogeneous components and every solve below is exact linear algebra on one
component.  For a semisimple algebra the degree-two cohomology vanishes,
which is what powers the coboundary solver.  The solver and h2_dimension
share the d1 images of the unit 1-cochains as matrix columns, computed once
per algebra and degree, and each cochain component becomes scalar rows
through LinearSystem.add_polys.
"""

from __future__ import annotations

from itertools import combinations

from .lie import LieAlgebra
from .linalg import LinearSystem
from .poly import CPoly, kirillov_bracket, monomials_of_degree


def _action(L, i, f):
    return kirillov_bracket(L, CPoly.variable(L.dim, i), f)


def _common_degree(polys, where):
    degs = set()
    for p in polys:
        if p.is_zero():
            continue
        d = p.homogeneous_degree()
        if d is None:
            raise ValueError(f"{where}: components must be homogeneous")
        if (p.h_degree() or 0) > 0:
            raise ValueError(f"{where}: components must be h-free")
        degs.add(d)
    if len(degs) > 1:
        raise ValueError(f"{where}: components must share one degree")
    return degs.pop() if degs else None


class Cochain1:
    """A 1-cochain: one homogeneous polynomial per generator."""

    def __init__(self, algebra: LieAlgebra, values):
        self.algebra = algebra
        self.values = tuple(values)
        if len(self.values) != algebra.dim:
            raise ValueError("need one value per generator")
        self.degree = _common_degree(self.values, "Cochain1")

    def __eq__(self, other):
        return (
            isinstance(other, Cochain1)
            and self.algebra is other.algebra
            and self.values == other.values
        )

    def is_zero(self):
        return all(v.is_zero() for v in self.values)


class Cochain2:
    """An antisymmetric 2-cochain, stored on pairs i < j."""

    def __init__(self, algebra: LieAlgebra, entries):
        self.algebra = algebra
        n = algebra.dim
        vals = {}
        for (i, j), p in entries.items():
            if not 0 <= i < j < n:
                raise ValueError("entries must be keyed by pairs i < j")
            if not p.is_zero():
                vals[(i, j)] = p
        self.entries = vals
        self.degree = _common_degree(vals.values(), "Cochain2")

    def get(self, i, j) -> CPoly:
        n = self.algebra.dim
        if i == j:
            return CPoly.zero(n)
        if i < j:
            return self.entries.get((i, j), CPoly.zero(n))
        return -self.entries.get((j, i), CPoly.zero(n))

    def __eq__(self, other):
        return (
            isinstance(other, Cochain2)
            and self.algebra is other.algebra
            and all(
                self.get(i, j) == other.get(i, j)
                for i, j in combinations(range(self.algebra.dim), 2)
            )
        )

    def is_zero(self):
        return not self.entries


def d1(L: LieAlgebra, C: Cochain1) -> Cochain2:
    """(dC)_{ij} = C([X_i, X_j]) - {x_i, C_j} + {x_j, C_i}."""
    n = L.dim
    entries = {}
    for i, j in combinations(range(n), 2):
        val = CPoly.zero(n)
        for k, v in L.bracket_terms(i, j):
            val = val + C.values[k] * v
        val = val - _action(L, i, C.values[j]) + _action(L, j, C.values[i])
        entries[(i, j)] = val
    return Cochain2(L, entries)


def d2(L: LieAlgebra, C: Cochain2):
    """The next differential; returns the totally antisymmetric 3-array as a
    dict over triples i < j < k."""
    n = L.dim
    out = {}
    for i, j, k in combinations(range(n), 3):
        val = (
            _action(L, i, C.get(j, k))
            - _action(L, j, C.get(i, k))
            + _action(L, k, C.get(i, j))
        )
        for m, v in L.bracket_terms(i, j):
            val = val - C.get(m, k) * v
        for m, v in L.bracket_terms(i, k):
            val = val + C.get(m, j) * v
        for m, v in L.bracket_terms(j, k):
            val = val - C.get(m, i) * v
        out[(i, j, k)] = val
    return out


def is_cocycle(L: LieAlgebra, C: Cochain2) -> bool:
    return all(v.is_zero() for v in d2(L, C).values())


def random_cochain1(L: LieAlgebra, degree: int, rng) -> Cochain1:
    """A 1-cochain of homogeneous values: one coefficient in [-3, 3] per
    monomial of the degree, drawn from rng."""
    basis = monomials_of_degree(L.dim, degree)
    return Cochain1(L, [CPoly(L.dim, {e: rng.randint(-3, 3) for e in basis})
                        for _ in range(L.dim)])


def coboundary_roundtrip(L: LieAlgebra, degree: int, rng) -> bool:
    """Does solve_coboundary invert d1 on a random 1-cochain?"""
    target = d1(L, random_cochain1(L, degree, rng))
    sol = solve_coboundary(L, target, degree)
    return sol is not None and d1(L, sol) == target


def _d1_columns(L: LieAlgebra, degree: int):
    """d1 of each unit 1-cochain: x^e in slot gen, at column gen * nb + t for
    the t-th monomial e of the degree.  Computed once per algebra and
    degree."""
    columns = L._d1_cache.get(degree)
    if columns is None:
        n = L.dim
        columns = []
        for gen in range(n):
            for exps in monomials_of_degree(n, degree):
                vals = [CPoly.zero(n)] * n
                vals[gen] = CPoly.monomial(n, exps)
                columns.append(d1(L, Cochain1(L, vals)))
        columns = L._d1_cache[degree] = tuple(columns)
    return columns


def solve_coboundary(L: LieAlgebra, C: Cochain2, degree: int):
    """Find a homogeneous 1-cochain with d1 equal to C, or None.

    The input must be a cocycle; for a semisimple algebra a solution exists,
    so infeasibility there signals an implementation fault upstream.
    """
    if not is_cocycle(L, C):
        raise ValueError("input 2-cochain is not a cocycle")
    if C.degree is not None and C.degree != degree:
        raise ValueError("cochain degree does not match the requested degree")
    n = L.dim
    columns = _d1_columns(L, degree)
    system = LinearSystem(len(columns))
    for i, j in combinations(range(n), 2):
        system.add_polys({col: image.get(i, j) for col, image in enumerate(columns)},
                         C.get(i, j), tag=(i, j))
    solution = system.solve()
    if solution is None:
        return None
    basis = monomials_of_degree(n, degree)
    nb = len(basis)
    values = []
    for gen in range(n):
        p = CPoly.zero(n)
        for t, exps in enumerate(basis):
            v = solution[gen * nb + t]
            if v:
                p = p + CPoly.monomial(n, exps, v)
        values.append(p)
    return Cochain1(L, values)


def h2_dimension(L: LieAlgebra, degree: int) -> int:
    """dim ker(d2) - dim im(d1) on the homogeneous component of a degree."""
    if degree < 0:
        return 0
    n = L.dim
    zero = CPoly.zero(n)
    pairs = list(combinations(range(n), 2))
    d1_images = [c.entries for c in _d1_columns(L, degree)]
    d2_images = [
        d2(L, Cochain2(L, {pair: CPoly.monomial(n, exps)}))
        for pair in pairs
        for exps in monomials_of_degree(n, degree)
    ]

    def rank(images, keys):
        # one scalar row per (component key, monomial), one column per source
        system = LinearSystem(len(images))
        for key in keys:
            system.add_polys({col: im[key] for col, im in enumerate(images)
                              if key in im}, zero)
        return system.rank

    dim_c2 = len(d2_images)
    return (dim_c2 - rank(d2_images, combinations(range(n), 3))
            - rank(d1_images, pairs))


def extend_c1(C: Cochain1):
    """Extend a 1-cochain to the first-order operator f -> sum_k C_k df/dx_k.

    The result is a derivation whose restriction to linear polynomials
    recovers C.
    """
    L = C.algebra
    n = L.dim

    def operator(f: CPoly) -> CPoly:
        out = CPoly.zero(n)
        for k in range(n):
            if C.values[k].is_zero():
                continue
            out = out + C.values[k] * f.partial(k)
        return out

    return operator
