"""Commutative polynomials with coefficients in Q(i)[h].

CPoly models elements of C[x_1..x_n][h] as a map from exponent vectors to
HPoly coefficients.  The module also provides the Kirillov Poisson bracket,
the infinitesimal invariance test, and multivariate division by a supplied
confluent reduction system.  Results accumulate into one dict in place
through scalars.acc_scaled, which this module re-exports.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add

from .lie import LieAlgebra
from .scalars import H_ONE, H_ZERO, acc_scaled, acc_term, as_hpoly


def product(a, b, key_mul):
    """The product of two term dicts, key_mul giving the product of keys: the
    one such loop, for CPoly and the expression parser.  Two single terms,
    as in every factor chain c*x^a*y^b and every word X*Y*Z, make one term
    (a product in Q(i)[h] has no zero divisors)."""
    if len(a) == 1 and len(b) == 1:
        (k1, c1), = a.items()
        (k2, c2), = b.items()
        return {key_mul(k1, k2): c2 if c1 is H_ONE else c1 if c2 is H_ONE else c1 * c2}
    out = {}
    for k1, c1 in a.items():
        acc_scaled(out, {key_mul(k1, k2): c2 for k2, c2 in b.items()}, c1)
    return out


def monomial_mul(a, b):
    return tuple(map(add, a, b))


class Sparse:
    """Arithmetic shared by CPoly and NCPoly, whose terms map keys to nonzero
    HPoly coefficients.  Subclasses supply _coerce (a same-space element or a
    lifted scalar, else None), _check (same space or ValueError) and _new
    (wrap terms already clean, without validating them again)."""

    __slots__ = ()

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        acc_scaled(out, other.terms, H_ONE)
        return self._new(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def h_coefficient(self, k):
        """The coefficient of h^k, as an h-free element."""
        out = {}
        for key, c in self.terms.items():
            v = c.coeff(k)
            if v:
                out[key] = v
        return self._new(out)

    def _scaled(self, c):
        """self times a scalar, or NotImplemented for a non-scalar."""
        c = as_hpoly(c)
        if c is None:
            return NotImplemented
        out = {}
        if c:
            acc_scaled(out, self.terms, c)
        return self._new(out)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = self._coerce(1)
        for _ in range(n):
            out = out * self
        return out


class CPoly(Sparse):
    """A commutative polynomial; terms maps exponent tuples to coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, coeff in (terms or {}).items():
            c = as_hpoly(coeff)
            if c is None:
                raise TypeError(f"bad coefficient {coeff!r}")
            if not c:
                continue
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong length")
            clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: as_hpoly(c)})

    @classmethod
    def one(cls, nvars):
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars, i):
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: H_ONE})

    @classmethod
    def monomial(cls, nvars, exps, coeff=1):
        return cls(nvars, {tuple(exps): as_hpoly(coeff)})

    # -- basic structure ----------------------------------------------
    def degree(self):
        """Total degree in the x variables; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def h_degree(self):
        if not self.terms:
            return None
        return max(c.degree for c in self.terms.values())

    def coeff(self, exps):
        return self.terms.get(tuple(exps), H_ZERO)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic -----------------------------------------------------
    def _coerce(self, x):
        if isinstance(x, CPoly):
            return x
        c = as_hpoly(x)
        return None if c is None else CPoly.constant(self.nvars, c)

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable sets")

    def _new(self, terms):
        p = object.__new__(CPoly)
        p.nvars = self.nvars
        p.terms = terms
        return p

    def __mul__(self, other):
        if not isinstance(other, CPoly):
            return self._scaled(other)
        self._check(other)
        return self._new(product(self.terms, other.terms, monomial_mul))

    __rmul__ = __mul__

    # -- calculus and h-structure ----------------------------------------
    def partial(self, i):
        """Formal partial derivative in variable i; h coefficients untouched."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                continue
            lowered = tuple(e - 1 if j == i else e for j, e in enumerate(exps))
            acc_term(out, lowered, c * exps[i])
        return CPoly(self.nvars, out)

    def truncate_h(self, k):
        return CPoly(self.nvars, {e: c.truncate(k) for e, c in self.terms.items()})

    def evaluate(self, point):
        """Substitute scalar values for the variables; the result keeps h."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        out = H_ZERO
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                for _ in range(e):
                    v = v * x
            out = out + v
        return out

    def homogeneous_degree(self):
        """The common total degree of all terms, or None if mixed/zero."""
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __repr__(self):
        from .exprs import format_cpoly

        names = tuple(f"x{i}" for i in range(self.nvars))
        return format_cpoly(self, names)


# ---------------------------------------------------------------------------
# Monomial orders and enumeration.

def grlex_key(exps, priority=None):
    """Sort key for graded lex; priority lists variables most significant
    first (natural order when omitted)."""
    if priority is None:
        ordered = tuple(exps)
    else:
        ordered = tuple(exps[i] for i in priority)
    return (sum(exps), ordered)


def monomials_of_degree(nvars, d, priority=None):
    """All exponent vectors of total degree d, ascending in grlex."""
    out = []

    def rec(prefix, rest, remaining):
        if rest == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), rest - 1, remaining - e)

    if nvars == 0:
        return [()] if d == 0 else []
    rec((), nvars, d)
    out.sort(key=lambda e: grlex_key(e, priority))
    return out


def monomials_up_to(nvars, max_degree, priority=None):
    out = []
    for d in range(max_degree + 1):
        out.extend(monomials_of_degree(nvars, d, priority))
    return out


def leading_term(f: CPoly, priority=None):
    """(exponents, coefficient) of the grlex-leading monomial."""
    if f.is_zero():
        raise ValueError("zero polynomial has no leading term")
    exps = max(f.terms, key=lambda e: grlex_key(e, priority))
    return exps, f.terms[exps]


def _divides(lead, exps):
    return all(a <= b for a, b in zip(lead, exps))


class ReductionSystem:
    """Ordered rewrite rules lead -> replacement for multivariate division.

    Each rule is normalized to a monic leading coefficient, which must be an
    h-free scalar, and each replacement must be strictly smaller than its
    lead in the system's monomial order.
    """

    def __init__(self, nvars, rules, priority=None):
        self.nvars = nvars
        self.priority = tuple(priority) if priority is not None else None
        if priority is not None and sorted(self.priority) != list(range(nvars)):
            raise ValueError(f"priority {self.priority} is not an ordering "
                             f"of the {nvars} variables")
        norm = []
        for lead, repl in rules:
            lead = tuple(lead)
            if len(lead) != nvars or repl.nvars != nvars:
                raise ValueError("rule arity mismatch")
            lead_key = grlex_key(lead, self.priority)
            if not repl.is_zero():
                rep_exps, _ = leading_term(repl, self.priority)
                if grlex_key(rep_exps, self.priority) >= lead_key:
                    raise ValueError(
                        "replacement is not smaller than its leading monomial"
                    )
            norm.append((lead, repl))
        self.rules = tuple(norm)

    @classmethod
    def from_polynomials(cls, polys, priority=None):
        """Build rules lead -> lead - p from monic-normalized generators."""
        rules = []
        nvars = polys[0].nvars
        for p in polys:
            exps, coeff = leading_term(p, priority)
            scalar = coeff.as_scalar()
            if not scalar:
                raise ValueError("leading coefficient must be a nonzero scalar")
            monic = p * (H_ONE / scalar)
            repl = CPoly.monomial(nvars, exps) - monic
            rules.append((exps, repl))
        return cls(nvars, rules, priority)


def reduce(f: CPoly, system: ReductionSystem):
    """Multivariate division of f by the system's rules.

    Returns (quotients, remainder) with f = sum_r quotients[r]*rule_r +
    remainder, rule_r = lead_r - replacement_r, and no remainder monomial
    divisible by any rule lead.  Rules are tried in listed order, so the
    division is deterministic.  The lead is popped from a heap of negated
    grlex keys, each computed once when its monomial enters the work dict;
    an entry whose monomial has since cancelled is skipped when popped.  The
    priority orders all variables, so grlex keys are injective and the heap
    pops the grlex-largest monomial.  Leading monomials strictly decrease,
    so each quotient or remainder key is set once.
    """
    if f.nvars != system.nvars:
        raise ValueError("variable count mismatch")
    order = system.priority or range(system.nvars)
    quotients = [{} for _ in system.rules]
    remainder = {}
    work = dict(f.terms)
    heap = [(-sum(e), [-e[i] for i in order], e) for e in work]
    heapify(heap)
    while heap:
        exps = heappop(heap)[2]
        coeff = work.pop(exps, None)
        if coeff is None:
            continue
        for r, (lead, repl) in enumerate(system.rules):
            if _divides(lead, exps):
                break
        else:
            remainder[exps] = coeff
            continue
        # coeff * x^shift * (lead - repl) cancels the leading term and
        # leaves coeff * x^shift * repl.
        shift = tuple([a - b for a, b in zip(exps, lead)])
        quotients[r][shift] = coeff
        step = {monomial_mul(shift, e): c for e, c in repl.terms.items()}
        for e in step:
            if e not in work:
                heappush(heap, (-sum(e), [-e[i] for i in order], e))
        acc_scaled(work, step, coeff)
    return [f._new(q) for q in quotients], f._new(remainder)


# ---------------------------------------------------------------------------
# The Kirillov Poisson structure.

def kirillov_bracket(L: LieAlgebra, f: CPoly, g: CPoly) -> CPoly:
    """{f, g} = sum_{i,j,k} c[i][j][k] x_k (df/dx_i)(dg/dx_j), summed pair
    of terms by pair of terms into one dict."""
    n = L.dim
    if f.nvars != n or g.nvars != n:
        raise ValueError("polynomials do not match the algebra's variables")
    out = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            c = cb if ca is H_ONE else ca * cb
            for i in range(n):
                for j in range(n):
                    m = a[i] * b[j]
                    if not (m and L.bracket_terms(i, j)):
                        continue
                    # x^a x^b / (x_i x_j), times each x_k of [X_i, X_j]
                    e = list(map(add, a, b))
                    e[i] -= 1
                    e[j] -= 1
                    step = {}
                    for k, v in L.bracket_terms(i, j):
                        e[k] += 1
                        step[tuple(e)] = v
                        e[k] -= 1
                    acc_scaled(out, step, c if m == 1 else c * m)
    return f._new(out)


def is_invariant(L: LieAlgebra, p: CPoly) -> bool:
    """Infinitesimal invariance: {x_i, p} = 0 for every coordinate."""
    n = L.dim
    return all(
        kirillov_bracket(L, CPoly.variable(n, i), p).is_zero() for i in range(n)
    )
