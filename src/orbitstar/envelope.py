"""The deformed enveloping algebra: words modulo X_i X_j - X_j X_i = h [X_i, X_j].

NCPoly stores linear combinations of generator-index words with Q(i)[h]
coefficients.  An element is canonical when every word is nondecreasing
(ordered-monomial form).  Normal forms use the multiplication-table method
for algebras of solvable type (Levandovskyy and Schoenemann, "Plural",
2003): the table gives X_i X^b for a generator i and a nondecreasing word
b, X^(i b) when b is empty or i <= b0, else
X_b0 (X_i X^r) + h sum_k c^k_(i,b0) X_k X^r for b = (b0,) + r.  Any other
word is one table step of its first letter onto the normal form of its
tail.  One memo per word holds what both steps compute, and products,
normal_form() and the orbit ideal reduction all read it.  The swap
rewriter, trading one adjacent inversion for an h-weighted shorter word at
a time, is kept only as an independent reference
behind normal_form("leftmost"/"rightmost"), with memos of its own.
Products and normal forms accumulate into one dict in place, as poly.Sparse
does for sums, and skip every product by the interned H_ONE.
"""

from __future__ import annotations

from operator import le

from .lie import LieAlgebra
from .poly import CPoly, Sparse, acc_scaled, acc_term
from .scalars import H, H_ONE, as_hpoly

def _times(L: LieAlgebra, i, b):
    """Canonical terms of X_i X^b for a nondecreasing word b: the table."""
    if not b or i <= b[0]:
        return {(i,) + b: H_ONE}
    memo = L._nf_cache["engine"]
    word = (i,) + b
    hit = memo.get(word)
    if hit is None:
        b0, r = b[0], b[1:]
        hit = {}
        for v, c in _times(L, i, r).items():
            acc_scaled(hit, _times(L, b0, v), c)
        for k, ck in L.bracket_terms(i, b0):
            acc_scaled(hit, _times(L, k, r), H * ck)
        memo[word] = hit
    return hit


def _nf_word(L: LieAlgebra, word):
    """Canonical terms of a single word, as a dict word -> coefficient."""
    memo = L._nf_cache["engine"]
    hit = memo.get(word)
    if hit is not None:
        return hit
    # word[k:] is the longest nondecreasing suffix
    k = len(word) - 1
    while k > 0 and word[k - 1] <= word[k]:
        k -= 1
    if k <= 0:
        return {word: H_ONE}
    first, tail = word[0], word[1:]
    if k == 1:
        return _times(L, first, tail)
    out = {}
    for v, c in _nf_word(L, tail).items():
        acc_scaled(out, _times(L, first, v), c)
    memo[word] = out
    return out


def _descent(word, strategy):
    rng = range(len(word) - 1)
    if strategy == "rightmost":
        rng = reversed(rng)
    for k in rng:
        if word[k] > word[k + 1]:
            return k
    return None


def _rewrite_word(L: LieAlgebra, word, strategy):
    """The reference rewriter's canonical terms of a single word: swap the
    leftmost (or rightmost) descent until none is left."""
    cache = L._nf_cache[strategy]
    hit = cache.get(word)
    if hit is not None:
        return hit
    stack = [word]
    while stack:
        w = stack[-1]
        if w in cache:
            stack.pop()
            continue
        k = _descent(w, strategy)
        if k is None:
            cache[w] = {w: H_ONE}
            stack.pop()
            continue
        j, i = w[k], w[k + 1]
        swapped = w[:k] + (i, j) + w[k + 2:]
        brackets = [
            (w[:k] + (m,) + w[k + 2:], v) for m, v in L.bracket_terms(j, i)
        ]
        missing = [d for d in [swapped] + [t for t, _ in brackets] if d not in cache]
        if missing:
            stack.extend(missing)
            continue
        acc = dict(cache[swapped])
        for wk, v in brackets:
            acc_scaled(acc, cache[wk], H * v)
        cache[w] = acc
        stack.pop()
    return cache[word]


def word_exps(word, n):
    """The exponent vector of a word over n generators: its letter counts."""
    exps = [0] * n
    for g in word:
        exps[g] += 1
    return tuple(exps)


class NCPoly(Sparse):
    """An element of the deformed enveloping algebra of a Lie algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: LieAlgebra, terms=None):
        self.algebra = algebra
        clean = {}
        for word, coeff in (terms or {}).items():
            c = as_hpoly(coeff)
            if c is None:
                raise TypeError(f"bad coefficient {coeff!r}")
            if not c:
                continue
            word = tuple(word)
            if any(not 0 <= g < algebra.dim for g in word):
                raise ValueError(f"word {word} uses unknown generators")
            clean[word] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, algebra):
        return cls(algebra)

    @classmethod
    def scalar(cls, algebra, c):
        return cls(algebra, {(): as_hpoly(c)})

    @classmethod
    def one(cls, algebra):
        return cls.scalar(algebra, 1)

    @classmethod
    def generator(cls, algebra, i):
        return cls(algebra, {(i,): H_ONE})

    @classmethod
    def word(cls, algebra, indices, coeff=1):
        return cls(algebra, {tuple(indices): as_hpoly(coeff)})

    @classmethod
    def ordered_words(cls, algebra, f: CPoly):
        """Each monomial x^a of f as its nondecreasing word X^a."""
        return cls(algebra, {
            tuple(i for i, e in enumerate(exps) for _ in range(e)): c
            for exps, c in f.terms.items()
        })

    # -- structure --------------------------------------------------------
    def is_canonical(self):
        return all([all(map(le, w, w[1:])) for w in self.terms])

    def _coerce(self, x):
        if isinstance(x, NCPoly):
            return x
        c = as_hpoly(x)
        return None if c is None else NCPoly.scalar(self.algebra, c)

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("elements live over different algebras")

    def _new(self, terms):
        u = object.__new__(NCPoly)
        u.algebra = self.algebra
        u.terms = terms
        return u

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------------
    def __mul__(self, other):
        if not isinstance(other, NCPoly):
            return self._scaled(other)
        self._check(other)
        L = self.algebra
        memo = L._nf_cache["engine"]
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                nf = memo.get(w) or _nf_word(L, w)
                c = c2 if c1 is H_ONE else c1 if c2 is H_ONE else c1 * c2
                acc_scaled(out, nf, c)
        return self._new(out)

    __rmul__ = __mul__

    # -- the rewriting kernel ------------------------------------------------
    def normal_form(self, strategy=None):
        """Rewrite to the ordered-word basis; equal to self modulo the
        commutation ideal.  The default is the engine's table path;
        strategy "leftmost" or "rightmost" runs the reference rewriter."""
        L = self.algebra
        if strategy is None:
            memo = L._nf_cache["engine"]
            nf = lambda w: memo.get(w) or _nf_word(L, w)
        elif strategy in ("leftmost", "rightmost"):
            nf = lambda w: _rewrite_word(L, w, strategy)
        else:
            raise ValueError(f"unknown rewriting strategy {strategy!r}")
        out = {}
        for word, coeff in self.terms.items():
            acc_scaled(out, nf(word), coeff)
        return self._new(out)

    def commutator(self, other):
        return self * other - other * self

    def is_central(self):
        """True iff the element commutes with every generator."""
        for i in range(self.algebra.dim):
            g = NCPoly.generator(self.algebra, i)
            if not self.commutator(g).is_zero():
                return False
        return True

    # -- grading and specialization -------------------------------------------
    def graded_degree(self):
        """Max over terms of word length + h-degree; None for zero."""
        if not self.terms:
            return None
        return max(len(w) + c.degree for w, c in self.terms.items())

    def is_graded_homogeneous(self):
        """All word-length + h-power contributions share one total degree."""
        degs = {
            len(w) + k
            for w, c in self.terms.items()
            for k, s in enumerate(c.coeffs)
            if s
        }
        return len(degs) <= 1

    def specialize(self, h0):
        """Evaluate every coefficient at h = h0."""
        return NCPoly(
            self.algebra,
            {w: c.evaluate(h0) for w, c in self.terms.items()},
        )

    def project_h0(self) -> CPoly:
        """Drop positive h-degrees and read words as commutative monomials."""
        n = self.algebra.dim
        out = {}
        for word, coeff in self.terms.items():
            v = coeff.coeff(0)
            if not v:
                continue
            acc_term(out, word_exps(word, n), v)
        return CPoly(n, out)

    def word_exps(self):
        """For a canonical element: terms as exponent-vector -> coefficient."""
        if not self.is_canonical():
            raise ValueError("element is not canonical")
        n = self.algebra.dim
        return {word_exps(w, n): c for w, c in self.terms.items()}

    def __repr__(self):
        from .exprs import format_ncpoly

        return format_ncpoly(self)


def multiply_at(a: NCPoly, b: NCPoly, h0) -> NCPoly:
    """Product in the algebra specialized at h = h0.

    The rewriting is h-linear, so specializing after the generic product
    computes the product of the specialized algebra.
    """
    return (a * b).specialize(h0)


def substitute_generators(u: NCPoly, images) -> NCPoly:
    """Apply the algebra map sending generator i to images[i].

    The images must satisfy the source bracket relations for this to be a
    homomorphism; no check is made here.
    """
    images = list(images)
    if len(images) != u.algebra.dim:
        raise ValueError("need one image per generator")
    target = images[0].algebra
    out = NCPoly.zero(target)
    for word, coeff in u.terms.items():
        prod = NCPoly.one(target)
        for g in word:
            prod = prod * images[g]
        out = out + prod * coeff
    return out
