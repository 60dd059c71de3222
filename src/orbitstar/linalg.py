"""Exact linear algebra over the Gaussian rationals.

Dense helpers for small matrices (products, determinants, inverses) plus an
incremental sparse row-reduction used by the coboundary, gauge and
bidifferential solvers.  LinearSystem.add_polys is the one place where an
equation between polynomials becomes scalar rows, one per monomial.
Everything is exact; there is no pivot-size heuristic because there is no
rounding.
"""

from __future__ import annotations

from .scalars import GR_ONE, GR_ZERO, GaussianRational, as_gauss


def _g(x) -> GaussianRational:
    v = as_gauss(x)
    if v is None:
        raise TypeError(f"not a scalar: {x!r}")
    return v


def mat(rows):
    """Normalize a nested sequence into a tuple-of-tuples scalar matrix."""
    return tuple(tuple(_g(x) for x in row) for row in rows)


def mat_identity(n):
    return tuple(
        tuple(GR_ONE if i == j else GR_ZERO for j in range(n)) for i in range(n)
    )


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    c = _g(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = GR_ZERO
            for t in range(k):
                s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mat_transpose(a):
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def mat_is_scalar(a):
    """Return the scalar c when a == c*Id, else None."""
    n = len(a)
    c = a[0][0]
    for i in range(n):
        for j in range(n):
            want = c if i == j else GR_ZERO
            if a[i][j] != want:
                return None
    return c


def det(a):
    """Exact determinant by fraction-based Gaussian elimination."""
    n = len(a)
    m = [list(row) for row in a]
    out = GR_ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return GR_ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            out = -out
        p = m[col][col]
        out = out * p
        inv = GR_ONE / p
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if not f:
                continue
            for c in range(col, n):
                m[r][c] = m[r][c] - f * m[col][c]
    return out


def invert(a):
    """Exact inverse, or None when the matrix is singular."""
    n = len(a)
    m = [list(row) + [GR_ONE if i == j else GR_ZERO for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = GR_ONE / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r == col or not m[r][col]:
                continue
            f = m[r][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


class LinearSystem:
    """Incrementally row-reduced sparse linear system over Q(i).

    Rows are added as {column: coefficient} dictionaries together with a
    right-hand side.  Each row is eliminated against the stored pivots on
    arrival, so inconsistency is detected as soon as it appears.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = {}  # leading column -> (row dict, rhs)
        self.conflict = None  # tag of the first inconsistent row, if any

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, row, rhs, tag=None) -> bool:
        """Reduce and store one equation; False when it is inconsistent."""
        row = {c: _g(v) for c, v in row.items() if v}
        rhs = _g(rhs)
        while row:
            col = min(row)
            hit = self.pivots.get(col)
            if hit is None:
                inv = GR_ONE / row[col]
                norm = {c: v * inv for c, v in row.items()}
                self.pivots[col] = (norm, rhs * inv)
                return True
            prow, prhs = hit
            f = row.pop(col)
            for c, v in prow.items():
                if c == col:
                    continue
                nv = row.get(c, GR_ZERO) - f * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            rhs = rhs - f * prhs
        if rhs:
            if self.conflict is None:
                self.conflict = tag if tag is not None else True
            return False
        return True

    def add_polys(self, lin, rhs, tag=None) -> bool:
        """Add sum_col x_col * lin[col] == rhs for h-free polynomials.

        One row per key of the joint support, in sorted key order, tagged
        (tag, key); False at the first inconsistent row.
        """
        support = set(rhs.terms)
        for p in lin.values():
            support.update(p.terms)
        for key in sorted(support):
            row = {col: p.terms[key].as_scalar()
                   for col, p in lin.items() if key in p.terms}
            b = rhs.terms.get(key)
            if not self.add(row, GR_ZERO if b is None else b.as_scalar(),
                            tag=(tag, key)):
                return False
        return True

    def solve(self):
        """A particular solution with free columns set to zero, or None."""
        if self.conflict is not None:
            return None
        x = [GR_ZERO] * self.ncols
        for col in sorted(self.pivots, reverse=True):
            row, rhs = self.pivots[col]
            val = rhs
            for c, v in row.items():
                if c != col:
                    val = val - v * x[c]
            x[col] = val
        return x


def rank_dense(rows):
    ncols = max((len(r) for r in rows), default=0)
    sys_ = LinearSystem(ncols)
    for row in rows:
        sys_.add({j: v for j, v in enumerate(row) if v}, GR_ZERO)
    return sys_.rank
