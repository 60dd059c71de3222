"""Exact linear algebra over the Gaussian rationals (h-free HPolys).

Dense helpers for small matrices (products, determinants, inverses) plus an
incremental sparse row-reduction used by the coboundary and gauge
solvers.  LinearSystem.add_polys is the one place where an
equation between polynomials becomes scalar rows, one per monomial.
Everything is exact; there is no pivot-size heuristic because there is no
rounding.
"""

from __future__ import annotations

from .scalars import H_ONE, H_ZERO, HPoly, acc_scaled


def mat(rows):
    """Normalize a nested sequence into a tuple-of-tuples of h-free HPolys."""
    return tuple(tuple(HPoly.const(x) for x in row) for row in rows)


def mat_identity(n):
    return tuple(
        tuple(H_ONE if i == j else H_ZERO for j in range(n)) for i in range(n)
    )


def _shape(a, square=False):
    """The (rows, columns) of a matrix; ValueError unless every row has the
    same length and, when asked, the matrix is square."""
    n, m = len(a), len(a[0]) if a else 0
    if any(len(row) != m for row in a) or (square and m != n):
        raise ValueError("matrix is not square" if square
                         else "matrix rows differ in length")
    return n, m


def mat_add(a, b):
    if _shape(a) != _shape(b):
        raise ValueError("matrix shapes differ")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

def mat_sub(a, b):
    return mat_add(a, mat_scale(-1, b))


def mat_scale(c, a):
    c = HPoly.const(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b):
    (n, k), (rows, m) = _shape(a), _shape(b)
    if k != rows:
        raise ValueError(f"cannot multiply a {n}x{k} by a {rows}x{m} matrix")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = H_ZERO
            for t in range(k):
                s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mat_is_scalar(a):
    """Return the scalar c when a == c*Id, else None."""
    n, _ = _shape(a, square=True)
    c = a[0][0]
    for i in range(n):
        for j in range(n):
            want = c if i == j else H_ZERO
            if a[i][j] != want:
                return None
    return c


def _gauss_jordan(a):
    """One Gauss-Jordan pass over a square matrix: (det, inverse), where the
    inverse is None when the matrix is singular."""
    n, _ = _shape(a, square=True)
    m = [list(row) + [H_ONE if i == j else H_ZERO for j in range(n)]
         for i, row in enumerate(a)]
    d = H_ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return H_ZERO, None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            d = -d
        d = d * m[col][col]
        inv = H_ONE / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r == col or not m[r][col]:
                continue
            f = m[r][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return d, tuple(tuple(row[n:]) for row in m)


def det(a):
    """Exact determinant."""
    return _gauss_jordan(a)[0]


def invert(a):
    """Exact inverse, or None when the matrix is singular."""
    return _gauss_jordan(a)[1]


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
        row = {c: HPoly.const(v) for c, v in row.items() if v}
        rhs = HPoly.const(rhs)
        while row:
            col = min(row)
            hit = self.pivots.get(col)
            if hit is None:
                inv = H_ONE / row[col]
                norm = {c: v * inv for c, v in row.items()}
                self.pivots[col] = (norm, rhs * inv)
                return True
            prow, prhs = hit
            f = -row[col]  # prow[col] is 1, so col cancels
            acc_scaled(row, prow, f)
            rhs = rhs + f * prhs
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
            if not self.add(row, H_ZERO if b is None else b.as_scalar(),
                            tag=(tag, key)):
                return False
        return True

    def solve(self):
        """A particular solution with free columns set to zero, or None."""
        if self.conflict is not None:
            return None
        x = [H_ZERO] * self.ncols
        for col in sorted(self.pivots, reverse=True):
            row, rhs = self.pivots[col]
            val = rhs
            for c, v in row.items():
                if c != col:
                    val = val - v * x[c]
            x[col] = val
        return x
