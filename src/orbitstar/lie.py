"""Lie algebras presented by structure constants over Q(i).

A LieAlgebra stores the bracket table [X_i, X_j] = sum_k c[i][j][k] X_k.
Antisymmetry and the Jacobi identity are enforced at construction, so every
instance in circulation is a genuine Lie algebra.

The Jacobi check and the Killing form sum over nonzero structure constants
only, and Jacobi is checked on the triples i < j < k alone: once c is
antisymmetric, the Jacobiator J(i, j, k) = [[X_i, X_j], X_k]
+ [[X_j, X_k], X_i] + [[X_k, X_i], X_j] is alternating (cyclic by
construction, odd under a swap, zero on a repeated index), so it vanishes
everywhere iff it vanishes there.  Without antisymmetry that argument
fails, so check_jacobi rejects such a cube outright.
"""

from __future__ import annotations

import json

from . import linalg
from .scalars import H_ZERO, HPoly

def _constants_from(c):
    """Normalize nested structure constants into a dense scalar cube."""
    n = len(c)
    cube = []
    for i in range(n):
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                try:
                    row.append(HPoly.const(c[i][j][k]))
                except TypeError:
                    raise TypeError(f"bad structure constant c[{i}][{j}][{k}]") from None
            plane.append(tuple(row))
        cube.append(tuple(plane))
    return tuple(cube)


def is_antisymmetric(c) -> bool:
    n = len(c)
    return all(
        c[i][j][k] == -c[j][i][k]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def _nonzero(c):
    """nz[i][j] lists the nonzero components of [X_i, X_j] as (k, c_ij^k)."""
    n = len(c)
    return tuple(
        tuple(tuple((k, v) for k, v in enumerate(c[i][j]) if v) for j in range(n))
        for i in range(n)
    )


def check_jacobi(c) -> bool:
    """True iff c (a LieAlgebra or a cube) is antisymmetric and satisfies
    the Jacobi identity.

    Jacobi is checked on the triples i < j < k only, which suffices because
    the Jacobiator is alternating once c is antisymmetric; a cube that is
    not antisymmetric is therefore False, never a wrong True.
    """
    if isinstance(c, LieAlgebra):
        nz = c._bracket_nz
    else:
        c = _constants_from(c)
        if not is_antisymmetric(c):
            return False
        nz = _nonzero(c)
    n = len(nz)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = {}
                for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, u in nz[a][b]:
                        for l, v in nz[m][d]:
                            acc[l] = acc.get(l, H_ZERO) + u * v
                if any(acc.values()):
                    return False
    return True


def _check_labels(labels, what):
    """Raise unless labels are distinct names of the expression grammar, none
    of them h or i: only such a label prints as text that parses back to it."""
    from .exprs import ExprSyntaxError, _tokenize

    for text in labels:
        try:
            ok = _tokenize(text)[0][:2] == ("name", text) and text not in ("h", "i")
        except ExprSyntaxError:
            ok = False
        if not ok:
            raise ValueError(f"{what} {text!r} must be one name of the "
                             "expression grammar, not h or i")
    if len(set(labels)) != len(labels):
        raise ValueError(f"{what}s are not distinct")


def _default_varnames(names):
    vars_ = tuple(name.lower() for name in names)
    try:
        _check_labels(vars_, "variable name")
    except ValueError:
        return tuple(f"x{i}" for i in range(len(names)))
    return vars_


class LieAlgebra:
    """A finite-dimensional Lie algebra given by its structure constants.

    names label the generators on the noncommutative side, varnames the
    commutative coordinates (the lowercased names, else x0, x1, ...); each
    set is distinct names of the expression grammar, none of them h or i.
    """

    def __init__(self, names, c, varnames=None):
        self.names = tuple(str(x) for x in names)
        _check_labels(self.names, "generator name")
        self.dim = len(self.names)
        self.c = _constants_from(c)
        if len(self.c) != self.dim:
            raise ValueError("structure constant table does not match dim")
        if not is_antisymmetric(self.c):
            raise ValueError("structure constants are not antisymmetric")
        # nonzero bracket components, for check_jacobi and the rewriting kernel
        self._bracket_nz = _nonzero(self.c)
        if not check_jacobi(self):
            raise ValueError("Jacobi identity fails")
        self.varnames = (tuple(str(x) for x in varnames) if varnames
                         else _default_varnames(self.names))
        if len(self.varnames) != self.dim:
            raise ValueError("varnames length does not match dim")
        _check_labels(self.varnames, "variable name")
        # normal-form memos keyed by word: the engine's, and one per
        # reference rewriting strategy
        self._nf_cache = {"engine": {}, "leftmost": {}, "rightmost": {}}
        # symmetrizer images keyed by exponent vector, and the inverse
        # symmetrizer keyed by nondecreasing word (quantize)
        self._sym_cache = {}
        self._sym_inv_cache = {}
        # d1 images of the unit 1-cochains, keyed by degree (cohomology)
        self._d1_cache = {}

    def bracket_terms(self, i, j):
        """Nonzero components of [X_i, X_j] as (k, coefficient) pairs."""
        return self._bracket_nz[i][j]

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, names={self.names})"


class BasisChange:
    """An invertible change of basis; column j holds the j-th new generator
    expressed in the old basis."""

    def __init__(self, matrix):
        self.matrix = linalg.mat(matrix)
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("basis-change matrix must be square")
        inv = linalg.invert(self.matrix)
        if inv is None:
            raise ValueError("basis-change matrix is singular")
        self.inverse = inv

    @property
    def dim(self):
        return len(self.matrix)


def change_basis(L: LieAlgebra, B: BasisChange, names=None, varnames=None) -> LieAlgebra:
    """Transport structure constants along Y_j = sum_i B[i][j] X_i."""
    if B.dim != L.dim:
        raise ValueError("basis change dimension mismatch")
    n = L.dim
    M, Minv = B.matrix, B.inverse
    c = [[[H_ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            # [Y_i, Y_j] in the old basis, then re-express through Minv
            old = [H_ZERO] * n
            for a in range(n):
                if not M[a][i]:
                    continue
                for b in range(n):
                    f = M[a][i] * M[b][j]
                    if not f:
                        continue
                    for k, v in L.bracket_terms(a, b):
                        old[k] = old[k] + f * v
            for l in range(n):
                s = H_ZERO
                for k in range(n):
                    s = s + Minv[l][k] * old[k]
                c[i][j][l] = s
    new_names = names or tuple(f"Y{i}" for i in range(n))
    return LieAlgebra(new_names, c, varnames=varnames)


def killing_form(L):
    """The matrix K[i][j] = sum_{k,l} c[i][k][l] * c[j][l][k] of a LieAlgebra
    or a structure-constant cube, summed over the nonzero c[i][k][l] only."""
    c = L.c if isinstance(L, LieAlgebra) else _constants_from(L)
    n, nz = len(c), _nonzero(c)
    return tuple(
        tuple(
            sum((u * c[j][l][k] for k in range(n) for l, u in nz[i][k]), H_ZERO)
            for j in range(n)
        )
        for i in range(n)
    )


def killing_det(L: LieAlgebra) -> HPoly:
    return linalg.det(killing_form(L))


def is_semisimple(L: LieAlgebra) -> bool:
    """Cartan's criterion: the Killing form is nondegenerate."""
    return bool(killing_det(L))


def adjoint_rep(L: LieAlgebra):
    """The adjoint representation (ad_i)[k][j] = c[i][j][k]."""
    from .reps import MatrixRep

    n = L.dim
    mats = [
        tuple(tuple(L.c[i][j][k] for j in range(n)) for k in range(n))
        for i in range(n)
    ]
    return MatrixRep(n, mats)


_SU2_TABLE = {(0, 1): [(2, 1)], (1, 2): [(0, 1)], (2, 0): [(1, 1)]}
# triangular order F < H < E so that normal ordering puts E rightmost
_SL2_TABLE = {(0, 1): [(0, 2)], (1, 2): [(2, 2)], (2, 0): [(1, 1)]}


def _table_to_constants(n, table):
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), terms in table.items():
        for k, v in terms:
            c[i][j][k] = v
            c[j][i][k] = -v
    return c


_PREDEFINED = {}


def predefined(name: str) -> LieAlgebra:
    """Built-in presentations: "su2" (X,Y,Z) and "sl2" (F,H,E).

    Instances are cached, so elements built in different places share the
    same algebra object (and its normal-form cache).
    """
    hit = _PREDEFINED.get(name)
    if hit is not None:
        return hit
    if name == "su2":
        L = LieAlgebra(("X", "Y", "Z"), _table_to_constants(3, _SU2_TABLE))
    elif name == "sl2":
        L = LieAlgebra(("F", "H", "E"), _table_to_constants(3, _SL2_TABLE))
    else:
        raise ValueError(f"unknown algebra {name!r}")
    _PREDEFINED[name] = L
    return L


def _integer(x, what):
    """x if it is a JSON integer; a bool, a float or a string is an error."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, not {x!r}")
    return x


def _list(x, what):
    """x if it is a JSON list; a string, a number or an object is an error."""
    if type(x) is not list:
        raise ValueError(f"{what} must be a JSON list, not {x!r}")
    return x


def algebra_from_json(data) -> LieAlgebra:
    """Load an algebra description.

    Accepts {"dim": n, "names": [...], "brackets": [[i, j, [[k, coeff], ...]],
    ...]} with JSON integers n and 0-based indices, listing only i < j pairs;
    names, varnames, brackets and each bracket's terms are JSON lists;
    the loader antisymmetrizes and validates.  Coefficients are scalar
    expressions such as "1", "-1/2" or "i".
    """
    from .exprs import parse_scalar

    if isinstance(data, str):
        data = json.loads(data)
    n = _integer(data["dim"], "dim")
    names = _list(data.get("names", []), "names") or [f"X{i}" for i in range(n)]
    if len(names) != n:
        raise ValueError("names length does not match dim")
    table = {}
    for entry in _list(data.get("brackets", []), "brackets"):
        i, j, terms = _list(entry, "bracket entry")
        i, j = _integer(i, "bracket index"), _integer(j, "bracket index")
        if not 0 <= i < j < n:
            raise ValueError(f"bracket pair ({i}, {j}) must satisfy 0 <= i < j < dim")
        for k, coeff in _list(terms, "bracket terms"):
            k = _integer(k, "bracket component")
            if not 0 <= k < n:
                raise ValueError(f"bracket component {k} must satisfy 0 <= k < dim")
            table.setdefault((i, j), []).append((k, parse_scalar(str(coeff))))
    c = _table_to_constants(n, table)
    return LieAlgebra(names, c, varnames=_list(data.get("varnames", []), "varnames"))


def orbit_algebra(data) -> LieAlgebra:
    """The algebra of an orbit description: its "algebra" entry, a
    predefined name or an algebra description, else su2."""
    entry = data.get("algebra", "su2")
    return predefined(entry) if isinstance(entry, str) else algebra_from_json(entry)
