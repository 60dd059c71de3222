"""Matrix and highest-weight representations of the deformed algebra.

evaluate sends X_i to h0*rho_i and h to h0, so the specialized commutation
relations hold exactly in the image.  Central elements act as scalars; their
highest-weight evaluation normal-orders raising generators to the right,
drops them, and substitutes powers of the Cartan generator by powers of the
weight.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .envelope import NCPoly
from .lie import LieAlgebra, predefined
from .poly import CPoly
from .scalars import H_ZERO, I, HPoly, as_hpoly, format_scalar


class MatrixRep:
    """A matrix representation: one square matrix per generator."""

    def __init__(self, dim, matrices):
        self.dim = dim
        self.matrices = tuple(linalg.mat(m) for m in matrices)
        for m in self.matrices:
            if len(m) != dim or any(len(row) != dim for row in m):
                raise ValueError("representation matrices must be dim x dim")

    def __repr__(self):
        return f"MatrixRep(dim={self.dim}, generators={len(self.matrices)})"


def validate_rep(L: LieAlgebra, R: MatrixRep) -> bool:
    """Exact bracket compatibility of the matrices with the algebra."""
    if len(R.matrices) != L.dim:
        raise ValueError("need one matrix per generator")
    for i in range(L.dim):
        for j in range(L.dim):
            comm = linalg.mat_sub(
                linalg.mat_mul(R.matrices[i], R.matrices[j]),
                linalg.mat_mul(R.matrices[j], R.matrices[i]),
            )
            want = ((H_ZERO,) * R.dim,) * R.dim
            for k, v in L.bracket_terms(i, j):
                want = linalg.mat_add(want, linalg.mat_scale(v, R.matrices[k]))
            if comm != want:
                return False
    return True


def su2_defining_rep() -> MatrixRep:
    """The two-dimensional representation X = -(i/2)s1, Y = -(i/2)s2,
    Z = -(i/2)s3 built from the Pauli matrices."""
    i2, half = I * Fraction(-1, 2), Fraction(1, 2)
    X = ((0, i2), (i2, 0))
    Y = ((0, -half), (half, 0))
    Z = ((i2, 0), (0, -i2))
    return MatrixRep(2, (X, Y, Z))


def evaluate(u: NCPoly, R: MatrixRep, h0):
    """The image of u under X_i -> h0*rho_i, h -> h0."""
    h0 = HPoly.const(h0 if not isinstance(h0, str) else Fraction(h0))
    out = ((H_ZERO,) * R.dim,) * R.dim
    for word, coeff in u.terms.items():
        scalar = coeff.evaluate(h0) * h0 ** len(word)
        if not scalar:
            continue
        m = linalg.mat_identity(R.dim)
        for g in word:
            m = linalg.mat_mul(m, R.matrices[g])
        out = linalg.mat_add(out, linalg.mat_scale(scalar, m))
    return out


def casimir_scalar(u: NCPoly, R: MatrixRep, h0) -> HPoly:
    """The scalar by which a central element acts; raises on non-scalar
    images (a sign of a bad representation or non-central input)."""
    m = evaluate(u, R, h0)
    c = linalg.mat_is_scalar(m)
    if c is None:
        raise ValueError("element does not act as a scalar")
    return c


# ---------------------------------------------------------------------------
# Highest-weight evaluation for the triangular rank-one presentation.

def _check_triangular(L: LieAlgebra):
    """The generator order must be F < H < E with [H,E]=2E, [H,F]=-2F,
    [E,F]=H."""
    if L.dim != 3:
        raise ValueError("triangular evaluation needs a rank-one presentation")
    want = {(1, 2): {2: 2}, (1, 0): {0: -2}, (2, 0): {1: 1}}
    for (i, j), comps in want.items():
        for k in range(3):
            if L.c[i][j][k] != comps.get(k, 0):
                raise ValueError(
                    "generators are not in triangular order F < H < E"
                )
    return 0, 1, 2  # F, H, E indices


def highest_weight_casimir(L: LieAlgebra, u: NCPoly) -> CPoly:
    """The polynomial in the highest weight by which a central element acts.

    Normal-forms u so the raising generator sits rightmost, deletes every
    word containing it, and substitutes Cartan powers by weight powers.  A
    central element leaves no lowering-only words behind; their presence
    raises an error.
    """
    F, Hgen, E = _check_triangular(L)
    canon = u.normal_form()
    out = CPoly.zero(1)
    for word, coeff in canon.terms.items():
        if E in word:
            continue
        if F in word:
            raise ValueError(
                "lowering generators survive deletion: element is not central"
            )
        out = out + CPoly.monomial(1, (len(word),), coeff)
    return out


def sl2_casimir(L: LieAlgebra) -> NCPoly:
    """The quadratic central element E F + F E + H^2 / 2."""
    F, Hgen, E = _check_triangular(L)
    e = NCPoly.generator(L, E)
    f = NCPoly.generator(L, F)
    hh = NCPoly.generator(L, Hgen)
    return e * f + f * e + hh * hh * Fraction(1, 2)


def casimir_spectrum(L: LieAlgebra, u: NCPoly, lift, lambda_bound: int):
    """Weights lambda in 0..bound whose highest-weight value at h=1 matches
    the lift's value at h=1."""
    hw = highest_weight_casimir(L, u)
    lift = as_hpoly(lift)
    target = lift.evaluate(1)
    out = []
    for lam in range(lambda_bound + 1):
        value = hw.evaluate((lam,)).evaluate(1)
        if value == target:
            out.append(lam)
    return out


def nonisomorphism_witness(lift_a, lift_b, lambda_bound: int):
    """Compare the bounded highest-weight spectra of two ideal lifts.

    Each lift c(h) cuts the quotient by (casimir - c(h)); after specializing
    h = 1 the quotient admits a finite-dimensional highest-weight module at
    weight lambda exactly when the casimir's highest-weight value matches
    c(1).  Disjoint spectra with one side nonempty witness that the two
    specialized quotients are not isomorphic, up to the stated weight bound.
    """
    L = predefined("sl2")
    u = sl2_casimir(L)
    lift_a, lift_b = as_hpoly(lift_a), as_hpoly(lift_b)
    spec_a = casimir_spectrum(L, u, lift_a, lambda_bound)
    spec_b = casimir_spectrum(L, u, lift_b, lambda_bound)
    inter = sorted(set(spec_a) & set(spec_b))
    witness = bool(spec_a or spec_b) and not inter
    return {
        "lift_a": str(lift_a),
        "lift_b": str(lift_b),
        "value_a": format_scalar(lift_a.evaluate(1)),
        "value_b": format_scalar(lift_b.evaluate(1)),
        "spectrum_a": spec_a,
        "spectrum_b": spec_b,
        "intersection": inter,
        "witness_found": witness,
        "lambda_bound": lambda_bound,
        "h0": "1",
        "note": "spectra certified only up to the stated weight bound at h=1",
    }
