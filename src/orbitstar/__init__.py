"""orbitstar: exact star products on regular coadjoint orbits.

A computer-algebra engine over Q(i)[h] for the deformed enveloping algebra
(words modulo X Y - Y X = h [X, Y]), the symmetrizer star product, orbit
ideal reduction and the induced orbit products, tangentiality and
differentiability probes, representation-theoretic witnesses, and the
polynomial Chevalley-Eilenberg solver.
"""

from .scalars import HPoly, H, H_ONE, H_ZERO, as_hpoly, format_hpoly
from .lie import (
    BasisChange,
    LieAlgebra,
    adjoint_rep,
    algebra_from_json,
    change_basis,
    check_jacobi,
    is_semisimple,
    killing_det,
    killing_form,
    predefined,
)
from .poly import (
    CPoly,
    ReductionSystem,
    is_invariant,
    kirillov_bracket,
    monomials_of_degree,
    monomials_up_to,
    reduce,
)
from .envelope import NCPoly, multiply_at, substitute_generators
from .quantize import (
    StarProduct,
    check_deformation_axioms,
    gauge_defect,
    gauge_step,
    pbw_basis_product,
    sym_inverse,
    symmetrize,
    symmetrizer_product,
)
from .orbit import Orbit, orbit_from_json, sphere_orbit
from .exprs import (
    ExprSyntaxError,
    format_cpoly,
    format_ncpoly,
    parse_expression,
    parse_hpoly,
    parse_rational,
    parse_scalar,
)

__version__ = "0.1.0"

# Re-exports of the modules that only `verify`, `rep` and `cohomology` run:
# each name is imported on first access (PEP 562), so that `import orbitstar`
# does not compile those modules.
_LAZY = (
    dict.fromkeys(("MatrixRep", "casimir_scalar", "casimir_spectrum", "evaluate",
                   "highest_weight_casimir", "nonisomorphism_witness",
                   "sl2_casimir", "su2_defining_rep", "validate_rep"), "reps")
    | dict.fromkeys(("Cochain1", "Cochain2", "d1", "d2", "extend_c1",
                     "h2_dimension", "is_cocycle", "solve_coboundary"), "cohomology")
    | dict.fromkeys(("SUITES", "run_suite", "run_suites"), "verify")
)


def __getattr__(name):
    import importlib

    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
