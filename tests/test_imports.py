"""Every name a module imports is used in that module.

The package's __init__.py is exempt: its imports are the public re-exports,
some of which it resolves only on first access; each still resolves.
"""

import ast
import sys
from pathlib import Path

import pytest

import orbitstar

MODULES = sorted(
    p for p in Path(orbitstar.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_detected():
    source = "import json\nfrom os import path, sep\nfrom a.b import c as d\nprint(sep)\n"
    assert _unused_imports(source) == [(1, "json"), (2, "path"), (3, "d")]


# every name the package has exported, the lazily resolved ones included
EXPORTS = (
    "BasisChange", "CPoly", "Cochain1", "Cochain2", "ExprSyntaxError",
    "H", "HPoly", "H_ONE", "H_ZERO", "LieAlgebra", "MatrixRep",
    "NCPoly", "Orbit", "ReductionSystem", "SUITES", "StarProduct", "adjoint_rep",
    "algebra_from_json", "as_hpoly", "casimir_scalar",
    "casimir_spectrum", "change_basis", "check_deformation_axioms", "check_jacobi",
    "d1", "d2", "evaluate", "extend_c1", "format_cpoly", "format_hpoly",
    "format_ncpoly", "gauge_defect", "gauge_step", "h2_dimension", "highest_weight_casimir",
    "is_cocycle", "is_invariant", "is_semisimple", "killing_det", "killing_form",
    "kirillov_bracket", "monomials_of_degree", "monomials_up_to", "multiply_at",
    "nonisomorphism_witness", "orbit_from_json", "parse_expression", "parse_hpoly",
    "parse_rational", "parse_scalar", "pbw_basis_product", "predefined", "reduce",
    "run_suite", "run_suites", "sl2_casimir", "solve_coboundary", "sphere_orbit",
    "su2_defining_rep", "substitute_generators", "sym_inverse", "symmetrize",
    "symmetrizer_product", "validate_rep",
)


@pytest.mark.parametrize("name", EXPORTS)
def test_export_resolves(name):
    value = getattr(orbitstar, name)
    namespace = {}
    exec(f"from orbitstar import {name}", namespace)
    assert namespace[name] is value
    assert name in dir(orbitstar)
    home = getattr(value, "__module__", None)
    if home and home.startswith("orbitstar."):
        assert getattr(sys.modules[home], name, value) is value


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        orbitstar.nope
    with pytest.raises(ImportError):
        exec("from orbitstar import nope", {})
