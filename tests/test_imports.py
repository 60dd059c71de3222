"""Every name a module imports is used in that module.

The package's __init__.py is exempt: its imports are the public re-exports.
"""

import ast
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
