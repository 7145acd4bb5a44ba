"""Every name a package module imports is used in that module (``__init__``
re-exports and is exempt).  A stdlib ``ast`` walk, so no linter is needed."""

import ast
from pathlib import Path

import morrey_sparse

PACKAGE = Path(morrey_sparse.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_is_detected():
    src = "import os.path\nfrom math import pi, tau as t\nx: float = pi\n"
    assert unused_imports(src) == ["os (line 1)", "t (line 2)"]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}
