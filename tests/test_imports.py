"""Every name a package module imports is used in that module (``__init__``
re-exports and is exempt).  A stdlib ``ast`` walk, so no linter is needed."""

import ast
import os
import subprocess
import sys
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


def test_package_import_leaves_out_scipy_ndimage():
    # scipy.ndimage loads only when sparseness.segment_trace_ratios runs
    code = "import sys, morrey_sparse; print('scipy.ndimage' in sys.modules)"
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
