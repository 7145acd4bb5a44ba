"""Every name a package module imports is used in that module (``__init__``
re-exports and is exempt), the CLI leaves usage errors to the library's
``ParameterError``, and ``grid`` is the one module that reaches an FFT
library.  Stdlib ``ast`` walks, so no linter is needed."""

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


def usage_policy(source: str) -> list[str]:
    """What a CLI source decides about usage errors on its own: an exception
    class it defines, and an exit-2 handler (``return EXIT_USAGE``) that
    catches anything but ``ParameterError`` and ``argparse.ArgumentTypeError``."""
    tree = ast.parse(source)
    found = [f"class {node.name} (line {node.lineno})" for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)
             and any(ast.unparse(base).endswith(("Error", "Exception")) for base in node.bases)]
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and any(
                isinstance(s, ast.Return) and isinstance(s.value, ast.Name)
                and s.value.id == "EXIT_USAGE" for s in node.body):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = sorted(ast.unparse(t) for t in types)
            if names != ["ParameterError", "argparse.ArgumentTypeError"]:
                found.append(f"exit-2 handler on {', '.join(names)} (line {node.lineno})")
    return found


def test_usage_policy_copy_is_detected():
    src = ("class UsageError(ValueError):\n    pass\n"
           "def main():\n    try:\n        pass\n"
           "    except (UsageError, argparse.ArgumentTypeError):\n"
           "        print()\n        return EXIT_USAGE\n")
    assert usage_policy(src) == ["class UsageError (line 1)", "exit-2 handler on "
                                 "UsageError, argparse.ArgumentTypeError (line 6)"]


def test_cli_leaves_usage_errors_to_parameter_error():
    # out-of-range arguments are the library's ParameterError; the CLI keeps
    # no exception class or exit-2 type of its own
    assert usage_policy((PACKAGE / "cli.py").read_text()) == []


FFT_MODULES = ("scipy.fft", "scipy.fftpack", "numpy.fft", "np.fft")


def fft_uses(source: str) -> list[str]:
    """Where a source reaches an FFT module: an import of one (or of a name
    from one), or an attribute such as ``np.fft`` or ``scipy.fft``."""
    def is_fft(name: str) -> bool:
        return any(name == m or name.startswith(m + ".") for m in FFT_MODULES)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if is_fft(name)]
    return found


def test_fft_use_is_detected():
    src = ("import numpy as np\nimport scipy.fft\nfrom scipy import fft\n"
           "from numpy.fft import rfftn\nx = np.fft.rfftn(y)\nfrom .grid import _rfftn\n")
    assert fft_uses(src) == ["scipy.fft (line 2)", "scipy.fft (line 3)", "numpy.fft (line 4)",
                             "numpy.fft.rfftn (line 4)", "np.fft (line 5)"]


def test_grid_is_the_one_spectral_layer():
    # every transform runs through grid's wrappers, so no other module
    # imports an FFT library or calls np.fft
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "grid.py")
    found = {p.name: fft_uses(p.read_text()) for p in modules}
    assert {name: uses for name, uses in found.items() if uses} == {}
    assert fft_uses((PACKAGE / "grid.py").read_text())  # the check sees grid's own import


def test_package_import_leaves_out_scipy_ndimage():
    # the package never imports scipy.ndimage
    code = "import sys, morrey_sparse; print('scipy.ndimage' in sys.modules)"
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
