"""Rewrite the CLI golden reports: ``python3 tests/golden/write_cli_goldens.py``.

Each case is one ``morrey-sparse`` command at n=16 on seeded inputs: the
random field of ``random_solenoidal_field(Grid3(16), kmax=4, seed=3)`` (kmax
stays below n/3, clear of the Nyquist planes) and the Taylor-Green run of the
first case.  Its file ``cli_<case>.json`` holds the argv, the exit code and
every output: a JSON report as written, a CSV as its lines, a field
file as its grid size and per-component sum of squares and max |value|, and
of the manifest only its keys (it carries the wall time and peak RSS).
``tests/test_cli_goldens.py`` reruns the cases and compares them.  Run this
only on purpose, for a change that moves numerics, and list every moved
value."""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from morrey_sparse import cli  # noqa: E402
from morrey_sparse.fields import random_solenoidal_field  # noqa: E402
from morrey_sparse.grid import Grid3, VectorField, load_field, save_field  # noqa: E402

CRITERION = ["criterion", "--traj", "{tg}", "--alpha", "0.5", "--beta", "0.5", "--nu-w", "0.5",
             "--at", "0.0"]
NORM = ["norm", "--field", "{field}", "--nu", "0.5", "--rho", "0.25", "--scales", "8"]
VERIFY = ["verify", "--n", "16", "--seeds", "2", "--scales", "0.5", "--kmax", "4"]

#: case name -> argv ("{field}" is the random field file, "{tg}" the first
#: case's run directory); the cases run in this order
CASES = {
    "simulate-taylor-green": ["simulate", "--n", "16", "--dt", "2e-3", "--t-end", "0.2",
                              "--snapshot-every", "10"],
    "simulate-random": ["simulate", "--ic", "random", "--n", "16", "--kmax", "4", "--seed", "3",
                        "--dt", "2e-3", "--t-end", "0.1", "--snapshot-every", "10"],
    "criterion-inf": CRITERION,
    "criterion-3-omega": [*CRITERION, "--theta", "3", "--field-mode", "omega"],
    "norm-gm-inf": NORM,
    "norm-gm-2": [*NORM, "--theta", "2"],
    "norm-gm-3": [*NORM, "--theta", "3"],
    "norm-classical": ["norm", "--field", "{field}", "--kind", "classical", "--alpha", "1",
                       "--scales", "8"],
    "norm-lm": [*NORM, "--kind", "lm", "--center", "3,4,5"],
    "norm-clm": [*NORM, "--kind", "clm", "--center", "3,4,5"],
    "sparseness-z-alpha": ["sparseness", "--field", "{field}", "--z-alpha", "0.5"],
    "sparseness-pair": ["sparseness", "--pair-from-delta", "0.75"],
    "verify-l2": VERIFY,
    "verify-gm-adversarial": [*VERIFY, "--lemma", "gm", "--adversarial"],
}

#: cases whose witness centers tie under Taylor-Green's symmetries (within
#: 2.2e-16), so only the value at the center is compared
TIED = {"criterion-inf", "criterion-3-omega"}


def write_inputs(root: Path) -> None:
    save_field(random_solenoidal_field(Grid3(16), 4, 3), root / "f.fld")


def _summary(path: Path):
    if path.name == "manifest.json":
        return sorted(json.loads(path.read_text()))
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".csv":
        return path.read_text().splitlines()
    f = load_field(path)
    data = f.data.reshape(3 if isinstance(f, VectorField) else 1, -1)
    return {"n": f.grid.n, "sum_sq": (data**2).sum(axis=1).tolist(),
            "max_abs": abs(data).max(axis=1).tolist()}


def run_case(name: str, root: Path) -> dict:
    """Run one case with its outputs under ``root / name``; ``root`` holds
    the inputs and the earlier cases' outputs."""
    argv = [a.format(field=root / "f.fld", tg=root / "simulate-taylor-green")
            for a in CASES[name]]
    out = root / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--out", str(out)])
    return {"argv": CASES[name], "exit": code,
            "outputs": {p.name: _summary(p) for p in sorted(out.iterdir())}}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root)
        for name in CASES:
            path = HERE / f"cli_{name}.json"
            path.write_text(json.dumps(run_case(name, root), indent=1) + "\n")
            print(path)


if __name__ == "__main__":
    main()
