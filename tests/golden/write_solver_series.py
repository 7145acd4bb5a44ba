"""Rewrite the solver's golden series: ``python3 tests/golden/write_solver_series.py``.

Each case is one ``simulate`` run at n=16 for 50 steps; its JSON file holds
the config and the per-step series (floats written at full precision), and
``tests/test_nse.py::test_solver_series_match_golden`` reruns the config and
compares the series within 1e-12 relative.  Run it only on purpose, for a
change that moves the solver's numerics, and list every moved value."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from morrey_sparse.nse import SolverConfig, simulate  # noqa: E402

CASES = {
    "taylor-green": {"n": 16, "dt": 1e-3, "steps": 50, "ic": "taylor-green"},
    "abc": {"n": 16, "dt": 1e-3, "steps": 50, "ic": "abc"},
    "shear": {"n": 16, "dt": 1e-3, "steps": 50, "ic": "shear"},
}


def run(case: dict) -> dict:
    """The series of one case, column name -> list of floats."""
    cfg = SolverConfig(n=case["n"], dt=case["dt"], t_end=case["steps"] * case["dt"],
                       ic=case["ic"], snapshot_every=case["steps"])
    return {name: col.tolist() for name, col in simulate(cfg).series.items()}


def main() -> None:
    for name, case in CASES.items():
        path = HERE / f"solver_{name}.json"
        path.write_text(json.dumps({"case": case, "series": run(case)}, indent=1) + "\n")
        print(path)


if __name__ == "__main__":
    main()
