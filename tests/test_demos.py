"""The fast demos run to completion against the current API.

``decaying_flow_criterion.py`` is left out: its solver run takes ~11 s.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["morrey_norms", "sliding_window_norms", "pairing_bound",
                                  "sparseness_and_pairs", "implication_harness"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
