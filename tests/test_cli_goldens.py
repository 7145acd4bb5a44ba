"""The numeric fixed point of every CLI report: each case of
``tests/golden/write_cli_goldens.py`` is rerun and compared with its
recorded ``cli_<case>.json``.  Exit codes, keys, CSV headers, bools, ints,
strings and file names must match exactly; floats within 1e-12 relative (a
recorded exact zero within 1e-12 absolute).  Where Taylor-Green's symmetries
tie the witness centers, only the value at the center is compared."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("write_cli_goldens",
                                               GOLDEN / "write_cli_goldens.py")
writer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(writer)

RTOL = 1e-12
ZERO_FLOOR = 1e-12
TIED_KEYS = {"witness_center"}


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def assert_matches(got, want, where: str, tied: bool) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key, value in want.items():
            if not (tied and key in TIED_KEYS):
                assert_matches(got[key], value, f"{where}.{key}", tied)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]", tied)
    elif isinstance(want, str) or isinstance(got, str) or isinstance(want, bool) \
            or isinstance(got, bool) or want is None or got is None \
            or (isinstance(want, int) and isinstance(got, int)):
        assert type(got) is type(want) and got == want, (where, got, want)
    else:  # a float; dumps_17g writes an integral float as an int
        tol = RTOL * abs(want) if want != 0 else ZERO_FLOOR
        assert math.isfinite(got) and abs(got - want) <= tol, (where, got, want)


def assert_csv_matches(got: list[str], want: list[str], where: str) -> None:
    assert len(got) == len(want) and got[:1] == want[:1], where  # the header exactly
    for i, (g_line, w_line) in enumerate(zip(got[1:], want[1:]), start=1):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        assert len(g_cells) == len(w_cells), (where, i)
        for g, w in zip(g_cells, w_cells):
            w_num, g_num = _number(w), _number(g)
            if w_num is None or not math.isfinite(w_num):  # blank, bool or nan/inf text
                assert g == w, (where, i, g, w)
            else:
                assert_matches(g_num, w_num, f"{where}[{i}]", False)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_goldens")
    writer.write_inputs(root)
    # in CASES order: a later case reads an earlier one's outputs
    return {name: writer.run_case(name, root) for name in writer.CASES}


def test_every_case_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("cli_*.json")) == \
        sorted(f"cli_{name}" for name in writer.CASES)


@pytest.mark.parametrize("name", list(writer.CASES))
def test_cli_report_matches_golden(runs, name):
    got = runs[name]
    want = json.loads((GOLDEN / f"cli_{name}.json").read_text())
    assert got["argv"] == want["argv"]
    assert got["exit"] == want["exit"]
    assert list(got["outputs"]) == list(want["outputs"])
    for file, value in want["outputs"].items():
        if file.endswith(".csv"):
            assert_csv_matches(got["outputs"][file], value, file)
        else:
            assert_matches(got["outputs"][file], value, file, name in writer.TIED)
