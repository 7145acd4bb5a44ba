"""Property tests of the CLI's input boundary: a mutated field file, run
directory (``meta.json``, ``series.csv``) or ``--config`` file, or an edge
value of any numeric flag, ends in a documented exit code and, when it fails,
in exactly one ``... error:`` line on stderr: never in a traceback (an
exception escaping ``main``).  A flag value outside its documented range
exits 2 and writes no manifest."""

import contextlib
import io
import json
import math
import re
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morrey_sparse.cli import main
from morrey_sparse.fields import random_solenoidal_field
from morrey_sparse.grid import Grid3, save_field

N = 16
EXIT_CODES = {0, 1, 2, 3, 4}
# "input error: ...", "usage error: ...", "error: ..." or argparse's
# "morrey-sparse norm: error: ..."
ERROR_LINE = re.compile(r"^(?:[\w -]+: )?(?:input |usage |scheduling )?error: ")
CRITERION = ["criterion", "--alpha", "0.5", "--beta", "0.5", "--nu-w", "0.5", "--at", "0.0"]
FIELD_COMMANDS = (["norm"], ["norm", "--kind", "classical"], ["sparseness", "--z-alpha", "0.5"])
CONFIG_KEYS = {
    "norm": ("p", "theta", "nu", "rho", "kind", "center", "alpha", "r_min", "r_max", "scales"),
    "sparseness": ("pair_from_delta", "lambda", "delta", "r", "z_alpha", "c0"),
    "criterion": ("alpha", "beta", "nu_w", "p", "theta", "eps0", "c", "c0", "field_mode",
                  "window_mode", "reference", "at", "escape"),
}
DELETE = "<delete>"

# no "/" in generated strings: a mutated file name stays inside the run directory
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.text(alphabet="abu_.,-0 ", max_size=6),
    st.sampled_from([0.0, -1.0, 0.5, 2.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3))
WORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, math.nan, math.inf]).map(
        lambda v: struct.pack("<d", v)),
    st.binary(min_size=8, max_size=8))
FIELD_EDITS = st.one_of(
    st.tuples(st.just("header"), st.sampled_from(("version", "n", "box_len", "ncomp", "dtype",
                                                  "order", "extra")),
              st.one_of(st.just(DELETE), VALUES)),
    st.tuples(st.just("header_line"), st.binary(max_size=40)),
    st.tuples(st.just("word"), st.integers(0, 3 * N**3 - 1), WORDS),
    st.tuples(st.just("keep"), st.integers(0, 120)),
    st.tuples(st.just("cut"), st.integers(1, 64)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
)
RUN_EDITS = st.one_of(
    st.tuples(st.just("meta"), st.sampled_from(("n", "box_len", "series", "snapshots", "extra")),
              st.one_of(st.just(DELETE), VALUES)),
    st.tuples(st.just("snapshot"), st.integers(0, 10), st.sampled_from(("file", "t", "extra")),
              st.one_of(st.just(DELETE), VALUES)),
    st.tuples(st.just("meta_keep"), st.integers(0, 400)),
    st.tuples(st.just("cell"), st.integers(0, 101), st.integers(0, 9),
              st.sampled_from(("", "nan", "inf", "-1", "1e400", "x", "0.1", "1,2"))),
    st.tuples(st.just("series_keep"), st.integers(0, 2000)),
)


def mutate_field(data: bytes, edit) -> bytes:
    kind, *rest = edit
    line, payload = data.split(b"\n", 1)
    if kind == "header":
        key, value = rest
        header = json.loads(line)
        if value == DELETE:
            header.pop(key, None)
        else:
            header[key] = value
        return json.dumps(header).encode() + b"\n" + payload
    if kind == "header_line":
        return rest[0] + payload
    if kind == "word":
        i, word = rest
        return data[:len(line) + 1 + 8 * i] + word + data[len(line) + 9 + 8 * i:]
    if kind == "keep":
        return data[:rest[0]]
    if kind == "cut":
        return data[:-rest[0]]
    return data + rest[0]


def mutate_run(run: Path, edit) -> None:
    kind, *rest = edit
    if kind in ("meta", "snapshot"):
        meta = json.loads((run / "meta.json").read_text())
        *where, key, value = rest
        target = meta["snapshots"][where[0]] if where else meta
        if value == DELETE:
            target.pop(key, None)
        else:
            target[key] = value
        (run / "meta.json").write_text(json.dumps(meta))
    elif kind == "meta_keep":
        (run / "meta.json").write_text((run / "meta.json").read_text()[:rest[0]])
    elif kind == "cell":
        row, col, text = rest
        lines = (run / "series.csv").read_text().splitlines()
        cells = lines[row].split(",")
        cells[min(col, len(cells) - 1)] = text
        lines[row] = ",".join(cells)
        (run / "series.csv").write_text("\n".join(lines) + "\n")
    else:
        (run / "series.csv").write_text((run / "series.csv").read_text()[:rest[0]])


def assert_clean_exit(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    text = err.getvalue()
    assert rc in EXIT_CODES, (rc, text)
    assert "Traceback" not in text
    if rc != 0:
        lines = text.splitlines()
        assert lines and ERROR_LINE.match(lines[-1]), text
        assert sum(bool(ERROR_LINE.match(ln)) for ln in lines) == 1, text
    return rc


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("property_inputs")
    save_field(random_solenoidal_field(Grid3(N), 4, 3), root / "f.fld")
    rc = main(["simulate", "--n", str(N), "--dt", "2e-3", "--t-end", "0.2",
               "--snapshot-every", "10", "--out", str(root / "run")])
    assert rc == 0
    assert main(CRITERION + ["--traj", str(root / "run"), "--out", str(root / "c")]) == 0
    return root


@settings(max_examples=100)
@given(edit=FIELD_EDITS, command=st.sampled_from(FIELD_COMMANDS))
def test_mutated_field_file_exits_cleanly(inputs, edit, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.fld"
        path.write_bytes(mutate_field((inputs / "f.fld").read_bytes(), edit))
        assert_clean_exit(command + ["--field", str(path), "--out", tmp])


@settings(max_examples=100)
@given(edit=RUN_EDITS)
def test_mutated_run_directory_exits_cleanly(inputs, edit):
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        shutil.copytree(inputs / "run", run)
        mutate_run(run, edit)
        assert_clean_exit(CRITERION + ["--traj", str(run), "--out", tmp])


@settings(max_examples=100)
@given(command=st.sampled_from(sorted(CONFIG_KEYS)), data=st.data())
def test_mutated_config_file_exits_cleanly(inputs, command, data):
    keys = st.one_of(st.sampled_from(CONFIG_KEYS[command]), st.text(alphabet="abz_-", max_size=5))
    # criterion's required flags come from the file too, so edits reach them
    config = {}
    if command == "criterion":
        config = {"alpha": 0.5, "beta": 0.5, "nu_w": 0.5, "at": [0.0]}
    config.update(data.draw(st.dictionaries(keys, VALUES, max_size=4)))
    argv = [command, "--traj", str(inputs / "run")] if command == "criterion" \
        else [command, "--field", str(inputs / "f.fld")]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        assert_clean_exit(argv + ["--config", str(path), "--out", tmp])


# ---------------------------------------------------------------------------
# numeric flags: each drawn from the edge values, on a small base argv that
# makes the flag count ("{field}" and "{run}" are the module's inputs)
# ---------------------------------------------------------------------------

EDGE_VALUES = ("0", "-1", "nan", "inf", "-inf", "", ",", "1e308", "x")
#: resource-sized values stay out: 1e308 as an end time is a step count
SMALL_VALUES = tuple(v for v in EDGE_VALUES if v != "1e308")
INF = math.inf
H = 2 * math.pi / N  # the grid spacing

NORM = ["norm", "--field", "{field}", "--scales", "4"]
CLASSICAL = [*NORM, "--kind", "classical"]
SPARSENESS = ["sparseness", "--field", "{field}"]
VERIFY = ["verify", "--n", "16", "--seeds", "1", "--scales", "0.5", "--kmax", "4"]
VERIFY_GM = [*VERIFY, "--lemma", "gm"]
SIMULATE = ["simulate", "--n", "16", "--dt", "2e-3", "--t-end", "4e-3", "--snapshot-every", "1"]
RANDOM_START = [*SIMULATE, "--ic", "random", "--kmax", "4"]
CRITERION_RUN = [*CRITERION, "--traj", "{run}"]


def real(lo: float, hi: float, *, lo_open: bool = False, hi_open: bool = True):
    """The documented range of a real flag, lo <= x < hi by default, as a
    test of the flag's text."""
    def documented(text: str) -> bool:
        try:
            x = float(text)
        except ValueError:
            return False
        return (lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi)
    return documented


def whole(lo: int):
    """The documented range of an integer flag: an integer x >= lo."""
    def documented(text: str) -> bool:
        try:
            return int(text) >= lo
        except ValueError:
            return False
    return documented


# (base argv, flag, documented range, drawn values): README's table of
# ranges, on these bases (n=16, alpha = nu_w = 0.5, a run over [0, 0.2] whose
# sup |u| is 1)
FLAGS = [
    (NORM, "--p", real(1, INF), EDGE_VALUES),
    (NORM, "--theta", real(1, INF, lo_open=True, hi_open=False), EDGE_VALUES),
    (NORM, "--nu", real(0, INF), EDGE_VALUES),
    (NORM, "--rho", real(0, 1), EDGE_VALUES),
    (NORM, "--r-max", real(2 * H, 1, lo_open=True, hi_open=False), EDGE_VALUES),
    (NORM, "--scales", whole(1), EDGE_VALUES),
    ([*NORM, "--kind", "lm"], "--center", lambda text: False, EDGE_VALUES),
    # the flags of another kind or lemma only need to be finite
    *[(kind, flag, real(-INF, INF, lo_open=True), EDGE_VALUES)
      for kind in (NORM, [*NORM, "--kind", "lm"], [*NORM, "--kind", "clm"])
      for flag in ("--alpha", "--r-min")],
    (CLASSICAL, "--p", real(1, INF), EDGE_VALUES),
    (CLASSICAL, "--alpha", real(-INF, INF, lo_open=True), EDGE_VALUES),
    (CLASSICAL, "--r-min", real(0, 1, lo_open=True), EDGE_VALUES),
    (CLASSICAL, "--r-max", real(2 * H, 1, lo_open=True, hi_open=False), EDGE_VALUES),
    (SPARSENESS, "--pair-from-delta", real(0.7, 1, lo_open=True), EDGE_VALUES),
    (SPARSENESS, "--lambda", real(0, 1, lo_open=True), EDGE_VALUES),
    (SPARSENESS, "--delta", real(0.7, 1, lo_open=True), EDGE_VALUES),
    (SPARSENESS, "--r", real(0, math.pi, lo_open=True), EDGE_VALUES),
    (SPARSENESS, "--z-alpha", real(-INF, INF, lo_open=True), EDGE_VALUES),
    (SPARSENESS, "--c0", real(-INF, INF, lo_open=True), EDGE_VALUES),
    ([*SPARSENESS, "--z-alpha", "0.5"], "--c0", real(1, INF, lo_open=True), EDGE_VALUES),
    (VERIFY, "--n", whole(8), EDGE_VALUES),
    (VERIFY, "--deltas", real(0.7, 1, lo_open=True), EDGE_VALUES),
    (VERIFY, "--scales", real(H, 1, lo_open=True, hi_open=False), EDGE_VALUES),
    (VERIFY, "--seeds", whole(0), EDGE_VALUES),
    (VERIFY, "--kmax", whole(1), EDGE_VALUES),
    (VERIFY, "--threads", whole(1), EDGE_VALUES),
    (VERIFY, "--p", real(-INF, INF, lo_open=True), EDGE_VALUES),
    (VERIFY, "--alphas", real(-INF, INF, lo_open=True), EDGE_VALUES),
    (VERIFY, "--rho", real(-INF, INF, lo_open=True), EDGE_VALUES),
    (VERIFY, "--thetas", real(-INF, INF, hi_open=False), EDGE_VALUES),  # all but nan
    (VERIFY_GM, "--p", real(1, INF, lo_open=True), EDGE_VALUES),
    (VERIFY_GM, "--thetas", real(2, INF, lo_open=True, hi_open=False), EDGE_VALUES),
    (VERIFY_GM, "--alphas", real(0, INF), EDGE_VALUES),
    (VERIFY_GM, "--rho", real(0, 1), EDGE_VALUES),
    (SIMULATE, "--n", whole(8), EDGE_VALUES),
    (SIMULATE, "--dt", real(0, 0.5 * H, lo_open=True, hi_open=False), EDGE_VALUES),
    (SIMULATE, "--t-end", real(0, INF, lo_open=True), SMALL_VALUES),
    (SIMULATE, "--snapshot-every", whole(1), EDGE_VALUES),
    (SIMULATE, "--amplitude", real(-INF, INF, lo_open=True), EDGE_VALUES),
    (SIMULATE, "--seed", whole(0), EDGE_VALUES),
    (RANDOM_START, "--kmax", whole(1), EDGE_VALUES),
    (CRITERION_RUN, "--alpha", real(0, INF), EDGE_VALUES),
    (CRITERION_RUN, "--beta", real(0, INF), EDGE_VALUES),
    (CRITERION_RUN, "--nu-w", real(0, INF), EDGE_VALUES),
    (CRITERION_RUN, "--p", real(1, INF), EDGE_VALUES),
    (CRITERION_RUN, "--theta", real(2, INF, lo_open=True, hi_open=False), EDGE_VALUES),
    (CRITERION_RUN, "--eps0", real(0, INF), EDGE_VALUES),
    (CRITERION_RUN, "--c", real(0, INF, lo_open=True), EDGE_VALUES),
    (CRITERION_RUN, "--c0", real(1, INF, lo_open=True), EDGE_VALUES),
    (CRITERION_RUN, "--at", real(0, 0.2, hi_open=False), EDGE_VALUES),
]


@settings(max_examples=600)
@given(case=st.sampled_from(FLAGS), data=st.data())
def test_numeric_flag_edge_values_exit_cleanly(inputs, case, data):
    base, flag, documented, values = case
    value = data.draw(st.sampled_from(values))
    argv = [a.format(field=inputs / "f.fld", run=inputs / "run") for a in base]
    with tempfile.TemporaryDirectory() as tmp:
        # "--flag=value" so that "-inf" and "" reach the flag's type
        rc = assert_clean_exit([*argv, f"{flag}={value}", "--out", tmp])
        if not documented(value):
            assert rc == 2, (flag, value, rc)
            assert not (Path(tmp) / "manifest.json").exists()
