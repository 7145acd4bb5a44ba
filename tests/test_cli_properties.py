"""Property test of the CLI's input boundary: a mutated field file, run
directory (``meta.json``, ``series.csv``) or ``--config`` file ends in a
documented exit code and, when it fails, in exactly one ``... error:`` line on
stderr: never in a traceback (an exception escaping ``main``)."""

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

property_settings = settings(derandomize=True, database=None, deadline=None, max_examples=100)

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


def assert_clean_exit(argv: list[str]) -> None:
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


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("property_inputs")
    save_field(random_solenoidal_field(Grid3(N), 4, 3), root / "f.fld")
    rc = main(["simulate", "--n", str(N), "--dt", "2e-3", "--t-end", "0.2",
               "--snapshot-every", "10", "--out", str(root / "run")])
    assert rc == 0
    assert main(CRITERION + ["--traj", str(root / "run"), "--out", str(root / "c")]) == 0
    return root


@property_settings
@given(edit=FIELD_EDITS, command=st.sampled_from(FIELD_COMMANDS))
def test_mutated_field_file_exits_cleanly(inputs, edit, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.fld"
        path.write_bytes(mutate_field((inputs / "f.fld").read_bytes(), edit))
        assert_clean_exit(command + ["--field", str(path), "--out", tmp])


@property_settings
@given(edit=RUN_EDITS)
def test_mutated_run_directory_exits_cleanly(inputs, edit):
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        shutil.copytree(inputs / "run", run)
        mutate_run(run, edit)
        assert_clean_exit(CRITERION + ["--traj", str(run), "--out", tmp])


@property_settings
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
