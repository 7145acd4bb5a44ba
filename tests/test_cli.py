import contextlib
import gc
import io
import json
import math
import shutil
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy

from morrey_sparse import cli as cli_module
from morrey_sparse import nse as nse_module
from morrey_sparse import predual as predual_module
from morrey_sparse.cli import _parse_floats, build_parser, dumps_17g, main
from morrey_sparse.grid import (Grid3, ParameterError, ScalarField, VectorField, VoxelSet,
                                load_field, save_field)
from morrey_sparse.fields import random_solenoidal_field, vorticity_blob
from morrey_sparse.morrey import MorreyParams, WeightSpec, classical_morrey, log_scale_nodes
from morrey_sparse.sparseness import (InadmissiblePairError, PairLD, ZeroFieldError,
                                      admissible_pair, eps_const, semi_mixed, z_alpha_member)
from morrey_sparse.verify import SweepConfig, sweep


@pytest.fixture(scope="module")
def field_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fields") / "f.fld"
    save_field(random_solenoidal_field(Grid3(16), 4, 3), path)
    return path


@pytest.fixture(scope="module")
def traj_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "traj"
    rc = main(["simulate", "--ic", "taylor-green", "--n", "16", "--dt", "2e-3",
               "--t-end", "0.2", "--snapshot-every", "10", "--out", str(out)])
    assert rc == 0
    return out


def test_dumps_17g_roundtrip():
    obj = {"a": 0.1, "b": [1.0 / 3.0, 2, True, None], "c": "x"}
    text = dumps_17g(obj)
    back = json.loads(text)
    assert back["a"] == 0.1
    assert back["b"][0] == 1.0 / 3.0


def test_norm_command(field_file, tmp_path):
    out = tmp_path / "norm"
    rc = main(["norm", "--field", str(field_file), "--p", "2", "--theta", "inf",
               "--nu", "0.5", "--rho", "0.25", "--kind", "gm", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "norm_report.json").read_text())
    assert report["norm"] > 0
    assert len(report["argmax_center"]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "norm"
    assert str(field_file) in manifest["input_hashes"]
    assert any(p.endswith("norm_report.json") for p in manifest["outputs"])


def test_norm_missing_file(tmp_path):
    rc = main(["norm", "--field", str(tmp_path / "nope.fld"), "--out", str(tmp_path)])
    assert rc == 3


def test_norm_bad_rho(field_file, tmp_path):
    rc = main(["norm", "--field", str(field_file), "--rho", "1.2", "--out", str(tmp_path)])
    assert rc == 2


def test_usage_error_unknown_flag():
    assert main(["norm", "--banana"]) == 2


def test_sparseness_pair(tmp_path, capsys):
    rc = main(["sparseness", "--pair-from-delta", "0.75", "--out", str(tmp_path)])
    assert rc == 0
    assert "lambda=0.450347" in capsys.readouterr().out
    rc = main(["sparseness", "--pair-from-delta", "0.4", "--out", str(tmp_path)])
    assert rc == 2


def test_sparseness_sets(field_file, tmp_path):
    out = tmp_path / "sp"
    rc = main(["sparseness", "--field", str(field_file), "--lambda", "0.45",
               "--delta", "0.75", "--r", "0.9", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "sparseness_report.json").read_text())
    assert len(report["sets"]) == 6
    assert {s["set"] for s in report["sets"]} == {"S_1+", "S_1-", "S_2+", "S_2-", "S_3+", "S_3-"}


def test_verify_command(tmp_path):
    out = tmp_path / "ver"
    rc = main(["verify", "--lemma", "l2", "--n", "16", "--deltas", "0.75",
               "--scales", "0.9", "--seeds", "2", "--kmax", "4",
               "--adversarial", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "verify_reports.json").read_text())
    assert report["summary"]["violations"] == 0
    assert (out / "verify_reports.csv").read_text().count("\n") == report["summary"]["total"] + 1
    # verify measures every case's densities, premise or not
    rows = [r for r in report["reports"] if not r["degenerate"]]
    assert rows and all(len(r["per_set_densities"]) == 6 for r in rows)
    assert all(isinstance(r["conclusion_holds"], bool) for r in rows)
    ratios = [r["premise_lhs"] / r["premise_rhs"] for r in rows]
    summary = report["summary"]
    assert summary["tightest_premise_ratio"] is None  # no case holds the premise
    assert summary["closest_near_miss"] == min(ratios)
    assert summary["min_density_slack"] == min(r["params"]["delta"] - max(r["per_set_densities"])
                                                for r in report["reports"])


def test_simulate_and_criterion(traj_dir, tmp_path):
    text = (traj_dir / "series.csv").read_bytes().decode("ascii")
    assert "\r" not in text
    series = text.splitlines()
    assert series[0] == "t,u_sup,omega_sup,energy,enstrophy"
    assert len(series) == 102  # 100 steps + t=0 + header
    out = tmp_path / "crit"
    rc = main(["criterion", "--traj", str(traj_dir), "--alpha", "0.5", "--beta", "0.5",
               "--nu-w", "0.5", "--p", "2", "--theta", "inf", "--eps0", "0.5",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "criterion_report.json").read_text())
    assert len(report["reports"]) == 1
    assert report["reports"][0]["rhs"] == 0.5
    # merged series: criterion columns filled only at window snapshots
    merged = (out / "series_with_criterion.csv").read_text().splitlines()
    assert len(merged) == 102
    filled = [ln for ln in merged[1:] if not ln.endswith(",,,")]
    w_lo, w_hi = report["reports"][0]["window"]
    assert len(filled) >= 3
    for ln in filled:
        t = float(ln.split(",")[0])
        assert w_lo - 1e-9 <= t <= w_hi + 1e-9


def test_criterion_scheduling_exit(traj_dir, tmp_path):
    rc = main(["criterion", "--traj", str(traj_dir), "--alpha", "0.5", "--beta", "0.5",
               "--nu-w", "0.5", "--at", "0.19", "--out", str(tmp_path / "c2")])
    assert rc == 4


CRITERION = ["criterion", "--alpha", "0.5", "--beta", "0.5", "--nu-w", "0.5"]
CRITERION_FILES = ("criterion_report.json", "criterion.csv", "series_with_criterion.csv")


def test_criterion_overlapping_times_match_per_time_reports(traj_dir, tmp_path, monkeypatch):
    # windows of 7, 6 and 5 snapshots share their rows; the files equal those
    # written from one evaluate_criterion call per reference time
    argv = CRITERION + ["--traj", str(traj_dir), "--at", "0.0,0.02,0.04"]
    assert main(argv + ["--out", str(tmp_path / "shared")]) == 0
    monkeypatch.setattr(cli_module, "evaluate_criteria", lambda traj, times, spec: [
        nse_module.evaluate_criterion(traj, t, spec) for t in times])
    assert main(argv + ["--out", str(tmp_path / "per_time")]) == 0
    for name in CRITERION_FILES:
        assert (tmp_path / "shared" / name).read_bytes() == \
            (tmp_path / "per_time" / name).read_bytes()
    report = json.loads((tmp_path / "shared" / "criterion_report.json").read_text())
    assert [r["t_ref"] for r in report["reports"]] == [0.0, 0.02, 0.04]


def test_criterion_sparse_window_exits_before_norm_work(traj_dir, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(nse_module, "gm_norm", lambda *args: calls.append(args))
    rc = main(CRITERION + ["--traj", str(traj_dir), "--at", "0.0,0.19",
                           "--out", str(tmp_path / "c")])
    assert rc == 4
    assert calls == []


def test_criterion_time_outside_run_is_usage_error(traj_dir, tmp_path, capsys):
    rc = main(CRITERION + ["--traj", str(traj_dir), "--at", "0.0,0.5",
                           "--out", str(tmp_path / "c")])
    assert rc == 2
    assert "outside the trajectory range" in capsys.readouterr().err


def test_reports_byte_identical(traj_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["criterion", "--traj", str(traj_dir), "--alpha", "0.5", "--beta", "0.5",
                   "--nu-w", "0.5", "--eps0", "0.5", "--out", str(out)])
        assert rc == 0
        outs.append(out)
    assert (outs[0] / "criterion_report.json").read_bytes() == \
        (outs[1] / "criterion_report.json").read_bytes()
    assert (outs[0] / "criterion.csv").read_bytes() == (outs[1] / "criterion.csv").read_bytes()


def test_config_file_overrides(field_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "classical", "alpha": 1.0, "r-max": 0.8}))
    out = tmp_path / "out"
    rc = main(["norm", "--field", str(field_file), "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "norm_report.json").read_text())
    assert report["kind"] == "classical"


def test_threads_flag_deterministic(tmp_path):
    outs = []
    for name, threads in (("t1", "1"), ("t4", "4")):
        out = tmp_path / name
        rc = main(["verify", "--lemma", "l2", "--n", "16", "--deltas", "0.75",
                   "--scales", "0.9", "--seeds", "4", "--kmax", "4",
                   "--threads", threads, "--out", str(out)])
        assert rc == 0
        outs.append(out)
    assert (outs[0] / "verify_reports.json").read_bytes() == \
        (outs[1] / "verify_reports.json").read_bytes()
    # only verify has a worker pool, so only verify takes the flag
    assert main(["simulate", "--threads", "2", "--out", str(tmp_path / "sim")]) == 2


def test_series_csv_with_blank_criterion_columns_still_loads(traj_dir, tmp_path):
    # runs written before series.csv dropped its four always-blank criterion
    # columns carry them, with CRLF line ends; they load to the same series
    run = tmp_path / "run"
    shutil.copytree(traj_dir, run)
    lines = (run / "series.csv").read_text().splitlines()
    old = [lines[0] + ",eta,criterion_lhs,criterion_rhs,satisfied"]
    old += [line + ",,,," for line in lines[1:]]
    (run / "series.csv").write_bytes(("\r\n".join(old) + "\r\n").encode("ascii"))
    before, after = nse_module.load_trajectory(traj_dir), nse_module.load_trajectory(run)
    assert before.series.keys() == after.series.keys()
    assert all(np.array_equal(before.series[c], after.series[c]) for c in before.series)


def test_overflowing_field_is_computation_error(tmp_path, capsys):
    # a finite field whose |f|^2 overflows float64: every norm over the whole
    # torus and the sparseness report exit 1 with one error line, never a
    # "nan" or "inf" report or an all-empty set list
    data = np.array(random_solenoidal_field(Grid3(16), 4, 3).data)
    data[0, 3, 4, 5] = 1e300
    f = VectorField(Grid3(16), data)
    vector, scalar = tmp_path / "big.fld", tmp_path / "big_scalar.fld"
    save_field(f, vector)
    save_field(ScalarField(f.grid, f.data[0]), scalar)
    for path, argv in ((vector, ["norm", "--kind", "gm"]),
                       (vector, ["norm", "--kind", "gm", "--theta", "2"]),
                       (vector, ["norm", "--kind", "classical"]),
                       (vector, ["norm", "--kind", "clm"]),
                       (vector, ["sparseness"]),
                       (scalar, ["norm", "--kind", "gm"])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([*argv, "--field", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "overflows float64" in err


def test_sparseness_on_scalar_field_is_input_error(tmp_path, capsys):
    path = tmp_path / "scalar.fld"
    save_field(ScalarField(Grid3(16), random_solenoidal_field(Grid3(16), 4, 3).data[0]), path)
    for extra in ([], ["--z-alpha", "0.5"]):
        rc = main(["sparseness", "--field", str(path), *extra, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3 and err.startswith("input error: ") and err.count("\n") == 1, err
        assert "3-component" in err


def test_sparseness_z_alpha_shares_the_report_sets(tmp_path, monkeypatch):
    # without --lambda the report thresholds at admissible_pair(--delta).lam,
    # the level z_alpha_member needs: one build of the six sets, one float32
    # transform per mask; another --lambda needs a second build
    from morrey_sparse import sparseness as sparseness_module
    from morrey_sparse.fields import vorticity_blob
    from morrey_sparse.sparseness import admissible_pair, z_alpha_member

    f = vorticity_blob(Grid3(32), (16, 16, 16), sigma=1.5)
    path = tmp_path / "blob.fld"
    save_field(f, path)
    builds, masks = [], [0]
    real_sets, real_rfftn = sparseness_module.superlevel_sets, scipy.fft.rfftn

    def counting_sets(g, lam):
        builds.append(lam)
        return real_sets(g, lam)

    def counting_rfftn(a, *args, **kwargs):
        masks[0] += a.dtype == np.float32
        return real_rfftn(a, *args, **kwargs)

    monkeypatch.setattr(cli_module, "superlevel_sets", counting_sets)
    monkeypatch.setattr(sparseness_module, "superlevel_sets", counting_sets)
    monkeypatch.setattr(scipy.fft, "rfftn", counting_rfftn)
    for extra, expect in (([], 1), (["--lambda", "0.45"], 2)):
        builds.clear()
        masks[0] = 0
        out = tmp_path / str(len(extra))
        rc = main(["sparseness", "--field", str(path), "--z-alpha", "0.5", "--delta", "0.8",
                   *extra, "--out", str(out)])
        assert rc == 0
        assert (len(builds), masks[0]) == (expect, 6 * expect)
        report = json.loads((out / "sparseness_report.json").read_text())["z_alpha"]
        ok, witnesses = z_alpha_member(f, 0.5, admissible_pair(0.8), 2.0)
        assert (report["ok"], report["witnesses"]) == (ok, [list(w) for w in witnesses])


def test_verify_csv_keeps_its_format(tmp_path):
    # verify_reports.csv: 17-digit floats and True/False cells, one row per
    # report in report order
    def fmt(x):
        return format(float(x), ".17g")

    runs = (["--lemma", "l2", "--scales", "0.9", "--adversarial"],
            ["--lemma", "gm", "--scales", "0.5", "--thetas", "inf,2", "--alphas", "1.0",
             "--rho", "0.45", "--modes", "curl,identity"])
    for k, argv in enumerate(runs):
        out = tmp_path / str(k)
        main(["verify", *argv, "--n", "16", "--seeds", "2", "--kmax", "4", "--out", str(out)])
        rows = json.loads((out / "verify_reports.json").read_text())["reports"]
        expect = "premise_lhs,premise_rhs,premise_holds,conclusion_holds," \
                 "marginal,degenerate,verdict,delta,r\n"
        for r in rows:
            expect += ",".join([fmt(r["premise_lhs"]), fmt(r["premise_rhs"]),
                                str(r["premise_holds"]), str(r["conclusion_holds"]),
                                str(r["marginal"]), str(r["degenerate"]), str(r["verdict"]),
                                fmt(r["params"]["delta"]), fmt(r["params"]["r"])]) + "\n"
        assert (out / "verify_reports.csv").read_bytes() == expect.encode()


def test_bad_grid_header_is_input_error(tmp_path):
    # a well-formed header that declares an invalid grid (odd n) is a bad
    # input file, not a computation error
    path = tmp_path / "odd.fld"
    header = {"version": 1, "n": 7, "box_len": 6.0, "ncomp": 3, "dtype": "f64le",
              "order": "zyx-c"}
    path.write_bytes((json.dumps(header) + "\n").encode() + bytes(3 * 7**3 * 8))
    assert main(["norm", "--field", str(path), "--out", str(tmp_path)]) == 3


def test_config_values_use_flag_types(field_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": "inf", "rho": 0.25}))
    out = tmp_path / "out"
    rc = main(["norm", "--field", str(field_file), "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "norm_report.json").read_text())
    assert report["params"]["theta"] == "inf" and report["params"]["rho"] == 0.25
    for bad in ({"theta": "sideways"}, {"kind": "banana"}, {"banana": 1}):
        cfg.write_text(json.dumps(bad))
        assert main(["norm", "--field", str(field_file), "--config", str(cfg),
                     "--out", str(out)]) == 2, bad


def test_manifest_is_strict_json(field_file, tmp_path):
    rc = main(["norm", "--field", str(field_file), "--theta", "inf", "--out", str(tmp_path)])
    assert rc == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    manifest = json.loads((tmp_path / "manifest.json").read_text(), parse_constant=reject)
    assert manifest["params"]["theta"] == "inf"
    assert manifest["numpy"] == np.__version__ and manifest["scipy"] == scipy.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["fft"] == {"full": "scipy.fft",
                               "block": f"BLAS {blas['name']} {blas['version']}"}
    assert manifest["wall_time_s"] >= 0.0
    peak = manifest["profile"]["peak_rss_mb"]
    assert math.isfinite(peak) and peak > 0.0
    # a simulate run profiles its steps and block transforms, 36 a step and
    # 18 to take and record the start
    assert main(["simulate", "--n", "16", "--dt", "1e-3", "--t-end", "0.004",
                 "--out", str(tmp_path / "sim")]) == 0
    profile = json.loads((tmp_path / "sim" / "manifest.json").read_text())["profile"]
    assert (profile["steps"], profile["block_transforms"]) == (4, 36 * 4 + 3 + 6)


def test_simulate_nonfinite_amplitude_is_usage_error(tmp_path):
    for amplitude in ("nan", "inf"):
        assert main(["simulate", "--ic", "random", "--n", "16", "--t-end", "0.003",
                     "--amplitude", amplitude, "--out", str(tmp_path)]) == 2, amplitude
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--ic", "random", "--n", "16", "--kmax", "0"],
    ["verify", "--n", "16", "--seeds", "1", "--scales", "0.5", "--kmax", "0"]])
def test_kmax_below_one_is_usage_error(tmp_path, capsys, argv):
    # a band of no integer modes holds no field: one usage line, no outputs
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == ["usage error: kmax must be >= 1, got 0"]
    assert not any(tmp_path.iterdir())


def test_simulate_kmax_at_the_two_thirds_cut_is_usage_error(tmp_path, capsys):
    # the solver steps the modes below n/3 = 5.33 only: one usage line, no outputs
    assert main(["simulate", "--ic", "random", "--n", "16", "--kmax", "6",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage error: kmax=6 must lie below n/3 = 5.333, the modes the 2/3 rule retains"]
    assert not any(tmp_path.iterdir())


def _simulate_tg(out, steps: int) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["simulate", "--n", "16", "--dt", "1e-3", "--t-end", repr(steps * 1e-3),
                     "--snapshot-every", "1", "--out", str(out)])


def test_simulate_memory_flat_in_snapshot_count(tmp_path):
    # snapshots stream to disk: the traced peak of a 200-snapshot run stays
    # within two n=16 vector fields of a 20-snapshot run (keeping every
    # snapshot would add 180 of them); the cyclic garbage of the runs before
    # is collected first, so a full collection that lands inside a run
    # cannot free bytes counted in its base and lower its measured peak
    def traced_peak(out, steps):
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert _simulate_tg(out, steps) == 0
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        traced_peak(tmp_path / "warm", 5)  # fill the per-grid caches
        few, many = traced_peak(tmp_path / "few", 20), traced_peak(tmp_path / "many", 200)
    finally:
        tracemalloc.stop()
    assert len(list((tmp_path / "many").glob("*.fld"))) == 201
    assert many - few < 2 * 3 * 16**3 * 8, (few, many)


def _window_args(traj_dir, out, at="0.0,0.02,0.04"):
    return CRITERION + ["--traj", str(traj_dir), "--at", at, "--out", str(out)]


def test_criterion_reads_only_window_snapshots(traj_dir, tmp_path, monkeypatch):
    loaded = []

    def spy(path):
        loaded.append(path.name)
        return load_field(path)

    monkeypatch.setattr(nse_module, "load_field", spy)
    assert main(_window_args(traj_dir, tmp_path / "c")) == 0
    rows = (tmp_path / "c" / "criterion.csv").read_text().splitlines()[1:]
    in_windows = {float(row.split(",")[1]) for row in rows}
    meta = json.loads((traj_dir / "meta.json").read_text())
    assert len(in_windows) < len(rows) and len(in_windows) < len(meta["snapshots"])
    # each distinct window snapshot is read once, and nothing else
    assert sorted(loaded) == sorted(e["file"] for e in meta["snapshots"] if e["t"] in in_windows)


def test_criterion_missing_snapshot_is_input_error(traj_dir, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(traj_dir, run)
    last = json.loads((run / "meta.json").read_text())["snapshots"][-1]["file"]
    (run / last).unlink()  # outside every window at --at 0.0, still an input error
    assert main(_window_args(run, tmp_path / "c", at="0.0")) == 3
    assert last in capsys.readouterr().err


def test_criterion_corrupt_window_snapshot_is_input_error(traj_dir, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(traj_dir, run)
    assert main(_window_args(run, tmp_path / "ok")) == 0
    s = float((tmp_path / "ok" / "criterion.csv").read_text().splitlines()[1].split(",")[1])
    entry = [e for e in json.loads((run / "meta.json").read_text())["snapshots"] if e["t"] == s]
    path = run / entry[0]["file"]
    path.write_bytes(path.read_bytes()[:-8])  # truncated payload
    assert main(_window_args(run, tmp_path / "c")) == 3


def _edit_meta(edit):
    def mutate(run):
        meta = json.loads((run / "meta.json").read_text())
        edit(meta)
        (run / "meta.json").write_text(json.dumps(meta))
    return mutate


def _edit_series(edit):
    def mutate(run):
        lines = (run / "series.csv").read_text().splitlines()
        lines[3] = edit(lines[3])
        (run / "series.csv").write_text("\n".join(lines) + "\n")
    return mutate


MALFORMED_RUNS = {
    "invalid_json": lambda run: (run / "meta.json").write_text("{"),
    "meta_not_an_object": lambda run: (run / "meta.json").write_text("[]"),
    "missing_key": _edit_meta(lambda meta: meta.pop("n")),
    "mistyped_key": _edit_meta(lambda meta: meta.update(n="16")),
    "reversed_snapshot_times": _edit_meta(lambda meta: meta["snapshots"].reverse()),
    "nonfinite_snapshot_time": _edit_meta(lambda meta: meta["snapshots"][1].update(t=math.nan)),
    "series_row_missing_columns": _edit_series(lambda row: ",".join(row.split(",")[:2])),
    "series_nonfinite_time": _edit_series(lambda row: "nan" + row[row.index(","):]),
    # the silently wrong result: n=32 declared over n=16 snapshot files
    "grid_disagrees_with_snapshots": _edit_meta(lambda meta: meta.update(n=32)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RUNS))
def test_criterion_malformed_trajectory_is_input_error(traj_dir, tmp_path, capsys, case):
    run = tmp_path / "run"
    shutil.copytree(traj_dir, run)
    MALFORMED_RUNS[case](run)
    assert main(_window_args(run, tmp_path / "c")) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err


def test_failed_simulate_leaves_no_trajectory(tmp_path, monkeypatch, capsys):
    # a finished 2-step run's directory, then a run into it that blows up at
    # step 4: its snapshots so far are on disk, but no meta.json names them
    run = tmp_path / "run"
    assert _simulate_tg(run, 2) == 0
    real, calls = nse_module._nonlinear, []

    def nonlinear(*args):  # four calls per step: step 4 goes non-finite
        calls.append(1)
        return real(*args) * (np.nan if len(calls) > 12 else 1.0)

    monkeypatch.setattr(nse_module, "_nonlinear", nonlinear)
    assert _simulate_tg(run, 10) == 1
    assert "last good time t=0.003000" in capsys.readouterr().err
    assert (run / "u_t0.003000000.fld").exists()
    assert not (run / "meta.json").exists() and not (run / "manifest.json").exists()
    monkeypatch.undo()
    assert main(_window_args(run, tmp_path / "c", at="0.0")) == 3


def test_solver_instability_is_computation_error(tmp_path, monkeypatch, capsys):
    def unstable(config, out=None):
        raise nse_module.SolverInstabilityError(
            "non-finite state at t=0.003000 (last good time t=0.002000)", 0.002)

    monkeypatch.setattr(cli_module, "simulate", unstable)
    assert main(["simulate", "--n", "16", "--t-end", "0.003", "--out", str(tmp_path)]) == 1
    assert "last good time t=0.002000" in capsys.readouterr().err


def test_norm_center_out_of_range(field_file, tmp_path):
    # the field is n=16: an index outside [0, 16) is rejected, not wrapped
    for center in ("16,0,0", "0,99,0", "-1,0,0"):
        assert main(["norm", "--field", str(field_file), "--kind", "lm",
                     f"--center={center}", "--out", str(tmp_path)]) == 2, center
    assert main(["norm", "--field", str(field_file), "--kind", "lm",
                 "--center", "15,15,15", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "norm_report.json").read_text())
    assert report["center"] == [15, 15, 15]


def test_config_supplies_required_flags(field_file, traj_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": str(field_file), "kind": "lm"}))
    assert main(["norm", "--config", str(cfg), "--out", str(tmp_path / "n")]) == 0
    assert json.loads((tmp_path / "n" / "norm_report.json").read_text())["kind"] == "lm"
    cfg.write_text(json.dumps({"traj": str(traj_dir), "alpha": 0.5, "beta": 0.5,
                               "nu_w": 0.5, "eps0": 0.5}))
    assert main(["criterion", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    assert json.loads((tmp_path / "c" / "criterion_report.json").read_text())["reports"]
    # an abbreviated --config still applies once the required flags are given
    cfg.write_text(json.dumps({"kind": "classical"}))
    assert main(["norm", "--field", str(field_file), "--conf", str(cfg),
                 "--out", str(tmp_path / "a")]) == 0
    assert json.loads((tmp_path / "a" / "norm_report.json").read_text())["kind"] == "classical"


def test_verify_gm_finite_theta_report(tmp_path):
    out = tmp_path / "ver"
    rc = main(["verify", "--lemma", "gm", "--n", "16", "--deltas", "0.75", "--scales", "0.8",
               "--seeds", "2", "--kmax", "4", "--thetas", "2", "--alphas", "0.75",
               "--out", str(out)])
    assert rc == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads((out / "verify_reports.json").read_text(), parse_constant=reject)
    assert report["summary"]["total"] == 2
    assert {r["params"]["theta"] for r in report["reports"]} == {2}
    assert all(isinstance(r["premise_holds"], bool) for r in report["reports"])


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_out_naming_a_file_is_usage_error(tmp_path, capsys, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    assert main(["sparseness", "--pair-from-delta", "0.75", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --out ") and err.count("\n") == 1, err


def test_field_naming_a_directory_is_input_error(tmp_path, capsys):
    assert main(["norm", "--field", str(tmp_path), "--out", str(tmp_path / "n")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err


def test_traj_naming_a_file_is_input_error(field_file, tmp_path, capsys):
    assert main(_window_args(field_file, tmp_path / "c")) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err


def _verify(*flags: str) -> list[str]:
    """A small verify argv: --n 16 --seeds 1 --scales 0.5 unless ``flags`` set one."""
    base = {"--n": "16", "--seeds": "1", "--scales": "0.5"}
    return ["verify", *(x for k, v in base.items() if k not in flags for x in (k, v)), *flags]


OUT_OF_RANGE = [
    ["norm", "--nu", "-1"],
    ["norm", "--theta", "0.5"],
    ["norm", "--p", "0.5"],
    ["norm", "--r-max", "0.1"],
    ["norm", "--kind", "classical", "--r-max", "2"],
    ["norm", "--kind", "classical", "--theta", "0.5"],
    ["norm", "--scales", "-3"],
    ["norm", "--kind", "classical", "--p", "0.5"],
    ["sparseness", "--lambda", "1.5"],
    ["sparseness", "--r", "5"],
    ["sparseness", "--delta", "1.5"],
    ["sparseness", "--lambda", "0.45", "--delta", "1.5"],
    ["sparseness", "--z-alpha", "0.5", "--c0", "0.5"],
    _verify("--n", "15"),
    _verify("--n", "16", "--scales", "0.2"),
    _verify("--deltas", "1.5"),
    _verify("--scales", "1.5"),
    _verify("--lemma", "gm", "--thetas", "2", "--alphas", "0.4"),
    _verify("--lemma", "gm", "--modes", "foo"),
    _verify("--lemma", "gm", "--p", "1"),
    _verify("--threads", "0"),
    _verify("--seeds", "-1"),
    ["simulate", "--n", "15"],
    ["simulate", "--n", "16", "--dt", "1", "--t-end", "1"],
    ["simulate", "--n", "16", "--dt", "-1"],
    ["simulate", "--n", "16", "--snapshot-every", "0"],
    ["criterion", "--c", "-1"],
    ["criterion", "--c", "0"],
    ["criterion", "--alpha", "-1"],
    ["criterion", "--beta", "-1"],
    # NaN fails every accept-form check; infinite sizes and exponents are out too
    ["norm", "--nu", "nan"],
    ["norm", "--nu", "inf"],
    ["norm", "--p", "nan"],
    ["norm", "--p", "inf"],
    ["norm", "--r-max", "2"],
    ["norm", "--kind", "lm", "--p", "nan"],
    ["norm", "--kind", "classical", "--p", "nan"],
    ["norm", "--kind", "classical", "--alpha", "nan"],
    ["norm", "--kind", "classical", "--alpha", "inf"],
    ["sparseness", "--z-alpha", "nan"],
    ["sparseness", "--z-alpha", "0.5", "--c0", "inf"],
    _verify("--lemma", "gm", "--alphas", "nan"),
    _verify("--lemma", "gm", "--p", "nan"),
    _verify("--lemma", "gm", "--thetas", "0"),
    ["simulate", "--n", "16", "--t-end", "inf"],
    ["simulate", "--n", "16", "--t-end", "nan"],
    ["simulate", "--n", "16", "--dt", "nan"],
    ["simulate", "--n", "16", "--seed", "-1"],
    ["criterion", "--alpha", "nan"],
    ["criterion", "--alpha", "inf"],
    ["criterion", "--beta", "inf"],
    ["criterion", "--nu-w", "nan"],
    ["criterion", "--nu-w", "inf"],
    ["criterion", "--eps0", "nan"],
    ["criterion", "--eps0", "inf"],
    ["criterion", "--p", "nan"],
    ["criterion", "--c0", "inf"],
    # flags the chosen kind or lemma does not read must still be finite
    ["norm", "--alpha", "nan"],
    ["norm", "--alpha", "inf"],
    ["norm", "--kind", "lm", "--alpha", "nan"],
    ["norm", "--r-min", "nan"],
    _verify("--p", "nan"),
    _verify("--alphas", "nan"),
    _verify("--lemma", "l2", "--thetas", "nan"),
    _verify("--lemma", "l2", "--thetas", "inf,nan"),
    _verify("--lemma", "l2", "--rho", "nan"),
    _verify("--lemma", "l2", "--rho", "inf"),
    _verify("--lemma", "l2", "--modes", "bogus"),
    _verify("--lemma", "l2", "--modes", "curl,bogus"),
    ["sparseness", "--c0", "nan"],
    ["sparseness", "--c0", "inf"],
    ["norm", "--kind", "gm", "--center", "99,99,99"],
    ["norm", "--kind", "classical", "--center", "0,16,0"],
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=" ".join)
def test_out_of_range_argument_is_usage_error(field_file, traj_dir, tmp_path, capsys, argv):
    # the library check on the argument raises ParameterError, which alone
    # (with argparse's own errors) exits 2: one line, no manifest
    if argv[0] in ("norm", "sparseness"):
        argv = [argv[0], "--field", str(field_file), *argv[1:]]
    if argv[0] == "criterion":  # the later flag wins over CRITERION's
        argv = [*CRITERION, "--traj", str(traj_dir), *argv[1:]]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()  # nor the directory it made


def test_unread_flags_in_range_run(field_file, tmp_path):
    # an l2 sweep does not read --thetas, --rho or --modes, nor gm --center;
    # values inside their ranges (an infinite theta too) still run
    assert main([*_verify("--lemma", "l2", "--thetas", "inf,3", "--rho", "0.5", "--modes",
                          "identity"), "--out", str(tmp_path / "v")]) == 0
    assert main(["norm", "--field", str(field_file), "--center", "15,15,15",
                 "--out", str(tmp_path / "n")]) == 0


@pytest.mark.parametrize("argv", [_verify("--scales", ","), _verify("--scales", ""),
                                  _verify("--deltas", ","), ["criterion", "--at", ","]],
                         ids=" ".join)
def test_empty_number_list_is_usage_error(traj_dir, tmp_path, capsys, argv):
    # a comma list with no number fails its argparse type, as --center 1,2
    # does: exit 2 with argparse's error line, no outputs
    if argv[0] == "criterion":  # the later flag wins over CRITERION's
        argv = [*CRITERION, "--traj", str(traj_dir), *argv[1:]]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"morrey-sparse {argv[0]}: error: argument --"), err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, expected", [
    (_verify("--alphas", "x"), "expected comma-separated numbers, got 'x'"),
    (_verify("--deltas", "0.7,y"), "expected comma-separated numbers, got '0.7,y'"),
    (_verify("--lemma", "gm", "--thetas", "two"), "expected comma-separated numbers, got 'two'"),
    (_verify("--thetas", ""), "no number in ''"),
    (["norm", "--kind", "lm", "--center", "x"], "expected three integers i,j,k, got 'x'"),
], ids=["verify --alphas", "verify --deltas", "verify --thetas", "verify --thetas empty",
        "norm --center"])
def test_malformed_list_names_what_the_flag_expects(field_file, tmp_path, capsys, argv,
                                                    expected):
    # argparse's message names the type function unless it raises
    # ArgumentTypeError: the error line says what the flag takes instead
    if argv[0] == "norm":
        argv = [argv[0], "--field", str(field_file), *argv[1:]]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "_parse_" not in err and err.splitlines()[-1].endswith(expected), err
    assert not any(tmp_path.iterdir())


def test_every_number_list_has_one_parser():
    # each comma list of numbers goes through the one type function, so
    # each takes the same text and says the same thing when it cannot
    commands = build_parser()._subparsers._group_actions[0].choices
    for command, flags in (("verify", ("--deltas", "--scales", "--alphas", "--thetas")),
                           ("criterion", ("--at",))):
        actions = commands[command]._option_string_actions
        for flag in flags:
            assert actions[flag].type is _parse_floats, (command, flag)


@pytest.mark.parametrize("flags", [("--thetas", "inf,"), ("--alphas", "0.5,")],
                         ids=" ".join)
def test_number_list_trailing_comma_runs(tmp_path, flags):
    # an empty entry is skipped, in --thetas as in every number list
    assert main([*_verify("--lemma", "gm", *flags), "--out", str(tmp_path)]) == 0


def test_sparseness_on_zero_field_is_computation_error(tmp_path, capsys):
    # a failure of the data on valid arguments stays exit 1
    path = tmp_path / "zero.fld"
    save_field(VectorField(Grid3(16), np.zeros((3, 16, 16, 16))), path)
    assert main(["sparseness", "--field", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: cannot threshold the zero field\n", err


@pytest.mark.parametrize("argv", [["norm", "--nu", "1e308"],
                                  _verify("--lemma", "gm", "--thetas", "1e308")], ids=" ".join)
def test_overflowing_exponent_is_computation_error(field_file, tmp_path, capsys, argv):
    # an in-range exponent whose power leaves float64 (the weight s^-nu, a
    # weight tail integral) is a numerical failure: exit 1, one error line
    if argv[0] == "norm":
        argv = [argv[0], "--field", str(field_file), *argv[1:]]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: float64 overflow: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("call", [
    lambda: Grid3(15),
    lambda: WeightSpec(nu=0.5, rho=1.0),
    lambda: MorreyParams(0.5, WeightSpec(nu=0.5), (0.5,)),
    lambda: log_scale_nodes(Grid3(16), 0.0, 1.0, count=0),
    lambda: admissible_pair(0.4),
    lambda: PairLD(lam=1.2, delta=0.75, h=0.1),
    lambda: semi_mixed(VoxelSet(Grid3(16), np.ones((16, 16, 16), dtype=bool)), 0.5, 1.5),
    lambda: SweepConfig(lemma="l3"),
    lambda: sweep(SweepConfig(n=16, seeds=()), threads=0),
    lambda: nse_module.CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5, c0=0.5),
    lambda: nse_module.CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5, c=0.0),
    lambda: nse_module.CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5, c=math.nan),
    lambda: nse_module.CriterionSpec(alpha=-1.0, beta=0.5, nu_w=0.5),
    lambda: nse_module.CriterionSpec(alpha=0.5, beta=-1.0, nu_w=0.5),
    lambda: classical_morrey(ScalarField(Grid3(16), np.ones((16, 16, 16))), 0.5, 1.0, 0.5, 1.0),
    lambda: nse_module.SolverConfig(n=16, dt=-1.0, t_end=1.0),
    lambda: WeightSpec(nu=math.nan),
    lambda: WeightSpec(nu=math.inf),
    lambda: MorreyParams(math.nan, WeightSpec(nu=0.5), (0.5,)),
    lambda: MorreyParams(math.inf, WeightSpec(nu=0.5), (0.5,)),
    lambda: log_scale_nodes(Grid3(16), 0.0, 2.0),
    lambda: classical_morrey(ScalarField(Grid3(16), np.ones((16, 16, 16))), math.nan, 1.0,
                             0.5, 1.0),
    lambda: classical_morrey(ScalarField(Grid3(16), np.ones((16, 16, 16))), 2.0, math.nan,
                             0.5, 1.0),
    lambda: predual_module._conjugate(math.nan),
    lambda: eps_const(admissible_pair(0.75), 2.0, 0.0, 0.5),
    lambda: nse_module.CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5, eps0=math.nan),
    lambda: nse_module.CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5, eps0=math.inf),
    lambda: nse_module.CriterionSpec(alpha=math.nan, beta=0.5, nu_w=0.5),
    lambda: nse_module.CriterionSpec(alpha=0.5, beta=math.inf, nu_w=0.5),
    lambda: nse_module.CriterionSpec(alpha=0.5, beta=0.5, nu_w=math.nan),
    lambda: nse_module.CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5, c0=math.inf),
    lambda: z_alpha_member(random_solenoidal_field(Grid3(16), 4, 3), math.nan,
                           admissible_pair(0.75), 2.0),
    lambda: z_alpha_member(random_solenoidal_field(Grid3(16), 4, 3), 0.5,
                           admissible_pair(0.75), math.inf),
    lambda: nse_module.SolverConfig(n=16, dt=math.nan, t_end=1.0),
    lambda: nse_module.SolverConfig(n=16, dt=1e-3, t_end=math.inf),
    lambda: nse_module.SolverConfig(n=16, dt=1e-3, t_end=1.0, seed=-1),
    lambda: vorticity_blob(Grid3(16), (8, 8, 8), sigma=math.nan),
], ids=["Grid3", "WeightSpec", "MorreyParams", "log_scale_nodes", "admissible_pair", "PairLD",
        "semi_mixed", "SweepConfig", "sweep", "CriterionSpec", "CriterionSpec-c",
        "CriterionSpec-c-nan", "CriterionSpec-alpha", "CriterionSpec-beta",
        "classical_morrey", "SolverConfig", "WeightSpec-nu-nan", "WeightSpec-nu-inf",
        "MorreyParams-p-nan", "MorreyParams-p-inf", "log_scale_nodes-r-max", "classical_morrey-p-nan",
        "classical_morrey-alpha-nan", "_conjugate-nan", "eps_const-theta-0", "CriterionSpec-eps0-nan",
        "CriterionSpec-eps0-inf", "CriterionSpec-alpha-nan", "CriterionSpec-beta-inf",
        "CriterionSpec-nu_w-nan", "CriterionSpec-c0-inf",
        "z_alpha_member-alpha-nan", "z_alpha_member-c0-inf", "SolverConfig-dt-nan",
        "SolverConfig-t_end-inf", "SolverConfig-seed", "vorticity_blob-sigma-nan"])
def test_library_range_checks_raise_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


def test_parameter_error_is_the_usage_type():
    assert issubclass(InadmissiblePairError, ParameterError)
    assert issubclass(nse_module.TimeRangeError, ParameterError)
    assert not issubclass(ZeroFieldError, ParameterError)  # data, not arguments
    assert issubclass(ParameterError, ValueError)
