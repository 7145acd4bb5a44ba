import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from morrey_sparse import grid as grid_module
from morrey_sparse import nse as nse_module
from morrey_sparse.fields import random_solenoidal_field, vorticity_blob
from morrey_sparse.grid import (
    Grid3,
    NonFiniteDataError,
    ParameterError,
    ball_kernel,
    biot_savart,
    curl,
    divergence,
    leray_project,
    sup_norm,
)
from morrey_sparse.morrey import (
    MorreyParams,
    WeightSpec,
    classical_morrey,
    decay_exponent,
    gm_norm,
    log_scale_nodes,
)
from morrey_sparse.nse import (
    CriterionSpec,
    SchedulingError,
    SnapshotFiles,
    SolverConfig,
    TimeRangeError,
    criterion_exponent,
    detect_escape_times,
    dissipation_scale,
    evaluate_criteria,
    evaluate_criterion,
    initial_condition,
    load_trajectory,
    save_trajectory,
    simulate,
)
from morrey_sparse.predual import _conjugate
from morrey_sparse.sparseness import admissible_pair, shell_exponent
from morrey_sparse.verify import check_lemma_l2


@pytest.fixture(scope="module")
def tg_traj():
    cfg = SolverConfig(n=32, dt=1e-3, t_end=0.3, ic="taylor-green", snapshot_every=25)
    return simulate(cfg)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n=32, dt=-1.0, t_end=1.0)
    with pytest.raises(TypeError):  # viscosity is the constant VISCOSITY
        SolverConfig(n=32, dt=1e-3, t_end=1.0, nu=0.5)
    with pytest.raises(ValueError):
        simulate(SolverConfig(n=16, dt=1.0, t_end=2.0, ic="shear"))  # CFL bound


def test_nonfinite_initial_condition_rejected_before_stepping(monkeypatch):
    def never(*args):
        raise AssertionError("stepped a non-finite initial condition")

    monkeypatch.setattr(nse_module, "_nonlinear", never)
    cfg = SolverConfig(n=16, dt=1e-3, t_end=3e-3, ic="random", ic_params={"amplitude": math.nan})
    with pytest.raises(NonFiniteDataError):
        simulate(cfg)
    assert issubclass(NonFiniteDataError, ValueError)


def test_instability_reports_last_good_time(monkeypatch):
    # the third step's stages go non-finite: the state at t = 0.002 was good
    calls = []
    real = nse_module._nonlinear

    def poisoned(u, w, grid, dealias):
        calls.append(None)
        out = real(u, w, grid, dealias)
        return out * math.nan if len(calls) > 8 else out

    monkeypatch.setattr(nse_module, "_nonlinear", poisoned)
    cfg = SolverConfig(n=16, dt=1e-3, t_end=5e-3, ic="taylor-green")
    with pytest.raises(nse_module.SolverInstabilityError, match="last good time t=0.002000") as err:
        simulate(cfg)
    assert err.value.last_good_time == pytest.approx(2e-3)
    assert len(calls) == 12  # four stages per step, stopped after step 3


def test_shear_exact_decay():
    cfg = SolverConfig(n=16, dt=1e-3, t_end=1.0, ic="shear", snapshot_every=250)
    traj = simulate(cfg)
    assert abs(traj.series["u_sup"][-1] - math.exp(-1.0)) <= 1e-6
    # integrating factor makes single-mode decay exact to rounding, mode by
    # mode, so n = 16 meets the bound as acceptance 7's n = 32 does
    assert abs(traj.series["u_sup"][-1] - math.exp(-1.0)) <= 1e-12


def test_zero_ic_stays_zero():
    cfg = SolverConfig(n=16, dt=5e-3, t_end=0.05, ic="shear",
                       ic_params={"amplitude": 0.0}, snapshot_every=5)
    traj = simulate(cfg)
    assert traj.series["u_sup"].max() == 0.0


def test_taylor_green_energy_decay(tg_traj):
    E = tg_traj.series["energy"]
    assert np.all(np.diff(E) < 0.0)


def test_snapshots_solenoidal(tg_traj):
    for t, f in tg_traj.snapshots:
        assert np.abs(divergence(f).data).max() <= 1e-10


def test_series_times_increasing(tg_traj):
    assert np.all(np.diff(tg_traj.series["t"]) > 0)


def test_timestep_halving_order():
    sols = {}
    for dt in (0.04, 0.02, 0.01):
        cfg = SolverConfig(n=16, dt=dt, t_end=0.4, ic="taylor-green",
                           snapshot_every=10**9)
        sols[dt] = simulate(cfg).snapshots[-1][1].data
    e1 = np.abs(sols[0.04] - sols[0.02]).max()
    e2 = np.abs(sols[0.02] - sols[0.01]).max()
    assert math.log2(e1 / e2) >= 3.5


def test_one_fft_backend(monkeypatch):
    # every transform of the package runs on scipy.fft through grid
    def banned(*args, **kwargs):
        raise AssertionError("numpy.fft transform called")

    for name in ("rfftn", "irfftn", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, banned)
    grid_module._ball_spectrum_cached.cache_clear()
    grid = Grid3(16)
    f = random_solenoidal_field(grid, 4, 0)
    biot_savart(curl(f))
    leray_project(f)
    vorticity_blob(grid, (8, 8, 8), 0.8)
    simulate(SolverConfig(n=16, dt=1e-3, t_end=3e-3, ic="random"))
    gm_norm(f, MorreyParams.default(grid, WeightSpec(nu=0.5)))
    check_lemma_l2(f, admissible_pair(0.75), 0.5)


def test_solver_transforms_per_step(monkeypatch):
    # record()'s physical u and omega feed the next step's first stage:
    # 4 stages of 9 transforms, and 6 to record the state, less the 6 shared
    count = [0]

    def counting(fn):
        def wrapper(a, *args, **kwargs):
            count[0] += math.prod(a.shape[:-3])  # a 3-vector call counts 3
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("rfftn", "irfftn"):
        monkeypatch.setattr(scipy.fft, name, counting(getattr(scipy.fft, name)))

    def transforms(steps):
        count[0] = 0
        simulate(SolverConfig(n=16, dt=1e-3, t_end=steps * 1e-3, ic="taylor-green"))
        return count[0]

    assert transforms(6) - transforms(3) == 36 * 3


@pytest.mark.parametrize("path", sorted((Path(__file__).parent / "golden").glob("solver_*.json")),
                         ids=lambda path: path.stem)
def test_solver_series_match_golden(path):
    # the solver's fixed point: n=16 runs (tests/golden/write_solver_series.py)
    # reproduce their recorded series within 1e-12 relative; a recorded exact
    # zero within 1e-12 of its column's largest value
    golden = json.loads(path.read_text())
    case = golden["case"]
    traj = simulate(SolverConfig(n=case["n"], dt=case["dt"], t_end=case["steps"] * case["dt"],
                                 ic=case["ic"], snapshot_every=case["steps"]))
    assert list(traj.series) == list(golden["series"])
    for column, values in golden["series"].items():
        want = np.asarray(values)
        tol = 1e-12 * np.where(want == 0.0, np.abs(want).max(), np.abs(want))
        assert traj.series[column].shape == want.shape, column
        assert (np.abs(traj.series[column] - want) <= tol).all(), column


def test_random_start_energy_budget():
    # dE/dt = -2 Z at viscosity 1 (Z = |omega|^2 / 2 integrated): a random
    # start has no content on the Nyquist planes, which curl cannot see, so
    # the centred difference of the energy meets the enstrophy
    traj = simulate(SolverConfig(n=32, dt=1e-3, t_end=2e-3, ic="random", ic_params={"kmax": 8},
                                 seed=3))
    energy, enstrophy = traj.series["energy"], traj.series["enstrophy"]
    residual = abs((energy[2] - energy[0]) / 2e-3 + 2.0 * enstrophy[1]) / (2.0 * enstrophy[1])
    assert residual <= 1e-2


def test_random_start_kmax_below_the_two_thirds_cut():
    # the state holds the modes |i|, |j|, |k| < n/3 only: kmax 5 fits at
    # n=16, kmax 6 would lose modes of the initial condition
    simulate(SolverConfig(n=16, dt=1e-3, t_end=1e-3, ic="random", ic_params={"kmax": 5}))
    with pytest.raises(ParameterError, match="kmax=6 must lie below n/3"):
        simulate(SolverConfig(n=16, dt=1e-3, t_end=1e-3, ic="random", ic_params={"kmax": 6}))


def test_abc_and_random_ics():
    g = Grid3(16)
    abc = initial_condition("abc", g)
    assert sup_norm(abc) > 0
    rnd = initial_condition("random", g, {"kmax": 3}, seed=4)
    assert np.abs(divergence(rnd).data).max() < 1e-10
    with pytest.raises(ValueError):
        initial_condition("vortex-sheet", g)


@pytest.mark.parametrize("ic, params", [("abc", {"a": 2.0}), ("random", {"kmx": 3})])
def test_unknown_initial_condition_parameter_is_rejected(ic, params):
    # the ABC coefficients are fixed at 1 and a misspelt key is not ignored
    with pytest.raises(ParameterError, match="unknown initial-condition parameters"):
        initial_condition(ic, Grid3(16), params)


@pytest.mark.parametrize("ic", ["shear", "taylor-green", "abc", "random"])
def test_every_initial_condition_accepts_amplitude_and_kmax(ic):
    # the keys the CLI passes for every flow; kmax is read by random only
    g = Grid3(16)
    u = initial_condition(ic, g, {"amplitude": 2.0, "kmax": 3}, seed=1)
    assert sup_norm(u) == pytest.approx(2.0 * sup_norm(initial_condition(ic, g, {"kmax": 3}, seed=1)))


# ---------------------------------------------------------------------------
# escape times
# ---------------------------------------------------------------------------


def _series(vals):
    return {"t": np.arange(len(vals), dtype=float), "u_sup": np.asarray(vals, float),
            "omega_sup": np.asarray(vals, float)}


def test_escape_decreasing_empty():
    assert detect_escape_times(_series([5, 4, 3, 2, 1]), "u") == []


def test_escape_increasing_all_but_last():
    assert detect_escape_times(_series([1, 2, 3, 4]), "u") == [0.0, 1.0, 2.0]


def test_escape_mixed_series():
    # values [1, 3, 2, 4, 5]: samples valued 1, 2, 4 qualify
    times = detect_escape_times(_series([1, 3, 2, 4, 5]), "omega")
    assert times == [0.0, 2.0, 3.0]


def test_escape_decaying_flow(tg_traj):
    assert detect_escape_times(tg_traj.series, "u") == []


# ---------------------------------------------------------------------------
# dissipation scale
# ---------------------------------------------------------------------------


def test_dissipation_scale_arithmetic():
    g = Grid3(32)
    assert dissipation_scale(4.0, 0.5, 1.0, g) == (0.5, False)
    assert dissipation_scale(1.0, 0.77, 1.0, g) == (1.0, False)
    eta = dissipation_scale(1e12, 0.5, 1.0, g)
    assert eta.value == 2.0 * g.spacing and eta.clipped
    eta_hi = dissipation_scale(0.01, 1.0, 1.0, g)
    assert eta_hi.value == 1.0 and eta_hi.clipped


# ---------------------------------------------------------------------------
# criterion exponent
# ---------------------------------------------------------------------------


def test_exponent_anchor_vanishes():
    spec = CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5, p=2.0, theta=math.inf)
    assert spec.exponent_mode == "curl"
    assert abs(criterion_exponent(spec)) <= 1e-15
    # the velocity case takes the identity family: 0.5*0.5 - 0.5*(3 - 3/2) + 1
    velocity = CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5, p=2.0, theta=math.inf,
                             field_mode="u", reference="u")
    assert velocity.exponent_mode == "identity"
    assert criterion_exponent(velocity) == 0.5


def test_exponent_alpha_zero_collapses():
    spec = CriterionSpec(alpha=0.0, beta=0.5, nu_w=0.7, p=2.0, theta=math.inf)
    assert criterion_exponent(spec) == 1.0
    spec2 = CriterionSpec(alpha=0.0, beta=0.5, nu_w=1.3, p=3.0, theta=math.inf)
    assert criterion_exponent(spec2) == 1.0


def test_exponent_finite_theta_formula():
    spec = CriterionSpec(alpha=0.5, beta=1.0, nu_w=1.0, p=2.0, theta=2.0)
    # min(a, b) (nu th - 1)/th - a (4 - 3/p') + 1 = 0.5*0.5 - 0.5*2.5 + 1
    assert criterion_exponent(spec) == pytest.approx(0.25 - 1.25 + 1.0, abs=1e-15)


@pytest.mark.parametrize("theta", [math.inf, 3.0])
def test_exponent_helpers_match_inline_formulas(theta):
    for nu in (0.5, 0.75, 1.25):
        k_term = nu if math.isinf(theta) else (nu * theta - 1.0) / theta
        e_exp = -nu if math.isinf(theta) else (1.0 - nu * theta) / theta
        assert decay_exponent(nu, theta) == k_term
        assert -decay_exponent(nu, theta) == e_exp
    for p in (1.0, 1.5, 2.0, 3.0):
        pprime = math.inf if p == 1.0 else p / (p - 1.0)
        assert _conjugate(p) == pprime
        inv = 0.0 if math.isinf(pprime) else 1.0 / pprime
        assert shell_exponent(p, "curl") == 4.0 - 3.0 * inv == 4.0 - 3.0 / pprime
        assert shell_exponent(p, "identity") == 3.0 - 3.0 * inv == 3.0 - 3.0 / pprime
        spec = CriterionSpec(alpha=0.4, beta=0.6, nu_w=0.75, p=p, theta=theta)
        k_term = 0.75 if math.isinf(theta) else (0.75 * theta - 1.0) / theta
        assert criterion_exponent(spec) == 0.4 * k_term - 0.4 * (4.0 - 3.0 * inv) + 1.0


# ---------------------------------------------------------------------------
# criterion evaluation
# ---------------------------------------------------------------------------


def test_criterion_threshold_dominance(tg_traj):
    spec = CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5, eps0=100.0)
    rep = evaluate_criterion(tg_traj, 0.0, spec)
    assert rep.satisfied
    spec0 = CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5, eps0=0.0)
    assert not evaluate_criterion(tg_traj, 0.0, spec0).satisfied


def test_criterion_cross_module_consistency(tg_traj):
    # squared sup-form global norm (p=2, nu=1/2, support [eta, 1]) equals the
    # restricted classical quantity (p=2, alpha=1) on the same scale nodes
    spec = CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5, eps0=1.0)
    rep = evaluate_criterion(tg_traj, 0.0, spec)
    u_star = [f for t, f in tg_traj.snapshots if abs(t - rep.s_star) < 1e-9][0]
    rho_w = min(rep.scale_window[0], 1.0 - 0.5 * tg_traj.grid.spacing)
    scales = log_scale_nodes(tg_traj.grid, rho_w, 1.0, spec.scale_count)
    w = WeightSpec(nu=0.5, rho=rho_w, theta=math.inf)
    gm = gm_norm(u_star, MorreyParams(2.0, w, scales))
    cm = classical_morrey(u_star, 2.0, 1.0, rho_w, 1.0, scales=scales)
    assert gm.value**2 == pytest.approx(cm.value, rel=1e-9)
    assert gm.value == pytest.approx(rep.lhs, rel=1e-12)


def test_criterion_ball_spectra_once_per_shell(tg_traj, monkeypatch):
    # the scale nodes move with eta(s) at every snapshot; the ball spectra
    # they need are one per lattice shell, not one per node
    radii = []

    def spy(f, params, **kwargs):
        radii.extend(params.scales)
        return gm_norm(f, params, **kwargs)

    monkeypatch.setattr(nse_module, "gm_norm", spy)
    cache = grid_module._ball_spectrum_cached
    cache.cache_clear()
    evaluate_criterion(tg_traj, 0.0, CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5))
    shells = {ball_kernel(tg_traj.grid, r).shell for r in radii}
    assert cache.cache_info().misses <= len(shells) < len(set(radii)) / 4


def test_criterion_scheduling_error(tg_traj):
    spec = CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5)
    with pytest.raises(SchedulingError):
        evaluate_criterion(tg_traj, 0.25, spec)  # window past the run end


#: overlapping windows on tg_traj: 8 snapshots each, 9 distinct
OVERLAPPING = (0.0, 0.01, 0.02)
SPECS = {
    "theta_inf": CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5),
    "theta_3": CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5, theta=3.0),
    "omega": CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5, field_mode="omega"),
}


def _count_gm_calls(monkeypatch) -> list:
    calls = []

    def spy(f, params, **kwargs):
        calls.append(f)
        return gm_norm(f, params, **kwargs)

    monkeypatch.setattr(nse_module, "gm_norm", spy)
    return calls


@pytest.mark.parametrize("name", sorted(SPECS))
def test_criteria_match_per_time_reports(tg_traj, name):
    spec = SPECS[name]
    shared = evaluate_criteria(tg_traj, OVERLAPPING, spec)
    assert shared == [evaluate_criterion(tg_traj, t, spec) for t in OVERLAPPING]
    assert all(rep.exponent == criterion_exponent(spec) for rep in shared)
    windows = [{row[0] for row in rep.rows} for rep in shared]
    assert windows[0] & windows[1] & windows[2]  # the windows do overlap


def test_criteria_one_norm_per_window_snapshot(tg_traj, monkeypatch):
    calls = _count_gm_calls(monkeypatch)
    reports = evaluate_criteria(tg_traj, OVERLAPPING, SPECS["theta_inf"])
    in_windows = {row[0] for rep in reports for row in rep.rows}
    assert len(calls) == len(in_windows) < sum(len(rep.rows) for rep in reports)
    # u mode measures the snapshot itself: each one once, in snapshot order
    snaps = [f for t, f in tg_traj.snapshots if t in in_windows]
    assert len(snaps) == len(calls) and all(a is b for a, b in zip(calls, snaps))


@pytest.mark.parametrize("name", ["theta_inf", "omega"])
def test_criteria_rows_match_fresh_norms(tg_traj, name, monkeypatch):
    # the snapshot loop carries shell bounds from row to row; every row and
    # witness equals a fresh gm_norm of its snapshot, over overlapping windows
    spec = SPECS[name]
    carried = evaluate_criteria(tg_traj, OVERLAPPING, spec)
    monkeypatch.setattr(nse_module, "gm_norm", lambda f, params, bounds: gm_norm(f, params))
    assert carried == evaluate_criteria(tg_traj, OVERLAPPING, spec)


def test_criteria_check_every_window_first(tg_traj, monkeypatch):
    calls = _count_gm_calls(monkeypatch)
    spec = SPECS["theta_inf"]
    with pytest.raises(SchedulingError):
        evaluate_criteria(tg_traj, [0.0, 0.01, 0.25], spec)  # last window too sparse
    with pytest.raises(TimeRangeError):
        evaluate_criteria(tg_traj, [0.0, 0.5], spec)  # past the run end
    assert calls == []
    assert evaluate_criteria(tg_traj, [], spec) == []


def test_spec_validation():
    with pytest.raises(ValueError):
        CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5, c0=0.5)
    with pytest.raises(ValueError):
        CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.4, theta=2.0)  # nu*theta < 1


def test_criterion_spec_fields():
    # the paper's one criterion: one cutoff exponent, one reference norm
    assert [f.name for f in dataclasses.fields(CriterionSpec)] == [
        "alpha", "beta", "nu_w", "p", "theta", "c", "c0", "eps0", "field_mode",
        "window_mode", "reference"]


def test_criterion_scale_count_is_a_constant():
    # one node count is in use, so it is a class constant, not a constructor field
    assert "scale_count" not in {f.name for f in dataclasses.fields(CriterionSpec)}
    assert CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5).scale_count == 24


# ---------------------------------------------------------------------------
# trajectory I/O
# ---------------------------------------------------------------------------


def test_trajectory_roundtrip(tmp_path, tg_traj):
    written = save_trajectory(tg_traj, tmp_path / "run")
    back = load_trajectory(tmp_path / "run")
    assert back.files == written
    assert back.grid == tg_traj.grid
    assert np.array_equal(back.series["t"], tg_traj.series["t"])
    assert np.allclose(back.series["energy"], tg_traj.series["energy"], rtol=0, atol=0)
    assert len(back.snapshots) == len(tg_traj.snapshots)
    assert back.snapshot_times == tg_traj.snapshot_times
    t0, f0 = back.snapshots[-1]
    assert np.array_equal(f0.data, tg_traj.snapshots[-1][1].data)
    # snapshots read from disk give the reports of the run held in memory
    spec = SPECS["theta_inf"]
    assert evaluate_criteria(back, OVERLAPPING, spec) == \
        evaluate_criteria(tg_traj, OVERLAPPING, spec)


def test_streamed_run_matches_saved_run(tmp_path):
    cfg = SolverConfig(n=16, dt=1e-3, t_end=0.01, ic="taylor-green", snapshot_every=3)
    streamed = simulate(cfg, out=tmp_path / "streamed")
    held = simulate(cfg)
    saved = save_trajectory(held, tmp_path / "saved")
    assert [p.name for p in streamed.files] == [p.name for p in saved]
    names = sorted(p.name for p in (tmp_path / "saved").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "streamed").iterdir())
    assert {"series.csv", "meta.json"} < set(names)
    assert sum(name.endswith(".fld") for name in names) == 5  # steps 0, 3, 6, 9, 10
    for name in names:
        assert (tmp_path / "streamed" / name).read_bytes() == \
            (tmp_path / "saved" / name).read_bytes(), name
    # the streamed run reads its snapshots back from its files
    assert isinstance(streamed.snapshots, SnapshotFiles)
    assert streamed.snapshots.paths() == streamed.files[1:-1]
    assert len(streamed.snapshots) == len(held.snapshots)
    for (ts, fs), (th, fh) in zip(streamed.snapshots, held.snapshots):
        assert ts == th and np.array_equal(fs.data, fh.data)
    assert streamed.snapshot_times == held.snapshot_times == [t for t, _ in held.snapshots]
