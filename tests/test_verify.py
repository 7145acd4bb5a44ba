import math

import numpy as np
import pytest
import scipy.fft

from morrey_sparse import verify as verify_module
from morrey_sparse.fields import random_solenoidal_field, vorticity_blob
from morrey_sparse.grid import (
    Grid3,
    VectorField,
    biot_savart,
    curl,
    divergence,
    sliding_ball_lp,
    sup_norm,
)
from morrey_sparse.sparseness import (
    SET_LABELS,
    admissible_pair,
    cstar,
    kappa,
    semi_mixed,
    superlevel_sets,
)
from morrey_sparse.verify import (
    GUARD_BAND,
    ScaleTooSmallError,
    SweepConfig,
    VerifyReport,
    check_lemma_gm,
    check_lemma_l2,
    counterexample_field,
    summarize,
    sweep,
)
from conftest import random_field, unit_x_field


PAIR = admissible_pair(0.75)
#: (pair, r) cells of one field, delta-major like the sweeps
CELLS = [(admissible_pair(d), r) for d in (0.75, 0.85) for r in (0.4, 0.8)]


# ---------------------------------------------------------------------------
# L^2 implication
# ---------------------------------------------------------------------------


def test_l2_constant_field_degenerate_pass(grid16):
    rep = check_lemma_l2(unit_x_field(grid16, 2.0), PAIR, 0.5)
    assert rep.degenerate
    assert rep.verdict


def test_l2_zero_field(grid16):
    rep = check_lemma_l2(unit_x_field(grid16, 0.0), PAIR, 0.5)
    assert rep.degenerate and rep.verdict
    assert rep.premise_holds  # 0 <= 0


def test_l2_random_ensemble_soundness():
    grid = Grid3(32)
    for seed in range(12):
        f = random_field(grid, seed=seed, kmax=8)
        for r in (0.8, 0.4):
            rep = check_lemma_l2(f, PAIR, r)
            assert rep.verdict, (seed, r, rep)


def test_l2_verdict_scale_invariant():
    grid = Grid3(32)
    f = random_field(grid, seed=77, kmax=8)
    # densities=True: the premise fails here, and the conclusion must still
    # be computed to compare it across amplitudes
    rep1 = check_lemma_l2(f, PAIR, 0.5, densities=True)
    # power-of-two amplitude: every comparison scales exactly
    rep4 = check_lemma_l2(VectorField(grid, 4.0 * f.data), PAIR, 0.5, densities=True)
    assert rep1.premise_holds == rep4.premise_holds
    assert isinstance(rep1.conclusion_holds, bool)
    assert rep1.conclusion_holds == rep4.conclusion_holds
    assert rep1.per_set_densities == rep4.per_set_densities
    assert rep1.verdict == rep4.verdict
    assert rep4.premise_lhs == pytest.approx(4.0 * rep1.premise_lhs, rel=1e-12)
    assert rep4.premise_rhs == pytest.approx(4.0 * rep1.premise_rhs, rel=1e-12)
    rep3 = check_lemma_l2(VectorField(grid, 3.0 * f.data), PAIR, 0.5, densities=True)
    assert rep1.verdict == rep3.verdict


def test_l2_nonvacuous_premise_blob():
    # a tight vortex blob satisfies the premise (with margin) at the friendly
    # cell and the conclusion holds: the implication is exercised for real
    from morrey_sparse.fields import vorticity_blob
    from morrey_sparse.grid import biot_savart

    grid = Grid3(64)
    pair = admissible_pair(0.85)
    w = vorticity_blob(grid, (32, 32, 32), sigma=0.15)
    u = biot_savart(w)
    rep = check_lemma_l2(u, pair, 0.8)
    assert rep.premise_holds and not rep.marginal
    assert rep.premise_lhs <= 0.9 * rep.premise_rhs
    assert rep.conclusion_holds
    assert rep.verdict


def _reference_l2(f, pair, r):
    """check_lemma_l2 recomputed from the public kernels, one call at a time."""
    omega = curl(f)
    omega_sup = sup_norm(omega)
    lhs = float(sliding_ball_lp(f, 2.0, r).data.max())
    rhs = cstar(pair) * r**2.5 * omega_sup
    params = {"lambda": pair.lam, "delta": pair.delta, "r": r, "mode": "l2"}
    sets = superlevel_sets(omega, pair.lam)
    res = [semi_mixed(sets[label], kappa(pair) * r, pair.delta) for label in SET_LABELS]
    holds = lhs <= rhs
    return VerifyReport(lhs, rhs, holds, all(x.ok for x in res),
                        tuple(x.max_density for x in res), params,
                        marginal=holds and lhs > (1.0 - GUARD_BAND) * rhs)


@pytest.mark.parametrize("kind", ["blob", "random"])
def test_l2_warm_calls_match_fresh_field(kind):
    if kind == "blob":
        grid = Grid3(32, math.pi)
        f = biot_savart(vorticity_blob(grid, (16, 16, 16), sigma=0.15))
    else:
        grid = Grid3(32)
        f = random_field(grid, seed=3, kmax=8)
    warm = [check_lemma_l2(f, pair, r, densities=True) for pair, r in CELLS]
    fresh = [check_lemma_l2(VectorField(grid, f.data.copy()), pair, r, densities=True)
             for pair, r in CELLS]
    assert warm == fresh
    assert warm == [_reference_l2(f, pair, r) for pair, r in CELLS]
    # premise first: without densities a failed premise skips the conclusion
    # and passes; every other report is the full one
    for full, lean in zip(warm, [check_lemma_l2(f, pair, r) for pair, r in CELLS]):
        if full.premise_holds:
            assert lean == full
        else:
            assert lean.conclusion_holds is None and lean.per_set_densities == ()
            assert lean.verdict is True
            assert lean == VerifyReport(full.premise_lhs, full.premise_rhs, False, None, (),
                                        full.params)
    assert any(not rep.premise_holds for rep in warm)
    assert any(rep.premise_holds for rep in warm) == (kind == "blob")


def test_l2_field_is_a_read_only_value():
    # the per-field memo keys on the field object alone: a field cannot be
    # written through, and editing the array it was built from leaves it be
    grid = Grid3(32)
    raw = np.array(random_field(grid, seed=4, kmax=8).data)
    f = VectorField(grid, raw)
    before = check_lemma_l2(f, PAIR, 0.5, densities=True)
    with pytest.raises(ValueError, match="read-only"):
        f.data[0, 1, 2, 3] = 1.0
    raw[0] = np.roll(raw[0], 5, axis=2)
    assert not np.array_equal(f.data, raw)
    assert check_lemma_l2(f, PAIR, 0.5, densities=True) == before
    edited = check_lemma_l2(VectorField(grid, raw), PAIR, 0.5, densities=True)
    assert edited != before
    verify_module._field_memo.state = None
    assert edited == check_lemma_l2(VectorField(grid, raw.copy()), PAIR, 0.5, densities=True)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_premise_lhs_root_after_max_is_exact(seed):
    # the premise takes the root of the max ball power; sqrt is monotone and
    # correctly rounded, so it equals the max over the rooted ball powers
    from morrey_sparse.grid import ball_power_from_spectrum, magnitude_power, power_spectrum

    f = random_solenoidal_field(Grid3(16), 4, seed)
    state = verify_module._FieldState(f)
    for r in (0.5, 0.8, 1.0):
        power = ball_power_from_spectrum(f.grid, power_spectrum(magnitude_power(f, 2.0)), r)
        power **= 0.5
        assert state.premise_lhs(r) == float(power.max())


def test_l2_transforms_per_field(monkeypatch):
    # field-only work once (curl: 6, |f|^2: 1) and one inverse transform per
    # premise scale; the random fields never hold the premise, so without
    # densities no mask is transformed, and with them the mask spectra come
    # once per lambda plus one inverse per (set, cell)
    grid = Grid3(32)
    warm, lean, full = (random_field(grid, seed=seed, kmax=8) for seed in (5, 6, 7))
    for pair, r in CELLS:  # fill the ball-spectrum cache
        check_lemma_l2(warm, pair, r, densities=True)
    count, masks = [0], [0]

    def counting(fn):
        def wrapper(a, *args, **kwargs):
            count[0] += math.prod(a.shape[:-3])  # a 3-vector call counts 3
            return fn(a, *args, **kwargs)
        return wrapper

    def counting_sets(*args):
        masks[0] += 1
        return superlevel_sets(*args)

    # count at both backends: the mask counts run on scipy.fft
    for backend in (np.fft, scipy.fft):
        for name in ("rfftn", "irfftn"):
            monkeypatch.setattr(backend, name, counting(getattr(backend, name)))
    monkeypatch.setattr(verify_module, "superlevel_sets", counting_sets)
    n_lam = len({pair.lam for pair, _ in CELLS})
    n_r = len({r for _, r in CELLS})
    reports = [check_lemma_l2(lean, pair, r) for pair, r in CELLS]
    assert not any(rep.premise_holds for rep in reports)
    assert (masks[0], count[0]) == (0, 7 + n_r)
    count[0] = 0
    for pair, r in CELLS:
        check_lemma_l2(full, pair, r, densities=True)
    assert masks[0] == n_lam
    assert count[0] <= 7 + n_r + 6 * n_lam + 6 * len(CELLS)


# ---------------------------------------------------------------------------
# counterexample construction
# ---------------------------------------------------------------------------


def test_counterexample_defeats_semimixedness_and_premise():
    grid = Grid3(64)
    r = 0.5
    u = counterexample_field(r, PAIR, grid)
    omega = curl(u)
    # (a) the first positive super-level set is fully dense at the center
    sets = superlevel_sets(omega, PAIR.lam)
    res = semi_mixed(sets["S_1+"], kappa(PAIR) * r, PAIR.delta)
    assert not res.ok
    assert res.max_density == 1.0
    # (b) the premise fails, with a wide margin
    rep = check_lemma_l2(u, PAIR, r)
    assert not rep.premise_holds
    assert rep.premise_lhs > 10.0 * rep.premise_rhs
    assert rep.verdict  # falsified premise, not the implication


def test_counterexample_vorticity_is_solenoidal():
    grid = Grid3(64)
    u = counterexample_field(0.6, PAIR, grid)
    omega = curl(u)
    assert np.abs(divergence(omega).data).max() <= 1e-10 * max(1.0, sup_norm(omega))


def test_counterexample_scale_floor():
    grid = Grid3(16)
    with pytest.raises(ScaleTooSmallError):
        counterexample_field(0.2, PAIR, grid)


# ---------------------------------------------------------------------------
# Morrey-type implication
# ---------------------------------------------------------------------------


def test_gm_zero_field_degenerate(grid16):
    rep = check_lemma_gm(unit_x_field(grid16, 0.0), PAIR, 2.0, math.inf, 0.5, 0.25, 0.5)
    assert rep.degenerate and rep.verdict


def test_gm_soundness_small_ensemble():
    grid = Grid3(32)
    for seed in range(6):
        f = random_field(grid, seed=100 + seed, kmax=8)
        for theta, alpha in ((math.inf, 0.5), (2.0, 1.0)):
            for mode in ("curl", "identity"):
                rep = check_lemma_gm(f, PAIR, 2.0, theta, alpha, 0.25, 0.5, mode)
                assert rep.verdict, (seed, theta, mode)


def test_gm_exponent_structure_matches_l2_special_case():
    # curl mode, p=2, theta=inf, alpha=1/2: threshold scales as
    # (r v rho)^(-1/2) r^(5/2), the same scale structure as the L^2 premise
    grid = Grid3(16)
    f = random_field(grid, seed=5)
    rho = 1e-6
    r1, r2 = 0.45, 0.9
    reps = [check_lemma_gm(f, PAIR, 2.0, math.inf, 0.5, rho, r, "curl") for r in (r1, r2)]
    ratio = reps[1].premise_rhs / reps[0].premise_rhs
    assert ratio == pytest.approx((r2 / r1) ** 2.0, rel=1e-9)  # -1/2 + 5/2
    # past the cap the cutoff shell would cross the weight-support end
    with pytest.raises(ValueError):
        check_lemma_gm(f, PAIR, 2.0, math.inf, 0.5, rho, 0.99, "curl")


def test_gm_mode_validation(grid16):
    with pytest.raises(ValueError):
        check_lemma_gm(unit_x_field(grid16), PAIR, 2.0, math.inf, 0.5, 0.25, 0.5, "bogus")
    with pytest.raises(ValueError):
        check_lemma_gm(unit_x_field(grid16), PAIR, 2.0, 2.0, 0.4, 0.25, 0.5)  # alpha theta < 1


def test_gm_premise_once_per_field_and_weight(grid16, monkeypatch):
    # the premise does not depend on the mode: both modes on one field share
    # one gm_norm; another theta is another premise
    calls = []
    real = verify_module.gm_norm
    monkeypatch.setattr(verify_module, "gm_norm", lambda f, params: calls.append(1) or real(f, params))
    f = random_field(grid16, seed=7)
    reps = [check_lemma_gm(f, PAIR, 2.0, 2.0, 1.0, 0.45, 0.5, mode) for mode in ("curl", "identity")]
    assert len(calls) == 1
    assert reps[0].premise_lhs == reps[1].premise_lhs
    check_lemma_gm(f, PAIR, 2.0, math.inf, 1.0, 0.45, 0.5, "identity")
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_empty():
    cfg = SweepConfig(n=16, deltas=(), seeds=(), scales=())
    assert sweep(cfg) == []


def test_sweep_deterministic_and_sound():
    cfg = SweepConfig(n=16, deltas=(0.75,), scales=(0.9,), seeds=(0, 1, 2), kmax=4)
    reports1 = sweep(cfg)
    reports2 = sweep(cfg)
    assert len(reports1) == 3
    for a, b in zip(reports1, reports2):
        assert a.premise_lhs == b.premise_lhs
        assert a.params == b.params
    s = summarize(reports1)
    assert s.total == 3
    assert s.violations == 0 and s.marginal_violations == 0


def test_sweep_threads_match_serial():
    cfg = SweepConfig(n=32, deltas=(0.75, 0.85), scales=(0.5, 0.85), seeds=(0, 1, 2),
                      kmax=8, adversarial=True)
    serial = sweep(cfg, threads=1)
    assert sweep(cfg, threads=2) == serial
    # parameter-index order: cell-major, then the fields of the cell
    cells = [(rep.params["delta"], rep.params["r"]) for rep in serial]
    assert cells == sorted(cells, key=lambda c: (cfg.deltas.index(c[0]), cfg.scales.index(c[1])))
    assert len(serial) > 3 * len(cfg.deltas) * len(cfg.scales)


def test_sweep_adversarial_passes():
    cfg = SweepConfig(n=32, deltas=(0.75, 0.85), scales=(0.85,), seeds=(0,),
                      kmax=8, adversarial=True)
    reports = sweep(cfg)
    assert len(reports) == 4  # one random + one counterexample per delta
    s = summarize(reports)
    assert s.violations == 0 and s.marginal_violations == 0
    # the adversarial entries falsified the premise
    assert sum(not r.premise_holds for r in reports) >= 2


def test_sweep_gm_mode():
    cfg = SweepConfig(lemma="gm", n=16, deltas=(0.75,), scales=(0.8,), seeds=(0, 1),
                      kmax=4, thetas=(math.inf, 2.0), alphas=(1.0,), rho=0.45,
                      modes=("curl", "identity"))
    reports = sweep(cfg)
    assert len(reports) == 2 * 2 * 2
    assert summarize(reports).violations == 0


def test_sweep_gm_shares_field_work_with_fresh_reference(monkeypatch):
    # both modes take the thresholded field and its mask spectra from the
    # per-field state; every report equals one computed alone on a fresh
    # copy of its field
    cfg = SweepConfig(lemma="gm", n=16, deltas=(0.75, 0.85), scales=(0.5, 0.8),
                      seeds=(0, 1), kmax=4, thetas=(math.inf, 2.0), alphas=(1.0,),
                      rho=0.45, modes=("curl", "identity"), densities=True)
    grid = Grid3(cfg.n)
    curls, masks = [0], [0]

    def counting_curl(f):
        curls[0] += 1
        return curl(f)

    def counting_sets(*args):
        masks[0] += 1
        return superlevel_sets(*args)

    monkeypatch.setattr(verify_module, "curl", counting_curl)
    monkeypatch.setattr(verify_module, "superlevel_sets", counting_sets)
    reports = sweep(cfg)
    assert curls[0] == len(cfg.seeds)  # one vorticity per field for 16 curl-mode cells
    # one set of mask spectra per (field, mode, lambda), not per variant
    assert masks[0] == len(cfg.seeds) * len(cfg.modes) * len(cfg.deltas)
    assert all(len(rep.per_set_densities) == 6 for rep in reports)
    fields = {seed: random_solenoidal_field(grid, cfg.kmax, seed) for seed in cfg.seeds}
    reference = []
    for delta in cfg.deltas:
        for r in cfg.scales:
            for seed in cfg.seeds:
                for theta in cfg.thetas:
                    for mode in cfg.modes:
                        fresh = VectorField(grid, fields[seed].data.copy())
                        reference.append(check_lemma_gm(fresh, admissible_pair(delta), cfg.p,
                                                        theta, 1.0, cfg.rho, r, mode,
                                                        densities=True))
    assert reports == reference
    assert len(reports) == 32


def test_summary_margins():
    params = {"delta": 0.75}

    def rep(lhs, rhs, densities=(), degenerate=False):
        return VerifyReport(lhs, rhs, lhs <= rhs, None if not densities else True,
                            densities, params, degenerate=degenerate)

    s = summarize([rep(1.0, 4.0, (0.1,) * 6), rep(3.0, 4.0, (0.5, 0.25, 0, 0, 0, 0)),
                   rep(9.0, 3.0), rep(5.0, 2.0), rep(1.0, 0.0, (0.0,) * 6, degenerate=True)])
    assert s.tightest_premise_ratio == 0.75
    assert s.min_density_slack == 0.25
    assert s.closest_near_miss == 2.5
    empty = summarize([])
    assert (empty.tightest_premise_ratio, empty.min_density_slack, empty.closest_near_miss) \
        == (None, None, None)


@pytest.mark.parametrize("densities", [True, False])
def test_sweep_summary_margins(densities):
    cfg = SweepConfig(n=16, deltas=(0.75, 0.85), scales=(0.9,), seeds=(0, 1, 2), kmax=4,
                      densities=densities)
    reports = sweep(cfg)
    s = summarize(reports)
    assert s.premise_holding == 0 and s.tightest_premise_ratio is None
    assert s.closest_near_miss == min(r.premise_lhs / r.premise_rhs for r in reports) > 1.0
    if densities:
        assert s.min_density_slack == min(r.params["delta"] - max(r.per_set_densities)
                                          for r in reports)
        assert math.isfinite(s.min_density_slack)
    else:
        assert s.min_density_slack is None
        assert all(r.per_set_densities == () for r in reports)
