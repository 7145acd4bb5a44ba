"""The Navier-Stokes scaling u_lambda(x) = lambda u(lambda x) as a cross-grid
oracle, at lambda = 2, which is exact on the lattice: a field on grid n,
tiled twice per axis onto grid 2n (spacing h/2) and multiplied by 2, has
its lattice offsets preserved, so the fine grid's ball B_r is the coarse
grid's B_{2r}.  Curl scales by lambda^2, super-level sets of the
vorticity tile, and their semi-mixedness at r equals the coarse one at 2r.
The weighted global norm at theta = inf scales by 2^(1 - 3/p + nu), and at
finite theta (the local norm too) by 2^(1 - 3/p + nu - 1/theta), the
classical quantity at alpha = 3 - p is invariant, the criterion exponent
makes lhs / rhs scale-free, and the solver maps time t to t/4."""

import math

import numpy as np
import pytest

from morrey_sparse import nse as nse_module
from morrey_sparse.fields import random_solenoidal_field, vorticity_blob
from morrey_sparse.grid import Grid3, VectorField, ball_power_profile, curl
from morrey_sparse.morrey import (MorreyParams, WeightSpec, classical_morrey, clm_norm,
                                  decay_exponent, gm_norm, lm_norm)
from morrey_sparse.nse import CriterionSpec, SolverConfig, criterion_exponent, simulate
from morrey_sparse.sparseness import semi_mixed, superlevel_sets

#: relative tolerance of a scaled value: the probes saw at most 4.3e-16
RTOL = 1e-14


def _tiled(f: VectorField) -> VectorField:
    """2 f(2x) on the grid of twice the resolution and the same box."""
    return VectorField(Grid3(2 * f.grid.n, f.grid.box_len), 2.0 * np.tile(f.data, (1, 2, 2, 2)))


@pytest.mark.parametrize("n, kmax, seed", [(8, 3, 1), (8, 2, 5), (16, 4, 2), (16, 8, 3)])
def test_semi_mixed_under_the_scaling(n, kmax, seed):
    coarse = random_solenoidal_field(Grid3(n), kmax, seed)
    fine = _tiled(coarse)
    omega, omega_fine = curl(coarse), curl(fine)
    scaled = 4.0 * np.tile(omega.data, (1, 2, 2, 2))
    assert np.abs(omega_fine.data - scaled).max() <= 1e-14 * np.abs(scaled).max()
    h = coarse.grid.spacing
    # ball radii in voxels of each grid; at most n/2 keeps the coarse ball on the torus
    radii = [t for t in (1.1, 1.5, 2.3, 3.2, 5.1) if t < n / 2]
    for lam in (0.3, 0.5, 0.7):
        sets = superlevel_sets(omega, lam)
        sets_fine = superlevel_sets(omega_fine, lam)
        for label, S in sets.items():
            S_fine = sets_fine[label]
            assert np.array_equal(S_fine.mask, np.tile(S.mask, (2, 2, 2))), (lam, label)
            for t in radii:
                for delta in (0.3, 0.6):
                    assert (semi_mixed(S_fine, t * h / 2.0, delta)
                            == semi_mixed(S, t * h, delta)), (lam, label, t, delta)


COARSE = {"random-4-2": lambda grid: random_solenoidal_field(grid, 4, 2),
          "random-5-7": lambda grid: random_solenoidal_field(grid, 5, 7),
          "blob": lambda grid: vorticity_blob(grid, (5, 9, 3), sigma=0.8)}


#: coarse nodes in (h, 1] at n = 16 (h = 0.39); the fine grid takes c / 2
NODES = (0.45, 0.6, 0.75, 0.9, 1.0)


@pytest.mark.parametrize("name", sorted(COARSE))
def test_norms_under_the_scaling(name):
    coarse = COARSE[name](Grid3(16))
    fine = _tiled(coarse)
    for p in (1.0, 2.0, 3.0):
        for nu in (0.0, 0.3):
            weight = WeightSpec(nu=nu)
            a = gm_norm(coarse, MorreyParams(p, weight, NODES))
            b = gm_norm(fine, MorreyParams(p, weight, tuple(c / 2.0 for c in NODES)))
            expected = 2.0 ** (1.0 - 3.0 / p + nu) * a.value
            assert abs(b.value - expected) <= RTOL * expected, (p, nu, a, b)
            assert (b.center, 2.0 * b.scale) == (a.center, a.scale), (p, nu, a, b)
        # r^-alpha int_B |f|^p with alpha = 3 - p is invariant
        a = classical_morrey(coarse, p, 3.0 - p, NODES[0], 1.0, scales=NODES)
        b = classical_morrey(fine, p, 3.0 - p, NODES[0] / 2.0, 0.5,
                             scales=[c / 2.0 for c in NODES])
        assert abs(b.value - a.value) <= RTOL * a.value, (p, a, b)
        assert (b.center, 2.0 * b.scale) == (a.center, a.scale), (p, a, b)


#: (nu, theta, rho) at finite theta; theta = p (2 or 3) takes gm_norm's kernel
FINITE = ((0.8, 2.0, 0.0), (0.8, 3.0, 0.2), (1.0, 1.5, 0.0), (0.5, 3.0, 0.45), (0.7, 2.0, 0.45))


@pytest.mark.parametrize("name", sorted(COARSE))
def test_finite_theta_norms_under_the_scaling(name):
    # the L^theta(dr) average over the halved nodes adds 2^(-1/theta) to the
    # theta = inf factor; the fine grid's center (i, j, k) is the coarse one's
    coarse = COARSE[name](Grid3(16))
    fine = _tiled(coarse)
    for p in (1.0, 2.0, 3.0):
        for nu, theta, rho in FINITE:
            assert decay_exponent(nu, theta) == pytest.approx(nu - 1.0 / theta, rel=RTOL)
            factor = 2.0 ** (1.0 - 3.0 / p + nu - 1.0 / theta)
            params = MorreyParams(p, WeightSpec(nu=nu, rho=rho, theta=theta), NODES)
            halved = MorreyParams(p, WeightSpec(nu=nu, rho=rho / 2.0, theta=theta),
                                  tuple(c / 2.0 for c in NODES))
            a, b = gm_norm(coarse, params), gm_norm(fine, halved)
            assert abs(b.value - factor * a.value) <= RTOL * factor * a.value, (p, theta, a, b)
            assert b.center == a.center, (p, theta, a, b)
            for center in ((3, 4, 5), (8, 8, 8)):
                expected = factor * lm_norm(coarse, params, center)
                assert abs(lm_norm(fine, halved, center) - expected) <= RTOL * expected
            # not so the complement: the fine torus holds 2^p times the total
            # of |f|^p, but each ball 2^(p - 3) times its share
            ball, total = ball_power_profile(coarse, p, (3, 4, 5), np.asarray(params.scales))
            fine_ball, fine_total = ball_power_profile(fine, p, (3, 4, 5),
                                                       np.asarray(halved.scales))
            assert fine_total == pytest.approx(2.0**p * total, rel=RTOL)
            assert fine_ball == pytest.approx(2.0 ** (p - 3.0) * ball, rel=RTOL)
            expected = factor * clm_norm(coarse, params, (3, 4, 5))
            assert abs(clm_norm(fine, halved, (3, 4, 5)) - expected) > 1e-4 * expected


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("nu", [0.0, 0.3])
def test_criterion_exponent_is_critical(p, nu):
    # at alpha = beta = 1/2 the threshold on omega_sup (x4 under the scaling)
    # grows as the theta = inf lhs does, by 2^(1 - 3/p + nu)
    exponent = criterion_exponent(CriterionSpec(alpha=0.5, beta=0.5, nu_w=nu, p=p))
    assert exponent == pytest.approx((1.0 - 3.0 / p + nu) / 2.0, rel=RTOL, abs=1e-15)
    assert 4.0**exponent == pytest.approx(2.0 ** (1.0 - 3.0 / p + nu), rel=RTOL)


def test_solver_under_the_scaling(monkeypatch):
    # u_lambda(x, t) = lambda u(lambda x, lambda^2 t) at lambda = 2: the tiled
    # start on the fine grid, stepped with dt / 4, retraces the coarse run
    # (the 2/3 rule commutes with tiling: |2k| < 2n/3 exactly when |k| < n/3)
    dt, steps = 2e-3, 50
    config = SolverConfig(n=16, dt=dt, t_end=steps * dt, ic="random", ic_params={"kmax": 4},
                          snapshot_every=10, seed=7)
    coarse = simulate(config)
    start = _tiled(nse_module.initial_condition("random", Grid3(16), {"kmax": 4}, 7))
    monkeypatch.setattr(nse_module, "initial_condition", lambda *args: start)
    fine = simulate(SolverConfig(n=32, dt=dt / 4.0, t_end=steps * dt / 4.0, ic="random",
                                 ic_params={"kmax": 4}, snapshot_every=10, seed=7))
    assert np.array_equal(fine.series["t"], coarse.series["t"] / 4.0)
    for column, factor in (("u_sup", 2.0), ("omega_sup", 4.0), ("energy", 4.0),
                           ("enstrophy", 16.0)):
        expected = factor * coarse.series[column]
        assert np.abs(fine.series[column] - expected).max() <= RTOL * expected.max(), column
    assert fine.snapshot_times == [t / 4.0 for t in coarse.snapshot_times]
    for (_, f), (_, g) in zip(fine.snapshots, coarse.snapshots, strict=True):
        scaled = _tiled(g).data
        assert np.abs(f.data - scaled).max() <= RTOL * np.abs(scaled).max()
