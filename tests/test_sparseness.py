import math

import numpy as np
import pytest

from morrey_sparse.grid import UNIT_BALL_VOLUME, Grid3, VectorField
from morrey_sparse.sparseness import (
    SET_LABELS,
    InadmissiblePairError,
    PairLD,
    ScaleRangeError,
    VoxelSet,
    ZeroFieldError,
    admissible_pair,
    bump_chain_constant,
    cstar,
    eps_const,
    gm_chain_constant,
    kappa,
    semi_mixed,
    sparse_3d,
    superlevel_sets,
    z_alpha_member,
)
from conftest import random_field, sine_y_field, unit_x_field


def slab_set(grid: Grid3, axis: int, lo: float, hi: float) -> VoxelSet:
    coords = grid.axis_coords()
    band = (coords >= lo) & (coords < hi)
    shape = [1, 1, 1]
    shape[axis] = grid.n
    mask = np.broadcast_to(band.reshape(shape), grid.shape)
    return VoxelSet(grid, np.ascontiguousarray(mask))


# ---------------------------------------------------------------------------
# admissible pairs and constants
# ---------------------------------------------------------------------------


def test_admissible_pair_anchor():
    pair = admissible_pair(0.75)
    assert pair.lam == pytest.approx(0.450347, abs=5e-5)
    assert pair.h == pytest.approx(0.180669, abs=5e-5)
    assert abs(pair.lam * pair.h + (1 - pair.h) - 2 * pair.lam) <= 1e-12
    assert pair.lam > 1.0 / 3.0
    assert 1.0 / (1.0 + pair.lam) < pair.delta


def test_admissible_pair_limit_delta_to_one():
    pair = admissible_pair(1.0 - 1e-9)
    assert pair.h == pytest.approx(0.0, abs=1e-6)
    assert pair.lam == pytest.approx(0.5, abs=1e-6)


def test_admissible_pair_rejects_small_delta():
    with pytest.raises(InadmissiblePairError):
        admissible_pair(0.4)


def test_pair_validation():
    with pytest.raises(ValueError):
        PairLD(lam=1.2, delta=0.75, h=0.1)
    with pytest.raises(InadmissiblePairError):
        PairLD(lam=0.2, delta=0.5, h=0.1)  # delta (1 + lam) = 0.6 < 1


def test_kappa_values():
    pair = admissible_pair(0.75)
    assert kappa(pair) == pytest.approx(0.986368, abs=5e-5)
    # boundary: delta (1 + lambda) -> 1+ gives kappa -> 1
    near = PairLD(lam=0.4301, delta=0.7, h=0.0)
    assert kappa(near) > 0.999
    # delta (1 + lambda) = 2 gives kappa = (3/4)^(1/3)
    two = PairLD(lam=0.9999999999, delta=1.0 - 1e-10, h=0.0)
    assert kappa(two) == pytest.approx((3.0 / 4.0) ** (1.0 / 3.0), rel=1e-6)
    lo, hi = 2.0 ** (-1.0 / 3.0), 1.0
    for d in (0.7, 0.75, 0.8, 0.9, 0.99):
        k = kappa(admissible_pair(d))
        assert lo < k < hi


def test_ramp_l2_moment_closed_form():
    # closed form of the ramp-gradient L^2 moment against direct quadrature
    from morrey_sparse.sparseness import _ramp_l2_moment

    t = np.linspace(0.0, 1.0, 200001)
    for kap in (0.9, 0.95, 0.986):
        integrand = (6 * t * (1 - t)) ** 2 * (kap + (1 - kap) * t) ** 2
        assert _ramp_l2_moment(kap) == pytest.approx(np.trapezoid(integrand, t), rel=1e-9)


def test_cstar_positive_and_boundary():
    pair = admissible_pair(0.75)
    assert cstar(pair) > 0.0
    # cstar = cal varpi (1-kappa)^(-1/2) (delta(1+lambda) - 1)/2, cal the bump-chain prefactor
    x = pair.delta * (1.0 + pair.lam)
    assert cstar(pair) / bump_chain_constant(pair) == pytest.approx(
        UNIT_BALL_VOLUME * (x - 1.0) / 2.0 / math.sqrt(1.0 - kappa(pair)), rel=1e-12)
    # vanishes toward the admissibility boundary
    tight = PairLD(lam=0.430099, delta=0.7, h=0.0)  # delta(1+lam) barely > 1
    assert cstar(tight) < cstar(pair)


def test_cstar_increasing_in_delta():
    vals = [cstar(admissible_pair(d)) for d in np.linspace(0.7, 0.95, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_eps_const_properties():
    pair = admissible_pair(0.75)
    v = eps_const(pair, 2.0, math.inf, 0.5)
    assert v > 0.0 and math.isfinite(v)
    # vanishes toward the admissibility boundary delta (1 + lambda) -> 1+
    tight = PairLD(lam=0.430099, delta=0.7, h=0.0)
    assert eps_const(tight, 2.0, math.inf, 0.5) < 0.1 * v
    # decreasing in alpha at fixed pair (theta = inf branch)
    vals = [eps_const(pair, 2.0, math.inf, a) for a in np.linspace(0.3, 1.5, 8)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        eps_const(pair, 2.0, 2.0, 0.4)  # alpha * theta < 1


def test_constants_continuous_on_grid():
    # no NaN/inf across an admissible parameter sweep
    for d in np.linspace(0.66, 0.99, 50):
        try:
            pair = admissible_pair(float(d))
        except InadmissiblePairError:
            continue
        for v in (kappa(pair), cstar(pair), eps_const(pair, 2.0, math.inf, 0.5),
                  bump_chain_constant(pair), gm_chain_constant(pair, 2.0, math.inf, 0.5)):
            assert math.isfinite(v) and v > 0.0


# ---------------------------------------------------------------------------
# super-level sets
# ---------------------------------------------------------------------------


def test_superlevel_sine_volume():
    grid = Grid3(64)
    f = sine_y_field(grid)
    sets = superlevel_sets(f, 0.5)
    # {sin y > 1/2} occupies one third of the y-range
    vol = sets["S_1+"].volume
    expected = grid.box_len**3 / 3.0
    assert vol == pytest.approx(expected, rel=2.0 / grid.n)
    assert sets["S_2+"].count == 0
    assert not (sets["S_1+"].mask & sets["S_1-"].mask).any()


def test_superlevel_lambda_near_one_empty(grid16):
    f = random_field(grid16, seed=31)
    sets = superlevel_sets(f, 1.0 - 1e-12)
    assert all(sets[label].count == 0 for label in SET_LABELS)


def test_superlevel_monotone_in_lambda(grid16):
    f = random_field(grid16, seed=32)
    counts = [sum(superlevel_sets(f, lam)[label].count for label in SET_LABELS)
              for lam in (0.2, 0.4, 0.6, 0.8)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_superlevel_zero_field(grid16):
    with pytest.raises(ZeroFieldError):
        superlevel_sets(unit_x_field(grid16, 0.0), 0.5)


# ---------------------------------------------------------------------------
# 3D sparseness and semi-mixedness
# ---------------------------------------------------------------------------


def test_sparse_3d_extremes(grid16):
    empty = VoxelSet(grid16, np.zeros(grid16.shape, dtype=bool))
    full = VoxelSet(grid16, np.ones(grid16.shape, dtype=bool))
    assert sparse_3d(empty, (0, 0, 0), 1.0) == 0.0
    assert sparse_3d(full, (5, 5, 5), 1.0) == 1.0


def test_sparse_3d_halfspace():
    grid = Grid3(64)
    S = slab_set(grid, 1, 0.0, grid.box_len / 2.0)
    # centers on the two boundary planes: roughly half the ball lies inside,
    # offset by the center plane itself (its disk is in/out of S); the two
    # sides average out exactly
    d_in = sparse_3d(S, (10, 0, 20), 1.0)   # center plane belongs to S
    d_out = sparse_3d(S, (10, 32, 20), 1.0)  # center plane outside S
    half_plane = 3.0 * grid.spacing / (8.0 * 1.0)
    assert d_in == pytest.approx(0.5 + half_plane, abs=2.0 / grid.n)
    assert d_out == pytest.approx(0.5 - half_plane, abs=2.0 / grid.n)
    assert 0.5 * (d_in + d_out) == pytest.approx(0.5, abs=2.0 / grid.n)


def test_one_spectrum_per_set(grid16, monkeypatch):
    # semi_mixed calls on one set share its mask spectrum: one forward
    # transform per count precision, whatever the radii, and float32 and
    # float64 counts give the same density and witness
    from morrey_sparse import grid as grid_module

    single = grid_module.SINGLE_COUNT_VOXELS
    warm, S = (VoxelSet(grid16, random_field(grid16, seed=s).data[0] > 0.3) for s in (7, 8))
    for cut in (0, single):  # fill the ball-spectrum cache at both radii and precisions
        monkeypatch.setattr(grid_module, "SINGLE_COUNT_VOXELS", cut)
        semi_mixed(warm, 0.9, 0.75)
        semi_mixed(warm, 0.5, 0.75)
    forward = []
    real = grid_module.fft.rfftn
    monkeypatch.setattr(grid_module.fft, "rfftn",
                        lambda a, *args, **kw: forward.append(a.dtype) or real(a, *args, **kw))
    res, small = semi_mixed(S, 0.9, 0.75), semi_mixed(S, 0.5, 0.75)
    assert semi_mixed(S, 0.9, 0.75) == res
    assert forward == [np.float32]
    monkeypatch.setattr(grid_module, "SINGLE_COUNT_VOXELS", 0)  # float64 counts
    assert semi_mixed(S, 0.9, 0.75) == res
    assert semi_mixed(S, 0.5, 0.75) == small
    assert forward == [np.float32, np.float64]
    assert set(S.hats) == {np.float32, np.float64}
    for r, got in ((0.9, res), (0.5, small)):
        assert sparse_3d(S, got.witness, r) == got.max_density


def test_semi_mixed_matches_bruteforce(grid16):
    rng = np.random.default_rng(33)
    mask = rng.random(grid16.shape) < 0.3
    S = VoxelSet(grid16, mask)
    r = 0.9
    res = semi_mixed(S, r, delta=0.5)
    brute = max(sparse_3d(S, (i, j, k), r)
                for i in range(16) for j in range(16) for k in range(16))
    assert res.max_density == pytest.approx(brute, abs=0.0)  # exact integer counts
    assert sparse_3d(S, res.witness, r) == res.max_density


def test_semi_mixed_empty_and_ball(grid16):
    empty = VoxelSet(grid16, np.zeros(grid16.shape, dtype=bool))
    res = semi_mixed(empty, 0.8, 0.5)
    assert res.ok and res.max_density == 0.0
    # a ball of radius r is fully dense at its own center
    r = 0.9
    ball = VoxelSet(grid16, grid16.shell_index((4, 7, 9)) * grid16.spacing**2 <= r * r)
    res = semi_mixed(ball, r, 0.99)
    assert not res.ok
    assert res.max_density == 1.0


def test_semi_mixed_slab_stack():
    # period-4-voxel stack of single-voxel slabs: density ~ 1/4 for r >> period
    grid = Grid3(64)
    idx = np.arange(64)
    band = idx % 4 == 0
    mask = np.broadcast_to(band[None, :, None], grid.shape)
    S = VoxelSet(grid, np.ascontiguousarray(mask))
    res = semi_mixed(S, 1.5, delta=0.5)
    assert res.max_density == pytest.approx(0.25, abs=0.05)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_dilation_doubles_transition_scale():
    # dilating a set by 2 (index doubling onto a grid with doubled box, same
    # spacing) doubles the scale at which semi-mixedness first holds, within
    # a voxel
    delta = 0.5
    small = Grid3(16)
    S = VoxelSet(small, small.shell_index((8, 8, 8)) * small.spacing**2 <= 0.4**2)
    big = Grid3(32, box_len=2.0 * small.box_len)
    rep = np.repeat(np.repeat(np.repeat(S.mask, 2, 0), 2, 1), 2, 2)
    D = VoxelSet(big, np.ascontiguousarray(rep))

    def transition(voxset, radii):
        for r in radii:
            if semi_mixed(voxset, float(r), delta).ok:
                return float(r)
        raise AssertionError("no transition found")

    radii = np.linspace(0.42, 1.6, 60)
    r_small = transition(S, radii)
    r_big = transition(D, 2.0 * radii)
    assert abs(r_big - 2.0 * r_small) <= 2.0 * small.spacing + 0.05


def test_z_alpha_zero_field(grid16):
    with pytest.raises(ZeroFieldError):
        z_alpha_member(unit_x_field(grid16, 0.0), 0.5, admissible_pair(0.75), 2.0)


def test_z_alpha_scale_range_error(grid16):
    # tiny sup norm pushes the scale past box_len/2
    f = unit_x_field(grid16, 1e-8)
    data = f.data.copy()
    data[0, 0, 0, 0] = 2e-8  # nonzero, non-constant
    with pytest.raises(ScaleRangeError):
        z_alpha_member(VectorField(grid16, data), 0.5, admissible_pair(0.75), 1.5)


def test_z_alpha_blob_pass_and_fail():
    from morrey_sparse.fields import vorticity_blob
    from morrey_sparse.grid import sup_norm

    grid = Grid3(32)
    pair = admissible_pair(0.75)
    alpha = 0.5
    # small blob: the set where a component is large has diameter << scale
    f_small = vorticity_blob(grid, (16, 16, 16), sigma=0.35, amplitude=1.0)
    scale = sup_norm(f_small) ** (-alpha)  # = 1
    ok, witnesses = z_alpha_member(f_small, alpha, pair, c0=1.5)
    assert ok and not witnesses
    # inflating the blob until its core fills every tested ball defeats
    # membership (the level-set cigar swallows all scales below c0)
    f_big = vorticity_blob(grid, (16, 16, 16), sigma=1.5, amplitude=1.0)
    ok_big, wit_big = z_alpha_member(f_big, alpha, pair, c0=1.2)
    assert not ok_big
    assert len(wit_big) == 10  # truncated witness list


def test_z_alpha_one_forward_transform_per_set(monkeypatch):
    import scipy.fft

    from morrey_sparse.fields import vorticity_blob

    f = vorticity_blob(Grid3(32), (16, 16, 16), sigma=1.5, amplitude=1.0)
    forward = [0]
    rfftn = scipy.fft.rfftn

    def counting(a, *args, **kwargs):
        forward[0] += 1
        return rfftn(a, *args, **kwargs)

    monkeypatch.setattr(scipy.fft, "rfftn", counting)
    ok, witnesses = z_alpha_member(f, 0.5, admissible_pair(0.75), c0=1.2)
    assert not ok and len(witnesses) == 10
    assert forward[0] == len(SET_LABELS)  # one per mask, shared by all 9 scales
