import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft

from morrey_sparse import grid as grid_module
from morrey_sparse import morrey as morrey_module
from morrey_sparse.grid import (
    UNIT_BALL_VOLUME,
    Grid3,
    ScalarField,
    VectorField,
    ball_kernel,
    ball_lp_bruteforce,
    magnitude_power,
    sliding_ball_lp,
)
from morrey_sparse.morrey import (
    ClassicalMorrey,
    GmNorm,
    MorreyParams,
    WeightSpec,
    classical_morrey,
    clm_norm,
    gm_norm,
    lm_norm,
    log_scale_nodes,
)
from conftest import random_field, unit_x_field


def params_inf(grid, nu=0.5, rho=0.25, p=2.0, count=32):
    w = WeightSpec(nu=nu, rho=rho, theta=math.inf)
    return MorreyParams(p, w, tuple(np.geomspace(max(rho, 2 * grid.spacing), 1.0, count)))


# ---------------------------------------------------------------------------
# weight spec
# ---------------------------------------------------------------------------


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightSpec(nu=-0.1)
    with pytest.raises(ValueError):
        WeightSpec(nu=0.5, rho=1.0)
    with pytest.raises(ValueError):
        WeightSpec(nu=0.5, theta=1.0)
    w = WeightSpec(nu=0.5, rho=0.25, theta=2.0)
    assert w.log_tail  # nu * theta == 1
    assert not WeightSpec(nu=1.0, rho=0.25, theta=2.0).log_tail


def test_weight_value_support():
    w = WeightSpec(nu=0.5, rho=0.25)
    assert w.value(0.1) == 0.0
    assert w.value(1.5) == 0.0
    assert w.value(0.5) == pytest.approx(0.5**-0.5)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5])
def test_weight_value_nonincreasing_on_support(nu):
    # gm_norm folds each lattice shell as its first scale node: a later node
    # of the shell shares its ball power, so it cannot raise the max only if
    # its weight is no larger
    s = np.sort(np.concatenate([np.geomspace(0.2, 1.0, 500), [0.2, 0.2 + 1e-15, 1.0]]))
    w = WeightSpec(nu=nu, rho=0.2).value(s)
    assert (w > 0.0).all()
    assert (np.diff(w) <= 0.0).all()


# ---------------------------------------------------------------------------
# lm norm
# ---------------------------------------------------------------------------


def test_lm_constant_field(grid32):
    # max over r in [0.25, 1] of r^(-1/2) ||1||_{L^2(B_r)}; the continuum value
    # is sqrt(varpi) at r = 1, hit up to the voxelization of the unit ball
    f = unit_x_field(grid32)
    params = params_inf(grid32)
    val = lm_norm(f, params, (0, 0, 0))
    ideal = math.sqrt(UNIT_BALL_VOLUME)
    worst = max(ball_kernel(grid32, r).volume_error for r in params.scales)
    assert val == pytest.approx(ideal, rel=math.sqrt(1 + worst) - 1 + 1e-12)


def test_lm_zero_and_homogeneity(grid16):
    params = params_inf(grid16)
    z = unit_x_field(grid16, 0.0)
    assert lm_norm(z, params, (3, 3, 3)) == 0.0
    f = random_field(grid16, seed=4)
    v1 = lm_norm(f, params, (5, 5, 5))
    v2 = lm_norm(VectorField(grid16, 2.0 * f.data), params, (5, 5, 5))
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_lm_finite_theta_matches_quadrature_oracle(grid32):
    # independent oracle: direct trapezoid of [w v]^theta in log r (n=32, so
    # the smallest scale lies above the spacing)
    w = WeightSpec(nu=0.75, rho=0.2, theta=3.0)
    scales = tuple(np.geomspace(0.2, 1.0, 24))
    params = MorreyParams(2.0, w, scales)
    f = random_field(grid32, seed=9)
    center = (4, 11, 2)
    from morrey_sparse.grid import ball_lp_bruteforce

    vals = np.array([ball_lp_bruteforce(f, 2.0, center, r) for r in scales])
    g = (np.asarray(scales) ** -0.75 * vals) ** 3.0
    u = np.log(scales)
    integral = np.trapezoid(g * np.asarray(scales), u)
    assert lm_norm(f, params, center) == pytest.approx(integral ** (1 / 3.0), rel=1e-9)


# ---------------------------------------------------------------------------
# gm norm
# ---------------------------------------------------------------------------


def test_gm_constant_translation_invariance(grid16):
    f = unit_x_field(grid16)
    params = params_inf(grid16)
    res = gm_norm(f, params)
    assert res.value == pytest.approx(lm_norm(f, params, (3, 9, 14)), rel=1e-12)


def test_gm_matches_brute_force_all_centers(grid16):
    f = random_field(grid16, seed=13)
    params = params_inf(grid16, count=12)
    res = gm_norm(f, params)
    brute = max(lm_norm(f, params, (i, j, k))
                for i in range(16) for j in range(16) for k in range(16))
    assert res.value == pytest.approx(brute, rel=1e-9)


def test_gm_finite_theta_matches_brute_force(grid16):
    w = WeightSpec(nu=1.0, rho=0.45, theta=2.0)
    params = MorreyParams(2.0, w, tuple(np.geomspace(0.45, 1.0, 10)))
    f = random_field(grid16, seed=14)
    res = gm_norm(f, params)
    centers = [(i, j, k) for i in range(0, 16, 2) for j in range(0, 16, 2) for k in range(0, 16, 2)]
    brute = max(lm_norm(f, params, c) for c in centers)
    assert res.value >= brute * (1 - 1e-12)
    assert res.value == pytest.approx(lm_norm(f, params, res.center), rel=1e-9)


def test_gm_fold_matches_brute_force(grid16):
    # theta != p keeps the streaming fold over the lattice shells
    w = WeightSpec(nu=0.75, rho=0.3, theta=3.0)
    params = MorreyParams(1.5, w, tuple(np.geomspace(0.45, 1.0, 10)))
    f = random_field(grid16, seed=16)
    res = gm_norm(f, params)
    centers = [(i, j, k) for i in range(0, 16, 2) for j in range(0, 16, 2) for k in range(0, 16, 2)]
    brute = max(lm_norm(f, params, c) for c in centers)
    assert res.value >= brute * (1 - 1e-12)
    assert res.value == pytest.approx(lm_norm(f, params, res.center), rel=1e-9)


@pytest.mark.parametrize("p, rho", [(1.5, 0.0), (2.0, 0.3), (3.0, 0.45)])
def test_gm_theta_equals_p_matches_all_centers(grid16, p, rho):
    # theta = p is one convolution with the scale-integrated radial kernel:
    # the same value and first center as lm_norm at every center
    params = MorreyParams(p, WeightSpec(nu=0.75, rho=rho, theta=p),
                          log_scale_nodes(grid16, rho, 1.0, 12))
    f = random_field(grid16, seed=17)
    res = gm_norm(f, params)
    lms = [lm_norm(f, params, (i, j, k)) for i in range(16) for j in range(16) for k in range(16)]
    flat = int(np.argmax(lms))
    assert res.value == pytest.approx(lms[flat], rel=1e-12, abs=0.0)
    assert res.center == tuple(int(c) for c in np.unravel_index(flat, grid16.shape))
    assert res.scale is None


def test_gm_theta_equals_p_takes_three_transforms(grid32, monkeypatch):
    # |f|^p, the kernel and one inverse; no ball spectrum is built or read
    f = random_field(grid32, seed=18, kmax=8)
    params = MorreyParams.default(grid32, WeightSpec(nu=0.5, rho=0.0, theta=2.0), count=32)
    count = [0]

    def counting(fn):
        def wrapper(a, *args, **kwargs):
            count[0] += 1
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("rfftn", "irfftn"):
        monkeypatch.setattr(fft, name, counting(getattr(fft, name)))
    before = grid_module._ball_spectrum_cached.cache_info()
    gm_norm(f, params)
    assert count[0] == 3
    assert grid_module._ball_spectrum_cached.cache_info() == before


def test_gm_theta_equals_p_near_float_max(grid16):
    # the kernel is scaled to unit peak, so the convolution stays below the
    # torus total of |f|^2 and the peak (here about 9.6) is multiplied back
    # after the root: a total within 10x of float max gives the exact value
    f = unit_x_field(grid16, math.sqrt(np.finfo(np.float64).max / 8.0 / grid16.n**3))
    radius = 1.2 * grid16.spacing  # a 7-voxel ball
    params = MorreyParams(2.0, WeightSpec(nu=2.0, rho=0.0, theta=2.0), (radius,))
    expect = math.sqrt(radius * radius**-4.0 * 7 * grid16.voxel_volume) * f.data[0, 0, 0, 0]
    assert gm_norm(f, params).value == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("divisor", [2.0, 4.0, 1e2, 1e4])
def test_one_voxel_near_float_max(grid16, divisor):
    # |f|^2 = float max / divisor on one voxel: the spectral products of the
    # ball sums pass float max at 1e2 unless rescaled, and at 2 and 4 so does
    # |B| h^3 max|f|^2, the shell search's ball bound.  Every ball around the
    # voxel holds its whole mass, which gives the closed forms; the sliding
    # ball sums match the transform-free oracle
    data = np.zeros(grid16.shape)
    data[3, 4, 5] = math.sqrt(np.finfo(np.float64).max / divisor)
    f = ScalarField(grid16, data)
    mass = data[3, 4, 5] ** 2 * grid16.voxel_volume
    for theta in (math.inf, 2.0, 3.0):
        params = MorreyParams.default(grid16, WeightSpec(nu=0.5, theta=theta))
        scales = np.asarray(params.scales)
        w = params.weight.value(scales)
        c = 1.0 if math.isinf(theta) else morrey_module._trapezoid_logr_coeffs(scales)
        expect = math.sqrt(mass) * (w.max() if math.isinf(theta)
                                    else float(np.sum(c * w**theta)) ** (1.0 / theta))
        assert gm_norm(f, params).value == pytest.approx(expect, rel=1e-12), theta
    assert classical_morrey(f, 2.0, 1.0, 0.8, 1.0).value == pytest.approx(mass / 0.8, rel=1e-12)
    for r in (0.5, 0.9):
        lp = sliding_ball_lp(f, 2.0, r).data
        for center in ((3, 4, 5), (3, 4, 7)):
            assert lp[center] == pytest.approx(ball_lp_bruteforce(f, 2.0, center, r), rel=1e-12)


def test_gm_localized_argmax_near_support(grid32):
    from morrey_sparse.fields import vorticity_blob

    x0 = (6, 20, 28)
    f = vorticity_blob(grid32, x0, sigma=0.35)
    params = params_inf(grid32, rho=0.1)
    res = gm_norm(f, params)
    m = grid32.shell_index(x0)[res.center]
    assert grid32.spacing * math.sqrt(m) <= max(params.scales)


def test_gm_dominates_lm(grid16):
    f = random_field(grid16, seed=15)
    params = params_inf(grid16, count=8)
    res = gm_norm(f, params)
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = tuple(int(v) for v in rng.integers(0, 16, 3))
        assert res.value >= lm_norm(f, params, c) * (1 - 1e-12)


# ---------------------------------------------------------------------------
# clm norm
# ---------------------------------------------------------------------------


def test_clm_zero(grid16):
    assert clm_norm(unit_x_field(grid16, 0.0), params_inf(grid16), (0, 0, 0)) == 0.0


def test_clm_support_disjoint(grid32):
    # f supported inside B_rho(center) with weight on [rho, 1]: every
    # complement norm at r >= rho misses the support entirely
    from morrey_sparse.fields import radial_plateau

    rho = 0.5
    center = (16, 16, 16)
    data = np.zeros((3,) + grid32.shape)
    data[1] = radial_plateau(grid32.spacing * np.sqrt(grid32.shell_index(center)), 0.15, 0.35)
    f = VectorField(grid32, data)
    params = params_inf(grid32, rho=rho)
    assert clm_norm(f, params, center) == pytest.approx(0.0, abs=1e-12)


def test_clm_constant_full_mass(grid32):
    # nu = 0, rho = 0: the sup over scales of the complement L^2 norm is the
    # full torus norm, attained as r -> 0
    f = unit_x_field(grid32)
    w = WeightSpec(nu=0.0, rho=0.0, theta=math.inf)
    scales = tuple(np.geomspace(2 * grid32.spacing, 1.0, 32))
    params = MorreyParams(2.0, w, scales)
    val = clm_norm(f, params, (0, 0, 0))
    full = math.sqrt(grid32.box_len**3)
    assert val == pytest.approx(full, rel=2e-3)
    assert val <= full


# ---------------------------------------------------------------------------
# classical quantity
# ---------------------------------------------------------------------------


def test_classical_constant_field(grid32):
    f = unit_x_field(grid32)
    res = classical_morrey(f, 2.0, 1.0, 0.1, 0.8)
    ideal = UNIT_BALL_VOLUME * 0.8**2
    worst = max(ball_kernel(grid32, r).volume_error
                for r in np.geomspace(max(0.1, 2 * grid32.spacing), 0.8, 32))
    assert res.value == pytest.approx(ideal, rel=worst + 1e-12)


def test_classical_zero(grid16):
    res = classical_morrey(unit_x_field(grid16, 0.0), 2.0, 1.0, 0.1, 0.8)
    assert res.value == 0.0


def test_classical_scale_range_monotonicity(grid16):
    f = random_field(grid16, seed=17)
    scales = list(np.geomspace(0.45, 0.9, 12))
    full = classical_morrey(f, 2.0, 1.0, 0.45, 0.9, scales=scales)
    inner = classical_morrey(f, 2.0, 1.0, 0.45, 0.7, scales=[s for s in scales if s <= 0.7])
    tail = classical_morrey(f, 2.0, 1.0, 0.6, 0.9, scales=[s for s in scales if s >= 0.6])
    assert full.value >= inner.value * (1 - 1e-12)
    assert full.value >= tail.value * (1 - 1e-12)


def test_classical_scaling_covariance():
    # f_2(x) = 2 f(2x) sampled by exact tiling on the doubled grid: the
    # quantity at (x, r) of f_2 equals the quantity at (2x, 2r) of f for
    # p = 2, alpha = 1 (scaling-critical exponents)
    coarse = Grid3(16)
    fine = Grid3(32)
    f = random_field(coarse, seed=19, kmax=3)
    idx = np.arange(32) % 16
    tiled = f.data[:, idx][:, :, idx][:, :, :, idx]
    f2 = VectorField(fine, 2.0 * tiled)
    base_scales = np.geomspace(0.2, 0.5, 8)
    res_fine = classical_morrey(f2, 2.0, 1.0, 0.19, 0.51, scales=base_scales)
    res_coarse = classical_morrey(f, 2.0, 1.0, 0.39, 1.0, scales=2.0 * base_scales)
    assert res_fine.value == pytest.approx(res_coarse.value, rel=1e-6)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_monotone_in_rho(grid32):
    f = random_field(grid32, seed=23)
    scales = tuple(np.geomspace(2 * grid32.spacing, 1.0, 16))
    vals = []
    for rho in (0.0, 0.4, 0.6, 0.8):
        # steep weight so the sup sits at the small-scale end and the rising
        # cutoff genuinely bites
        w = WeightSpec(nu=2.0, rho=rho, theta=math.inf)
        params = MorreyParams(2.0, w, scales)
        vals.append(gm_norm(f, params).value)
    assert all(a >= b * (1 - 1e-12) for a, b in zip(vals, vals[1:]))
    assert vals[0] > vals[-1]  # the clipping actually bites


def test_quasinorm_triangle(grid16):
    params = params_inf(grid16, count=8)
    rng = np.random.default_rng(2)
    for trial in range(5):
        a = random_field(grid16, seed=300 + trial)
        b = random_field(grid16, seed=400 + trial)
        s = VectorField(grid16, a.data + b.data)
        c = tuple(int(v) for v in rng.integers(0, 16, 3))
        assert lm_norm(s, params, c) <= (lm_norm(a, params, c) + lm_norm(b, params, c)) * (1 + 1e-9)


def test_theta_large_approaches_sup(grid16):
    f = random_field(grid16, seed=29)
    scales = tuple(np.geomspace(0.45, 1.0, 32))
    w_inf = WeightSpec(nu=0.5, rho=0.45, theta=math.inf)
    w_big = WeightSpec(nu=0.5, rho=0.45, theta=1e6)
    v_inf = gm_norm(f, MorreyParams(2.0, w_inf, scales)).value
    v_big = gm_norm(f, MorreyParams(2.0, w_big, scales)).value
    assert v_big == pytest.approx(v_inf, rel=0.01)


def test_scales_below_spacing_rejected_by_every_norm(grid16):
    # one scale-validity rule (grid.shell_runs) for the local and global norms
    for theta in (math.inf, 2.0, 3.0):
        params = MorreyParams(2.0, WeightSpec(nu=0.5, theta=theta), (0.01, 0.5))
        f = random_field(grid16, seed=2)
        for norm in (lambda: lm_norm(f, params, (0, 0, 0)), lambda: clm_norm(f, params, (0, 0, 0)),
                     lambda: gm_norm(f, params)):
            with pytest.raises(ValueError, match=r"radius 0\.01 outside \(spacing, box_len/2\)"):
                norm()


def test_empty_scales_error(grid16):
    w = WeightSpec(nu=0.5, rho=0.25)
    with pytest.raises(ValueError):
        MorreyParams(2.0, w, ())
    params = MorreyParams(2.0, w, (0.1, 0.2))  # all nodes below the support
    with pytest.raises(ValueError):
        lm_norm(unit_x_field(grid16), params, (0, 0, 0))


def _per_scale_power(f, p, scales):
    """Reference for sliding_ball_power_multi: every radius builds its own
    ball and spectrum (the real part, as the ball is symmetric), one inverse
    transform per scale, fresh arrays."""
    power_hat = fft.rfftn(magnitude_power(f, p))
    for r in scales:
        ball = f.grid.shell_index() <= ball_kernel(f.grid, float(r)).shell
        ball_hat = fft.rfftn(ball.astype(np.float64)).real
        sums = fft.irfftn(power_hat * ball_hat, s=f.grid.shape, axes=(0, 1, 2))
        np.maximum(sums, 0.0, out=sums)
        yield float(r), sums * f.grid.voxel_volume


def _sup_reference(f, layers, scales):
    """The full sup-form fold: every node's layer at every voxel, nothing
    skipped; the max, its first center in C order, and the scale of the
    first node reaching it there."""
    best = np.full(f.grid.shape, -np.inf)
    arg = np.zeros(f.grid.shape, dtype=int)
    for i, layer in enumerate(layers):
        arg[layer > best] = i
        best = np.maximum(best, layer)
    flat = int(np.argmax(best))
    center = tuple(int(c) for c in np.unravel_index(flat, f.grid.shape))
    return float(best.reshape(-1)[flat]), center, float(scales[arg.reshape(-1)[flat]])


def _gm_sup_reference(f, params, power=_per_scale_power):
    """Sup-form gm_norm that evaluates every scale: no shared ball, no skip."""
    scales = np.asarray(params.scales)
    layers = (w * v ** (1.0 / params.p)
              for w, (_, v) in zip(params.weight.value(scales), power(f, params.p, scales)))
    return GmNorm(*_sup_reference(f, layers, scales))


def _classical_sup_reference(f, p, alpha, scales, power=_per_scale_power):
    """Sup-form classical_morrey that evaluates every scale and every voxel."""
    scales = np.asarray(scales)
    return ClassicalMorrey(*_sup_reference(f, (v * r ** (-alpha) for r, v in power(f, p, scales)),
                                           scales))


@pytest.mark.parametrize("theta", [math.inf, 2.0])
@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
def test_shared_shells_match_per_scale_reference(grid32, monkeypatch, theta, nu):
    # 64 nodes on [2h, 1] fall in far fewer lattice shells; norms and
    # witnesses equal a reference that never shares a ball between scales
    # (the blob puts the sup-form witness scale inside the range)
    from morrey_sparse.fields import vorticity_blob

    scales = np.geomspace(2.0 * grid32.spacing, 1.0, 64)
    assert len({ball_kernel(grid32, float(r)).shell for r in scales}) < 20
    params = MorreyParams(2.0, WeightSpec(nu=nu, rho=0.0, theta=theta), tuple(scales))
    f = vorticity_blob(grid32, (6, 20, 28), sigma=0.7)
    shared = gm_norm(f, params)
    if math.isinf(theta):
        assert shared == _gm_sup_reference(f, params)
    # alpha < 0: r^(-alpha) rises within a shell, so the witness is the
    # shell's last node, not its first
    for p, a in ((2.0, 1.0), (1.0, -0.5)):
        assert (classical_morrey(f, p, a, scales[0], 1.0, scales=scales)
                == _classical_sup_reference(f, p, a, scales))
    monkeypatch.setattr(morrey_module, "sliding_ball_power_multi", _per_scale_power)
    assert shared == gm_norm(f, params)


# ---------------------------------------------------------------------------
# the streaming scale fold
# ---------------------------------------------------------------------------


def _log_space_reduce(stack, scales, theta):
    """Reference L^theta reduction over axis 0 of a (scales, ...) stack: the
    log-r trapezoid sum taken as a max-shifted log-sum-exp."""
    coeffs = morrey_module._trapezoid_logr_coeffs(np.asarray(scales))
    with np.errstate(divide="ignore"):
        terms = theta * np.log(stack) + np.log(coeffs).reshape((-1,) + (1,) * (stack.ndim - 1))
    peak = terms.max(axis=0)
    with np.errstate(invalid="ignore"):
        total = peak + np.log(np.exp(terms - peak).sum(axis=0))
    return np.where(np.isfinite(peak), np.exp(total / theta), 0.0)


@pytest.mark.parametrize("theta", [1.5, 2.0, 3.0, 1e6])
def test_fold_matches_log_space_reference(grid16, theta):
    f = random_field(grid16, seed=31)
    scales = np.geomspace(2.0 * grid16.spacing, 1.0, 24)
    params = MorreyParams(3.0, WeightSpec(nu=0.75, rho=0.0, theta=theta), tuple(scales))
    wvals = params.weight.value(scales)
    stack = np.array([w * power ** (1.0 / 3.0) for w, (_, power)
                      in zip(wvals, grid_module.sliding_ball_power_multi(f, 3.0, scales))])
    expect = _log_space_reduce(stack, scales, theta).max()
    assert gm_norm(f, params).value == pytest.approx(expect, rel=1e-13, abs=0.0)
    for center in ((0, 0, 0), (5, 11, 2)):
        ball, total = grid_module.ball_power_profile(f, 3.0, center, scales)
        lm = _log_space_reduce(wvals * ball ** (1.0 / 3.0), scales, theta)
        clm = _log_space_reduce(wvals * np.maximum(total - ball, 0.0) ** (1.0 / 3.0), scales, theta)
        assert lm_norm(f, params, center) == pytest.approx(float(lm), rel=1e-13, abs=0.0)
        assert clm_norm(f, params, center) == pytest.approx(float(clm), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("theta", [math.inf, 2.0, 1e6])
@pytest.mark.parametrize("amplitude", [1e-100, 1e100])
def test_norms_homogeneous_at_extreme_amplitudes(grid16, amplitude, theta):
    # every power the fold raises is a ratio <= 1, so nothing overflows or
    # flushes to zero however large or small the field is
    f = random_field(grid16, seed=37)
    g = VectorField(grid16, amplitude * f.data)
    params = MorreyParams(2.0, WeightSpec(nu=0.5, rho=0.45, theta=theta),
                          tuple(np.geomspace(0.45, 1.0, 16)))
    center = (3, 8, 13)
    for norm in (lambda h: gm_norm(h, params).value, lambda h: lm_norm(h, params, center),
                 lambda h: clm_norm(h, params, center)):
        assert norm(g) == pytest.approx(amplitude * norm(f), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("theta", [math.inf, 2.0])
def test_gm_norm_allocation_independent_of_node_count(grid32, theta):
    # the fold keeps a few n^3 arrays; a (scales, n^3) stack of the 32 nodes
    # would hold 32 of them
    import tracemalloc

    f = random_field(grid32, seed=41, kmax=8)
    params = MorreyParams.default(grid32, WeightSpec(nu=0.5, rho=0.1, theta=theta), count=32)
    gm_norm(f, params)  # warm the ball-spectrum cache
    tracemalloc.start()
    try:
        gm_norm(f, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * grid32.n**3


# ---------------------------------------------------------------------------
# the sup-form shell search
# ---------------------------------------------------------------------------


def _sup_fields(grid, p):
    from morrey_sparse.fields import vorticity_blob
    from morrey_sparse.nse import initial_condition

    point = np.zeros(grid.shape)
    point[3, 4, 5] = (np.finfo(np.float64).max / 4.0) ** (1.0 / p)  # |f|^p near float max
    return {"taylor_green": initial_condition("taylor-green", grid),  # symmetric ties
            "zero": unit_x_field(grid, 0.0),
            "constant": unit_x_field(grid),
            "blob": vorticity_blob(grid, (6, 20, 28), sigma=max(0.35, 1.5 * grid.spacing)),
            "random": random_field(grid, seed=43, kmax=8),
            "point_mass": ScalarField(grid, point)}


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("field", ["taylor_green", "zero", "constant", "blob", "random",
                                   "point_mass"])
def test_shell_search_matches_full_evaluation(field, p):
    # values, first centers and scales equal the fold over every node of
    # every shell at every voxel, with the same ball-power arithmetic: the
    # nesting, ball-volume and ring bounds skip only shells strictly below
    # the sup, at n=16 and n=32
    full = grid_module.sliding_ball_power_multi
    for grid in (Grid3(16), Grid3(32)):
        f = _sup_fields(grid, p)[field]
        for nu in (0.0, 0.5, 1.0):
            params = MorreyParams.default(grid, WeightSpec(nu=nu, rho=0.0), p=p, count=32)
            assert gm_norm(f, params) == _gm_sup_reference(f, params, power=full), (grid, nu)
        scales = log_scale_nodes(grid, 0.1, 1.0, 32)
        for alpha in (1.0, 0.0, -0.5):
            assert (classical_morrey(f, p, alpha, 0.1, 1.0)
                    == _classical_sup_reference(f, p, alpha, scales, power=full)), (grid, alpha)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("amplitude", [2.0, 0.7])
def test_shell_search_near_tie(grid32, p, amplitude):
    # one nonzero voxel: every ball around it holds the same mass, so every
    # shell's largest ball integral is the torus mass up to the transform's
    # rounding, closer than the 1e-12 slack; with a flat weight the sup and
    # its witness are decided by rounding alone (shells tie exactly, at
    # different first centers), and still match
    data = np.zeros(grid32.shape)
    data[5, 9, 30] = amplitude
    f = grid_module.ScalarField(grid32, data)
    full = grid_module.sliding_ball_power_multi
    params = MorreyParams.default(grid32, WeightSpec(nu=0.0, rho=0.0), p=p, count=48)
    masses = [float(v.max()) for _, v in full(f, p, params.scales)]
    assert max(masses) - min(masses) < 1e-12 * amplitude**p * grid32.voxel_volume
    assert gm_norm(f, params) == _gm_sup_reference(f, params, power=full)
    scales = np.asarray(params.scales)
    assert (classical_morrey(f, p, 0.0, scales[0], 1.0, scales=scales)
            == _classical_sup_reference(f, p, 0.0, scales, power=full))


def test_shell_search_skips_shells_of_a_localized_blob(grid32, monkeypatch):
    # a blob's ball integrals stop growing once the ball holds it, so the
    # larger shells' caps fall below the small-scale max and are never
    # transformed
    from morrey_sparse.fields import vorticity_blob

    f = vorticity_blob(grid32, (6, 20, 28), sigma=0.35)
    params = MorreyParams.default(grid32, WeightSpec(nu=1.0, rho=0.0), count=32)
    shells = grid_module.shell_runs(grid32, params.scales).start.size
    inverses = []
    real = grid_module.ball_convolution
    monkeypatch.setattr(morrey_module, "ball_convolution",
                        lambda *a: inverses.append(1) or real(*a))
    res = gm_norm(f, params)
    assert len(inverses) < shells // 2, (len(inverses), shells)
    monkeypatch.undo()
    assert res == _gm_sup_reference(f, params, power=grid_module.sliding_ball_power_multi)


def test_shell_search_of_a_zero_field_takes_one_transform(grid32, monkeypatch):
    # every bound of a zero field is 0, so the first shell transformed answers
    # for all of them: value 0 at voxel 0 and the first node, as the search
    # that transformed every shell gave; the carrier then holds g = 0 with
    # zero bounds, and the next field searches as a fresh one
    zero = unit_x_field(grid32, 0.0)
    params = MorreyParams.default(grid32, WeightSpec(nu=0.5), count=32)
    bounds = morrey_module._ShellBounds(grid32, 2.0)
    calls = []
    real = grid_module.ball_convolution
    with monkeypatch.context() as patch:
        patch.setattr(morrey_module, "ball_convolution", lambda *a: calls.append(1) or real(*a))
        res = gm_norm(zero, params, bounds=bounds)
        assert len(calls) == 1
        assert classical_morrey(zero, 2.0, 1.0, 0.3, 1.0) == _classical_sup_reference(
            zero, 2.0, 1.0, log_scale_nodes(grid32, 0.3, 1.0, 32))
        assert len(calls) == 2
    assert res == _gm_sup_reference(zero, params) == GmNorm(0.0, (0, 0, 0), params.scales[0])
    key = np.searchsorted(grid_module.shell_table(grid32).index,
                          grid_module.shell_runs(grid32, params.scales).shell)
    assert bounds.mass == 0.0 and not bounds.power.any() and not bounds.top[key].any()
    f = random_field(grid32, seed=5)
    assert gm_norm(f, params, bounds=bounds) == gm_norm(f, params)


@pytest.fixture(scope="module")
def short_tg_traj():
    # a short n=32 Taylor-Green run with a snapshot every step (at n=16 the
    # criterion's window [2h, 1] holds three shells, too few for any bound to
    # skip one)
    from morrey_sparse.nse import SolverConfig, simulate

    return simulate(SolverConfig(n=32, dt=1e-3, t_end=0.03, ic="taylor-green", snapshot_every=1))


def _criterion_transforms(traj, monkeypatch, fresh=False, field_mode="u"):
    """The criterion reports of the window opened at t = 0 on ``field_mode``,
    and the shell transforms they took; ``fresh`` searches each row without
    carried bounds."""
    from morrey_sparse import nse as nse_module
    from morrey_sparse.nse import CriterionSpec, evaluate_criteria

    calls = []
    real = grid_module.ball_convolution
    with monkeypatch.context() as patch:
        patch.setattr(morrey_module, "ball_convolution", lambda *a: calls.append(1) or real(*a))
        if fresh:
            patch.setattr(nse_module, "gm_norm", lambda f, params, bounds: gm_norm(f, params))
        reports = evaluate_criteria(traj, [0.0], CriterionSpec(alpha=0.5, beta=0.5, nu_w=0.5,
                                                               c0=8.0, field_mode=field_mode))
    return reports, len(calls)


def test_ring_bound_cuts_criterion_transforms(short_tg_traj, monkeypatch):
    # the criterion rows, each searched afresh: the ring bound leaves the
    # reports as they were and saves a quarter of the shell transforms (90 of
    # 120)
    reports, with_ring = _criterion_transforms(short_tg_traj, monkeypatch, fresh=True)
    monkeypatch.setattr(morrey_module, "_ring_bound",
                        lambda volume, *_: np.full(volume.shape, math.inf))
    without, transforms = _criterion_transforms(short_tg_traj, monkeypatch, fresh=True)
    assert without == reports
    assert with_ring < transforms
    assert with_ring <= 90


def test_carried_bounds_cut_criterion_transforms(short_tg_traj, monkeypatch):
    # each row's search starts from the previous snapshot's shell bounds,
    # scaled by the decay of |f|^p's mass: the reports are those of fresh
    # searches, in 20 shell transforms instead of 90 on u and on omega, one per
    # row after the first
    for mode in ("u", "omega"):
        reports, carried = _criterion_transforms(short_tg_traj, monkeypatch, field_mode=mode)
        fresh, transforms = _criterion_transforms(short_tg_traj, monkeypatch, fresh=True,
                                                  field_mode=mode)
        assert reports == fresh, mode
        assert carried <= 20 < transforms, (mode, carried, transforms)


def _spike(grid, index, divisor, p):
    data = np.zeros(grid.shape)
    data[index] = (np.finfo(np.float64).max / divisor) ** (1.0 / p)
    return ScalarField(grid, data)


@pytest.fixture(scope="module")
def short_runs():
    # n=32 random and ABC runs with a snapshot every step: |u|^p's mass
    # decays, so the carried bounds are scaled down at each step
    from morrey_sparse.nse import SolverConfig, simulate

    return {ic: [f for _, f in simulate(SolverConfig(n=32, dt=1e-3, t_end=0.003, ic=ic,
                                                     snapshot_every=1, seed=5)).snapshots]
            for ic in ("random", "abc")}


def _cut_half(data):
    # the vector components on the lower half of the first axis, 0 elsewhere
    n = data.shape[-1]
    return np.where(np.arange(n)[:, None, None] < n // 2, data, 0.0)


def _scaled(f, factor, bump=None):
    data = factor * f.data
    if bump is not None:
        data[bump] += 0.5
    return VectorField(f.grid, data)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("nu", [0.0, 0.5])
def test_carried_bounds_match_fresh_search(short_tg_traj, short_runs, p, nu):
    # bounds carried from one field's search to the next: values, first
    # centers and scales equal a fresh search at every step, as the scale
    # window moves, where |f|^p rises by far (x4, from a zero field, or a
    # voxel near float max), where the next field is unrelated, and where the
    # mass falls so that g is scaled by q = mass_f / mass_g < 1 (uniform
    # decay, decay with a one-voxel rise, to a zero field, the decaying runs);
    # the first window spans every shell, the next ones [0.45, 1] and [0.2, 1],
    # and each sequence runs again with the first window throughout
    tg = [f for _, f in short_tg_traj.snapshots[:4]]
    grid = tg[0].grid
    sequences = {
        "taylor_green": tg,
        "unrelated": [tg[0], random_field(grid, seed=7, kmax=8)],
        "scaled_up": [tg[0], VectorField(grid, 4.0 * tg[0].data)],
        "from_zero": [unit_x_field(grid, 0.0), tg[-1]],
        # the small shells leave the window while the voxel rises, then return
        "spike": [_spike(grid, (3, 4, 5), 1e4, p), _spike(grid, (20, 4, 5), 2.0, p),
                  _spike(grid, (20, 4, 5), 2.0, p), _spike(grid, (3, 4, 5), 4.0, p)],
        "decay": [tg[0], _scaled(tg[0], 0.99), _scaled(tg[0], 0.98)],
        "decay_local_rise": [tg[0], _scaled(tg[0], 0.99, bump=(0, 9, 17, 3))],
        # half the mass goes, the other half stays where it was: no rise over
        # g, but a rise over q g
        "half_cut": [tg[0], VectorField(grid, _cut_half(tg[0].data))],
        "growth": [tg[0], _scaled(tg[0], 1.5)],
        "to_zero": [tg[0], unit_x_field(grid, 0.0)],
        **short_runs,
    }
    for name, fields in sequences.items():
        for windows in ((0.0, 0.45, 0.2, 0.0), (0.0,) * 4):
            bounds = morrey_module._ShellBounds(grid, p)
            for step, f in enumerate(fields):
                params = MorreyParams.default(grid, WeightSpec(nu=nu, rho=windows[step]), p=p,
                                              count=24)
                assert gm_norm(f, params, bounds=bounds) == gm_norm(f, params), (name, step)


@settings(max_examples=60)
@given(n=st.sampled_from((8, 12, 16)), p=st.sampled_from((1.0, 2.0, 3.0)),
       nu=st.sampled_from((0.0, 0.5)),
       steps=st.lists(st.tuples(st.sampled_from((None, None, 1, 2, "spike", "cut")),
                                st.sampled_from((0.0, 1e-300, 0.5, 0.99, 1.0, 1.01, 4.0)),
                                st.sampled_from((0.0, 0.3, 0.6))),
                      min_size=2, max_size=5))
def test_carried_search_equals_fresh_search_property(n, p, nu, steps):
    # a series of drawn fields, each either a new one (random or a one-voxel
    # spike), the last one, or the last one cut to one half of the box,
    # rescaled by a drawn factor, with a drawn scale window: the carried
    # search equals a fresh one at every step (value, first center in C
    # order, node)
    grid = Grid3(n, box_len=2.5)  # room for a few shells below r = 1 at n=8
    bounds = morrey_module._ShellBounds(grid, p)
    data = random_field(grid, seed=0).data
    for kind, factor, rho in steps:
        if kind == "spike":
            data = np.zeros((3,) + grid.shape)
            data[0, 1, 2, 3] = 1.0
        elif kind == "cut":
            data = _cut_half(data)
        elif kind is not None:
            data = random_field(grid, seed=kind).data
        data = factor * data
        f = VectorField(grid, data)
        params = MorreyParams.default(grid, WeightSpec(nu=nu, rho=rho), p=p, count=12)
        assert gm_norm(f, params, bounds=bounds) == gm_norm(f, params), (kind, factor, rho)


def test_carried_bounds_of_another_grid_or_p_are_ignored(short_tg_traj):
    # a carrier filled on another grid or at another p is neither read nor
    # written
    _, f = short_tg_traj.snapshots[1]
    params = MorreyParams.default(f.grid, WeightSpec(nu=0.5), p=2.0, count=24)
    for g, p in ((random_field(Grid3(16), seed=3), 2.0), (short_tg_traj.snapshots[0][1], 3.0)):
        bounds = morrey_module._ShellBounds(g.grid, p)
        gm_norm(g, MorreyParams.default(g.grid, WeightSpec(nu=0.5), p=p, count=24), bounds=bounds)
        power, top = bounds.power.copy(), bounds.top.copy()
        assert gm_norm(f, params, bounds=bounds) == gm_norm(f, params)
        assert np.array_equal(bounds.power, power) and np.array_equal(bounds.top, top)
