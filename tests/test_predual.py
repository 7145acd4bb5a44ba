import math

import numpy as np
import pytest
from scipy.integrate import quad

from morrey_sparse.grid import Grid3, ParameterError, VectorField
from morrey_sparse.fields import bump_gradient, localized_field, random_solenoidal_field
from morrey_sparse.morrey import MorreyParams, WeightSpec, gm_norm
from morrey_sparse.predual import (
    HOLDER_CONSTANT,
    DualWeightDomainError,
    calibrate_holder_constant,
    dual_weight,
    dual_weight_power_law,
    pairing_integral,
    predual_bound,
    stieltjes_predual_integral,
    total_weight_norm,
    weight_tail_norm,
)


# ---------------------------------------------------------------------------
# tail norms
# ---------------------------------------------------------------------------


def test_tail_norm_sup_form():
    w = WeightSpec(nu=0.5, rho=0.25, theta=math.inf)
    assert weight_tail_norm(w, 0.5) == pytest.approx(0.5**-0.5, rel=1e-12)
    assert weight_tail_norm(w, 0.1) == pytest.approx(0.25**-0.5, rel=1e-12)  # clamps at rho
    assert weight_tail_norm(w, 1.0) == 0.0
    assert weight_tail_norm(w, 2.0) == 0.0
    for t in (0.0, -1.0, math.nan):  # nan fails the accept-form check too
        with pytest.raises(ParameterError):
            weight_tail_norm(w, t)


def test_tail_norm_log_edge_case():
    # nu * theta = 1 switches to the logarithmic antiderivative
    w = WeightSpec(nu=0.5, rho=0.0, theta=2.0)
    assert w.log_tail
    assert weight_tail_norm(w, 0.25) == pytest.approx(math.sqrt(math.log(4.0)), rel=1e-12)


def test_tail_norm_power_form_vs_quadrature():
    w = WeightSpec(nu=1.25, rho=0.1, theta=2.0)
    for t in (0.05, 0.1, 0.3, 0.7, 0.95):
        num, _ = quad(lambda s: s ** (-w.nu * w.theta), max(t, w.rho), 1.0)
        assert weight_tail_norm(w, t) == pytest.approx(num ** (1 / w.theta), rel=1e-9)


def test_tail_norm_monotone_and_continuous():
    w = WeightSpec(nu=1.0, rho=0.2, theta=3.0)
    ts = np.linspace(1e-3, 1.2, 800)
    vals = np.array([weight_tail_norm(w, float(t)) for t in ts])
    assert (np.diff(vals) <= 1e-12).all()
    inside = (ts > 0.05) & (ts < 0.99)
    gaps = np.abs(np.diff(vals))[inside[:-1]]
    assert gaps.max() < 0.05  # no jumps on (0, 1)


def test_total_weight_norm():
    w = WeightSpec(nu=0.5, rho=0.25, theta=math.inf)
    assert total_weight_norm(w) == pytest.approx(2.0, rel=1e-12)
    w0 = WeightSpec(nu=0.5, rho=0.0, theta=math.inf)
    assert math.isinf(total_weight_norm(w0))


# ---------------------------------------------------------------------------
# dual weights
# ---------------------------------------------------------------------------


def test_dual_weight_power_law_closed_form():
    # untruncated power law: tilde dual is (nu theta - 1) t^(nu - 1)
    nu, theta = 1.0, 3.0
    for t in (0.2, 0.7, 1.5):
        num, _ = quad(lambda s: s ** (-nu * theta), t, np.inf)
        expected = t ** (-nu * (theta - 1.0)) / num
        got = dual_weight_power_law(nu, theta, t, "tilde")
        assert got == pytest.approx(expected, rel=1e-8)
        assert got == pytest.approx((nu * theta - 1.0) * t ** (nu - 1.0), rel=1e-12)


def test_dual_weight_truncated():
    w = WeightSpec(nu=1.0, rho=0.25, theta=2.0)
    t = 0.5
    num, _ = quad(lambda s: s ** (-2.0), t, 1.0)
    assert dual_weight(w, t, "tilde") == pytest.approx(t**-1.0 / num, rel=1e-9)
    assert dual_weight(w, 0.1, "tilde") == 0.0  # w vanishes below rho
    with pytest.raises(DualWeightDomainError):
        dual_weight(w, 1.0, "tilde")
    with pytest.raises(DualWeightDomainError):
        dual_weight(w, 1.5, "tilde")


def test_dual_weight_bar_variant():
    w = WeightSpec(nu=1.0, rho=0.25, theta=2.0)
    with pytest.raises(DualWeightDomainError):
        dual_weight(w, 0.25, "bar")  # zero head integral at t = rho
    t = 0.6
    num, _ = quad(lambda s: s ** (-2.0), 0.25, t)
    assert dual_weight(w, t, "bar") == pytest.approx(t**-1.0 / num, rel=1e-9)
    # rho = 0 with nu theta within rounding of 1 (the log tail): the head
    # integral diverges at 0, so the dual weight is 0
    for nu in (0.5 * (1 - 1e-14), 0.5, 0.5 * (1 + 1e-14)):
        assert dual_weight(WeightSpec(nu=nu, rho=0.0, theta=2.0), 0.5, "bar") == 0.0


# ---------------------------------------------------------------------------
# Stieltjes integral
# ---------------------------------------------------------------------------


def grid_and_bump(n=48, r=0.5):
    g = Grid3(n)
    c = (n // 2,) * 3
    return g, c, bump_gradient(g, c, 0.5 * r, r)


def test_stieltjes_zero_field():
    g = Grid3(16)
    w = WeightSpec(nu=1.0, rho=0.1, theta=2.0)
    z = VectorField(g, np.zeros((3,) + g.shape))
    assert stieltjes_predual_integral(z, 2.0, w, (0, 0, 0)) == 0.0


def test_stieltjes_nonnegative_and_monotone():
    g, c, f = grid_and_bump()
    w = WeightSpec(nu=1.0, rho=0.05, theta=2.0)
    v1 = stieltjes_predual_integral(f, 2.0, w, c)
    assert v1 >= 0.0
    bigger = VectorField(g, 2.0 * f.data)
    assert stieltjes_predual_integral(bigger, 2.0, w, c) >= v1


def test_stieltjes_support_inside_cutoff_vanishes():
    # f supported inside B_rho(center): the complement norm vanishes on the
    # whole carrier of the measure
    g = Grid3(32)
    c = (16, 16, 16)
    f = bump_gradient(g, c, 0.2, 0.35)
    w = WeightSpec(nu=1.0, rho=0.4, theta=2.0)
    assert stieltjes_predual_integral(f, 2.0, w, c) == 0.0


def test_stieltjes_convention_past_unit_scale():
    # the scale measure is supported in (rho, 1): its density is forced to 0
    # once the tail norm has vanished.  For mass sitting at distance > 1 the
    # complement norm stays constant over the whole carrier, so the finite
    # theta functional diverges (unbounded measure against a positive
    # constant) and the sup-form one integrates d((t v rho)^nu) exactly
    g = Grid3(32)
    c = (16, 16, 16)
    shell = bump_gradient(g, c, 1.05, 1.2)
    w = WeightSpec(nu=1.0, rho=0.1, theta=2.0)
    assert math.isinf(stieltjes_predual_integral(shell, 2.0, w, c))
    w_inf = WeightSpec(nu=1.0, rho=0.1, theta=math.inf)
    res = predual_bound(shell, 2.0, w_inf, centers=[c])
    fnorm = math.sqrt(float((shell.magnitude() ** 2).sum()) * g.voxel_volume)
    assert res.stieltjes_term == pytest.approx(fnorm * (1.0 - w_inf.rho**w_inf.nu), rel=1e-9)
    # no measure past scale 1: pushing the shell further out changes nothing
    # in the sup-form term beyond the norm factor itself
    far = bump_gradient(g, c, 1.3, 1.5)
    res_far = predual_bound(far, 2.0, w_inf, centers=[c])
    fnorm_far = math.sqrt(float((far.magnitude() ** 2).sum()) * g.voxel_volume)
    assert res_far.stieltjes_term == pytest.approx(
        fnorm_far * (1.0 - w_inf.rho**w_inf.nu), rel=1e-9)


def test_stieltjes_scaling_slope():
    # log-log slope of [integral]^(1/theta') in the bump radius matches
    # (3/p' - 1) + (nu theta - 1)/theta; geometrically similar grids keep the
    # discretization bias common to all radii
    w = WeightSpec(nu=1.5, rho=0.02, theta=2.0)
    radii = (0.1, 0.2, 0.4)
    sizes = (256, 128, 64)
    vals = []
    for r, n in zip(radii, sizes):
        g = Grid3(n)
        c = (n // 2,) * 3
        f = bump_gradient(g, c, 0.5 * r, r)
        vals.append(stieltjes_predual_integral(f, 2.0, w, c) ** 0.5)
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    target = (3.0 / 2.0 - 1.0) + (w.nu * w.theta - 1.0) / w.theta
    assert slope == pytest.approx(target, abs=0.1)


# ---------------------------------------------------------------------------
# predual bound
# ---------------------------------------------------------------------------


def test_predual_zero_field():
    g = Grid3(16)
    w = WeightSpec(nu=0.5, rho=0.25, theta=math.inf)
    res = predual_bound(VectorField(g, np.zeros((3,) + g.shape)), 2.0, w)
    assert res.value == 0.0


def test_predual_constant_field_global_term():
    # theta = inf, nu = 1/2, rho = 1/4: ||w|| = rho^(-1/2) = 2, so the global
    # term is (L^3)^(1/p') / 2
    g = Grid3(32)
    data = np.zeros((3,) + g.shape)
    data[0] = 1.0
    f = VectorField(g, data)
    w = WeightSpec(nu=0.5, rho=0.25, theta=math.inf)
    res = predual_bound(f, 2.0, w)
    assert res.global_term == pytest.approx(math.sqrt(g.box_len**3) * 0.5, rel=1e-12)


@pytest.mark.parametrize("scale", [3.0, 1e-5])
@pytest.mark.parametrize("p", [1.5, 2.0])
def test_predual_homogeneity(p, scale):
    # the support cut must not move with the amplitude of f, also for p' != 2
    g = Grid3(24)
    f = localized_field(g, kmax=4, seed=9, radius=0.8)
    w = WeightSpec(nu=1.0, rho=0.1, theta=2.0)
    a = predual_bound(f, p, w)
    b = predual_bound(VectorField(g, scale * f.data), p, w)
    assert b.value == pytest.approx(scale * a.value, rel=1e-9)


@pytest.mark.parametrize("theta", [math.inf, 2.0])
def test_predual_p1_matches_bruteforce_complement_sup(theta):
    # p = 1 (p' = inf): the complement norm is the sup of |f| outside the
    # ball; sum the Stieltjes integral edge by edge with masked maxima
    g = Grid3(24)
    f = bump_gradient(g, (12, 12, 12), 0.3, 0.6)
    w = WeightSpec(nu=0.5 if math.isinf(theta) else 1.0, rho=0.25, theta=theta)
    if math.isinf(theta):  # theta' = 1, measure d((t v rho)^nu)
        tp, drop, wnorm = 1.0, (lambda t: max(t, w.rho) ** w.nu), w.rho ** -w.nu
    else:  # theta' = 2 and nu theta = 2: tail integral 1/t - 1, to the power -1
        tp, drop = 2.0, (lambda t: 1.0 / (1.0 / max(t, w.rho) - 1.0))
        wnorm = math.sqrt(1.0 / w.rho - 1.0)
    mag = f.magnitude()
    for center in ((12, 12, 12), (13, 11, 12)):
        d = np.abs(np.indices(g.shape) - np.reshape(center, (3, 1, 1, 1)))
        dist = g.spacing * np.sqrt((np.minimum(d, g.n - d) ** 2).sum(axis=0))
        hi = float(dist[mag > 1e-12 * mag.max()].max()) + 1e-12
        assert hi < 1.0
        edges = [w.rho, *np.unique(dist[(dist > w.rho) & (dist < hi)]), hi]
        integral = sum(mag[dist > a].max() ** tp * (drop(b) - drop(a))
                       for a, b in zip(edges, edges[1:]))
        expected = integral ** (1.0 / tp) + mag.max() / wnorm
        res = predual_bound(f, 1.0, w, centers=[center])
        assert res.value == pytest.approx(expected, rel=1e-12)
        assert res.global_term == pytest.approx(mag.max() / wnorm, rel=1e-15)


def test_predual_degenerate_weight():
    g = Grid3(16)
    f = localized_field(g, kmax=3, seed=2, radius=0.8)
    # rho -> 1 shrinks the support to nothing; total norm 0 is impossible by
    # construction (rho < 1), so emulate with nu=0, rho near 1: norm stays
    # positive; instead check the error path via a monkeyed weight
    w = WeightSpec(nu=0.0, rho=0.999999, theta=2.0)
    res = predual_bound(f, 2.0, w)  # still fine: tiny but positive support
    assert res.value > 0.0


def test_holder_pairing_inequality_fresh_pairs():
    # fresh seeds, never used in calibration
    g = Grid3(16)
    w = WeightSpec(nu=0.5, rho=0.25, theta=math.inf)
    params = MorreyParams.default(g, w, p=2.0)
    for i in range(10):
        f = localized_field(g, kmax=4, seed=500_000 + 2 * i, radius=0.85)
        gg = random_solenoidal_field(g, kmax=4, seed=500_001 + 2 * i)
        lhs = pairing_integral(f, gg)
        rhs = HOLDER_CONSTANT * predual_bound(f, 2.0, w).value * gm_norm(gg, params).value
        assert lhs <= rhs


def test_holder_constant_provenance():
    # the frozen constant is 1.25 x the calibration maximum of its ensemble
    # as first drawn; the random g are Nyquist-clean since, and the ensemble's
    # maximum fell below it.  Kernel drift that moves the calibration would
    # silently invalidate the constant
    frozen, calibrated = 1.3342035913447365, 1.3104934858420378
    assert calibrate_holder_constant() == pytest.approx(calibrated, rel=1e-9)
    assert calibrated <= frozen and HOLDER_CONSTANT == 1.25 * frozen
