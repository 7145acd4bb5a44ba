"""Local, complementary-local, and global Morrey-type quasi-norms.

The scale weight is the truncated power law ``w(s) = s^(-nu)`` on ``[rho, 1]``
and zero elsewhere.  Norms take an L^theta average (or sup, theta = inf) in
the scale variable of weighted local L^p ball norms.  The L^theta(0, inf)
integral truncates exactly to the weight support; quadrature over the scale
nodes is trapezoidal in log r.  Every norm reduces its scale axis through
one streaming fold (``_fold_scales``): the sup keeps a running max, and a
finite theta also keeps the quadrature sum relative to that max, rescaled
whenever the max rises, so no power overflows for any theta and no per-scale
stack is built.

Caveat: fields live on a torus, so complement-of-ball norms count everything
in one fundamental cell outside the ball.  For fields that are not compactly
supported well inside a cell this differs from the whole-space quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import Field, Grid3, _shell_rank, magnitude_power, radial_shells, sliding_ball_power_multi


@dataclass(frozen=True)
class WeightSpec:
    """Truncated power weight w(s) = s^(-nu) * 1_[rho, 1].

    ``theta`` is the scale-integrability exponent; ``theta = math.inf`` selects
    the sup form.  ``log_tail`` flags the nu*theta == 1 edge case where the
    closed-form tail integrals switch to the logarithmic antiderivative.
    """

    nu: float
    rho: float = 0.0
    theta: float = math.inf

    def __post_init__(self) -> None:
        if self.nu < 0.0:
            raise ValueError(f"weight exponent must be >= 0, got nu={self.nu}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"lower cutoff must lie in [0, 1), got rho={self.rho}")
        if not self.theta > 1.0:
            raise ValueError(f"theta must lie in (1, inf], got {self.theta}")

    @property
    def log_tail(self) -> bool:
        return math.isfinite(self.theta) and math.isclose(self.nu * self.theta, 1.0, rel_tol=1e-12)

    def value(self, s):
        """Pointwise weight, vectorized; zero outside [rho, 1]."""
        s = np.asarray(s, dtype=np.float64)
        inside = (s >= self.rho) & (s <= 1.0) & (s > 0.0)
        out = np.zeros_like(s)
        np.power(s, -self.nu, out=out, where=inside)
        return out if out.ndim else float(out)


def decay_exponent(nu: float, theta: float) -> float:
    """K = nu (theta = inf) or (nu theta - 1)/theta: the scale exponent of the
    weight s^(-nu) in L^theta; the implication thresholds use E = -K."""
    return nu if math.isinf(theta) else (nu * theta - 1.0) / theta


@dataclass(frozen=True)
class MorreyParams:
    """Lebesgue exponent, scale weight, and quadrature nodes for one norm."""

    p: float
    weight: WeightSpec
    scales: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.p < 1.0:
            raise ValueError(f"p must be >= 1, got {self.p}")
        sc = tuple(float(s) for s in self.scales)
        if not sc:
            raise ValueError("scale list must be non-empty")
        if any(s <= 0.0 for s in sc) or any(b <= a for a, b in zip(sc, sc[1:])):
            raise ValueError("scales must be positive and strictly increasing")
        object.__setattr__(self, "scales", sc)

    @classmethod
    def default(cls, grid: Grid3, weight: WeightSpec, p: float = 2.0, count: int = 32,
                r_max: float = 1.0) -> "MorreyParams":
        """Log-spaced nodes on [max(rho, 2*spacing), r_max]."""
        return cls(p, weight, log_scale_nodes(grid, weight.rho, r_max, count))


def log_scale_nodes(grid: Grid3, rho: float, r_max: float = 1.0, count: int = 32) -> tuple[float, ...]:
    lo = max(rho, 2.0 * grid.spacing)
    if not lo < r_max:
        raise ValueError(f"empty scale range [{lo}, {r_max}]")
    return tuple(np.geomspace(lo, r_max, count))


class GmNorm(NamedTuple):
    value: float
    center: tuple[int, int, int]
    scale: float | None  # argmax scale for theta = inf, None otherwise


class ClassicalMorrey(NamedTuple):
    value: float
    center: tuple[int, int, int]
    scale: float


def _trapezoid_logr_coeffs(scales: np.ndarray) -> np.ndarray:
    """Coefficients c_i with  integral g(r) dr  ~=  sum_i c_i g(r_i).

    Trapezoid rule in u = log r:  integral g dr = integral g(r) r du.
    """
    if scales.size == 1:
        # a single node cannot support a quadrature; treat as a point mass of
        # unit log-width so homogeneity and monotonicity still hold
        return scales.copy()
    u = np.log(scales)
    du = np.diff(u)
    c = np.zeros_like(scales)
    c[:-1] += 0.5 * du
    c[1:] += 0.5 * du
    return c * scales


def _supported_scales(params: MorreyParams) -> np.ndarray:
    sc = np.asarray(params.scales)
    sc = sc[(sc >= params.weight.rho) & (sc <= 1.0)]
    if sc.size == 0:
        raise ValueError("no scale nodes inside the weight support")
    return sc


def _fold_scales(layers, scales: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Reduce the w(r_i)*v(r_i) layers, one per scale node and all of one
    shape, over the nodes per L^theta; returns the reduced values and, per
    point, the first node index that reaches the running max m.

    theta = inf keeps m.  Finite theta also keeps s = sum_i c_i (x_i / m)^theta
    with the log-r trapezoid coefficients c_i, rescaled by (m_old / m_new)^theta
    when m rises, so every ratio is <= 1 and no power can overflow; the
    result is m * s^(1/theta), which is 0 where m = 0.
    """
    finite = math.isfinite(theta)
    coeffs = _trapezoid_logr_coeffs(scales)
    layers = iter(layers)
    m = np.array(next(layers), dtype=np.float64)
    first = np.zeros(m.shape, dtype=np.int32)
    s = np.full(m.shape, coeffs[0]) if finite else None
    for i, x in enumerate(layers, start=1):
        rise = x > m
        if finite:
            q = np.minimum(x, m)
            np.divide(q, np.maximum(x, m), out=q, where=q > 0.0)  # 0/0 stays 0
            q **= theta
            np.multiply(s, q, out=s, where=rise)  # the old sum, at the new max
            q *= coeffs[i]
            np.copyto(q, coeffs[i], where=rise)  # the new max's own term
            s += q
        np.copyto(m, x, where=rise)
        np.copyto(first, i, where=rise)
    if finite:
        m *= s ** (1.0 / theta)
    return m, first


def _witness(values: np.ndarray, first: np.ndarray) -> tuple[float, tuple[int, int, int], int]:
    """The largest value, its first center in C order, and the node index
    that reaches it there."""
    flat = int(np.argmax(values))
    center = tuple(int(c) for c in np.unravel_index(flat, values.shape))
    return float(values.reshape(-1)[flat]), center, int(first.reshape(-1)[flat])


def _ball_power_profile(f: Field, p: float, center: tuple[int, int, int],
                        scales: np.ndarray) -> tuple[np.ndarray, float]:
    """integral of |f|^p over B_r(center) for every r in ``scales``, and over
    the whole torus, from per-shell sums around the center."""
    masses = np.cumsum(radial_shells(magnitude_power(f, p), f.grid, center)) * f.grid.voxel_volume
    return masses[_shell_rank(f.grid, scales)], float(masses[-1])


def lm_norm(f: Field, params: MorreyParams, center: tuple[int, int, int]) -> float:
    """Local Morrey-type quasi-norm centered at one voxel.

    theta < inf: log-trapezoid quadrature over the scale nodes of
    [w(r) ||f||_{L^p(B_r(center))}]^theta dr, to the power 1/theta;
    theta = inf: max over the nodes of w(r) ||f||_{L^p(B_r(center))}.
    """
    scales = _supported_scales(params)
    ball, _ = _ball_power_profile(f, params.p, center, scales)
    weighted = params.weight.value(scales) * ball ** (1.0 / params.p)
    return float(_fold_scales(weighted[:, None], scales, params.weight.theta)[0][0])


def clm_norm(f: Field, params: MorreyParams, center: tuple[int, int, int]) -> float:
    """Complementary local norm: L^p over the torus minus the ball."""
    scales = _supported_scales(params)
    ball, total = _ball_power_profile(f, params.p, center, scales)
    comp = np.maximum(total - ball, 0.0) ** (1.0 / params.p)
    weighted = params.weight.value(scales) * comp
    return float(_fold_scales(weighted[:, None], scales, params.weight.theta)[0][0])


def gm_norm(f: Field, params: MorreyParams) -> GmNorm:
    """Global Morrey-type quasi-norm: sup over all voxel centers.

    One sliding ball pass per lattice shell among the scale nodes; never n^3
    independent local norms.
    """
    scales = _supported_scales(params)
    wvals = params.weight.value(scales)
    theta = params.weight.theta

    def layers():
        last = root = None
        for w, (_, power) in zip(wvals, sliding_ball_power_multi(f, params.p, scales)):
            if power is not last:  # nodes in one lattice shell share one array
                last, root = power, power ** (1.0 / params.p)
            yield w * root

    value, center, node = _witness(*_fold_scales(layers(), scales, theta))
    return GmNorm(value, center, float(scales[node]) if math.isinf(theta) else None)


def classical_morrey(f: Field, p: float, alpha: float, r_min: float, r_max: float,
                     scales=None, count: int = 32) -> ClassicalMorrey:
    """sup over centers and scales of r^(-alpha) * integral_{B_r(x)} |f|^p dy.

    Note the integral is NOT taken to the power 1/p; this is the raw local
    mass quantity.  Returns the sup with a witnessing (center, scale).
    """
    if not 0.0 < r_min < r_max <= 1.0:
        raise ValueError(f"need 0 < r_min < r_max <= 1, got [{r_min}, {r_max}]")
    if scales is None:
        scales = np.asarray(log_scale_nodes(f.grid, r_min, r_max, count))
    else:
        scales = np.asarray(sorted(float(s) for s in scales))
        if scales.size == 0 or scales[0] < r_min - 1e-12 or scales[-1] > r_max + 1e-12:
            raise ValueError("explicit scales must be non-empty and lie in [r_min, r_max]")
    layers = (power * r ** (-alpha) for r, power in sliding_ball_power_multi(f, p, scales))
    value, center, node = _witness(*_fold_scales(layers, scales, math.inf))
    return ClassicalMorrey(value, center, float(scales[node]))
