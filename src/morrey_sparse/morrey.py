"""Local, complementary-local, and global Morrey-type quasi-norms.

The scale weight is the truncated power law ``w(s) = s^(-nu)`` on ``[rho, 1]``
and zero elsewhere.  Norms take an L^theta average (or sup, theta = inf) in
the scale variable of weighted local L^p ball norms.  The L^theta(0, inf)
integral truncates exactly to the weight support; quadrature over the scale
nodes is trapezoidal in log r.  The local norms and finite theta != p reduce
the scale axis through one streaming fold (``_fold_scales``): a running max
and the quadrature sum relative to it, rescaled when the max rises, so no
power overflows and no per-scale stack is built.  At theta = p the quadrature
and the ball integral commute (Tonelli): ``gm_norm`` convolves |f|^p once with
the kernel sum_i c_i w_i^p 1[ball of r_i].  The sups over all centers
(``gm_norm`` at theta = inf, ``classical_morrey``) take each lattice shell's
largest ball integral M_K and search the shells best first
(``_shell_search``).  Four bounds on M_K are exact: balls are nested, so M_K
is at most the M of any larger shell (or the torus mass); |B_K| voxels hold at
most |B_K| h^3 max|f|^p; M_K <= M_J + (|B_K| - |B_J|) h^3 max|f|^p for a
smaller shell J (the ring); and M_K(f) <= q M_K(g) + |B_K| h^3 max(|f|^p -
q |g|^p, 0), q = min(1, mass_f / mass_g), for the field g before f in a
series (``_ShellBounds``).  A shell whose layer at the least bound, widened
by 1e-12 of the torus mass for rounding, stays below the best value lies
strictly below the sup and is never transformed.

Caveat: fields live on a torus, so complement-of-ball norms count everything
in one fundamental cell outside the ball.  For fields that are not compactly
supported well inside a cell this differs from the whole-space quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import (Field, Grid3, ParameterError, ball_convolution, ball_power_profile,
                   convolve_spectra, magnitude_power, power_spectrum, radial_kernel_spectrum,
                   shell_runs, shell_table, sliding_ball_power_multi)


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
        if not 0.0 <= self.nu < math.inf:
            raise ParameterError(f"weight exponent must be finite and >= 0, got nu={self.nu}")
        if not 0.0 <= self.rho < 1.0:
            raise ParameterError(f"lower cutoff must lie in [0, 1), got rho={self.rho}")
        if not self.theta > 1.0:
            raise ParameterError(f"theta must lie in (1, inf], got {self.theta}")

    @property
    def log_tail(self) -> bool:
        return math.isfinite(self.theta) and math.isclose(self.nu * self.theta, 1.0, rel_tol=1e-12)

    def value(self, s):
        """Pointwise weight, vectorized; zero outside [rho, 1]."""
        s = np.asarray(s, dtype=np.float64)
        inside = (s >= self.rho) & (s <= 1.0) & (s > 0.0)
        out = np.zeros_like(s)
        with np.errstate(over="raise"):  # an overflowing weight raises FloatingPointError
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
        if not 1.0 <= self.p < math.inf:
            raise ParameterError(f"p must be finite and >= 1, got {self.p}")
        sc = tuple(float(s) for s in self.scales)
        if not sc:
            raise ParameterError("scale list must be non-empty")
        if any(s <= 0.0 for s in sc) or any(b <= a for a, b in zip(sc, sc[1:])):
            raise ParameterError("scales must be positive and strictly increasing")
        object.__setattr__(self, "scales", sc)

    @classmethod
    def default(cls, grid: Grid3, weight: WeightSpec, p: float = 2.0, count: int = 32,
                r_max: float = 1.0) -> "MorreyParams":
        """Log-spaced nodes on [max(rho, 2*spacing), r_max]."""
        return cls(p, weight, log_scale_nodes(grid, weight.rho, r_max, count))


def log_scale_nodes(grid: Grid3, rho: float, r_max: float = 1.0, count: int = 32) -> tuple[float, ...]:
    if count < 1:
        raise ParameterError(f"scale count must be >= 1, got {count}")
    lo = max(rho, 2.0 * grid.spacing)
    if not lo < r_max <= 1.0:
        raise ParameterError(f"scale range [{lo}, {r_max}] must be non-empty and end at most at 1")
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
        raise ParameterError("no scale nodes inside the weight support")
    return sc


def _fold_scales(layers, coeffs: np.ndarray, theta: float) -> np.ndarray:
    """Reduce the w(r_i)*v(r_i) layers, one per scale node and all of one
    shape, over the nodes per L^theta.

    theta = inf keeps the running max m.  Finite theta also keeps
    s = sum_i c_i (x_i / m)^theta with the quadrature coefficients ``coeffs``
    (one per layer), rescaled by (m_old / m_new)^theta when m rises, so every
    ratio is <= 1 and no power can overflow; the result is m * s^(1/theta),
    which is 0 where m = 0.
    """
    finite = math.isfinite(theta)
    layers = iter(layers)
    m = np.array(next(layers), dtype=np.float64)
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
    if finite:
        m *= s ** (1.0 / theta)
    return m


def _ring_bound(volume: np.ndarray, pmax: float, room: float) -> np.ndarray:
    """``volume`` max|f|^p where below ``room``, else inf (no bound, no overflow)."""
    return np.multiply(volume, pmax, out=np.full(volume.shape, math.inf), where=pmax < room / volume)


class _ShellBounds:
    """A series' last |g|^p on ``grid`` at ``p``, its torus mass, and, per
    shell of ``shell_table(grid)``, a bound on g's largest ball integral (its
    exact max widened by 1e-12 of g's mass if transformed, else the search's
    final bound).  The next field f scales g by q = min(1, mass_f / mass_g)
    (1 while mass_g = 0), so a decaying series carries bounds that decay with
    it: M_K(f) <= q M_K(g) + |B_K| h^3 max(|f|^p - q |g|^p, 0) for every
    q >= 0, the rise formed below f's mass and widened by 1e-12 of f's mass.
    Rounding stays far inside that slack wherever the bound is formed (then
    q M_K(g) < mass_f and the ring term is below mass_f): the rounded q|g|^p
    array G has integral at most (1 + 2^-53) q M_K(g) over any ball B (in the
    normal range), and int_B |f|^p = int_B G + int_B (|f|^p - G) exactly, so
    the products q|g|^p and q M_K(g) cost 2^-53 mass_f each and the difference
    2^-53 of the ring term; searches stay exact.  q = 1 multiplies exactly."""

    def __init__(self, grid: Grid3, p: float) -> None:
        self.grid, self.p, self.power, self.mass = grid, p, np.zeros(grid.shape), 0.0
        self.top = np.full(shell_table(grid).index.size, math.inf)


def _shell_search(f: Field, p: float, scales: np.ndarray, layer,
                  bounds: _ShellBounds | None = None) -> tuple[float, tuple[int, int, int], int]:
    """sup over centers x and nodes i of ``layer(i, v)`` (increasing in v,
    vectorized), v the integral of |f|^p over B_{scales[i]}(x), with its first
    center in C order and first node there; exact layers are taken only on
    the voxels within 1e-12 of a shell's largest ball sum.  ``bounds`` of the
    same grid and p adds (and then carries) the bounds of the previous field."""
    grid, h3 = f.grid, f.grid.voxel_volume
    power = magnitude_power(f, p)
    hat = power_spectrum(power)
    runs = shell_runs(grid, scales)
    mass = float(hat[0, 0, 0].real) * h3  # the torus integral of |f|^p
    pmax, cap = power.max(), runs.ball_count * h3
    top = np.minimum(_ring_bound(cap, pmax, mass), mass) + 1e-12 * mass  # ring from the empty ball
    carry = bounds is not None and (bounds.grid, bounds.p) == (grid, p)
    if carry:
        table = shell_table(grid)
        key = np.searchsorted(table.index, runs.shell)
        q = min(1.0, mass / bounds.mass) if bounds.mass > 0.0 else 1.0  # g at f's mass
        bounds.power *= q
        np.multiply(bounds.top, q, out=bounds.top, where=bounds.top < math.inf)  # no inf * 0
        rise = max(np.subtract(power, bounds.power, out=bounds.power).max(), 0.0)
        bounds.top += _ring_bound(table.ball_count * h3, rise, mass - bounds.top) + 1e-12 * mass
        np.minimum(top, bounds.top[key], out=top)
    done = np.zeros(runs.start.size, dtype=bool)
    best, records = -math.inf, []  # (-value, first center, node) per evaluated node
    while not done.all():
        bound = np.maximum.reduceat(layer(np.arange(scales.size), top[runs.run]), runs.start)
        bound[done] = -math.inf
        j = int(np.argmax(bound))
        if bound[j] * (1.0 + 1e-12) < best or bound[j] <= 0.0 <= best:  # 0: a zero field
            break
        done[j] = True
        sums = ball_convolution(hat, grid, int(runs.shell[j])).ravel()
        hi = sums.max()
        base = top[j] = max(hi, 0.0) * h3 + 1e-12 * mass  # M_J, widened for rounding
        np.minimum(top[:j], base, out=top[:j])
        np.minimum(top[j + 1:], _ring_bound(cap[j + 1:] - cap[j], pmax, mass - base) + base,
                   out=top[j + 1:])
        cand = np.flatnonzero(sums >= hi * (1.0 - 1e-12)) if hi > 0.0 else np.arange(1)
        v = np.maximum(sums[cand], 0.0) * h3  # hi <= 0: every layer is 0, first at voxel 0
        for i in np.flatnonzero(runs.run == j):
            x = layer(i, v)
            records.append((-x.max(), int(cand[np.argmax(x)]), int(i)))
            best = max(best, x.max())
    if carry:
        bounds.power, bounds.mass, bounds.top[key] = power, mass, top
    value, flat, node = min(records)
    return float(-value), tuple(int(c) for c in np.unravel_index(flat, grid.shape)), node


def _local_fold(f: Field, params: MorreyParams, center: tuple[int, int, int],
                complement: bool) -> float:
    """The scale fold of w(r) ||f||_{L^p(A_r)} at one center, A_r the ball
    B_r(center) or (``complement``) the torus minus it."""
    scales = _supported_scales(params)
    ball, total = ball_power_profile(f, params.p, center, scales)
    power = np.maximum(total - ball, 0.0) if complement else ball
    weighted = params.weight.value(scales) * power ** (1.0 / params.p)
    return float(_fold_scales(weighted[:, None], _trapezoid_logr_coeffs(scales),
                              params.weight.theta)[0])


def lm_norm(f: Field, params: MorreyParams, center: tuple[int, int, int]) -> float:
    """Local Morrey-type quasi-norm centered at one voxel.

    theta < inf: log-trapezoid quadrature over the scale nodes of
    [w(r) ||f||_{L^p(B_r(center))}]^theta dr, to the power 1/theta;
    theta = inf: max over the nodes of w(r) ||f||_{L^p(B_r(center))}.
    """
    return _local_fold(f, params, center, complement=False)


def clm_norm(f: Field, params: MorreyParams, center: tuple[int, int, int]) -> float:
    """Complementary local norm: L^p over the torus minus the ball."""
    return _local_fold(f, params, center, complement=True)


def gm_norm(f: Field, params: MorreyParams, *, bounds: _ShellBounds | None = None) -> GmNorm:
    """Global Morrey-type quasi-norm: sup over all voxel centers.

    theta = inf searches the lattice shells (:func:`_shell_search`) from the
    ``bounds`` of a series if given.  theta = p is one convolution of |f|^p with the scale-integrated kernel at unit peak
    (the peak taken back after the root).  Any other theta folds one sliding
    ball pass per shell as its first node (the nodes share one ball power and
    the weight is nonincreasing), coefficient sum_k c_k (w_k / w_first)^theta.
    """
    scales = _supported_scales(params)
    wvals = params.weight.value(scales)
    theta = params.weight.theta
    if math.isinf(theta):
        value, center, node = _shell_search(f, params.p, scales,
                                            lambda i, v: wvals[i] * v ** (1.0 / params.p), bounds)
        return GmNorm(value, center, float(scales[node]))
    if theta == params.p:
        spec, peak = radial_kernel_spectrum(f.grid, scales,
                                            _trapezoid_logr_coeffs(scales) * wvals**theta)
        values = convolve_spectra(power_spectrum(magnitude_power(f, theta)), spec, f.grid.n)
        np.maximum(values, 0.0, out=values)
        center = np.unravel_index(np.argmax(values), values.shape)
        value = (values[center] * f.grid.voxel_volume) ** (1.0 / theta) * peak ** (1.0 / theta)
        return GmNorm(float(value), tuple(int(c) for c in center), None)
    runs = shell_runs(f.grid, scales)
    w_first = wvals[runs.start][runs.run]
    coeffs = np.add.reduceat(_trapezoid_logr_coeffs(scales) * (wvals / w_first) ** theta,
                             runs.start)
    layers = (wvals[i] * power ** (1.0 / params.p) for i, (_, power)
              in enumerate(sliding_ball_power_multi(f, params.p, scales)) if i in runs.start)
    values = _fold_scales(layers, coeffs, theta)
    center = np.unravel_index(np.argmax(values), values.shape)
    return GmNorm(float(values[center]), tuple(int(c) for c in center), None)


def classical_morrey(f: Field, p: float, alpha: float, r_min: float, r_max: float,
                     scales=None, count: int = 32) -> ClassicalMorrey:
    """sup over centers and scales of r^(-alpha) * integral_{B_r(x)} |f|^p dy.

    Note the integral is NOT taken to the power 1/p; this is the raw local
    mass quantity.  Returns the sup with a witnessing (center, scale).
    """
    if not (1.0 <= p < math.inf and math.isfinite(alpha)):
        raise ParameterError(f"need a finite p >= 1 and a finite alpha, got p={p}, alpha={alpha}")
    if not 0.0 < r_min < r_max <= 1.0:
        raise ParameterError(f"need 0 < r_min < r_max <= 1, got [{r_min}, {r_max}]")
    if scales is None:
        scales = np.asarray(log_scale_nodes(f.grid, r_min, r_max, count))
    else:
        scales = np.asarray(sorted(float(s) for s in scales))
        if scales.size == 0 or scales[0] < r_min - 1e-12 or scales[-1] > r_max + 1e-12:
            raise ParameterError("explicit scales must be non-empty and lie in [r_min, r_max]")
    factor = np.array([r ** (-alpha) for r in scales.tolist()])
    value, center, node = _shell_search(f, p, scales, lambda i, v: v * factor[i])
    return ClassicalMorrey(value, center, float(scales[node]))
