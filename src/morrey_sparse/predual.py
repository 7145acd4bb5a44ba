"""Closed-form weight-tail norms, dual weights, and the pairing (predual)
functional for truncated power weights.

The predual functional bounds integral |f g| against the global Morrey-type
norm of g: it is a scale-Stieltjes integral of complement-of-ball norms of f
against the derivative of the inverse tail norm, plus a global term.  The
tail norm of the truncated weight vanishes at scale 1, so the Stieltjes
density is set to zero past 1; the measure still blows up approaching 1 from
below, which makes the functional finite only when the mass of f sits within
distance 1 of the best center.  Gridded fields are sums of voxel point
masses, so the complement norm is a step function of the radius and the
Stieltjes integral is evaluated exactly (no quadrature error), one term per
lattice shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .grid import Field, ParameterError, magnitude_power, radial_shells, shell_table, sup_norm
from .morrey import WeightSpec

#: Frozen constant for the pairing inequality
#:     integral |f||g| <= HOLDER_CONSTANT * predual_bound(f) * gm_norm(g).
#: Provenance: max observed ratio 1.3342035913447365 over the seeded
#: calibration set of `calibrate_holder_constant` (n=16, 50 localized f /
#: global g pairs, the (p, theta, nu, rho) grid below), times a 1.25 safety
#: factor.  With the random fields cut Nyquist-clean the same set gives
#: 1.3104934858420378, below it, and the constant stays frozen.  Regenerate
#: with `calibrate_holder_constant()` if the norm kernels change.
HOLDER_CONSTANT = 1.6677544891809206


class DualWeightDomainError(ParameterError):
    """Dual weight requested where its defining integral is zero."""


def _tail_power_integral(w: WeightSpec, a: float) -> float:
    """integral_a^1 s^(-nu*theta) ds for a in [0, 1], finite theta; +inf when divergent."""
    nt = w.nu * w.theta
    if a >= 1.0:
        return 0.0
    if w.log_tail:
        return math.inf if a == 0.0 else math.log(1.0 / a)
    if a == 0.0:
        return math.inf if nt > 1.0 else 1.0 / (1.0 - nt)
    return (1.0 - a ** (1.0 - nt)) / (1.0 - nt)


def _head_power_integral(w: WeightSpec, b: float) -> float:
    """integral_rho^min(b,1) s^(-nu*theta) ds for finite theta; +inf when divergent."""
    nt = w.nu * w.theta
    hi = min(b, 1.0)
    if hi <= w.rho:
        return 0.0
    if w.rho == 0.0 and nt >= 1.0:
        return math.inf
    if w.log_tail:
        return math.log(hi / w.rho)
    return (hi ** (1.0 - nt) - w.rho ** (1.0 - nt)) / (1.0 - nt)


def weight_tail_norm(w: WeightSpec, t: float) -> float:
    """||w||_{L^theta(t, inf)} in closed form.

    Piecewise: constant on (0, rho], power-law core on (rho, 1), zero for
    t >= 1; logarithmic antiderivative when nu*theta == 1.
    """
    if t <= 0.0:
        raise ParameterError(f"t must be positive, got {t}")
    if t >= 1.0:
        return 0.0
    a = max(t, w.rho)
    if math.isinf(w.theta):
        return a ** (-w.nu) if a > 0.0 else math.inf
    return _tail_power_integral(w, a) ** (1.0 / w.theta)


def total_weight_norm(w: WeightSpec) -> float:
    """||w||_{L^theta(0, inf)} (tail norm at t -> 0+)."""
    if math.isinf(w.theta):
        if w.rho > 0.0:
            return w.rho ** (-w.nu)
        return math.inf if w.nu > 0.0 else 1.0
    return _tail_power_integral(w, w.rho) ** (1.0 / w.theta)


def dual_weight(w: WeightSpec, t: float, variant: str = "tilde") -> float:
    """Pointwise dual weight of the truncated power weight (theta < inf).

    ``tilde``: w(t)^(theta-1) / integral_t^inf w^theta; defined for t < 1.
    ``bar``:   w(t)^(theta-1) / integral_0^t w^theta; defined past rho.
    """
    if math.isinf(w.theta):
        raise ParameterError("dual weights are defined for theta < inf")
    if variant not in ("tilde", "bar"):
        raise ParameterError(f"unknown variant {variant!r}")
    wt = float(w.value(t))
    if variant == "tilde":
        denom = _tail_power_integral(w, max(t, w.rho))
        if denom <= 0.0:
            raise DualWeightDomainError(f"tail integral vanishes at t={t} (support ends at 1)")
        return wt ** (w.theta - 1.0) / denom
    denom = _head_power_integral(w, t)
    if denom == 0.0:
        raise DualWeightDomainError(f"head integral vanishes at t={t} (support starts at {w.rho})")
    if math.isinf(denom):
        return 0.0
    return wt ** (w.theta - 1.0) / denom


def dual_weight_power_law(nu: float, theta: float, t: float, variant: str = "tilde") -> float:
    """Dual weight of the untruncated power law w(s) = s^(-nu) on (0, inf)."""
    if not (t > 0.0 and math.isfinite(theta) and theta > 1.0):
        raise ParameterError("need t > 0 and finite theta > 1")
    nt = nu * theta
    if variant == "tilde":
        if nt <= 1.0:
            raise DualWeightDomainError("tail integral diverges unless nu*theta > 1")
        return (nt - 1.0) * t ** (nu - 1.0)
    if variant == "bar":
        if nt >= 1.0:
            raise DualWeightDomainError("head integral diverges unless nu*theta < 1")
        return (1.0 - nt) * t ** (nu - 1.0)
    raise ParameterError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# pairing functional
# ---------------------------------------------------------------------------

#: relative magnitude below which trailing field values count as support dust
SUPPORT_RTOL = 1e-12


class _Magnitudes(NamedTuple):
    """What the complement profiles of f at every center share: p', the
    values taken per shell (|f|^p', or |f| for a shell max at p' = inf) and
    the non-dust support mask."""

    pprime: float
    values: np.ndarray
    support: np.ndarray


def _magnitudes(f: Field, p: float) -> _Magnitudes:
    pprime = _conjugate(p)
    mag = magnitude_power(f, 1.0)
    values = magnitude_power(f, pprime) if math.isfinite(pprime) else mag
    # |f| against sup |f|, so the cut does not move with the amplitude of f
    return _Magnitudes(pprime, values, mag > SUPPORT_RTOL * mag.max())


def _complement_profile(f: Field, mags: _Magnitudes, center: tuple[int, int, int]):
    """||f||_{L^p'} outside balls around one center, by lattice shell: the
    shell radii h sqrt(m), ``beyond[i]`` = the norm outside the first i shells
    (a step function of the radius), and the support radius, the largest
    shell radius carrying non-dust mass."""
    grid = f.grid
    index = grid.shell_index(center)
    if math.isfinite(mags.pprime):
        mass = radial_shells(mags.values, grid, index) * grid.voxel_volume
        beyond = np.cumsum(mass[::-1])[::-1] ** (1.0 / mags.pprime)
    else:
        peaks = radial_shells(mags.values, grid, index, peak=True)
        beyond = np.maximum.accumulate(peaks[::-1])[::-1]
    radii = grid.spacing * np.sqrt(shell_table(grid).index)
    outer = int(np.max(index, where=mags.support, initial=-1))  # outermost carrying shell
    support = float(grid.spacing * np.sqrt(outer)) if outer >= 0 else 0.0
    return radii, np.append(beyond, 0.0), support


def _conjugate(p: float) -> float:
    """Hoelder conjugate exponent: inf for p = 1, 1 for p = inf."""
    if p < 1.0:
        raise ParameterError(f"p must be >= 1, got {p}")
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _inverse_tail_drop(w: WeightSpec, thetaprime: float, t: float) -> float:
    """g(t) = ||w||_{L^theta(t,inf)}^(-theta') for t < 1 (+inf at t >= 1)."""
    if math.isinf(w.theta):
        # theta' = 1; inverse sup-norm of the tail
        return max(t, w.rho) ** (w.nu * thetaprime)
    T = _tail_power_integral(w, max(t, w.rho))
    if T == 0.0:
        return math.inf
    if math.isinf(T):
        return 0.0
    return T ** (-thetaprime / w.theta)


def stieltjes_predual_integral(f: Field, p: float, w: WeightSpec,
                               center: tuple[int, int, int]) -> float:
    """Exact scale-Stieltjes integral
    integral_0^inf ||f||^{theta'}_{L^p'(complement of B_t(center))} d(||w||^{-theta'}_{L^theta(t,inf)}),
    with theta' = 1 at theta = inf (the measure d((t v rho)^nu)).

    The derivative vanishes on (0, rho] (constant tail) and is forced to zero
    for t >= 1 where the tail norm has vanished.  Complement norms are taken
    on the torus.  Gridded complement norms are exact step functions, so the
    integral is summed exactly over the shell-radius breakpoints.  It is 0
    when the support of f ends at or below rho; for finite theta it is +inf
    when f carries mass at distance >= 1 from the center (the measure is not
    integrable against a non-vanishing integrand there).
    """
    return _stieltjes(f, _magnitudes(f, p), w, center)


def _stieltjes(f: Field, mags: _Magnitudes, w: WeightSpec,
               center: tuple[int, int, int]) -> float:
    """:func:`stieltjes_predual_integral` from the field's :func:`_magnitudes`."""
    thetaprime = _conjugate(w.theta)
    radii, beyond, support = _complement_profile(f, mags, center)
    if beyond[0] == 0.0:
        return 0.0
    if support >= 1.0 and math.isfinite(w.theta):
        return math.inf
    lo, hi = w.rho, min(1.0, support + SUPPORT_RTOL)
    if hi <= lo:
        return 0.0
    # intervals [lo, first shell radius above lo), ..., [last below hi, hi]:
    # the complement of the ball of radius t is constant on each
    i0, i1 = np.searchsorted(radii, lo, side="right"), np.searchsorted(radii, hi, side="left")
    drops = [_inverse_tail_drop(w, thetaprime, t) for t in (lo, *radii[i0:i1], hi)]
    total = 0.0
    for c, g_left, g_right in zip(beyond[i0:i1 + 1], drops, drops[1:]):
        if c == 0.0:
            break
        total += c**thetaprime * (g_right - g_left)
    return float(total)


@dataclass(frozen=True)
class PredualBound:
    """Value and decomposition of the pairing bound at the witnessing center."""

    value: float
    center: tuple[int, int, int]
    stieltjes_term: float
    global_term: float


def _support_centroid(f: Field) -> tuple[int, int, int]:
    """|f|-weighted circular-mean voxel, robust on the torus."""
    grid = f.grid
    mag = magnitude_power(f, 1.0)
    ang = 2.0 * math.pi * np.arange(grid.n) / grid.n
    out = []
    for axis in range(3):
        m = mag.sum(axis=tuple(a for a in range(3) if a != axis))
        s, c = float(m @ np.sin(ang)), float(m @ np.cos(ang))
        out.append(int(round(math.atan2(s, c) / (2.0 * math.pi) * grid.n)) % grid.n)
    return tuple(out)


def candidate_centers(f: Field) -> list[tuple[int, int, int]]:
    """Support centroid of |f| plus its 26 one-voxel neighbors."""
    c = _support_centroid(f)
    return [tuple((ci + d) % f.grid.n for ci, d in zip(c, step))
            for step in product((-1, 0, 1), repeat=3)]


def predual_bound(f: Field, p: float, w: WeightSpec,
                  centers: list[tuple[int, int, int]] | None = None) -> PredualBound:
    """Pairing bound: (inf over candidate centers of the Stieltjes integral)^(1/theta')
    plus ||f||_{L^p'} / ||w||_{L^theta(0, inf)}.

    The inf runs over a small candidate set (default: support centroid of |f|
    and its 26 neighbors) rather than all voxels; for localized f the
    centered choice minimizes the integral.
    """
    wtotal = total_weight_norm(w)
    if wtotal == 0.0:
        raise ParameterError("degenerate weight (zero total norm)")
    mags = _magnitudes(f, p)
    if math.isfinite(mags.pprime):
        fnorm = float((mags.values.sum() * f.grid.voxel_volume) ** (1.0 / mags.pprime))
    else:
        fnorm = sup_norm(f)
    global_term = 0.0 if math.isinf(wtotal) else fnorm / wtotal
    centers = candidate_centers(f) if centers is None else centers
    vals = [_stieltjes(f, mags, w, c) for c in centers]
    best = int(np.argmin(vals))
    st = vals[best] ** (1.0 / _conjugate(w.theta))
    return PredualBound(st + global_term, centers[best], st, global_term)


def pairing_integral(f: Field, g: Field) -> float:
    """integral over the torus of |f(x)| |g(x)| dx (Euclidean magnitudes)."""
    if f.grid != g.grid:
        raise ParameterError("fields must share one grid")
    return float((magnitude_power(f, 1.0) * magnitude_power(g, 1.0)).sum() * f.grid.voxel_volume)


def calibrate_holder_constant(n: int = 16, pairs: int = 50, seed: int = 20240801) -> float:
    """Max observed pairing ratio over the seeded calibration ensemble.

    The frozen HOLDER_CONSTANT is this value times a 1.25 safety factor.
    Localized f (support inside the unit ball), global band-limited g, over a
    small (p, theta, nu, rho) grid.
    """
    from .grid import Grid3
    from .fields import localized_field, random_solenoidal_field
    from .morrey import MorreyParams, gm_norm

    grid = Grid3(n)
    configs = [
        (2.0, math.inf, 0.5, 0.25),
        (2.0, 2.0, 1.0, 0.25),
        (2.0, 2.0, 1.5, 0.1),
        (1.5, 3.0, 1.0, 0.2),
    ]
    worst = 0.0
    for i in range(pairs):
        fband = localized_field(grid, kmax=4, seed=seed + 2 * i, radius=0.85)
        gband = random_solenoidal_field(grid, kmax=4, seed=seed + 2 * i + 1)
        lhs = pairing_integral(fband, gband)
        for pp, th, nu, rho in configs:
            w = WeightSpec(nu=nu, rho=rho, theta=th)
            pb = predual_bound(fband, pp, w)
            gm = gm_norm(gband, MorreyParams.default(grid, w, p=pp)).value
            if pb.value > 0.0 and gm > 0.0 and math.isfinite(pb.value):
                worst = max(worst, lhs / (pb.value * gm))
    return worst
