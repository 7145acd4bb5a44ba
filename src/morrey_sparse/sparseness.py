"""Super-level sets, 3D sparseness, admissible threshold/ratio pairs, and
the explicit constants of the sparseness implications.

Conventions.  A set is 3D delta-sparse around x0 at scale r when it fills at
most the fraction delta of B_r(x0) (voxel-counted); r-semi-mixed with ratio
delta when that holds at every center simultaneously.  Super-level sets use
strict inequality against lambda times the vector sup norm.

The implication constants c* and eps carry a bump-chain prefactor in place of
the generic smooth cutoff: the radial ramp is the polynomial smoothstep
3t^2 - 2t^3, whose gradient L^p norms have closed/one-dimensional-quadrature
forms.  The prefactor depends on the pair through the plateau fraction (there
is no absolute constant valid uniformly up to the admissibility boundary),
and is recorded alongside the derived constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import (UNIT_BALL_VOLUME, ParameterError, VectorField, VoxelSet, ball_kernel,
                   sliding_ball_sum, sup_norm)
from .morrey import WeightSpec, decay_exponent
from .predual import HOLDER_CONSTANT, _conjugate, total_weight_norm, weight_tail_norm

SET_LABELS = ("S_1+", "S_1-", "S_2+", "S_2-", "S_3+", "S_3-")

#: largest scale over which :func:`gm_chain_constant` minimizes its chain
CHAIN_R_MAX = 0.85

#: divisor of the Morrey-type chain prefactor
CHAIN_SAFETY = 1.2

#: end of the weight support the widened cutoff shell (1 + ramp) r must stay
#: inside: past it the pairing functional diverges and no threshold is sound
SHELL_END = 0.95

#: scale multipliers sampled inside (1/c0, c0) by :func:`z_alpha_member`
Z_ALPHA_SCALES = 9


class ZeroFieldError(ValueError):
    """Operation needs a nonzero field (sup norm vanished)."""


class InadmissiblePairError(ParameterError):
    """Requested (lambda, delta) violates 1/(1+lambda) < delta."""


class ScaleRangeError(ValueError):
    """Requested sparseness scale falls outside what the grid can resolve."""


@dataclass(frozen=True)
class PairLD:
    """Threshold/ratio pair (lambda, delta) with the slab-opening value h.

    Constructed by :func:`admissible_pair`; lambda then solves
    lambda*h + (1 - h) = 2*lambda exactly, and 1/(1+lambda) < delta holds.
    """

    lam: float
    delta: float
    h: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:  # first: admissible_pair relies on it
            raise ParameterError(f"delta must lie in (0,1), got {self.delta}")
        if not 0.0 < self.lam < 1.0:
            raise ParameterError(f"lambda must lie in (0,1), got {self.lam}")
        if not self.delta_lambda > 1.0:
            raise InadmissiblePairError(f"delta={self.delta} gives lambda={self.lam:.6f} with "
                                        f"1/(1+lambda)={1 / (1 + self.lam):.6f} >= delta")

    @property
    def delta_lambda(self) -> float:
        """delta (1 + lambda), above 1 for an admissible pair; every
        implication constant depends on the pair through it."""
        return self.delta * (1.0 + self.lam)

    @property
    def a_half(self) -> float:  # (delta (1 + lambda) - 1) / 2
        return (self.delta_lambda - 1.0) / 2.0

    @property
    def b_half(self) -> float:  # (delta (1 + lambda) + 1) / 2
        return (self.delta_lambda + 1.0) / 2.0


def admissible_pair(delta: float) -> PairLD:
    """The canonical admissible pair for a ratio delta.

    h = (2/pi) arcsin((1-delta^2)/(1+delta^2)) and lambda = (1-h)/(2-h); the
    pair is rejected (by :class:`PairLD`) unless 0 < delta < 1 and 1/(1+lambda) < delta.
    """
    h = (2.0 / math.pi) * math.asin((1.0 - delta * delta) / (1.0 + delta * delta))
    return PairLD((1.0 - h) / (2.0 - h), delta, h)


# ---------------------------------------------------------------------------
# level sets and sparseness measures
# ---------------------------------------------------------------------------


def superlevel_sets(f: VectorField, lam: float) -> dict[str, VoxelSet]:
    """Six masks {f_i^+- > lambda * ||f||_inf}, strict inequality.

    Keys follow SET_LABELS ("S_1+", "S_1-", ...).
    """
    if not 0.0 < lam < 1.0:
        raise ParameterError(f"lambda must lie in (0,1), got {lam}")
    sup = sup_norm(f)
    if sup == 0.0:
        raise ZeroFieldError("cannot threshold the zero field")
    thr = lam * sup
    out: dict[str, VoxelSet] = {}
    for i in range(3):
        out[SET_LABELS[2 * i]] = VoxelSet(f.grid, f.data[i] > thr)
        out[SET_LABELS[2 * i + 1]] = VoxelSet(f.grid, -f.data[i] > thr)
    return out


def sparse_3d(S: VoxelSet, center: tuple[int, int, int], r: float) -> float:
    """Voxel-counted density of S in the ball B_r(center), in [0, 1]."""
    kernel = ball_kernel(S.grid, r)
    return float(S.mask[kernel.mask(center)].sum()) / kernel.voxel_count


class SemiMixed(NamedTuple):
    ok: bool
    max_density: float
    witness: tuple[int, int, int]


def semi_mixed(S: VoxelSet, r: float, delta: float) -> SemiMixed:
    """Worst-case ball density over every center, via one mask convolution.

    The ball sums are the integer counts within 0.05 (the FFT path carries
    rounding dust): the largest sum, rounded and clipped to [0, |B|], is the
    largest count, its density that count over |B| in float64, and the
    witness the first voxel in C order whose sum reaches the count - 0.5.
    So the result matches per-center brute force exactly.
    """
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (0,1), got {delta}")
    voxel_count = ball_kernel(S.grid, r).voxel_count
    sums = sliding_ball_sum(S, r)
    count = min(max(round(float(sums.max())), 0), voxel_count)
    witness = tuple(int(c) for c in np.unravel_index(np.argmax(sums >= count - 0.5), S.grid.shape))
    max_density = count / voxel_count
    return SemiMixed(max_density <= delta, max_density, witness)


# ---------------------------------------------------------------------------
# implication constants
# ---------------------------------------------------------------------------


def kappa(pair: PairLD) -> float:
    """Plateau fraction kappa = cbrt((d(l+1)+1) / (2 d(l+1)))  in (2^-1/3, 1)."""
    return (pair.b_half / pair.delta_lambda) ** (1.0 / 3.0)


def _ramp_l2_moment(kap: float) -> float:
    """integral_0^1 q'(t)^2 (kappa + (1-kappa) t)^2 dt for q = 3t^2 - 2t^3."""
    return 1.2 * kap + (12.0 / 35.0) * (1.0 - kap) ** 2


def bump_chain_constant(pair: PairLD) -> float:
    """Prefactor replacing the generic constant in the L^2 implication.

    Derived from the smoothstep cutoff with plateau kappa*r: the cutoff
    gradient has exact L^2 norm sqrt(4 pi J(kappa) / (1-kappa)) r^(1/2), so a
    semi-mixedness violation forces
        sup_x ||f||_{L^2(B_r(x))} > cstar * r^(5/2) * ||curl f||_inf
    with cstar = cal * varpi * (1-kappa)^(-1/2) * (delta(1+lambda)-1)/2 and
    cal = (1-kappa) / sqrt(4 pi J(kappa)).  The prefactor vanishes at the
    admissibility boundary; no absolute constant works there.
    """
    kap = kappa(pair)
    return (1.0 - kap) / math.sqrt(4.0 * math.pi * _ramp_l2_moment(kap))


def cstar(pair: PairLD) -> float:
    """Threshold constant of the local-L^2 sparseness implication.

    cstar = cal * varpi * (1-kappa)^(-1/2) * (delta(1+lambda) - 1)/2, with
    cal the recorded bump-chain prefactor.
    """
    return (bump_chain_constant(pair) * UNIT_BALL_VOLUME * pair.a_half
            / math.sqrt(1.0 - kappa(pair)))


@lru_cache(maxsize=256)
def _ramp_lp_coeff(pprime: float, ramp: float) -> float:
    """[4 pi integral_0^1 q'(t)^p' (1 + ramp t)^2 dt]^(1/p') for the outer-shell
    smoothstep (plateau radius r, outer (1+ramp) r)."""
    t = np.linspace(0.0, 1.0, 4001)
    q = (6.0 * t * (1.0 - t)) ** pprime
    integrand = q * (1.0 + ramp * t) ** 2
    val = 4.0 * math.pi * float(np.trapezoid(integrand, t))
    return val ** (1.0 / pprime)


def ramp_fraction(pair: PairLD) -> float:
    """Shell-widening fraction eta with (1+eta)^3 = (delta(1+lambda)+1)/2."""
    return pair.b_half ** (1.0 / 3.0) - 1.0


def soundness_cap(pair: PairLD) -> float:
    """Largest scale r whose widened cutoff shell (1 + ramp) r ends by SHELL_END."""
    return SHELL_END / (1.0 + ramp_fraction(pair))


def gm_chain_constant(pair: PairLD, p: float, theta: float, alpha: float,
                      rho: float = 0.0) -> float:
    """Prefactor for the Morrey-type implication threshold.

    Closes the chain: semi-mixedness violation at scale r, the outer-shell
    smoothstep cutoff, the exact tail-norm drop bounds for the Stieltjes term,
    and the frozen pairing constant.  Minimized over r <= r_max (capped so the
    widened shell stays inside the weight support); the r-dependence cancels
    except through the tail-norm boundary factors.
    """
    pprime = _conjugate(p)
    if math.isinf(pprime):
        raise ParameterError("p = 1 gives an L^inf shell norm; unsupported here")
    ramp = ramp_fraction(pair)
    c1 = _ramp_lp_coeff(pprime, ramp)
    base = pair.a_half ** (1.0 / pprime) / (HOLDER_CONSTANT * c1 * ramp ** (1.0 / pprime))
    if math.isinf(theta):
        # the B and (r v rho) factors cancel exactly against the sup-form
        # tail drop; the minimum over r is the base itself
        return base / CHAIN_SAFETY
    if not alpha * theta > 1.0:
        raise ParameterError(f"need alpha*theta > 1, got {alpha * theta}")
    w = WeightSpec(nu=alpha, rho=rho, theta=theta)
    wtotal = total_weight_norm(w)
    total_inv = 0.0 if math.isinf(wtotal) else 1.0 / wtotal
    r_cap = min(CHAIN_R_MAX, soundness_cap(pair))
    e_neg = decay_exponent(alpha, theta)  # = -E > 0
    best = math.inf
    for r in np.geomspace(max(rho, 0.02), r_cap, 64):
        tail_at_shell = weight_tail_norm(w, min((1.0 + ramp) * r, 0.999))
        m_r = (1.0 / tail_at_shell if tail_at_shell > 0.0 else math.inf) + total_inv
        val = max(r, rho) ** e_neg * pair.b_half ** (e_neg / 3.0) / m_r
        best = min(best, val)
    return base * best / CHAIN_SAFETY


def eps_const(pair: PairLD, p: float, theta: float, alpha: float, rho: float = 0.0) -> float:
    """Threshold constant of the Morrey-type sparseness implication.

    eps = cal * varpi * ((d(1+l)-1)/2)^(1-1/p') * ((d(1+l)+1)/2)^E/3 * ramp
    with E = (1-alpha*theta)/theta (finite theta) or -alpha (theta = inf),
    ramp = :func:`ramp_fraction` and cal the chain prefactor of
    :func:`gm_chain_constant`.
    """
    cal = gm_chain_constant(pair, p, theta, alpha, rho=rho)  # rejects theta = 0 before the division
    pprime = _conjugate(p)
    e_exp = -decay_exponent(alpha, theta)
    return (cal * UNIT_BALL_VOLUME * pair.a_half ** (1.0 - 1.0 / pprime)
            * pair.b_half ** (e_exp / 3.0) * ramp_fraction(pair))


def shell_exponent(p: float, mode: str) -> float:
    """S = 4 - 3/p' (mode "curl") or 3 - 3/p' (mode "identity"): the power of
    the scale r in the Morrey-type implication threshold."""
    return (4.0 if mode == "curl" else 3.0) - 3.0 / _conjugate(p)


# ---------------------------------------------------------------------------
# sparseness-class membership
# ---------------------------------------------------------------------------


def z_alpha_member(f: VectorField, alpha: float, pair: PairLD, c0: float,
                   sets: dict | None = None) -> tuple[bool, list[tuple[int, int, int]]]:
    """Scale-comparable sparseness membership check.

    For every voxel x0, the dominant signed component (argmax of f_i^+-; ties:
    smallest index, then the positive part) must have its super-level set 3D
    delta-sparse around x0 at some scale (1/c) ||f||_inf^(-alpha) with c on a
    log grid inside (1/c0, c0).  Returns (ok, failing voxels truncated to 10).
    Membership is sound-for-pass at the sampled scales only.  ``sets`` are
    the :func:`superlevel_sets` of f at ``pair.lam``, if the caller has them.
    """
    if not (1.0 < c0 < math.inf and math.isfinite(alpha)):
        raise ParameterError(f"need c0 in (1, inf) and a finite alpha, got c0={c0}, alpha={alpha}")
    grid = f.grid
    sup = sup_norm(f)
    if sup == 0.0:
        raise ZeroFieldError("membership undefined for the zero field")
    base = sup ** (-alpha)
    cs = np.geomspace(1.0 / c0, c0, Z_ALPHA_SCALES + 2)[1:-1]
    scales = base / cs
    valid = (scales > grid.spacing) & (scales < grid.box_len / 2.0)
    if not valid.any():
        raise ScaleRangeError(
            f"all scales (1/c) ||f||^-alpha = {base:.3g}/c fall outside "
            f"({grid.spacing:.3g}, {grid.box_len / 2:.3g})")
    scales = scales[valid]

    # dominant signed component per voxel, as its SET_LABELS position
    comp = np.abs(f.data).argmax(axis=0)
    dominant = 2 * comp + (np.take_along_axis(f.data, comp[None], axis=0)[0] < 0.0)

    masks = list((sets or superlevel_sets(f, pair.lam)).values())
    ok_any = np.zeros((6,) + grid.shape, dtype=bool)
    for r in map(float, scales):
        # a ball passes when its sum is at most K + 0.5, K the largest count
        # with K/|B| <= delta by the division of semi_mixed (its rounding rule)
        size = ball_kernel(grid, r).voxel_count
        k = int(np.searchsorted(np.arange(size + 1) / size, pair.delta, "right")) - 1
        for si, S in enumerate(masks):
            ok_any[si] |= sliding_ball_sum(S, r) <= k + 0.5
    ok_vox = np.take_along_axis(ok_any, dominant[None], axis=0)[0]
    failing = np.argwhere(~ok_vox)
    witnesses = [tuple(int(v) for v in row) for row in failing[:10]]
    return bool(ok_vox.all()), witnesses
