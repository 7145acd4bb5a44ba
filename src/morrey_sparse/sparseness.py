"""Super-level sets, 1D/3D sparseness, admissible threshold/ratio pairs, and
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

from .grid import UNIT_BALL_VOLUME, VectorField, VoxelSet, ball_kernel, sliding_ball_sum, sup_norm
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


class InadmissiblePairError(ValueError):
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
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lambda must lie in (0,1), got {self.lam}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")
        if not self.delta_lambda > 1.0:
            raise InadmissiblePairError(
                f"need 1/(1+lambda) < delta: lambda={self.lam}, delta={self.delta}")

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
    pair is rejected when 1/(1+lambda) >= delta.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    h = (2.0 / math.pi) * math.asin((1.0 - delta * delta) / (1.0 + delta * delta))
    lam = (1.0 - h) / (2.0 - h)
    if not 1.0 / (1.0 + lam) < delta:
        raise InadmissiblePairError(
            f"delta={delta} gives lambda={lam:.6f} with 1/(1+lambda)={1 / (1 + lam):.6f} >= delta")
    return PairLD(lam, delta, h)


# ---------------------------------------------------------------------------
# level sets and sparseness measures
# ---------------------------------------------------------------------------


def superlevel_sets(f: VectorField, lam: float) -> dict[str, VoxelSet]:
    """Six masks {f_i^+- > lambda * ||f||_inf}, strict inequality.

    Keys follow SET_LABELS ("S_1+", "S_1-", ...).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0,1), got {lam}")
    sup = sup_norm(f)
    if sup == 0.0:
        raise ZeroFieldError("cannot threshold the zero field")
    thr = lam * sup
    out: dict[str, VoxelSet] = {}
    for i in range(3):
        out[SET_LABELS[2 * i]] = VoxelSet(f.grid, f.data[i] > thr)
        out[SET_LABELS[2 * i + 1]] = VoxelSet(f.grid, -f.data[i] > thr)
    return out


def _count_fraction(counts, voxel_count: int):
    """Ball sums of a 0/1 mask as fractions of the ball.

    The sums are integers; the FFT path carries rounding dust, so they are
    rounded back and clipped to [0, voxel_count] before dividing.  Both steps
    are monotone, so the fraction of a max is the max of the fractions.  The
    division is in float64 whatever precision the counts came in.
    """
    return np.clip(np.rint(counts), 0.0, voxel_count).astype(np.float64) / voxel_count


def sparse_3d(S: VoxelSet, center: tuple[int, int, int], r: float) -> float:
    """Voxel-counted density of S in the ball B_r(center), in [0, 1]."""
    kernel = ball_kernel(S.grid, r)
    inside = S.grid.shell_index(center) <= kernel.shell
    return float(S.mask[inside].sum()) / kernel.voxel_count


class SemiMixed(NamedTuple):
    ok: bool
    max_density: float
    witness: tuple[int, int, int]


def semi_mixed(S: VoxelSet, r: float, delta: float) -> SemiMixed:
    """Worst-case ball density over every center, via one mask convolution.

    Counts are rounded back to integers (see :func:`_count_fraction`), so the
    result matches per-center brute force exactly.
    """
    density = _count_fraction(sliding_ball_sum(S, r), ball_kernel(S.grid, r).voxel_count)
    flat = int(np.argmax(density))
    witness = tuple(int(c) for c in np.unravel_index(flat, S.grid.shape))
    max_density = float(density.reshape(-1)[flat])
    return SemiMixed(max_density <= delta, max_density, witness)


def max_densities(sets: list[VoxelSet], r: float) -> tuple[float, ...]:
    """Per set, the ``max_density`` of :func:`semi_mixed` at scale r (one
    inverse transform each)."""
    voxel_count = ball_kernel(sets[0].grid, r).voxel_count
    return tuple(float(_count_fraction(sliding_ball_sum(S, r).max(), voxel_count))
                 for S in sets)


def fibonacci_directions(count: int) -> np.ndarray:
    """(count, 3) unit vectors on the golden-angle spiral."""
    if count < 2:
        raise ValueError("need at least two directions")
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    rad = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([rad * np.cos(phi), rad * np.sin(phi), z], axis=1)


def segment_trace_ratios(S: VoxelSet, center: tuple[int, int, int], r: float,
                         dirs: np.ndarray) -> np.ndarray:
    """Trace measure / (2r) of S along (center - r v, center + r v) per row v.

    Segments are sampled at spacing/2 steps; the mask is trilinearly
    interpolated and the samples averaged.
    """
    from scipy.ndimage import map_coordinates  # not loaded on package import
    grid = S.grid
    step = grid.spacing / 2.0
    m = int(math.floor(r / step + 1e-9))
    s = np.arange(-m, m + 1) * step
    base = np.asarray(center, dtype=np.float64).reshape(3, 1, 1)
    coords = base + dirs.T[:, :, None] * (s[None, None, :] / grid.spacing)
    vals = map_coordinates(S.mask.astype(np.float64), coords.reshape(3, -1),
                           order=1, mode="grid-wrap")
    return vals.reshape(len(dirs), s.size).mean(axis=1)


def sparse_1d(S: VoxelSet, center: tuple[int, int, int], r: float,
              ndir: int = 256) -> tuple[float, np.ndarray]:
    """Best (smallest) segment trace ratio over sampled directions.

    Existence claims are verified up to the direction resolution of the
    golden-angle sample.
    """
    dirs = fibonacci_directions(ndir)
    ratios = segment_trace_ratios(S, center, r, dirs)
    best = int(np.argmin(ratios))
    return float(ratios[best]), dirs[best]


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
        raise ValueError("p = 1 gives an L^inf shell norm; unsupported here")
    ramp = ramp_fraction(pair)
    c1 = _ramp_lp_coeff(pprime, ramp)
    base = pair.a_half ** (1.0 / pprime) / (HOLDER_CONSTANT * c1 * ramp ** (1.0 / pprime))
    if math.isinf(theta):
        # the B and (r v rho) factors cancel exactly against the sup-form
        # tail drop; the minimum over r is the base itself
        return base / CHAIN_SAFETY
    if not alpha * theta > 1.0:
        raise ValueError(f"need alpha*theta > 1, got {alpha * theta}")
    w = WeightSpec(nu=alpha, rho=rho, theta=theta)
    wtotal = total_weight_norm(w)
    total_inv = 0.0 if math.isinf(wtotal) else 1.0 / wtotal
    r_cap = min(CHAIN_R_MAX, SHELL_END / (1.0 + ramp))
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
    if math.isfinite(theta) and not alpha * theta > 1.0:
        raise ValueError(f"need alpha*theta > 1 for finite theta, got {alpha * theta}")
    pprime = _conjugate(p)
    e_exp = -decay_exponent(alpha, theta)
    cal = gm_chain_constant(pair, p, theta, alpha, rho=rho)
    return (cal * UNIT_BALL_VOLUME * pair.a_half ** (1.0 - 1.0 / pprime)
            * pair.b_half ** (e_exp / 3.0) * ramp_fraction(pair))


def shell_exponent(p: float, mode: str) -> float:
    """S = 4 - 3/p' (mode "curl") or 3 - 3/p' (mode "identity"): the power of
    the scale r in the Morrey-type implication threshold."""
    return (4.0 if mode == "curl" else 3.0) - 3.0 / _conjugate(p)


@dataclass(frozen=True)
class SparseConstants:
    """Derived constants for one admissible pair (and one exponent triple)."""

    kappa: float
    cstar: float
    eps: float
    cal: float
    eps_cal: float


def sparse_constants(pair: PairLD, p: float = 2.0, theta: float = math.inf,
                     alpha: float = 0.5, rho: float = 0.0) -> SparseConstants:
    return SparseConstants(
        kappa=kappa(pair),
        cstar=cstar(pair),
        eps=eps_const(pair, p, theta, alpha, rho=rho),
        cal=bump_chain_constant(pair),
        eps_cal=gm_chain_constant(pair, p, theta, alpha, rho=rho),
    )


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
    if not c0 > 1.0:
        raise ValueError(f"c0 must exceed 1, got {c0}")
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

    # dominant signed component per voxel, in SET_LABELS order
    parts = np.empty((6,) + grid.shape)
    for i in range(3):
        parts[2 * i] = np.maximum(f.data[i], 0.0)
        parts[2 * i + 1] = np.maximum(-f.data[i], 0.0)
    dominant = parts.argmax(axis=0)

    ok_any = np.zeros((6,) + grid.shape, dtype=bool)
    for si, S in enumerate((sets or superlevel_sets(f, pair.lam)).values()):
        for r in scales:
            r = float(r)
            density = _count_fraction(sliding_ball_sum(S, r), ball_kernel(grid, r).voxel_count)
            ok_any[si] |= density <= pair.delta
    ok_vox = np.take_along_axis(ok_any, dominant[None], axis=0)[0]
    failing = np.argwhere(~ok_vox)
    witnesses = [tuple(int(v) for v in row) for row in failing[:10]]
    return bool(ok_vox.all()), witnesses
