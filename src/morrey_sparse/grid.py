"""Periodic-box fields, spectral operators, and sliding ball-integral kernels.

All fields live on a cubic periodic box [0, L)^3 sampled by an n^3 voxel
lattice.  Scales of interest are capped at 1 and the box side must exceed 2,
so a ball of radius <= 1 never sees itself through the periodic wrap.
Fields and voxel sets are values holding a private read-only array (a copy, or
a producer's own fresh result), so work cached per object (a set's mask
spectra, the implication checks' per-field state) cannot go stale.

The lattice geometry is integer.  A voxel at min-image index offset (i, j, k)
from a center lies on shell m = i^2 + j^2 + k^2 (:meth:`Grid3.shell_index`), at
distance h sqrt(m).  The ball of radius r is the voxels on shells m <= K(r),
the largest attained shell with m h^2 <= r^2 (:func:`ball_kernel`): it is
invariant under the 48 symmetries of the cube, and radii with no shell between
them share one ball, mask and spectrum.  One shell table per grid (:func:`shell_table`)
gives every ball's voxel count, and per-center shell sums
(:func:`radial_shells`) serve every radial profile.

Differential operators are spectral (exact on band-limited fields).  Every
sliding ball sum, of a 0/1 mask (:class:`VoxelSet`) or of |f|^p, is one
inverse transform of its spectrum times a cached ball spectrum
(:func:`ball_convolution`); ascending scales are grouped into runs that share
one ball (:func:`shell_runs`); the sums are checked against a transform-free
brute force over the same ball.
Every 3-D transform of the full layout runs on ``scipy.fft``
(:func:`_rfftn`/:func:`_irfftn`); the solver's 2/3 block, real in the cos/sin
basis, on one cached matrix pair (:func:`_rfftn_block`/:func:`_irfftn_block`).
:func:`_derivative`, and so :func:`curl_hat` and :func:`project_hat`, take the
:class:`Wavenumbers` of either layout.

Every voxel ball is symmetric under the min-image reflection y -> -y, so its
spectrum is real: the imaginary parts the transform leaves are rounding (at
most 1.7e-16 of the largest entry for radii <= 1 at n=64).  The ball-spectrum
cache therefore stores the real part alone, in float64 or float32, half the
bytes of a complex array.  Ball counts of 0/1 masks run in float32 and are
rounded back to integers.  The float32 error grows to about vc * 2^-22 for a
ball of vc voxels (measured 4.9e-4 at n=64, r=1; 0.031 at vc = 131 059), far
inside the 0.5 that rounding tolerates; balls above 2^17 voxels count in
float64.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import fft

TAU = 2.0 * math.pi

#: volume of the 3D unit ball
UNIT_BALL_VOLUME = 4.0 * math.pi / 3.0

#: largest ball (in voxels) whose mask counts run in float32
SINGLE_COUNT_VOXELS = 2**17


class ParameterError(ValueError):
    """An argument outside its documented range, raised by the check on that
    argument itself; the command line exits 2 on it.  Failures that depend on
    the data (an overflow, a zero field) stay plain ``ValueError``."""


class FieldFileError(ValueError):
    """Base class for field-file I/O failures."""


class FieldHeaderError(FieldFileError):
    """Header line is missing, malformed, or declares an unsupported layout."""


class FieldSizeError(FieldFileError):
    """Payload length disagrees with the header-declared shape."""


class NonFiniteDataError(FieldFileError):
    """Payload (or field) contains NaN or infinity."""


def _axis_offset(n: int, c: int) -> np.ndarray:
    """Min-image index offset from plane ``c`` to every plane of one axis."""
    d = np.abs(np.arange(n) - (c % n))
    return np.minimum(d, n - d)


@dataclass(frozen=True)
class Grid3:
    """Cubic periodic grid: n voxels per axis on a box of side ``box_len``.

    Voxel centers sit at ``i * spacing`` for ``i = 0..n-1`` along each axis.
    """

    n: int
    box_len: float = TAU

    def __post_init__(self) -> None:
        if self.n < 8 or self.n % 2 != 0:
            raise ParameterError(f"grid size must be even and >= 8, got n={self.n}")
        if not self.box_len > 2.0:
            raise ParameterError(f"box length must exceed 2, got {self.box_len}")

    @property
    def spacing(self) -> float:
        return self.box_len / self.n

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @property
    def voxel_volume(self) -> float:
        return self.spacing**3

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) * self.spacing

    def min_image_axis(self) -> np.ndarray:
        """Per-axis periodic distance from index 0 to every voxel plane."""
        return _axis_offset(self.n, 0) * self.spacing

    def shell_index(self, center: tuple[int, int, int] = (0, 0, 0)) -> np.ndarray:
        """Integer squared min-image index distance i^2 + j^2 + k^2 from a voxel
        center to every voxel; the voxel lies at distance spacing * sqrt(m)."""
        i, j, k = (_axis_offset(self.n, int(c)) ** 2 for c in center)
        return i[:, None, None] + j[None, :, None] + k[None, None, :]


def _read_only_copy(arr, dtype: type) -> np.ndarray:
    """A private, read-only, C-contiguous copy of ``arr`` in ``dtype``."""
    out = np.array(arr, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class _Samples:
    """Samples on a Grid3, C-order with z fastest, of shape ``lead`` + the
    grid shape, held as a private read-only float64 copy of the given array."""

    grid: Grid3
    data: np.ndarray
    lead = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _read_only_copy(self.data, np.float64))
        if self.data.shape != self.lead + self.grid.shape:
            raise ValueError(f"data shape {self.data.shape} != {self.lead + self.grid.shape}")

    @classmethod
    def _adopt(cls, grid: Grid3, data: np.ndarray):
        """The field of ``data``, a fresh float64 C-order array of the right
        shape that no one else holds: made read-only in place, not copied."""
        data.setflags(write=False)
        out = object.__new__(cls)
        out.__dict__.update(grid=grid, data=data)  # no __post_init__ copy
        return out

    def validate_finite(self) -> None:
        if not np.all(np.isfinite(self.data)):
            kind = "vector" if self.lead else "scalar"
            raise NonFiniteDataError(f"{kind} field contains non-finite values")


@dataclass(frozen=True)
class ScalarField(_Samples):
    """Real scalar samples on a Grid3."""


@dataclass(frozen=True)
class VectorField(_Samples):
    """Three scalar components on a shared Grid3, stored as (3, n, n, n)."""

    lead = (3,)

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.einsum("cijk,cijk->ijk", self.data, self.data))


Field = ScalarField | VectorField


def magnitude_power(f: Field, p: float) -> np.ndarray:
    """Pointwise |f|^p, with |f| the Euclidean magnitude for vector fields."""
    mag = np.abs(f.data) if isinstance(f, ScalarField) else f.magnitude()
    if p == 1.0:
        return mag
    with np.errstate(over="ignore"):  # reported where |f|^p is reduced (_no_overflow)
        return mag * mag if p == 2.0 else mag**p


def _no_overflow(total: float) -> float:
    """``total``, a sum or max of |f|^2 or |f|^p (terms >= 0), checked finite:
    an overflow of float64 leaves it inf, or nan from inf arithmetic, so one
    scalar test covers every voxel the reduction saw."""
    if not math.isfinite(total):
        raise ValueError("|f|^p overflows float64: rescale the field")
    return total


def sup_norm(f: Field) -> float:
    """Max over voxels of the pointwise Euclidean magnitude; a vector field
    takes the root after the max (sqrt is monotone and correctly rounded)."""
    if isinstance(f, ScalarField):
        return float(np.abs(f.data).max())
    return math.sqrt(_no_overflow(np.einsum("cijk,cijk->ijk", f.data, f.data).max()))


# ---------------------------------------------------------------------------
# spectral operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _frequencies(n: int):
    """Broadcastable signed integer frequencies (ix, iy, iz) of the rfft layout,
    Nyquist entries kept (read-only); wavenumbers are these times 2 pi / L."""
    full, half = fft.fftfreq(n, d=1.0 / n), fft.rfftfreq(n, d=1.0 / n)
    for arr in (full, half):
        arr.setflags(write=False)
    return full.reshape(n, 1, 1), full.reshape(1, n, 1), half.reshape(1, 1, -1)


class Wavenumbers(NamedTuple):
    """Broadcastable wavenumbers of one spectral layout (read-only): Nyquist
    entries zeroed (the self-aliased Nyquist plane breaks the evenness of
    quadratic multipliers), [k_f; -k_f] per axis on the 2/3 block; and the
    divisor inverting -Laplace: |k|^2 with its zeros set to 1."""

    kx: np.ndarray
    ky: np.ndarray
    kz: np.ndarray
    divisor: np.ndarray


#: block transforms run in this process, per direction, one per component
BLOCK_TRANSFORMS = {"forward": 0, "inverse": 0}


def block_extent(n: int) -> int:
    """m = ceil(n/3): the 2/3 block keeps the frequencies |i| < n/3 in the
    real cos/sin basis, rows [cos f; sin f] for f = 0..m-1 on every axis (the
    sin 0 row is zero), (2m)^3 entries."""
    return -(-n // 3)


@lru_cache(maxsize=16)
def wavenumbers(grid: Grid3, block: bool = False) -> Wavenumbers:
    """The :class:`Wavenumbers` of the grid's rfft layout, or of its 2/3 block."""
    n, k0 = grid.n, TAU / grid.box_len
    kx, ky, kz = (i * k0 for i in _frequencies(n))
    kx[n // 2] = ky[:, n // 2] = kz[..., -1] = 0.0
    if block:
        f = kz.ravel()[:block_extent(n)]
        f = np.concatenate((f, -f))
        kx, ky, kz = f.reshape(-1, 1, 1), f.reshape(1, -1, 1), f.reshape(1, 1, -1)
    k2 = kx**2 + ky**2 + kz**2
    out = Wavenumbers(kx, ky, kz, np.where(k2 == 0.0, 1.0, k2))
    for arr in out:
        arr.setflags(write=False)
    return out


def _rfftn(data: np.ndarray) -> np.ndarray:
    return fft.rfftn(data, axes=(-3, -2, -1))


def _irfftn(hat: np.ndarray, n: int) -> np.ndarray:
    return fft.irfftn(hat, s=(n, n, n), axes=(-3, -2, -1))


@lru_cache(maxsize=8)
def _block_matrices(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The block transform of every axis, F = [C; S], C, S = cos, sin of
    2 pi f j / n (f < m, j < n), and its inverse, F weighted 1 at f = 0 and 2
    above, over n (no Nyquist: m <= n/2), as read-only copies of the products'
    orientations, (F, F^T) and (inverse^T, inverse): a transposed view threads."""
    m = block_extent(n)
    angle = (TAU / n) * (np.outer(np.arange(m), np.arange(n)) % n)
    fwd = np.concatenate((np.cos(angle), np.sin(angle)))
    inv = fwd * np.where(np.arange(2 * m) % m == 0, 1.0, 2.0)[:, None] / n
    out = [_read_only_copy(a, np.float64) for a in (fwd, fwd.T, inv.T, inv)]
    return tuple(out[:2]), tuple(out[2:])


def _rfftn_block(data: np.ndarray) -> np.ndarray:
    """The 2/3 block of the transform of n^3 samples in the cos/sin basis, F
    along z (half a line per row block), then y, then x: three BLAS products,
    none at OpenBLAS's threading threshold up to n = 128."""
    n, lead = data.shape[-1], data.shape[:-3]
    BLOCK_TRANSFORMS["forward"] += math.prod(lead)
    (fwd, fwd_t), _ = _block_matrices(n)
    a = (data.reshape(lead + (2 * n, n // 2, n)) @ fwd_t).reshape(lead + (n, n, -1))
    out = np.empty(lead + (len(fwd),) * 3)
    np.matmul(fwd, (fwd @ a).swapaxes(-3, -2), out=out.swapaxes(-3, -2))
    return out


def _irfftn_block(bh: np.ndarray, n: int) -> np.ndarray:
    """n^3 samples of a 2/3-block spectrum: the inverse along x, then y, then
    z, the products of :func:`_rfftn_block` reversed."""
    lead = bh.shape[:-3]
    BLOCK_TRANSFORMS["inverse"] += math.prod(lead)
    _, (inv_t, inv) = _block_matrices(n)
    t = np.empty(lead + (n,) + bh.shape[-2:])
    np.matmul(inv_t, bh.swapaxes(-3, -2), out=t.swapaxes(-3, -2))
    out = np.empty(lead + (n, n, n))
    np.matmul((inv_t @ t).reshape(lead + (2 * n, n // 2, -1)), inv,
              out=out.reshape(lead + (2 * n, n // 2, n)))
    return out


def _derivative(fh: np.ndarray, k: Wavenumbers, axis: int) -> np.ndarray:
    """Spectrum of d/dx_axis on the layout of ``k`` (a new array): i k fh on
    the full layout; on the block, whose rows along an axis are its cos and
    sin halves (P, Q), the signed swap (P, Q) -> (k Q, -k P)."""
    if np.iscomplexobj(fh):
        return (1j * k[axis]) * fh
    return k[axis] * np.roll(fh, fh.shape[axis - 3] // 2, axis - 3)


def _divergence_hat(fh: np.ndarray, k: Wavenumbers) -> np.ndarray:
    return _derivative(fh[0], k, 0) + _derivative(fh[1], k, 1) + _derivative(fh[2], k, 2)


def curl_hat(fh: np.ndarray, k: Wavenumbers) -> np.ndarray:
    """Spectrum of the curl of a vector spectrum on the layout of ``k`` (a
    new array)."""
    ch = np.empty_like(fh)
    for c, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.subtract(_derivative(fh[b], k, a), _derivative(fh[a], k, b), out=ch[c])
    return ch


def project_hat(fh: np.ndarray, k: Wavenumbers) -> np.ndarray:
    """Leray projection f + grad(div f)/|k|^2 on the layout of ``k`` (a new
    array; k = 0 untouched); a complex divergence is divided part by part, as
    numpy's complex-by-real division is a slower complex one."""
    div = _divergence_hat(fh, k)
    div.real /= k.divisor
    if np.iscomplexobj(div):
        div.imag /= k.divisor
    out = np.empty_like(fh)
    for c in range(3):
        np.add(fh[c], _derivative(div, k, c), out=out[c])
    return out


def curl(f: VectorField) -> VectorField:
    """Spectral curl; exact for band-limited fields, divergence-free output."""
    return VectorField._adopt(f.grid, _irfftn(curl_hat(_rfftn(f.data), wavenumbers(f.grid)),
                                              f.grid.n))


def divergence(f: VectorField) -> ScalarField:
    dh = _divergence_hat(_rfftn(f.data), wavenumbers(f.grid))
    return ScalarField._adopt(f.grid, _irfftn(dh, f.grid.n))


def gradient(s: ScalarField) -> VectorField:
    k, sh = wavenumbers(s.grid), _rfftn(s.data)
    gh = np.stack([_derivative(sh, k, c) for c in range(3)])
    return VectorField._adopt(s.grid, _irfftn(gh, s.grid.n))


def leray_project(f: VectorField) -> VectorField:
    """Project onto divergence-free fields (mean flow untouched)."""
    return VectorField._adopt(f.grid, _irfftn(project_hat(_rfftn(f.data), wavenumbers(f.grid)),
                                              f.grid.n))


def biot_savart(omega: VectorField) -> VectorField:
    """Mean-zero velocity with the given (divergence-free) curl.

    u_hat = i k x omega_hat / |k|^2, zero at k = 0.  curl(biot_savart(w)) == w
    for mean-zero solenoidal w.
    """
    k = wavenumbers(omega.grid)
    uh = curl_hat(_rfftn(omega.data), k)
    uh /= k.divisor
    uh[:, 0, 0, 0] = 0.0
    return VectorField._adopt(omega.grid, _irfftn(uh, omega.grid.n))


# ---------------------------------------------------------------------------
# ball kernels
# ---------------------------------------------------------------------------


class ShellTable(NamedTuple):
    """The attained shells of a grid, ascending: shell index m, squared radius
    m h^2, and the voxel count of the ball through each shell."""

    index: np.ndarray
    radius_sq: np.ndarray
    ball_count: np.ndarray


@lru_cache(maxsize=8)
def shell_table(grid: Grid3) -> ShellTable:
    """Shell table of the grid, from one bincount of the shell index around
    voxel 0; by periodicity every voxel sees the same shells (read-only)."""
    hist = np.bincount(grid.shell_index().ravel())
    index = np.flatnonzero(hist)
    table = ShellTable(index, index * grid.spacing**2, np.cumsum(hist[index]))
    for arr in table:
        arr.setflags(write=False)
    return table


def _shell_rank(grid: Grid3, radius):
    """Table position of K(radius), the largest attained shell m with
    m h^2 <= radius^2 (vectorized over radii)."""
    return np.searchsorted(shell_table(grid).radius_sq, radius * radius, side="right") - 1


def radial_shells(values: np.ndarray, grid: Grid3, index: np.ndarray,
                  peak: bool = False) -> np.ndarray:
    """Per attained shell around a center, in :func:`shell_table` order, the
    sum of ``values`` over its voxels, or their max (``values`` >= 0) with
    ``peak``; ``index`` is the center's :meth:`Grid3.shell_index`, so one map
    serves every profile of a center.  Cumulative sums give the integral over
    every ball."""
    shells = shell_table(grid).index
    index = index.ravel()
    if peak:
        out = np.zeros(shells[-1] + 1)
        np.maximum.at(out, index, values.ravel())
    else:
        out = np.bincount(index, weights=values.ravel())
    return out[shells]


@dataclass(frozen=True)
class BallKernel:
    """Voxel indicator of {|y| <= radius}, periodic min-image: the
    ``voxel_count`` voxels on shells <= ``shell`` = K(radius), so ties
    (distance exactly ``radius``) are included."""

    grid: Grid3
    radius: float
    shell: int
    voxel_count: int

    def mask(self, center: tuple[int, int, int]) -> np.ndarray:
        """The ball around ``center`` as a boolean voxel mask."""
        return self.grid.shell_index(center) <= self.shell

    @property
    def volume(self) -> float:
        return self.voxel_count * self.grid.voxel_volume

    @property
    def volume_error(self) -> float:
        """Relative voxelization error against the exact ball volume."""
        exact = UNIT_BALL_VOLUME * self.radius**3
        return abs(self.volume - exact) / exact


@lru_cache(maxsize=64)
def _ball_spectrum_cached(grid: Grid3, shell: int, dtype: type) -> np.ndarray:
    """Real spectrum of the ball {shell index <= shell}, a
    :attr:`BallKernel.shell` key, in ``dtype``: the real part of the float64
    transform, rounded once to float32 for float32 mask counts."""
    spec = _rfftn((grid.shell_index() <= shell).astype(np.float64)).real.astype(dtype)
    spec.setflags(write=False)
    return spec


def ball_kernel(grid: Grid3, radius: float) -> BallKernel:
    if not 0.0 < radius < grid.box_len / 2.0:
        raise ParameterError(f"radius {radius} outside (0, {grid.box_len / 2})")
    table, rank = shell_table(grid), _shell_rank(grid, radius)
    return BallKernel(grid, float(radius), int(table.index[rank]), int(table.ball_count[rank]))


def count_dtype(voxel_count: int) -> type:
    """Precision of mask counts over a ball of ``voxel_count`` voxels."""
    return np.float32 if voxel_count <= SINGLE_COUNT_VOXELS else np.float64


@dataclass(frozen=True)
class VoxelSet:
    """Boolean voxel mask over a grid (a private read-only copy), with its
    real spectrum per count precision computed on first use, so one forward
    transform serves every radius."""

    grid: Grid3
    mask: np.ndarray
    hats: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mask.shape != self.grid.shape or self.mask.dtype != np.bool_:
            raise ValueError("mask must be a boolean array on the grid shape")
        object.__setattr__(self, "mask", _read_only_copy(self.mask, np.bool_))

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    @property
    def volume(self) -> float:
        return self.count * self.grid.voxel_volume

    def hat(self, dtype: type) -> np.ndarray:
        if dtype not in self.hats:
            self.hats[dtype] = _rfftn(self.mask.astype(dtype))
        return self.hats[dtype]


class ShellRuns(NamedTuple):
    """Ascending scales grouped into runs that share one voxel ball: per run,
    the index of its first scale, its ball's shell key and voxel count; per
    scale, its run."""

    start: np.ndarray
    shell: np.ndarray
    ball_count: np.ndarray
    run: np.ndarray


def shell_runs(grid: Grid3, scales) -> ShellRuns:
    """The :class:`ShellRuns` of ascending ball-power scales, which must lie
    in (spacing, box_len/2)."""
    radii = np.asarray(scales, dtype=np.float64)
    bad = radii[(radii <= grid.spacing) | (radii >= grid.box_len / 2.0)]
    if bad.size:
        raise ParameterError(f"radius {bad[0]} outside (spacing, box_len/2) = "
                             f"({grid.spacing}, {grid.box_len / 2})")
    rank = _shell_rank(grid, radii)
    opens = np.diff(rank, prepend=-1) != 0
    ranks = rank[opens]
    table = shell_table(grid)
    return ShellRuns(np.flatnonzero(opens), table.index[ranks], table.ball_count[ranks],
                     np.cumsum(opens) - 1)


def convolve_spectra(hat: np.ndarray, spec: np.ndarray, n: int) -> np.ndarray:
    """Inverse transform of ``hat * spec``, spectra of nonnegative arrays, so
    every product and partial sum is below hat[0] spec[0] n^3; without that
    headroom in float64, ``spec`` is scaled by an exact power of two and the
    result scaled back (no bit changes where the unscaled product fits)."""
    shift = math.frexp(hat[0, 0, 0].real)[1] + math.frexp(spec[0, 0, 0] * n**3)[1] - 1022
    if shift <= 0:
        return _irfftn(hat * spec, n)
    out = _irfftn(hat * (spec * math.ldexp(1.0, -shift)), n)
    out *= math.ldexp(1.0, shift)
    return out


def ball_convolution(hat: np.ndarray, grid: Grid3, shell: int) -> np.ndarray:
    """x -> the sum over the ball {shell index <= shell} around x of the
    nonnegative array whose real-input spectrum is ``hat``, in the hat's
    precision: the one inverse transform behind every sliding ball sum.

    The kernel is symmetric under the min-image convention, so correlation
    and convolution coincide.  Deterministic for fixed inputs.
    """
    return convolve_spectra(hat, _ball_spectrum_cached(grid, shell, hat.real.dtype.type), grid.n)


def radial_kernel_spectrum(grid: Grid3, scales, weights) -> tuple[np.ndarray, float]:
    """Real spectrum of sum_i weights[i] 1[ball of scales[i]] (:func:`shell_runs`
    scales, weights > 0) at unit peak, and the peak, from one table per shell."""
    runs = shell_runs(grid, scales)
    table = np.zeros(shell_table(grid).index[-1] + 1)
    table[runs.shell] = np.add.reduceat(weights, runs.start)
    table = np.cumsum(table[::-1])[::-1]  # suffix sums
    kernel = (table / table[0])[grid.shell_index()]
    return np.ascontiguousarray(_rfftn(kernel).real), float(table[0])


def sliding_ball_sum(mask: VoxelSet, radius: float) -> np.ndarray:
    """Number of mask voxels in the ball around every voxel, as floats within
    0.05 of the integer counts (precision by :func:`count_dtype`)."""
    kernel = ball_kernel(mask.grid, radius)
    return ball_convolution(mask.hat(count_dtype(kernel.voxel_count)), mask.grid, kernel.shell)


def power_spectrum(power: np.ndarray) -> np.ndarray:
    """Real-input spectrum of |f|^p, checked for float64 overflow through its
    zero mode, the torus sum of |f|^p."""
    hat = _rfftn(power)
    _no_overflow(hat[0, 0, 0].real)
    return hat


def ball_power_from_spectrum(grid: Grid3, power_hat: np.ndarray, r: float) -> np.ndarray:
    """x -> integral of |f|^p over B_r(x), from :func:`power_spectrum`."""
    sums = ball_convolution(power_hat, grid, int(shell_runs(grid, [r]).shell[0]))
    np.maximum(sums, 0.0, out=sums)
    return sums * grid.voxel_volume


def sliding_ball_power_multi(f: Field, p: float, scales):
    """Yield (r, ball power integral field) per ascending scale, one field FFT
    total; the scales of one :func:`shell_runs` run share one read-only
    array."""
    hat = power_spectrum(magnitude_power(f, p))
    runs = shell_runs(f.grid, scales)
    for i, r in enumerate(scales):
        if i in runs.start:
            power = ball_power_from_spectrum(f.grid, hat, r)
            power.setflags(write=False)
        yield float(r), power


def sliding_ball_lp(f: Field, p: float, r: float) -> ScalarField:
    """x -> ( integral_{B_r(x)} |f|^p dy )^(1/p) at every voxel center."""
    power = ball_power_from_spectrum(f.grid, power_spectrum(magnitude_power(f, p)), r)
    if p != 1.0:
        power **= 1.0 / p
    return ScalarField._adopt(f.grid, power)


def ball_power_profile(f: Field, p: float, center: tuple[int, int, int],
                       scales) -> tuple[np.ndarray, float]:
    """integral of |f|^p over B_r(center) for every r in ``scales``, and over
    the whole torus, from per-shell sums around the center."""
    shell_runs(f.grid, scales)  # raises on the scales every ball power rejects
    masses = np.cumsum(radial_shells(magnitude_power(f, p), f.grid, f.grid.shell_index(center)))
    masses *= f.grid.voxel_volume
    return masses[_shell_rank(f.grid, scales)], _no_overflow(float(masses[-1]))


def ball_lp_bruteforce(f: Field, p: float, index: tuple[int, int, int], r: float) -> float:
    """Transform-free oracle: direct sum of |f|^p over the periodic ball.

    Same membership rule as the FFT kernel (shells <= K(r), ties included),
    but summed by explicit gather; no FFTs anywhere.
    """
    inside = ball_kernel(f.grid, r).mask(index)
    return (float(magnitude_power(f, p)[inside].sum()) * f.grid.voxel_volume) ** (1.0 / p)


# ---------------------------------------------------------------------------
# field file I/O
# ---------------------------------------------------------------------------

_HEADER_KEYS = ("version", "n", "box_len", "ncomp", "dtype", "order")


def save_field(f: Field, path) -> None:
    """Write the bit-exact field file: one JSON header line + raw <f8 payload."""
    f.validate_finite()
    ncomp = 1 if isinstance(f, ScalarField) else 3
    header = dict(zip(_HEADER_KEYS, (1, f.grid.n, f.grid.box_len, ncomp, "f64le", "zyx-c")))
    line = json.dumps(header, separators=(",", ":")) + "\n"
    with open(path, "wb") as fh:
        fh.write(line.encode("ascii"))
        fh.write(f.data.astype("<f8", copy=False))  # the buffer itself, no bytes copy


def read_field_header(fh) -> tuple[Grid3, int]:
    """Validate the header line of a field file open in binary mode; return
    its grid and component count, leaving ``fh`` at the payload.

    Raises
    ------
    FieldHeaderError
        missing/malformed header line, unsupported layout values or an
        invalid grid (odd or too small n, box side not above 2)
    """
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise FieldHeaderError("missing newline-terminated header line")
    try:
        header = json.loads(line.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FieldHeaderError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict) or set(header) != set(_HEADER_KEYS):
        raise FieldHeaderError(f"header must carry exactly the keys {_HEADER_KEYS}")
    if header["version"] != 1:
        raise FieldHeaderError(f"unsupported version {header['version']}")
    if header["dtype"] != "f64le" or header["order"] != "zyx-c":
        raise FieldHeaderError("unsupported dtype/order declaration")
    n, ncomp = header["n"], header["ncomp"]
    if not (isinstance(n, int) and isinstance(ncomp, int) and ncomp in (1, 3)):
        raise FieldHeaderError("n must be int and ncomp must be 1 or 3")
    try:
        return Grid3(n, float(header["box_len"])), ncomp
    except (TypeError, ValueError) as exc:
        raise FieldHeaderError(f"header declares an invalid grid: {exc}") from exc


def load_field(path) -> Field:
    """Read a field file; byte-exact inverse of :func:`save_field`.

    Raises
    ------
    FieldHeaderError
        see :func:`read_field_header`
    FieldSizeError
        payload byte count disagrees with the declared shape
    NonFiniteDataError
        payload contains NaN or infinity
    """
    with open(path, "rb") as fh:
        grid, ncomp = read_field_header(fh)
        cls = ScalarField if ncomp == 1 else VectorField
        data = np.empty(cls.lead + grid.shape, dtype="<f8")  # the payload goes straight in
        size = fh.readinto(data) + len(fh.read())
    if size != data.nbytes:
        raise FieldSizeError(f"payload holds {size} bytes, header implies {data.nbytes}")
    if not np.all(np.isfinite(data)):
        raise NonFiniteDataError("payload contains non-finite values")
    return cls._adopt(grid, data)
