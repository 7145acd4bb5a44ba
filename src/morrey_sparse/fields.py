"""Deterministic test-field constructors: band-limited random solenoidal
fields, compactly supported bumps, and localized vorticity blobs."""

from __future__ import annotations

import math

import numpy as np

from .grid import (Grid3, ParameterError, VectorField, _frequencies, _irfftn, _rfftn, curl_hat,
                   project_hat, wavenumbers)


def smoothstep(t):
    """C^1 ramp: 0 for t <= 0, 3t^2 - 2t^3 on [0, 1], 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def radial_plateau(dist, inner: float, outer: float):
    """1 inside ``inner``, smoothstep ramp down to 0 at ``outer``."""
    if not 0.0 <= inner < outer:
        raise ParameterError(f"need 0 <= inner < outer, got {inner}, {outer}")
    return 1.0 - smoothstep((dist - inner) / (outer - inner))


def _scaled_to_sup(grid: Grid3, data: np.ndarray, amplitude: float) -> VectorField:
    """The field of ``data``, a fresh array it adopts, scaled in place so the
    pointwise sup of |f| is ``amplitude``."""
    sup = math.sqrt(np.einsum("cijk,cijk->ijk", data, data).max())
    if sup == 0.0:
        raise ValueError("cannot scale the zero field to a sup")
    data *= amplitude / sup
    return VectorField._adopt(grid, data)


def random_solenoidal_field(grid: Grid3, kmax: int, seed: int, amplitude: float = 1.0) -> VectorField:
    """Divergence-free Gaussian random field with integer modes |k| <= kmax.

    Normalized so the pointwise sup of |f| equals ``amplitude``; fully
    determined by ``seed``.  The noise spectrum is cut to the band on the
    integer |m|^2 (for kmax < n/2 no Nyquist plane passes), projected and
    transformed back once.
    """
    if kmax < 1:
        raise ParameterError(f"kmax must be >= 1, got {kmax}")
    fh = _rfftn(np.random.default_rng(seed).standard_normal((3,) + grid.shape))
    ix, iy, iz = _frequencies(grid.n)
    fh *= ix**2 + iy**2 + iz**2 <= kmax**2
    fh[:, 0, 0, 0] = 0.0
    fh = project_hat(fh, wavenumbers(grid))  # the noise spectrum is freed before the inverse
    return _scaled_to_sup(grid, _irfftn(fh, grid.n), amplitude)


def localized_field(grid: Grid3, kmax: int, seed: int, radius: float = 0.8,
                    center: tuple[int, int, int] | None = None,
                    amplitude: float = 1.0) -> VectorField:
    """Random field cut off smoothly to compact support inside B_radius(center).

    Not solenoidal (the cutoff breaks that); intended as the dual-side test
    function for pairing bounds, which require localization.
    """
    if center is None:
        center = (grid.n // 2, grid.n // 2, grid.n // 2)
    base = random_solenoidal_field(grid, kmax, seed, amplitude=1.0)
    dist = grid.spacing * np.sqrt(grid.shell_index(center))
    window = radial_plateau(dist, 0.5 * radius, radius)
    return _scaled_to_sup(grid, base.data * window, amplitude)


def periodized_gaussian(grid: Grid3, center: tuple[int, int, int], sigma: float) -> np.ndarray:
    """Smooth periodic Gaussian bump: product of 1D image sums (|m| <= 3)."""
    if sigma < 1.5 * grid.spacing:
        raise ParameterError(f"sigma {sigma} under-resolved on spacing {grid.spacing}")
    coords = grid.axis_coords()
    axes = []
    for c in center:
        d = coords - coords[int(c) % grid.n]
        acc = np.zeros_like(d)
        for m in range(-3, 4):
            acc += np.exp(-((d + m * grid.box_len) ** 2) / (2.0 * sigma * sigma))
        axes.append(acc)
    return axes[0][:, None, None] * axes[1][None, :, None] * axes[2][None, None, :]


def vorticity_blob(grid: Grid3, center: tuple[int, int, int], sigma: float,
                   axis: tuple[float, float, float] = (1.0, 0.0, 0.0),
                   amplitude: float = 1.0) -> VectorField:
    """Localized solenoidal vorticity: w = curl curl(a chi), that is
    grad(a . grad chi) - a * lap chi, as two spectral curls.

    chi is a periodized Gaussian of width ``sigma``; the construction is
    divergence-free to rounding, and the axis component dominates near the
    core (positive out to |y| ~ sqrt(2) sigma transversally).
    """
    a = np.asarray(axis, dtype=np.float64)
    a /= math.sqrt(float(a @ a))
    k = wavenumbers(grid)
    wh = curl_hat(a[:, None, None, None] * _rfftn(periodized_gaussian(grid, center, sigma)), k)
    wh = curl_hat(wh, k)  # the first curl is freed before the inverse
    return _scaled_to_sup(grid, _irfftn(wh, grid.n), amplitude)


def bump_gradient(grid: Grid3, center: tuple[int, int, int], inner: float, outer: float) -> VectorField:
    """Analytic gradient of the radial plateau bump, sampled at voxel centers.

    Sampled from the closed form (not spectrally differentiated), so the
    result is exactly supported on the shell inner <= |y - center| <= outer.
    """
    n = grid.n
    offsets = np.empty((3,) + grid.shape)
    for axisidx, c in enumerate(center):
        d = (np.arange(n) - (int(c) % n) + n // 2) % n - n // 2  # signed min-image, voxels
        shape = [1, 1, 1]
        shape[axisidx] = n
        offsets[axisidx] = np.broadcast_to((d * grid.spacing).reshape(shape), grid.shape)
    dist = np.sqrt(np.einsum("cijk,cijk->ijk", offsets, offsets))
    width = outer - inner
    t = (dist - inner) / width
    on_ramp = (t > 0.0) & (t < 1.0)
    slope = np.where(on_ramp, -6.0 * t * (1.0 - t) / width, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(dist > 0.0, offsets / dist, 0.0)
    return VectorField._adopt(grid, unit * slope)
