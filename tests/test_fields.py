import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from morrey_sparse.grid import (Grid3, VectorField, _frequencies, _irfftn, _rfftn, divergence,
                                leray_project, sup_norm)
from morrey_sparse.fields import (
    bump_gradient,
    localized_field,
    periodized_gaussian,
    random_solenoidal_field,
    vorticity_blob,
)


def test_random_solenoidal_properties(grid16):
    f = random_solenoidal_field(grid16, kmax=4, seed=1)
    assert sup_norm(f) == pytest.approx(1.0, rel=1e-12)
    assert np.abs(divergence(f).data).max() < 1e-10
    g = random_solenoidal_field(grid16, kmax=4, seed=1)
    assert np.array_equal(f.data, g.data)  # seeded determinism
    h = random_solenoidal_field(grid16, kmax=4, seed=2)
    assert not np.array_equal(f.data, h.data)


@pytest.mark.parametrize("kmax", [0, -1])
def test_random_solenoidal_rejects_an_empty_band(grid16, monkeypatch, kmax):
    # |k| <= kmax < 1 holds only the zero mode, which the field drops: the
    # call raises before it draws any noise
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("noise drawn"))
    with pytest.raises(ValueError, match="kmax must be >= 1"):
        random_solenoidal_field(grid16, kmax=kmax, seed=1)


def test_random_solenoidal_matches_two_pass_reference(grid32):
    # the projection as a multiplier on the cut noise spectrum equals the
    # projection of the cut field, a second transform pair, to rounding; the
    # band is cut on the integer |m|^2, so no Nyquist plane passes
    ix, iy, iz = _frequencies(grid32.n)
    for kmax, seed, amplitude in ((8, 1, 1.0), (4, 5, 3.0)):
        fh = _rfftn(np.random.default_rng(seed).standard_normal((3,) + grid32.shape))
        fh *= ix**2 + iy**2 + iz**2 <= kmax**2
        fh[:, 0, 0, 0] = 0.0
        ref = leray_project(VectorField(grid32, _irfftn(fh, grid32.n))).data
        ref = ref * (amplitude / math.sqrt(np.einsum("cijk,cijk->ijk", ref, ref).max()))
        f = random_solenoidal_field(grid32, kmax, seed, amplitude)
        assert np.abs(f.data - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("n, kmax", [(16, 5), (32, 8), (64, 16)])
def test_random_solenoidal_no_nyquist_content(n, kmax):
    # the band is cut on the integer |m|^2: below n/2 it holds no mode of a
    # Nyquist plane, content that curl (and the solver's 2/3 block) cannot see
    fh = _rfftn(random_solenoidal_field(Grid3(n), kmax, seed=3).data)
    h = n // 2
    nyquist = max(np.abs(fh[:, h]).max(), np.abs(fh[:, :, h]).max(), np.abs(fh[..., h]).max())
    assert nyquist <= 1e-14 * np.abs(fh).max()


def test_random_solenoidal_one_transform_pair(grid16, monkeypatch):
    # every transform of the package runs through scipy.fft: one forward
    # transform of the noise and one inverse of the projected band
    calls = []

    def counted(name):
        real = getattr(scipy.fft, name)
        return lambda *args, **kw: calls.append(name) or real(*args, **kw)

    for name in ("rfftn", "irfftn"):
        monkeypatch.setattr(scipy.fft, name, counted(name))
    random_solenoidal_field(grid16, kmax=4, seed=1)
    assert calls == ["rfftn", "irfftn"]


def test_random_solenoidal_build_peak():
    # one transform pair, with the projection as a multiplier, peaks near
    # three field-sizes; a second pair for the projection would need six
    grid = Grid3(64)
    random_solenoidal_field(grid, 16, 0)  # wavenumber tables cached
    tracemalloc.start()
    try:
        f = random_solenoidal_field(grid, 16, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * f.data.nbytes


def test_periodized_gaussian_smooth_and_periodic(grid32):
    chi = periodized_gaussian(grid32, (0, 0, 0), sigma=0.8)
    assert chi.max() == pytest.approx(chi[0, 0, 0], rel=1e-12)
    # periodic: the wrap seam carries no kink (value continuity across 0)
    assert chi[1, 0, 0] == pytest.approx(chi[-1, 0, 0], rel=1e-12)
    with pytest.raises(ValueError):
        periodized_gaussian(grid32, (0, 0, 0), sigma=0.1)


def test_vorticity_blob_solenoidal_and_axis_dominant(grid32):
    w = vorticity_blob(grid32, (16, 16, 16), sigma=0.5, amplitude=2.0)
    assert sup_norm(w) == pytest.approx(2.0, rel=1e-12)
    assert np.abs(divergence(w).data).max() < 1e-10
    # the axis component carries the peak at the center
    assert w.data[0, 16, 16, 16] == pytest.approx(2.0, rel=1e-6)


def test_localized_field_support(grid32):
    f = localized_field(grid32, kmax=4, seed=7, radius=0.8)
    dist = grid32.spacing * np.sqrt(grid32.shell_index((16, 16, 16)))
    outside = dist > 0.8
    assert np.abs(f.data[:, outside]).max() == 0.0


def test_bump_gradient_shell_support(grid32):
    g = bump_gradient(grid32, (16, 16, 16), 0.3, 0.6)
    dist = grid32.spacing * np.sqrt(grid32.shell_index((16, 16, 16)))
    mag = g.magnitude()
    assert mag[dist < 0.29].max() == 0.0
    assert mag[dist > 0.61].max() == 0.0
    assert mag.max() <= 1.5 / (0.6 - 0.3) + 1e-12  # |q'| <= 3/2 over the width
