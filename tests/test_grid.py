import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import fft

from morrey_sparse import grid as grid_module
from morrey_sparse.grid import (
    SINGLE_COUNT_VOXELS,
    UNIT_BALL_VOLUME,
    FieldHeaderError,
    FieldSizeError,
    Grid3,
    NonFiniteDataError,
    ScalarField,
    VectorField,
    VoxelSet,
    _irfftn,
    _irfftn_block,
    _rfftn,
    _rfftn_block,
    ball_kernel,
    block_extent,
    ball_lp_bruteforce,
    biot_savart,
    count_dtype,
    curl,
    divergence,
    gradient,
    leray_project,
    load_field,
    save_field,
    sliding_ball_lp,
    sliding_ball_sum,
    sup_norm,
    wavenumbers,
)
from morrey_sparse.fields import (
    bump_gradient,
    localized_field,
    random_solenoidal_field,
    vorticity_blob,
)
from morrey_sparse.nse import SolverConfig, initial_condition, simulate
from morrey_sparse.sparseness import superlevel_sets
from conftest import random_field, sine_y_field, unit_x_field


# ---------------------------------------------------------------------------
# grid and field invariants
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid3(7)
    with pytest.raises(ValueError):
        Grid3(6)
    with pytest.raises(ValueError):
        Grid3(16, box_len=1.5)
    g = Grid3(16)
    assert g.spacing == g.box_len / 16


def test_field_shape_validation(grid16):
    with pytest.raises(ValueError):
        ScalarField(grid16, np.zeros((8, 8, 8)))
    with pytest.raises(ValueError):
        VectorField(grid16, np.zeros((2,) + grid16.shape))


def _simulated(tmp_path, streamed: bool) -> list[np.ndarray]:
    cfg = SolverConfig(n=16, dt=1e-3, t_end=2e-3, snapshot_every=1)
    return [f.data for _, f in simulate(cfg, out=tmp_path if streamed else None).snapshots]


def _loaded(grid, tmp_path) -> list[np.ndarray]:
    save_field(random_field(grid, 1), tmp_path / "v.fld")
    save_field(ScalarField(grid, random_field(grid, 1).data[0]), tmp_path / "s.fld")
    return [load_field(tmp_path / name).data for name in ("v.fld", "s.fld")]


def _constructed(grid) -> list[np.ndarray]:
    return [random_solenoidal_field(grid, 4, 1).data, localized_field(grid, 4, 1).data,
            vorticity_blob(grid, (8, 8, 8), 0.8).data, bump_gradient(grid, (8, 8, 8), 0.5, 1.0).data,
            *(initial_condition(ic, grid).data for ic in ("shear", "taylor-green", "abc", "random"))]


FIELD_PRODUCERS = {
    "grid_operators": lambda g, tmp: [
        op(random_field(g, 1)).data for op in (curl, divergence, leray_project, biot_savart)] + [
        gradient(ScalarField(g, random_field(g, 1).data[0])).data,
        sliding_ball_lp(random_field(g, 1), 2.0, 0.5).data],
    "field_constructors": lambda g, tmp: _constructed(g),
    "load_field": _loaded,
    "superlevel_sets": lambda g, tmp: [
        S.mask for S in superlevel_sets(random_field(g, 1), 0.5).values()],
    "snapshots_in_memory": lambda g, tmp: _simulated(tmp, streamed=False),
    "snapshot_files": lambda g, tmp: _simulated(tmp, streamed=True),
}


@pytest.mark.parametrize("producer", sorted(FIELD_PRODUCERS))
def test_produced_fields_hold_read_only_private_data(grid16, tmp_path, producer):
    # fields and voxel sets are values: each owns a read-only C-order array
    arrays = FIELD_PRODUCERS[producer](grid16, tmp_path)
    assert arrays
    for arr in arrays:
        assert arr.flags.owndata and arr.flags.c_contiguous and not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]


def test_fields_copy_their_input(grid16):
    raw, mask = np.ones((3,) + grid16.shape), np.ones(grid16.shape, dtype=bool)
    fields = (VectorField(grid16, raw), ScalarField(grid16, raw[0]), VoxelSet(grid16, mask))
    raw[:], mask[:] = 0.0, False
    assert [float(f.data.sum()) for f in fields[:2]] == [3.0 * 16**3, 16.0**3]
    assert fields[2].mask.all()


# ---------------------------------------------------------------------------
# I/O round trip and error taxonomy
# ---------------------------------------------------------------------------


def test_save_load_roundtrip_bitexact(tmp_path, grid16):
    f = random_field(grid16, seed=7)
    p = tmp_path / "f.fld"
    save_field(f, p)
    g = load_field(p)
    assert isinstance(g, VectorField)
    assert g.grid == f.grid
    assert np.array_equal(g.data, f.data)
    # deterministic bytes
    p2 = tmp_path / "f2.fld"
    save_field(f, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_load_field_reads_the_payload_once(tmp_path, grid32):
    # the payload is read straight into the field's own array: the traced
    # peak is that array and a finiteness mask, not a second payload copy
    path = tmp_path / "f.fld"
    save_field(random_field(grid32, seed=3), path)
    tracemalloc.start()
    try:
        f = load_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * f.data.nbytes


def test_save_file_size(tmp_path, grid16):
    f = unit_x_field(grid16)
    p = tmp_path / "c.fld"
    save_field(f, p)
    header_len = len(p.read_bytes()) - 3 * 16**3 * 8
    assert header_len > 0  # payload exactly 3 n^3 doubles after the header
    line = p.read_bytes()[:header_len]
    assert line.endswith(b"\n")


def test_scalar_roundtrip(tmp_path, grid16):
    s = ScalarField(grid16, np.random.default_rng(0).standard_normal(grid16.shape))
    p = tmp_path / "s.fld"
    save_field(s, p)
    back = load_field(p)
    assert isinstance(back, ScalarField)
    assert np.array_equal(back.data, s.data)


def test_load_size_mismatch(tmp_path, grid16):
    f = unit_x_field(grid16)
    p = tmp_path / "bad.fld"
    save_field(f, p)
    raw = p.read_bytes()
    header_end = raw.index(b"\n") + 1
    # header says n=16 but give it a 8^3 payload
    truncated = raw[:header_end] + raw[header_end:header_end + 3 * 8**3 * 8]
    p.write_bytes(truncated)
    with pytest.raises(FieldSizeError):
        load_field(p)


def test_load_malformed_header(tmp_path):
    p = tmp_path / "junk.fld"
    p.write_bytes(b"not json at all\n" + b"\x00" * 64)
    with pytest.raises(FieldHeaderError):
        load_field(p)
    p.write_bytes(b'{"version":2,"n":16,"box_len":6.0,"ncomp":3,"dtype":"f64le","order":"zyx-c"}\n')
    with pytest.raises(FieldHeaderError):
        load_field(p)


def test_load_nonfinite(tmp_path, grid16):
    f = unit_x_field(grid16)
    p = tmp_path / "nan.fld"
    save_field(f, p)
    raw = bytearray(p.read_bytes())
    header_end = raw.index(b"\n") + 1
    raw[header_end:header_end + 8] = np.array([np.nan]).tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(NonFiniteDataError):
        load_field(p)


def test_save_unwritable(tmp_path, grid16):
    with pytest.raises(OSError):
        save_field(unit_x_field(grid16), tmp_path)  # a directory


# ---------------------------------------------------------------------------
# spectral operators
# ---------------------------------------------------------------------------


def test_curl_analytic(grid32):
    f = sine_y_field(grid32)
    c = curl(f)
    y = grid32.axis_coords()[None, :, None]
    expected = -np.cos(np.broadcast_to(y, grid32.shape))
    assert np.abs(c.data[0]).max() < 1e-10
    assert np.abs(c.data[1]).max() < 1e-10
    assert np.abs(c.data[2] - expected).max() < 1e-10


def test_curl_of_constant_is_zero(grid16):
    assert np.abs(curl(unit_x_field(grid16, 3.0)).data).max() == 0.0


def test_curl_of_gradient_vanishes(grid32):
    x = grid32.axis_coords()
    g = np.sin(x)[:, None, None] * np.sin(x)[None, :, None] * np.ones(grid32.shape)
    grad = gradient(ScalarField(grid32, g))
    assert np.abs(curl(grad).data).max() < 1e-10


def test_divergence_of_curl_vanishes(grid16):
    f = random_field(grid16, seed=3)
    assert np.abs(divergence(curl(f)).data).max() < 1e-10


def test_leray_project_idempotent_and_solenoidal(grid16):
    rng = np.random.default_rng(5)
    raw = VectorField(grid16, rng.standard_normal((3,) + grid16.shape))
    # band-limit so spectral cancellation is clean
    f = random_field(grid16, seed=5)
    pf = leray_project(f)
    assert np.abs(divergence(pf).data).max() < 1e-10
    ppf = leray_project(pf)
    assert np.abs(ppf.data - pf.data).max() < 1e-12
    # idempotence holds for rough data too
    pr = leray_project(raw)
    ppr = leray_project(pr)
    assert np.abs(ppr.data - pr.data).max() < 1e-10


def test_biot_savart_inverts_curl(grid16):
    omega = curl(random_field(grid16, seed=11))
    u = biot_savart(omega)
    assert np.abs(divergence(u).data).max() < 1e-10
    back = curl(u)
    assert np.abs(back.data - omega.data).max() < 1e-9 * max(1.0, sup_norm(omega))


@pytest.mark.parametrize("n", [8, 16, 18, 32])
def test_block_transforms_match_the_full_layout(n):
    # the 2/3 block is the frequencies |i| < n/3; its pruned passes equal the
    # full transform gathered to the block (forward) or of the block scattered
    # into zeros (inverse), to rounding, and the block's wavenumbers are the
    # full layout's there
    m = block_extent(n)
    keep = np.r_[0:m, n - m + 1:n]
    freq = fft.fftfreq(n, d=1.0 / n)
    assert sorted(np.abs(freq[keep])) == sorted(np.abs(freq[np.abs(freq) < n / 3.0]))
    u = np.random.default_rng(n).standard_normal((3, n, n, n))
    sub = np.ix_(keep, keep, range(m))
    block = (slice(None),) + sub
    bh = _rfftn_block(u)
    assert np.abs(bh - _rfftn(u)[block]).max() <= 1e-13 * np.abs(bh).max()
    padded = np.zeros((3, n, n, n // 2 + 1), dtype=complex)
    padded[block] = bh
    assert np.abs(_irfftn_block(bh, n) - _irfftn(padded, n)).max() <= 1e-13 * np.abs(u).max()
    full, part = wavenumbers(Grid3(n)), wavenumbers(Grid3(n), block=True)
    for a, b in zip(full, part):
        assert np.array_equal(np.broadcast_to(a, (n, n, n // 2 + 1))[sub],
                              np.broadcast_to(b, bh.shape[1:]))


def test_sup_norm(grid32):
    f = sine_y_field(grid32)
    assert sup_norm(f) == pytest.approx(1.0, abs=1e-14)  # n divisible by 4
    assert sup_norm(unit_x_field(grid32, 0.0)) == 0.0
    f3 = VectorField(grid32, 3.0 * f.data)
    assert sup_norm(f3) == pytest.approx(3.0 * sup_norm(f), rel=1e-15)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sup_norm_root_after_max_is_exact(grid16, seed):
    # sqrt is monotone and correctly rounded, so the root of the max equals
    # the max of the pointwise roots bit for bit
    f = random_field(grid16, seed=seed)
    assert sup_norm(f) == float(np.sqrt(np.einsum("cijk,cijk->ijk", f.data, f.data)).max())
    s = ScalarField(grid16, f.data[1] - 0.3)
    assert sup_norm(s) == float(np.abs(s.data).max())


# ---------------------------------------------------------------------------
# ball kernels: oracle equivalence and properties
# ---------------------------------------------------------------------------


def test_ball_kernel_count_and_volume(grid16):
    k = ball_kernel(grid16, 0.9)
    assert k.voxel_count == int((grid16.shell_index() <= k.shell).sum())
    assert k.volume == pytest.approx(k.voxel_count * grid16.voxel_volume)
    assert 0.0 <= k.volume_error < 0.25


def test_constant_field_ball_volume(grid32):
    f = unit_x_field(grid32)
    r = 0.7
    k = ball_kernel(grid32, r)
    vals = sliding_ball_lp(f, 2.0, r).data
    exact_voxelized = math.sqrt(k.volume)
    assert np.abs(vals - exact_voxelized).max() < 1e-12
    ideal = math.sqrt(UNIT_BALL_VOLUME * r**3)
    assert abs(exact_voxelized - ideal) / ideal <= k.volume_error


@pytest.mark.parametrize("n", [8, 16])
def test_oracle_equivalence(n):
    grid = Grid3(n)
    rng = np.random.default_rng(n)
    for trial in range(6):
        f = random_field(grid, seed=100 + trial, kmax=max(2, n // 4))
        p = float(rng.choice([1.0, 2.0, 3.0]))
        r = float(rng.uniform(1.5 * grid.spacing, 0.45 * grid.box_len))
        fast = sliding_ball_lp(f, p, r).data
        for _ in range(12):
            idx = tuple(int(v) for v in rng.integers(0, n, size=3))
            brute = ball_lp_bruteforce(f, p, idx, r)
            assert fast[idx] == pytest.approx(brute, rel=1e-10)


def test_sliding_zero_field(grid16):
    z = unit_x_field(grid16, 0.0)
    assert np.abs(sliding_ball_lp(z, 2.0, 0.5).data).max() == 0.0


def test_bruteforce_degenerate_ball(grid16):
    f = random_field(grid16, seed=1)
    idx = (3, 5, 7)
    r = grid16.spacing / 2.0
    val = ball_lp_bruteforce(f, 2.0, idx, r)
    mag = float(np.sqrt((f.data[:, 3, 5, 7] ** 2).sum()))
    assert val == pytest.approx((mag**2 * grid16.voxel_volume) ** 0.5, rel=1e-12)
    assert ball_lp_bruteforce(unit_x_field(grid16, 0.0), 2.0, idx, 0.8) == 0.0


def test_supported_in_small_ball_attains_max(grid32):
    # field supported in a ball of radius r/4 around x0: the window attains
    # its max at x0 (any center whose ball swallows the support ties)
    from morrey_sparse.fields import radial_plateau

    x0 = (8, 18, 25)
    r = 1.2
    data = np.zeros((3,) + grid32.shape)
    data[0] = radial_plateau(grid32.spacing * np.sqrt(grid32.shell_index(x0)), r / 8.0, r / 4.0)
    f = VectorField(grid32, data)
    vals = sliding_ball_lp(f, 2.0, r).data
    assert vals[x0] >= vals.max() * (1.0 - 1e-12)


def test_translation_equivariance(grid16):
    f = random_field(grid16, seed=21)
    shift = (3, 7, 5)
    shifted = VectorField(grid16, np.roll(f.data, shift, axis=(1, 2, 3)))
    a = sliding_ball_lp(f, 2.0, 0.6).data
    b = sliding_ball_lp(shifted, 2.0, 0.6).data
    assert np.abs(np.roll(a, shift, axis=(0, 1, 2)) - b).max() < 1e-12 * a.max()


def test_homogeneity(grid16):
    f = random_field(grid16, seed=22)
    c = 3.0
    a = sliding_ball_lp(f, 2.0, 0.5).data
    b = sliding_ball_lp(VectorField(grid16, c * f.data), 2.0, 0.5).data
    assert np.abs(b - c * a).max() <= 1e-12 * b.max()


def test_radius_validation(grid16):
    f = random_field(grid16, seed=2)
    with pytest.raises(ValueError):
        sliding_ball_lp(f, 2.0, grid16.spacing / 2)
    with pytest.raises(ValueError):
        sliding_ball_lp(f, 2.0, grid16.box_len)


def _count_masks(n: int) -> dict[str, np.ndarray]:
    i, j, k = np.indices((n, n, n))
    rng = np.random.default_rng(n)
    masks = {"empty": np.zeros((n, n, n), dtype=bool), "full": np.ones((n, n, n), dtype=bool),
             "checkerboard": (i + j + k) % 2 == 0, "half-space": i < n // 2}
    for fill in (0.1, 0.5, 0.9):
        masks[f"random {fill}"] = rng.random((n, n, n)) < fill
    return masks


def _largest_single_radius(grid: Grid3) -> float:
    """Radius of the largest ball the grid admits whose counts run in float32."""
    d2 = grid.min_image_axis() ** 2
    dist2 = np.sort((d2[:, None, None] + d2[None, :, None] + d2[None, None, :]).ravel())
    r_max = grid.box_len / 2.0 * (1.0 - 1e-9)
    if dist2.size <= SINGLE_COUNT_VOXELS:
        return r_max
    first_out = dist2[SINGLE_COUNT_VOXELS]
    last_in = dist2[dist2 < first_out].max()
    return min(0.5 * (math.sqrt(last_in) + math.sqrt(first_out)), r_max)


@pytest.mark.parametrize("n", [32, 64, 128])
def test_single_precision_mask_counts_exact(n):
    # float32 counts stay far inside the 0.5 that rounding tolerates, at the
    # largest scale of the checks (r = 1) and at the largest float32 ball
    grid = Grid3(n)
    for r in (1.0, _largest_single_radius(grid)):
        kernel = ball_kernel(grid, r)
        assert count_dtype(kernel.voxel_count) is np.float32
        ball_hat = np.fft.rfftn((grid.shell_index() <= kernel.shell).astype(np.float64))
        for name, mask in _count_masks(n).items():
            exact = np.fft.irfftn(np.fft.rfftn(mask.astype(np.float64)) * ball_hat, s=grid.shape,
                                  axes=(0, 1, 2))
            assert np.abs(exact - np.rint(exact)).max() < 1e-6
            counts = sliding_ball_sum(VoxelSet(grid, mask), r)
            assert counts.dtype == np.float32
            assert np.abs(counts - np.rint(exact)).max() <= 0.05, (name, r)


def test_count_precision_rule(grid16, monkeypatch):
    assert count_dtype(SINGLE_COUNT_VOXELS) is np.float32
    assert count_dtype(SINGLE_COUNT_VOXELS + 1) is np.float64
    # the counting path follows the rule: lower the cut below a small ball
    r = 0.9
    vc = ball_kernel(grid16, r).voxel_count
    mask = VoxelSet(grid16, random_field(grid16, seed=4).data[0] > 0.0)
    monkeypatch.setattr(grid_module, "SINGLE_COUNT_VOXELS", vc - 1)
    wide = sliding_ball_sum(mask, r)
    monkeypatch.setattr(grid_module, "SINGLE_COUNT_VOXELS", vc)
    single = sliding_ball_sum(mask, r)
    assert wide.dtype == np.float64 and single.dtype == np.float32
    assert set(mask.hats) == {np.float32, np.float64}
    assert np.array_equal(np.rint(wide), np.rint(single))


def _lattice_index2(grid: Grid3) -> np.ndarray:
    """Integer squared min-image index distance from voxel 0, built
    independently of grid."""
    m = np.minimum(np.indices(grid.shape), grid.n - np.indices(grid.shape))
    return (m**2).sum(axis=0)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_shell_key_gives_the_radius_ball(n):
    # the cache key is an attained shell index, and the ball it cuts is the
    # ball of the radius, also for radii on and next to a shell radius
    grid = Grid3(n)
    index2 = _lattice_index2(grid)
    assert np.array_equal(grid.shell_index(), index2)
    shells = np.unique(index2)
    h2 = grid.spacing**2
    radii = list(np.random.default_rng(n).uniform(grid.spacing, 1.5, 30))
    for m in shells[1:10]:
        r = math.sqrt(m * h2)
        radii += [r, np.nextafter(r, 0.0), np.nextafter(r, 2.0)]
    for r in map(float, radii):
        key = ball_kernel(grid, r).shell
        assert key in shells and key * h2 <= r * r
        ball = index2 * h2 <= r * r
        assert np.array_equal(index2 <= key, ball)
        assert ball_kernel(grid, r).voxel_count == int(ball.sum())
        spec = grid_module._ball_spectrum_cached(grid, key, np.float64)
        full = fft.rfftn(ball.astype(np.float64))
        # the ball is reflection-symmetric: its spectrum is real to rounding
        assert np.abs(full.imag).max() <= 1e-15 * np.abs(full).max()
        assert spec.dtype == np.float64 and np.array_equal(spec, full.real)


def test_shell_key_at_and_next_to_a_shell():
    # K(r) is the largest attained m with m h^2 <= r^2: with h = 1/4, a radius
    # sqrt(m) h has r^2 == m h^2 exactly and keeps shell m (ties included);
    # one ulp less drops it (15 is not a sum of three squares)
    grid = Grid3(16, box_len=4.0)
    for m, below in ((1, 0), (4, 3), (9, 8), (16, 14)):
        r = math.sqrt(m) * grid.spacing
        assert r * r == m * grid.spacing**2
        assert ball_kernel(grid, r).shell == m
        assert ball_kernel(grid, np.nextafter(r, 0.0)).shell == below
        assert ball_kernel(grid, np.nextafter(r, 2.0)).shell == m


def _cube_images(a: np.ndarray):
    """The 48 images of an array about voxel 0 under the symmetries of the
    cube: axis permutations times periodic reflections i -> -i."""
    for perm in itertools.permutations(range(3)):
        t = np.transpose(a, perm)
        for flips in itertools.product((False, True), repeat=3):
            out = t
            for axis, flip in enumerate(flips):
                if flip:
                    out = np.roll(np.flip(out, axis), 1, axis)
            yield out


@pytest.mark.parametrize("n", [16, 32])
def test_balls_invariant_under_cube_symmetries(n, monkeypatch):
    # a ball is a union of whole lattice shells, so every ball the kernels
    # and both brute forces cut is invariant under the 48 symmetries; none
    # of them takes a transform
    from morrey_sparse.sparseness import sparse_3d

    def banned(*args, **kwargs):
        raise AssertionError("transform called")

    for name in ("rfftn", "irfftn"):
        monkeypatch.setattr(fft, name, banned)
    grid = Grid3(n)
    shells = np.unique(_lattice_index2(grid))
    radii = [0.48095618631069903]
    for m in shells[(shells > 0) & (shells * grid.spacing**2 <= 1.0)]:
        r = grid.spacing * math.sqrt(m)
        radii += [np.nextafter(r, 0.0), r, np.nextafter(r, 2.0)]
    center = (3, n - 2, n // 2)
    for r in map(float, radii):
        kernel = ball_kernel(grid, r)
        ball = grid.shell_index() <= kernel.shell
        assert int(ball.sum()) == kernel.voxel_count
        assert all(np.array_equal(img, ball) for img in _cube_images(ball)), r
        # sparse_3d and ball_lp_bruteforce cut this same ball around a center
        inside = np.roll(ball, center, axis=(0, 1, 2))
        assert sparse_3d(VoxelSet(grid, inside), center, r) == 1.0
        assert sparse_3d(VoxelSet(grid, ~inside), center, r) == 0.0
        ones = ScalarField(grid, inside.astype(np.float64))
        assert ball_lp_bruteforce(ones, 1.0, center, r) == kernel.voxel_count * grid.voxel_volume
        assert ball_lp_bruteforce(ScalarField(grid, 1.0 - ones.data), 1.0, center, r) == 0.0


def test_one_spectrum_per_shell(grid32):
    # squared distances are sums of three squares times h^2: 9 and 10 are shells
    ra, rb, rc = (grid32.spacing * math.sqrt(k) for k in (9.25, 9.75, 10.25))
    cache = grid_module._ball_spectrum_cached
    cache.cache_clear()
    f = random_field(grid32, seed=5)
    out = list(grid_module.sliding_ball_power_multi(f, 2.0, [ra, rb, rc]))
    assert cache.cache_info().misses == 2
    (_, pa), (_, pb), (_, pc) = out
    assert pa is pb and pb is not pc and not pa.flags.writeable
    power_hat = fft.rfftn(f.magnitude() ** 2)
    assert np.array_equal(pb, grid_module.ball_power_from_spectrum(grid32, power_hat, rb))
    # float32 mask counts share the shell key too
    mask = VoxelSet(grid32, f.data[0] > 0.0)
    assert np.array_equal(sliding_ball_sum(mask, ra), sliding_ball_sum(mask, rb))
    assert cache.cache_info().misses == 3
