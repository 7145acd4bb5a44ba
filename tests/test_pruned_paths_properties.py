"""Property tests of the pruned and memoized paths against their slow
oracles (differential testing): the theta = inf shell search of ``gm_norm``
and ``classical_morrey`` against the fold over every node at every voxel,
the per-field memo of the implication checks against fresh copies of the
field, and the float32 mask counts of ``semi_mixed`` and ``z_alpha_member``
against the per-center ball count of ``sparse_3d``, and the solver's 2/3-block
transforms and operators against ``scipy.fft`` and the full layout's.  Fields
are drawn at n in {8, 12, 16}: seeded, blobs, one-voxel spikes and zero,
scaled (x0, x1e-300, x4, x1e150) and shifted periodically."""

import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from morrey_sparse import grid as grid_module
from morrey_sparse.fields import random_solenoidal_field, vorticity_blob
from morrey_sparse.grid import (Grid3, ScalarField, VectorField, _derivative, _irfftn_block,
                                _rfftn_block, ball_kernel, block_extent, curl, curl_hat,
                                project_hat, sup_norm, wavenumbers)
from morrey_sparse.grid import sliding_ball_power_multi as full_power
from morrey_sparse.morrey import (MorreyParams, WeightSpec, classical_morrey, gm_norm,
                                  log_scale_nodes)
from morrey_sparse.sparseness import (SET_LABELS, Z_ALPHA_SCALES, admissible_pair, semi_mixed,
                                      sparse_3d, superlevel_sets, z_alpha_member)
from morrey_sparse.verify import check_lemma_gm, check_lemma_l2

from test_morrey import _classical_sup_reference, _gm_sup_reference

# (n, box length): every grid leaves room for scale nodes in [2h, 1]
GRIDS = st.sampled_from([(8, math.pi), (12, math.pi), (16, math.pi), (16, 2.0 * math.pi)])
SCALES = (1.0, 0.0, 1e-300, 4.0, 1e150)


@st.composite
def fields(draw, vector_only=False):
    """A seeded field, a blob, a one-voxel spike or zero, scaled and shifted."""
    n, box = draw(GRIDS)
    grid = Grid3(n, box)
    kinds = ["seeded", "blob", "zero"] + ([] if vector_only else ["spike"])
    kind = draw(st.sampled_from(kinds))
    if kind == "seeded":
        f = random_solenoidal_field(grid, draw(st.integers(1, n // 2 - 1)),
                                    draw(st.integers(0, 999)))
    elif kind == "blob":
        center = tuple(draw(st.integers(0, n - 1)) for _ in range(3))
        f = vorticity_blob(grid, center, sigma=draw(st.sampled_from([1.5, 3.0])) * grid.spacing)
    elif kind == "spike":
        data = np.zeros(grid.shape)
        data[tuple(draw(st.integers(0, n - 1)) for _ in range(3))] = draw(
            st.sampled_from([1.0, 0.3, 7.0]))
        f = ScalarField(grid, data)
    else:
        f = VectorField(grid, np.zeros((3,) + grid.shape))
    shift = tuple(draw(st.integers(0, n - 1)) for _ in range(3))
    data = np.roll(f.data * draw(st.sampled_from(SCALES)), shift, axis=(-3, -2, -1))
    return type(f)(grid, data)


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of the ValueError it
    raises (an overflowing |f|^p fails both paths alike)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=150)
@given(f=fields(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       nu=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]), rho=st.sampled_from([0.0, 0.3, 0.6, 0.9]),
       nodes=st.integers(1, 16), alpha=st.sampled_from([-0.5, 0.0, 1.0, 2.0]))
def test_shell_search_equals_full_evaluation(f, p, nu, rho, nodes, alpha):
    # the same value, the first center in C order and the same node as the
    # fold over every node at every voxel, with the same ball arithmetic
    params = MorreyParams.default(f.grid, WeightSpec(nu=nu, rho=rho), p=p, count=nodes)
    assert outcome(gm_norm, f, params) == outcome(_gm_sup_reference, f, params, power=full_power)
    r_min = params.scales[0]
    scales = log_scale_nodes(f.grid, r_min, 1.0, nodes)
    assert (outcome(classical_morrey, f, p, alpha, r_min, 1.0, count=nodes)
            == outcome(_classical_sup_reference, f, p, alpha, scales, power=full_power))


L2_CELLS = st.tuples(st.just("l2"), st.sampled_from([0.75, 0.8, 0.85, 0.9]),
                     st.sampled_from([0.5, 0.7, 0.9]))
GM_CELLS = st.tuples(st.just("gm"), st.sampled_from([0.75, 0.85]), st.sampled_from([0.5, 0.9]),
                     st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from([math.inf, 2.0, 3.0]),
                     st.sampled_from([0.75, 1.0]), st.sampled_from([0.05, 0.45]),
                     st.sampled_from(["curl", "identity"]))


def _check(f, cell):
    lemma, delta, r, *rest = cell
    if lemma == "l2":
        return outcome(check_lemma_l2, f, admissible_pair(delta), r, densities=True)
    p, theta, alpha, rho, mode = rest
    return outcome(check_lemma_gm, f, admissible_pair(delta), p, theta, alpha, rho, r, mode,
                   densities=True)


@settings(max_examples=60)
@given(f=fields(vector_only=True),
       cells=st.lists(st.one_of(L2_CELLS, GM_CELLS), min_size=2, max_size=5))
def test_memoized_checks_equal_fresh_copies(f, cells):
    # consecutive checks on one field object share its memo; each equals the
    # check of a fresh copy, whose memo starts empty
    warm = [_check(f, cell) for cell in cells]
    fresh = [_check(VectorField(f.grid, f.data.copy()), cell) for cell in cells]
    assert warm == fresh


@settings(max_examples=25)
@given(f=fields(vector_only=True), lam=st.sampled_from([0.3, 0.45, 0.6]),
       radius=st.sampled_from([1.1, 1.6, 2.5]))
def test_float32_counts_equal_brute_force(f, lam, radius):
    # per set, the max over centers of the per-center ball count and the
    # first center in C order reaching it, exact in float32 and float64 counts
    omega = curl(f)
    if sup_norm(omega) == 0.0:
        return  # no super-level sets of a zero field (or one that underflows)
    r = radius * f.grid.spacing
    sets = list(superlevel_sets(omega, lam).values())
    kernel = ball_kernel(f.grid, r)
    centers = list(product(range(f.grid.n), repeat=3))
    balls = [kernel.mask(c) for c in centers]
    counts = np.array([[int(S.mask[ball].sum()) for ball in balls] for S in sets])
    for S, c in zip(sets, counts):
        witness = centers[int(np.argmax(c))]
        density = sparse_3d(S, witness, r)
        assert density == float(c.max()) / kernel.voxel_count
        # delta at the max density itself pins the <= side of ok
        deltas = [0.5] + [density] * (0.0 < density < 1.0)
        for single in (grid_module.SINGLE_COUNT_VOXELS, 0):  # float32, then float64 counts
            with mock.patch.object(grid_module, "SINGLE_COUNT_VOXELS", single):
                for delta in deltas:
                    assert semi_mixed(S, r, delta) == (density <= delta, density, witness)


def _z_alpha_least_densities(f, sets, alpha, c0):
    """Per voxel, from ``sparse_3d``: the least density, over the scales
    (1/c) ||f||^(-alpha) that ``z_alpha_member`` samples, of the set of the
    dominant signed component around the voxel."""
    grid = f.grid
    cs = np.geomspace(1.0 / c0, c0, Z_ALPHA_SCALES + 2)[1:-1]
    scales = [float(r) for r in sup_norm(f) ** -alpha / cs if grid.spacing < r < grid.box_len / 2]
    balls = {ball_kernel(grid, r).voxel_count: r for r in scales}  # one scale per distinct ball
    least = np.empty(grid.shape)
    for center in product(range(grid.n), repeat=3):
        values = f.data[(slice(None),) + center]
        comp = int(np.abs(values).argmax())
        S = sets[2 * comp + (values[comp] < 0.0)]
        least[center] = min(sparse_3d(S, center, r) for r in balls.values())
    return least


@settings(max_examples=20)
@given(n=st.sampled_from([8, 12]), kind=st.sampled_from(["seeded", "blob"]),
       seed=st.integers(0, 999), lam=st.sampled_from([0.05, 0.2, 0.4]),
       base=st.sampled_from([1.1, 1.6, 2.4]), c0=st.sampled_from([1.3, 2.0]), data=st.data())
def test_z_alpha_member_equals_brute_force(n, kind, seed, lam, base, c0, data):
    # the ball sums against K + 0.5 decide as the per-voxel densities against
    # delta (ok and the first ten failing voxels); delta is drawn among the
    # voxels' least densities too, exact ratios k/|B| that pin the <= side
    grid = Grid3(n)
    if kind == "seeded":
        f = random_solenoidal_field(grid, data.draw(st.sampled_from([2, n // 2 - 1])), seed)
    else:
        center = tuple(int(c) for c in np.random.default_rng(seed).integers(0, n, 3))
        f = vorticity_blob(grid, center, sigma=data.draw(st.sampled_from([1.5, 3.0])) * grid.spacing)
    f = VectorField(grid, f.data / (base * grid.spacing))  # at alpha = 1 the scales are base h / c
    sets = list(superlevel_sets(f, lam).values())
    least = _z_alpha_least_densities(f, sets, 1.0, c0)
    exact = sorted({float(d) for d in least.flat if 0.7 < d < 1.0})
    pinned = exact and data.draw(st.booleans())
    delta = data.draw(st.sampled_from(exact if pinned else [0.75, 0.9]))
    failing = [tuple(int(v) for v in row) for row in np.argwhere(least > delta)[:10]]
    assert z_alpha_member(f, 1.0, admissible_pair(delta), c0,
                          sets=dict(zip(SET_LABELS, sets))) == (not failing, failing)


def _block_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The full layout's entries of a block spectrum's cos/sin rows (P, Q):
    along a full axis b_f = P_f - iQ_f and b_-f = P_f + iQ_f, in rfft order
    f = 0..m-1, then -(m-1)..-1; along z, the first m of them."""
    m = block_extent(n)
    f = np.r_[0:m, 1 - m:0]
    rows = np.arange(2 * m - 1)
    g = np.zeros((2 * m - 1, 2 * m), dtype=complex)
    g[rows, np.abs(f)] = 1.0
    g[rows, m + np.abs(f)] = np.where(f < 0, 1j, -1j)
    return g, g[:m]


# 1/n inexact at 10, 12, 14, 18 and 24; n = 3m at 12, 18 and 24, where the
# block boundary |i| = n/3 is a frequency of the grid and is dropped
@pytest.mark.parametrize("n", [8, 10, 12, 14, 16, 18, 24, 32])
def test_block_transforms_equal_full_layout_transforms(n):
    # the 2/3 block holds the frequencies |i| < n/3 in the cos/sin basis.
    # Gathered into the full layout, its transforms and operators equal
    # scipy.fft and the full layout's: the forward, the inverse of the block
    # scattered into zeros, the round trip and each derivative, for 3-vectors
    # and scalars, then curl_hat and project_hat, within 1e-14 of the max
    m = block_extent(n)
    keep = np.r_[0:m, n - m + 1:n]
    freq = scipy.fft.fftfreq(n, d=1.0 / n)
    assert sorted(np.abs(freq[keep])) == sorted(np.abs(freq[np.abs(freq) < n / 3.0]))
    block = (...,) + np.ix_(keep, keep, range(m))
    full_k, block_k = wavenumbers(Grid3(n)), wavenumbers(Grid3(n), block=True)
    p = np.abs(freq[keep]).astype(int)  # the P row of each block frequency
    assert np.array_equal(np.broadcast_to(full_k.divisor, (n, n, n // 2 + 1))[block],
                          block_k.divisor[np.ix_(p, p, range(m))])
    g, gz = _block_gather(n)

    def gather(bh):
        return np.einsum("ai,bj,ck,...ijk->...abc", g, g, gz, bh, optimize=True)

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    u = np.random.default_rng(n).standard_normal((3, n, n, n))
    for data in (u[0], u):  # the 3-vector last, for the operators below
        bh, hat = _rfftn_block(data), scipy.fft.rfftn(data, axes=(-3, -2, -1))
        close(gather(bh), hat[block])
        full = np.zeros_like(hat)
        full[block] = gather(bh)
        back = _irfftn_block(bh, n)
        close(back, scipy.fft.irfftn(full, s=(n, n, n), axes=(-3, -2, -1)))
        close(_rfftn_block(back), bh)
        for axis in range(3):
            close(gather(_derivative(bh, block_k, axis)), _derivative(hat, full_k, axis)[block])
    for op in (curl_hat, project_hat):
        close(gather(op(bh, block_k)), op(hat, full_k)[block])
