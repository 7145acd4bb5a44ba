"""The Navier-Stokes scaling u_lambda(x) = lambda u(lambda x) as a cross-grid
oracle, at lambda = 2, which is exact on the lattice: a field on grid n,
tiled twice per axis onto grid 2n (spacing h/2) and multiplied by 2, has
its lattice offsets preserved, so the fine grid's ball B_r is the coarse
grid's B_{2r}.  Curl scales by lambda^2, super-level sets of the
vorticity tile, and their semi-mixedness at r equals the coarse one at 2r."""

import numpy as np
import pytest

from morrey_sparse.fields import random_solenoidal_field
from morrey_sparse.grid import Grid3, VectorField, curl
from morrey_sparse.sparseness import semi_mixed, superlevel_sets


def _tiled(f: VectorField) -> VectorField:
    """2 f(2x) on the grid of twice the resolution and the same box."""
    return VectorField(Grid3(2 * f.grid.n, f.grid.box_len), 2.0 * np.tile(f.data, (1, 2, 2, 2)))


@pytest.mark.parametrize("n, kmax, seed", [(8, 3, 1), (8, 2, 5), (16, 4, 2), (16, 8, 3)])
def test_semi_mixed_under_the_scaling(n, kmax, seed):
    coarse = random_solenoidal_field(Grid3(n), kmax, seed)
    fine = _tiled(coarse)
    omega, omega_fine = curl(coarse), curl(fine)
    scaled = 4.0 * np.tile(omega.data, (1, 2, 2, 2))
    assert np.abs(omega_fine.data - scaled).max() <= 1e-14 * np.abs(scaled).max()
    h = coarse.grid.spacing
    # ball radii in voxels of each grid; at most n/2 keeps the coarse ball on the torus
    radii = [t for t in (1.1, 1.5, 2.3, 3.2, 5.1) if t < n / 2]
    for lam in (0.3, 0.5, 0.7):
        sets = superlevel_sets(omega, lam)
        sets_fine = superlevel_sets(omega_fine, lam)
        for label, S in sets.items():
            S_fine = sets_fine[label]
            assert np.array_equal(S_fine.mask, np.tile(S.mask, (2, 2, 2))), (lam, label)
            for t in radii:
                for delta in (0.3, 0.6):
                    assert (semi_mixed(S_fine, t * h / 2.0, delta)
                            == semi_mixed(S, t * h, delta)), (lam, label, t, delta)
