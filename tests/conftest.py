import numpy as np
import pytest
from hypothesis import settings

from morrey_sparse.grid import Grid3, VectorField
from morrey_sparse.fields import random_solenoidal_field

# every property test is reproducible and untimed; each sets its own max_examples
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture
def grid16():
    return Grid3(16)


@pytest.fixture
def grid32():
    return Grid3(32)


def unit_x_field(grid: Grid3, value: float = 1.0) -> VectorField:
    data = np.zeros((3,) + grid.shape)
    data[0] = value
    return VectorField(grid, data)


def sine_y_field(grid: Grid3, amplitude: float = 1.0) -> VectorField:
    y = grid.axis_coords()[None, :, None]
    data = np.zeros((3,) + grid.shape)
    data[0] = amplitude * np.broadcast_to(np.sin(y), grid.shape)
    return VectorField(grid, data)


def random_field(grid: Grid3, seed: int, kmax: int = 4) -> VectorField:
    return random_solenoidal_field(grid, kmax, seed)
