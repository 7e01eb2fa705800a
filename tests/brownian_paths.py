"""Whole Brownian paths for the tests, built from the functions that
``run_example2`` calls: ``sample_path_grid``'s nodes and offsets with its
bridge blocks collected into one array, coarse offsets from
``select_fine_cells`` and ``coarse_tau_from``, and ``euler_prefix`` over all
the cells as one block."""

import numpy as np

from randquad.integrands import BrownianIntegrand, euler_prefix
from randquad.random_sources import BrownianGrid, coarse_tau_from, sample_path_grid, select_fine_cells


def collect_path(grid, bridge):
    """``grid`` and the bridge samples that ``bridge`` yields, in one array,
    from a ``(grid, bridge)`` pair as ``sample_path_grid`` returns it."""
    mid_values = np.empty(grid.cells)
    for start, values in bridge:
        mid_values[start : start + values.size] = values
    return grid, mid_values


def sampled_path(stream, cells):
    """``sample_path_grid(stream, cells)``'s grid and its collected bridge samples."""
    return collect_path(*sample_path_grid(stream, cells))


def coarsened(grid, mid_values, cells, stream):
    """The fine cells ``select_fine_cells`` picks from ``stream``, one in
    each of ``cells`` coarse cells, and the :class:`CoarseTau` that
    ``coarse_tau_from`` derives from their samples."""
    selected = select_fine_cells(grid, cells, stream)
    return selected, coarse_tau_from(grid, selected, mid_values[selected])


def hand_grid(grid_values, offsets):
    """A grid of [0, 1] with the given node values and offsets."""
    grid_values = np.asarray(grid_values, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    return BrownianGrid(grid_values=grid_values, offsets=offsets)


def euler_integrand(grid):
    """The Euler approximation of the integral of ``grid``'s path, its prefix
    sums formed over every cell as one block."""
    prefix = euler_prefix(grid.grid_values[:-1], grid.step)
    return BrownianIntegrand(grid_values=grid.grid_values, prefix=prefix, stride=1)
