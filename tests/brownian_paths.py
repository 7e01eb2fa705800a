"""Whole Brownian paths for the tests, built from the functions that
``run_example2`` calls: ``sample_path``'s blocks collected into whole
arrays, coarse offsets from ``select_fine_cells``, ``complement_cells`` and
``coarse_tau_from``, and ``euler_prefix`` over all the cells as one block."""

from typing import NamedTuple

import numpy as np

from randquad.integrands import BrownianIntegrand, euler_prefix
from randquad.random_sources import complement_cells, coarse_tau_from, sample_path, select_fine_cells


class WholePath(NamedTuple):
    """A path's node values and offsets as whole arrays."""

    grid_values: np.ndarray
    offsets: np.ndarray

    @property
    def cells(self) -> int:
        return int(self.offsets.size)

    @property
    def step(self) -> float:
        return 1.0 / self.cells

    def mid_times(self, cells: np.ndarray) -> np.ndarray:
        """The interior sample times of the cells with the given indices."""
        return (cells + self.offsets[cells]) * self.step


def collect_path(path):
    """The :class:`WholePath` of a ``sample_path`` result and its bridge
    samples, collected from its blocks."""
    grid_values = np.empty(path.cells + 1)
    offsets = np.empty(path.cells)
    mid_values = np.empty(path.cells)
    for block in path.blocks():
        stop = block.start + block.offsets.size
        grid_values[block.start : stop + 1] = block.nodes
        offsets[block.start : stop] = block.offsets
        mid_values[block.start : stop] = block.mid_values
        del block  # copied: let it go before the next one is drawn
    return WholePath(grid_values, offsets), mid_values


def sampled_path(stream, cells):
    """``sample_path(stream, cells)`` collected: its whole path and bridge samples."""
    return collect_path(sample_path(stream, cells))


def coarse_tau_of(path, mid_values, picks):
    """``coarse_tau_from`` on one rung's ``picks`` (one fine cell in each
    coarse cell, held as int32 as ``select_fine_cells`` holds them) of the
    whole path ``path`` with bridge samples ``mid_values``, reading at the
    picks and around their complementary times what a rung reads."""
    picks = np.asarray(picks, dtype=np.int32)
    offsets = path.offsets[picks]
    around = complement_cells(path.cells, picks)
    return coarse_tau_from(path.cells, picks, around, offsets, mid_values[picks], (path.grid_values[around], path.grid_values[around + 1]))


def coarsened(path, mid_values, cells, stream):
    """The fine cells ``select_fine_cells`` picks from ``stream``, one in
    each of ``cells`` coarse cells of the whole path ``path``, and the
    :class:`CoarseTau` that ``coarse_tau_from`` derives from their samples."""
    selected = select_fine_cells(path.cells, cells, stream)
    return selected, coarse_tau_of(path, mid_values, selected)


def hand_grid(grid_values, offsets):
    """A whole path of [0, 1] with the given node values and offsets."""
    return WholePath(np.asarray(grid_values, dtype=float), np.asarray(offsets, dtype=float))


def euler_integrand(grid):
    """The Euler approximation of the integral of ``grid``'s path, its prefix
    sums formed over every cell as one block."""
    prefix = euler_prefix(grid.grid_values[:-1], grid.step)
    return BrownianIntegrand(grid_values=grid.grid_values, prefix=prefix, stride=1)
