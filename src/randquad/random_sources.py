"""Seeded random streams, Brownian paths, and coarse-grid offset derivation.

Everything random in this package flows from an :class:`RngStream`, a
(seed, stream_id) pair mapped through ``numpy.random.SeedSequence`` so that
distinct stream ids under one seed give independent, non-overlapping
generators and the same pair always reproduces the same draws.

Batch seeding: a Monte Carlo study draws from thousands of consecutive
stream ids, and building a ``SeedSequence`` and a ``PCG64`` per stream costs
far more than the draws.  :func:`sample_tau_batches` therefore computes
the ``SeedSequence`` output words of a whole range of stream ids in one
vectorised pass (numpy's SeedSequence hash and mix as uint32 column
operations) and hands each row to numpy's own ``PCG64``, which seeds itself
from those words.  Only SeedSequence's hash is reproduced here; the
generators are bit-for-bit those of
``default_rng(SeedSequence([seed, stream_id]))``.  That contract rests on
numpy's SeedSequence staying as it is; a test compares the two on edge
seeds and ids, so a numpy release that changed it would fail it.
``RngStream.generator()`` stays the single-stream path.

:func:`sample_path_grid` samples a Brownian motion on the grid of [0, 1]
with 2^k cells (step h = 2^-k) with one extra sample strictly inside every
cell, drawn from the Brownian bridge conditional on the cell endpoints: at
time ``(j + tau) * h`` the bridge law is Normal with mean
``(1 - tau) * B_j + tau * B_{j+1}`` and variance ``tau * (1 - tau) * h``.
One stream draws the node values and the offsets whole (a
:class:`BrownianGrid`), then the bridge residuals a block at a time, which
numpy's generator (it keeps no normal between calls) makes bit for bit one
draw; the bridge samples are handed out block by block and never held
whole.  A grid is named by its cell count; its step is ``1.0 / cells``, so
the times ``j * h`` and ``(j + tau) * h`` are exact and are computed where
they are used.  A coarser grid, whose cell count divides the path's, reuses
the interior samples exactly: :func:`select_fine_cells` picks, uniformly at
random, one of the fine cells inside each coarse cell, which keeps the
coarse offsets Uniform(0, 1), and :func:`coarse_tau_from` solves for the
offsets that land on the picked samples' times bit for bit.  The picks are
drawn before the bridge, so a caller that consumes the blocks keeps only
the samples it picked.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .summation import BLOCK_ELEMENTS

_MAX_UINT64 = 2**64


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by integers 0 <= seed, stream_id < 2^64.

    ``generator()`` returns a fresh generator positioned at the start of
    the stream, so repeated calls replay the same draws.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name, v in (("seed", self.seed), ("stream_id", self.stream_id)):
            if _integer(name, v, 0) >= _MAX_UINT64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream_id]))


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an
    integer (``operator.index``: not 2.5, nan or inf) of at least ``least``."""
    try:
        if operator.index(value) >= least:
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _strict_uniform(rng: np.random.Generator, count: int, per_cell: bool = False) -> np.ndarray:
    """Uniform(0,1) draws u, each redrawn while ``j + u`` rounds to j or
    j + 1: j = 0 for plain offsets, and j is u's index for a path's offsets
    (``per_cell``; near j = 2^24 an offset below about 2^-30 would put
    j + u on a node).  The check runs a block at a time, and the flagged
    draws are redrawn together in index order until none is left."""

    def off_ends(u: np.ndarray, j) -> np.ndarray:
        t = j + u
        return (t <= j) | (t >= j + 1)

    values = rng.random(count)
    flagged = []
    for start in range(0, count, BLOCK_ELEMENTS):
        block = values[start : start + BLOCK_ELEMENTS]
        cells = np.arange(start, start + block.size, dtype=np.float64) if per_cell else 0
        flagged.append(start + np.flatnonzero(off_ends(block, cells)))
    flagged = np.concatenate(flagged)
    while flagged.size:
        values[flagged] = rng.random(flagged.size)
        flagged = flagged[off_ends(values[flagged], flagged if per_cell else 0)]
    return values


def sample_tau_sequence(stream: RngStream, count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. Uniform(0,1) offsets, strictly inside (0,1).

    A 1-d float64 array; the rules form the complements 1 - tau themselves.
    """
    return _strict_uniform(stream.generator(), _integer("count", count, 1))


# numpy's SeedSequence (numpy/random/bit_generator.pyx): pool size, hash and
# mix constants.
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int):
    """The (xor, multiply) constant pairs of SeedSequence's successive hash calls."""
    while True:
        nxt = (init * mult) & _MASK32
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _seed_words(seed: int, first: int, rows: int) -> np.ndarray:
    """``SeedSequence([seed, first + r]).generate_state(4, np.uint64)`` for every row r.

    A (rows, 4) uint64 array, computed column-wise for all rows at once.
    SeedSequence splits each integer into 32-bit words (one word for 0),
    concatenates them and hashes missing pool entries as 0.  Seed and id are
    both below 2^64, so the entropy fits the pool; writing every id as two
    words is then exact, because a zero high word is the zero padding.
    ``seed`` and ``first`` come from an :class:`RngStream`, which has
    checked their range; the ids past ``first`` are checked here.
    """
    seed, first, rows = int(seed), int(first), int(rows)
    if first + rows > _MAX_UINT64:
        raise ValueError(f"stream ids {first!r} + [0, {rows!r}) leave the 64-bit unsigned range")
    ids = (np.arange(rows, dtype=np.uint64) + np.uint64(first)).astype("<u8").view("<u4").reshape(rows, 2)
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    pool = np.zeros((_POOL_WORDS, rows), dtype=np.uint32)
    pool[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    pool[len(seed_words) : len(seed_words) + 2] = ids.T

    # SeedSequence.mix_entropy: hash every pool word, then mix each word
    # into every other, in numpy's order.
    consts = _hash_constants(_INIT_A, _MULT_A)
    mixer = [_hashmix(word, consts) for word in pool]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                mixer[dst] = _mix(mixer[dst], _hashmix(mixer[src], consts))

    # SeedSequence.generate_state(4, np.uint64): eight 32-bit words cycling
    # through the pool, paired little-endian into four 64-bit words.
    consts = _hash_constants(_INIT_B, _MULT_B)
    state = np.empty((rows, 2 * _POOL_WORDS), dtype="<u4")
    for i in range(2 * _POOL_WORDS):
        state[:, i] = _hashmix(mixer[i % _POOL_WORDS], consts)
    return state.view("<u8").astype(np.uint64)


@functools.cache
def _seed_row_type() -> type:
    """An ``ISeedSequence`` holding one row of :func:`_seed_words`, from which
    numpy's ``PCG64`` seeds itself exactly as from ``SeedSequence([seed, stream_id])``.

    PCG64 reads the returned C-contiguous buffer directly, so any request
    other than the row's 4 uint64 words fails loudly.  The class is built on
    first use because its base lives in ``numpy.random``, an 11 ms import
    that nothing else needs when this module is imported.
    """

    class SeedRow(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a seed row holds {len(self.words)} uint64 words, not {n_words!r} of {dtype!r}")
            return self.words

    return SeedRow


def _row_generator(words: np.ndarray) -> np.random.Generator:
    """A generator at the start of the stream whose seed words are ``words``."""
    return np.random.Generator(np.random.PCG64(_seed_row_type()(words)))


def sample_tau_batches(stream: RngStream, replications: int, count: int) -> Iterator[np.ndarray]:
    """Offset sequences of ``count`` offsets for ``replications`` streams, in blocks.

    Yields 2-d float64 arrays of ``max(1, BLOCK_ELEMENTS // count)`` rows,
    about one summation kernel block of cells, with one offset sequence per
    row.  Replication m comes from its own stream
    ``(stream.seed, stream.stream_id + m)`` and is bit-for-bit
    ``sample_tau_sequence`` on that stream, so batching changes no draw.
    The seeds of all the streams are derived up front in one vectorised
    pass (:func:`_seed_words`), and numpy seeds each row's ``PCG64`` from
    them.  A row holding an exact 0 or 1 is redrawn from its
    stream's start by the single-stream rule.

    Raises:
        ValueError: if ``replications`` or ``count`` is not a positive
            integer, or a stream id would leave the 64-bit range (before
            anything is drawn).
    """
    replications = _integer("replications", replications, 1)
    count = _integer("count", count, 1)
    # Seeded here, outside the generator, so a bad range fails at the call.
    return _draw_blocks(_seed_words(stream.seed, stream.stream_id, replications), count)


def _draw_blocks(words: np.ndarray, count: int) -> Iterator[np.ndarray]:
    rows_per_block = max(1, BLOCK_ELEMENTS // count)
    for start in range(0, len(words), rows_per_block):
        rows = words[start : start + rows_per_block]
        values = np.empty((len(rows), count))
        for row, row_words in zip(values, rows):
            _row_generator(row_words).random(out=row)
        for r in np.flatnonzero(((values <= 0.0) | (values >= 1.0)).any(axis=1)):
            values[r] = _strict_uniform(_row_generator(rows[r]), count)
        yield values


@dataclass(frozen=True, eq=False)
class BrownianGrid:
    """Brownian motion on the grid of [0, 1] and one offset per cell.

    ``step`` is ``1.0 / cells``.  ``grid_values[j]`` is B at ``j * step``,
    with B(0) = 0, and cell j's interior time ``(j + offsets[j]) * step``
    (:meth:`mid_times`) lies strictly inside the cell.
    """

    grid_values: np.ndarray
    offsets: np.ndarray

    @property
    def cells(self) -> int:
        return int(self.grid_values.size - 1)

    @property
    def step(self) -> float:
        return 1.0 / self.cells

    def mid_times(self, cells: np.ndarray) -> np.ndarray:
        """The interior sample times of the cells with the given indices."""
        return (cells + self.offsets[cells]) * self.step


def sample_path_grid(stream: RngStream, cells: int) -> tuple[BrownianGrid, Iterator[tuple[int, np.ndarray]]]:
    """Sample a Brownian path's nodes and offsets on the grid of [0, 1] with
    ``cells`` = 2^k cells, with an iterator that then draws the bridge
    samples and yields ``(first cell, values)`` per block of
    ``BLOCK_ELEMENTS`` cells.

    An offset whose interior time would round onto a node is redrawn within
    the offset section.  The bridge value at ``(j + tau) * h`` is
    ``((1 - tau) * B_j + tau * B_{j+1}) + sqrt(tau * (1 - tau) * h) * Z``.

    Raises:
        ValueError: if ``cells`` is not 2^k for an integer k >= 0.
    """
    cells = _integer("cells", cells, 1)
    if cells & (cells - 1):
        raise ValueError(f"cells must be a power of two, got {cells!r}")
    rng = stream.generator()
    grid_values = np.zeros(cells + 1)
    increments = rng.standard_normal(out=grid_values[1:])
    increments *= np.sqrt(1.0 / cells)
    np.cumsum(increments, out=increments)
    offsets = _strict_uniform(rng, cells, per_cell=True)
    for arr in (grid_values, offsets):
        arr.setflags(write=False)
    grid = BrownianGrid(grid_values=grid_values, offsets=offsets)
    return grid, _bridge_blocks(grid, rng)


def _bridge_blocks(grid: BrownianGrid, rng: np.random.Generator) -> Iterator[tuple[int, np.ndarray]]:
    for start in range(0, grid.cells, BLOCK_ELEMENTS):
        tau = grid.offsets[start : start + BLOCK_ELEMENTS]
        left = grid.grid_values[start : start + tau.size + 1]
        mean = (1.0 - tau) * left[:-1] + tau * left[1:]
        yield start, mean + np.sqrt(tau * (1.0 - tau) * grid.step) * rng.standard_normal(tau.size)


@dataclass(frozen=True, eq=False)
class CoarseTau:
    """Coarse-grid offsets derived from a fine path's interior samples.

    For every coarse cell n, starting at t_n on the grid of step h, the
    time ``t_n + values[n] * h`` is bit-for-bit the path's interior sample
    time of the fine cell :func:`select_fine_cells` picked in it, so
    ``mid_values`` are reused fine-grid samples with zero interpolation
    error.  ``factor`` is the number of fine cells per coarse cell.

    The complementary point ``t_n + complements[n] * h`` has no sample of
    its own; ``comp_values`` holds the conditional mean of B there given the
    two fine grid values around it (their linear interpolant).  That keeps
    the construction free of randomness beyond the path's own, so a
    degenerate all-zero path yields exactly zero quadrature values.
    ``complements`` holds the offsets ``1 - values`` of those points.
    """

    factor: int
    values: np.ndarray
    complements: np.ndarray
    mid_values: np.ndarray
    comp_values: np.ndarray

    def __len__(self) -> int:
        return int(self.values.size)


def select_fine_cells(grid: BrownianGrid, cells: int, stream: RngStream) -> np.ndarray:
    """One fine cell drawn uniformly from ``stream`` in each of ``cells``
    coarse cells, in increasing order; ValueError unless ``cells`` is a
    positive integer that divides the path's cell count."""
    factor, rest = divmod(grid.cells, _integer("cells", cells, 1))
    if rest:
        raise ValueError(f"{cells!r} coarse cells do not divide the path's {grid.cells} cells")
    return np.arange(cells) * factor + stream.generator().integers(0, factor, size=cells)


def coarse_tau_from(grid: BrownianGrid, selected: np.ndarray, mid_values: np.ndarray) -> CoarseTau:
    """The :class:`CoarseTau` of a :func:`select_fine_cells` selection whose
    bridge samples are ``mid_values``.

    Raises:
        ValueError: if a derived offset leaves (0, 1) or does not reproduce
            its fine sample time exactly, or a complementary time falls on a
            fine node.
    """
    h_fine = grid.step
    hc = 1.0 / selected.size  # one pick per coarse cell
    starts = np.arange(selected.size) * hc
    mid_times = grid.mid_times(selected)
    values = (mid_times - starts) / hc
    if np.any(values <= 0.0) or np.any(values >= 1.0):
        raise ValueError("derived coarse offsets left (0, 1)")
    if not np.array_equal(starts + values * hc, mid_times):
        raise ValueError("coarse offsets do not reproduce the fine sample times exactly")

    # Drop each array once dead: on the finest rung these set Example 2's peak.
    del mid_times
    complements = 1.0 - values
    complement_times = starts + complements * hc
    del starts
    cell_idx = np.minimum(np.floor(complement_times / h_fine).astype(np.int64), grid.cells - 1)
    frac = (complement_times - cell_idx * h_fine) / h_fine
    del complement_times
    if np.any(frac <= 0.0) or np.any(frac >= 1.0):
        raise ValueError("complementary times fell on fine grid nodes; grids misaligned")
    comp_values = (1.0 - frac) * grid.grid_values[cell_idx]
    comp_values += frac * grid.grid_values[cell_idx + 1]

    for arr in (values, complements, comp_values):
        arr.setflags(write=False)
    return CoarseTau(
        factor=grid.cells // selected.size,
        values=values,
        complements=complements,
        mid_values=mid_values,
        comp_values=comp_values,
    )
