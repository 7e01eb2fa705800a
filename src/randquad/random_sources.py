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

:func:`sample_path` samples a Brownian motion on the grid of [0, 1] with
2^k cells (step h = 2^-k) with one extra sample strictly inside every
cell, drawn from the Brownian bridge conditional on the cell endpoints: at
time ``(j + tau) * h`` the bridge law is Normal with mean
``(1 - tau) * B_j + tau * B_{j+1}`` and variance ``tau * (1 - tau) * h``
(Glasserman, *Monte Carlo Methods in Financial Engineering*, 2003,
Section 3.1).
One stream, named by the caller, draws, in this order, the node
increments, the offsets (with any redraws) and the bridge residuals, and
no array of the path's size is ever held.  A first pass draws and drops
the increments and the offsets a block at a time and records a
:class:`BrownianPath`: a snapshot (deep copy) of the generator at the start
of each section and the few offsets that were redrawn.  Its
:meth:`~BrownianPath.blocks` drive copies of the snapshots in step, as often
as called, handing out a :class:`PathBlock` of ``BLOCK_ELEMENTS`` cells at a
time: node values, offsets and bridge samples.  numpy's generator keeps no
normal between calls and draws one word per uniform, so every block is bit
for bit what one pass over whole arrays would draw; the price is that the
node increments are drawn twice.  A grid is named by its cell count; its
step is ``1.0 / cells``, so the times ``j * h`` and ``(j + tau) * h`` are exact.

A coarser grid, whose cell count divides the path's, reuses the interior
samples exactly: :func:`select_fine_cells` picks, uniformly at random, one
of the fine cells inside each coarse cell, which keeps the coarse offsets
Uniform(0, 1), and :func:`coarse_tau_from` solves for the offsets that land
on the picked samples' times bit for bit.  It reads only the picked cells'
offsets and bridge samples, and B at the nodes around each complementary
time, in cells that :func:`complement_cells` names from the picks alone.
Picks and those cells are sorted, so a walk of the blocks reads every
rung's share of a block, two slices, with one :func:`gather` call.
"""

from __future__ import annotations

import copy
import functools
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

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


def _off_ends(u: np.ndarray, j) -> np.ndarray:
    """Where ``j + u`` rounds to j or j + 1: j = 0 for plain offsets, and the
    cell index for a path's offsets (near j = 2^24 an offset below about
    2^-30 would put j + u on a node)."""
    t = j + u
    return (t <= j) | (t >= j + 1)


def _redraws(rng: np.random.Generator, cells: np.ndarray) -> np.ndarray:
    """The final values of the flagged draws of the cells ``cells`` (float
    indices in increasing order, or zeros for plain offsets): all are
    redrawn together in index order, and those still off their cell's ends
    again, until none is left."""
    values = np.empty(cells.size)
    pending = np.arange(cells.size)
    while pending.size:
        values[pending] = rng.random(pending.size)
        pending = pending[_off_ends(values[pending], cells[pending])]
    return values


def _strict_uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Uniform(0,1) draws, each exact 0 or 1 redrawn (:func:`_redraws`)."""
    values = rng.random(count)
    flagged = np.flatnonzero((values <= 0.0) | (values >= 1.0))
    values[flagged] = _redraws(rng, np.zeros(flagged.size))
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
            if n_words != len(self.words) or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
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
        if np.minimum.reduce(values, axis=None) <= 0.0 or np.maximum.reduce(values, axis=None) >= 1.0:
            for r in np.flatnonzero(((values <= 0.0) | (values >= 1.0)).any(axis=1)):
                values[r] = _strict_uniform(_row_generator(rows[r]), count)
        yield values


def gather(rungs, ends, block: PathBlock) -> None:
    """Copy into each rung ``(picks, cells, offsets, mid_values, (left, right))``
    the offsets and bridge samples of ``block`` at its sorted fine cells
    ``picks``, and B at its sorted nodes ``cells`` and the next; the rung's
    ``ends``, the positions in both of every block start, bound block b's share."""
    b = block.start // block.offsets.size  # every block has the same size
    for (picks, cells, offsets, mid_values, (left, right)), (pick_ends, cell_ends) in zip(rungs, ends):
        # A coarse rung has picks and cells in only some blocks.
        own = slice(pick_ends[b], pick_ends[b + 1])
        if own.start < own.stop:
            i = np.subtract(picks[own], block.start, dtype=np.intp)
            offsets[own], mid_values[own] = block.offsets[i], block.mid_values[i]
        around = slice(cell_ends[b], cell_ends[b + 1])
        if around.start < around.stop:
            i = np.subtract(cells[around], block.start, dtype=np.intp)
            left[around], right[around] = block.nodes[i], block.nodes[1:][i]


class PathBlock(NamedTuple):
    """Cells ``start`` to ``start + offsets.size`` of a path: B at their
    nodes (``nodes``, one value more than cells), their offsets and their
    bridge samples."""

    start: int
    nodes: np.ndarray
    offsets: np.ndarray
    mid_values: np.ndarray


@dataclass(frozen=True, eq=False)
class BrownianPath:
    """A Brownian path on the grid of [0, 1] with ``cells`` cells and one
    interior sample per cell, as a first pass over its stream left it.

    ``step`` is ``1.0 / cells``; cell j's interior time
    ``(j + offset) * step`` lies strictly inside the cell.  The path holds
    no array of its cells: ``snapshots``, copies of the stream's generator
    at the starts of its three sections (node normals, offsets, bridge
    normals), and the cells ``redrawn`` whose offsets were redrawn, with
    their final offsets ``redraws``.  :meth:`blocks` draws the path again
    from copies of the snapshots.
    """

    cells: int
    snapshots: tuple
    redrawn: np.ndarray
    redraws: np.ndarray

    @property
    def step(self) -> float:
        return 1.0 / self.cells

    def blocks(self) -> Iterator[PathBlock]:
        """The path a :class:`PathBlock` of ``BLOCK_ELEMENTS`` cells at a
        time, each drawn, by copies of the snapshots, bit for bit as one
        pass over the whole stream would draw it."""
        nodes_rng, offsets_rng, bridge_rng = copy.deepcopy(self.snapshots)
        root_step = np.sqrt(self.step)
        size = min(self.cells, BLOCK_ELEMENTS)  # both powers of two
        last = 0.0
        for start in range(0, self.cells, size):
            nodes = np.empty(size + 1)
            nodes[0] = last
            increments = nodes_rng.standard_normal(out=nodes[1:])
            increments *= root_step
            # B(0) = 0 is not added to the first increment: one cumsum's order.
            running = increments if start == 0 else nodes
            np.cumsum(running, out=running)
            last = nodes[-1]
            tau = offsets_rng.random(size)
            lo, hi = np.searchsorted(self.redrawn, (start, start + size))
            tau[self.redrawn[lo:hi] - start] = self.redraws[lo:hi]
            mid_values = _bridge(nodes, tau, self.step, bridge_rng)
            yield PathBlock(start=start, nodes=nodes, offsets=tau, mid_values=mid_values)


def _bridge(nodes: np.ndarray, tau: np.ndarray, step: float, rng: np.random.Generator) -> np.ndarray:
    """A block's bridge samples (see :func:`sample_path`), formed with two
    work buffers that are dropped on return."""
    work = 1.0 - tau
    mid_values = work * nodes[:-1]
    work *= tau
    work *= step
    noise = rng.standard_normal(tau.size)
    noise *= np.sqrt(work, out=work)
    mid_values += np.multiply(tau, nodes[1:], out=work)
    mid_values += noise
    return mid_values


def sample_path(stream: RngStream, cells: int) -> BrownianPath:
    """Make the first pass over a Brownian path on the grid of [0, 1] with
    ``cells`` = 2^k cells: draw and drop its increments and offsets a block
    at a time, keeping a snapshot of the generator at each section's start.

    The stream draws the ``cells`` node increments, then one offset per
    cell, and redraws, within the offset section, any offset whose interior
    time would round onto a node; then it draws one bridge residual Z per
    cell.  The bridge value at ``(j + tau) * h`` is
    ``((1 - tau) * B_j + tau * B_{j+1}) + sqrt(tau * (1 - tau) * h) * Z``.

    Raises:
        ValueError: if ``cells`` is not 2^k for an integer k >= 0 (before
            anything is drawn).
    """
    cells = _integer("cells", cells, 1)
    if cells & (cells - 1):
        raise ValueError(f"cells must be a power of two, got {cells!r}")
    rng = stream.generator()
    snapshots = [copy.deepcopy(rng)]
    dropped = np.empty(min(cells, BLOCK_ELEMENTS))  # both powers of two
    for _ in range(0, cells, dropped.size):
        rng.standard_normal(out=dropped)
    snapshots.append(copy.deepcopy(rng))
    flagged = [np.empty(0, dtype=np.int64)]  # the blocks with any, so it stays short
    for start in range(0, cells, dropped.size):
        tau = rng.random(dropped.size)
        hits = np.flatnonzero(_off_ends(tau, np.arange(start, start + tau.size, dtype=np.float64)))
        if hits.size:
            flagged.append(start + hits)
    redrawn = np.concatenate(flagged)
    redraws = _redraws(rng, redrawn.astype(np.float64))
    snapshots.append(rng)
    return BrownianPath(cells=cells, snapshots=tuple(snapshots), redrawn=redrawn, redraws=redraws)


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


def select_fine_cells(fine_cells: int, cells, stream: RngStream) -> np.ndarray:
    """One fine cell drawn uniformly from ``stream`` in each of ``cells``
    coarse cells of a path of ``fine_cells`` cells, in increasing order, as
    int32; ValueError unless ``fine_cells`` is an integer in [1, 2^31] and
    ``cells`` a positive integer that divides it."""
    fine_cells = _integer("fine_cells", fine_cells, 1)
    if fine_cells > 2**31:
        raise ValueError(f"fine_cells must be at most 2^31 for int32 picks, got {fine_cells!r}")
    factor, rest = divmod(fine_cells, _integer("cells", cells, 1))
    if rest:
        raise ValueError(f"{cells!r} coarse cells do not divide the path's {fine_cells} cells")
    return (np.arange(cells) * factor + stream.generator().integers(0, factor, size=cells)).astype(np.int32)


def complement_cells(fine_cells: int, selected) -> np.ndarray:
    """The fine cells (int32) holding the complementary times of a
    :func:`select_fine_cells` selection from a path of ``fine_cells`` cells;
    :func:`coarse_tau_from` reads B at these nodes and the next.  The pick s
    of coarse cell n of f fine cells, at x fine steps (s < x < s + 1), has
    its complementary time at (2n + 1) f - x, in the mirror cell
    (2n + 1) f - 1 - s: for power-of-two counts and n >= 1 every rounding
    on the way is exact (Sterbenz), and for n = 0 it can land only on a node
    of that cell, which :func:`coarse_tau_from` rejects.  ValueError naming
    ``selected`` unless it is 1-d integers, as many as divide ``fine_cells``,
    pick n in coarse cell n."""
    picks = np.asarray(selected)
    if picks.ndim != 1 or picks.dtype.kind not in "iu" or not picks.size or fine_cells % picks.size:
        raise ValueError(f"selected must be 1-d integers whose count divides {fine_cells}, got {selected!r}")
    factor = fine_cells // picks.size
    n = np.arange(picks.size, dtype=np.int64)
    if np.any(picks.astype(np.int64) // factor != n):
        raise ValueError(f"selected has a pick n outside coarse cell n, got {selected!r}")
    return ((2 * n + 1) * factor - 1 - picks).astype(np.int32)


def coarse_tau_from(fine_cells: int, selected: np.ndarray, cells: np.ndarray, offsets, mid_values, around) -> CoarseTau:
    """The :class:`CoarseTau` of a :func:`select_fine_cells` selection from
    a path of ``fine_cells`` cells, given ``cells``, the
    ``complement_cells(fine_cells, selected)`` that checked it, and what it
    reads of the path: the selected cells' ``offsets`` and bridge samples
    ``mid_values``, and ``around``, the pair of B at the nodes ``cells`` and
    B at the nodes after them.  Past ``values`` each array is formed in
    place or in a spent one: IEEE ``+`` and ``*`` commute.

    Raises:
        ValueError: if a derived offset leaves (0, 1) or misses its fine
            sample time, or a complementary time falls on a fine node.
    """
    h_fine = 1.0 / fine_cells
    hc = 1.0 / selected.size  # one pick per coarse cell
    starts = np.arange(selected.size) * hc
    mid_times = (selected + offsets) * h_fine
    values = (mid_times - starts) / hc
    if np.any(values <= 0.0) or np.any(values >= 1.0):
        raise ValueError("derived coarse offsets left (0, 1)")
    work = values * hc
    work += starts
    if not np.array_equal(work, mid_times):
        raise ValueError("coarse offsets do not reproduce the fine sample times exactly")
    np.subtract(1.0, values, out=work)
    work *= hc
    work += starts  # the complementary times
    work -= np.multiply(cells, h_fine, out=mid_times)
    work /= h_fine  # their positions in their cells
    if np.any(work <= 0.0) or np.any(work >= 1.0):
        raise ValueError("complementary times fell on fine grid nodes; grids misaligned")
    left, right = around
    comp_values = np.subtract(1.0, work, out=mid_times)
    comp_values *= left
    comp_values += np.multiply(work, right, out=starts)
    complements = np.subtract(1.0, values, out=work)
    for arr in (values, complements, comp_values):
        arr.setflags(write=False)
    return CoarseTau(
        factor=fine_cells // selected.size,
        values=values,
        complements=complements,
        mid_values=mid_values,
        comp_values=comp_values,
    )
