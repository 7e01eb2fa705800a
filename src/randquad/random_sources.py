"""Seeded random streams, Brownian paths, and coarse-grid offset derivation.

Everything random in this package flows from an :class:`RngStream`, a
(seed, stream_id) pair mapped through ``numpy.random.SeedSequence`` so that
distinct stream ids under one seed give independent, non-overlapping
generators and the same pair always reproduces the same draws.

Batch seeding: a Monte Carlo study draws from thousands of consecutive
stream ids, and building a ``SeedSequence`` and a ``PCG64`` per stream costs
far more than the draws.  :func:`sample_tau_batches` therefore derives the
PCG64 states of a whole range of stream ids in one vectorised pass (numpy's
SeedSequence hash and mix as uint32 column operations, then PCG64's
seeding step per row) and draws every row through one reused generator.
The derived states are bit-for-bit those of
``default_rng(SeedSequence([seed, stream_id]))``.  That contract rests on
numpy's seeding algorithms staying as they are; a test compares the two on
edge seeds and ids, so a numpy release that changed them would fail it.
``RngStream.generator()`` stays the single-stream path.

A :class:`BrownianPath` holds a fine-grid Brownian motion together with one
extra sample strictly inside every fine cell, drawn from the Brownian
bridge conditional on the cell endpoints: at time ``(j + tau) * h`` the
bridge law is Normal with mean ``(1 - tau) * B_j + tau * B_{j+1}`` and
variance ``tau * (1 - tau) * h``.  Those interior samples exist so that a
coarser grid can reuse them exactly: :func:`coarsen_tau` picks, uniformly
at random, one of the k interior samples inside each coarse cell and
solves for the coarse offset that lands on its time bit for bit, so the
randomised rule's primary evaluation points are never interpolated.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .quadrature import TauSequence

_MAX_UINT64 = 2**64


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (seed, stream_id).

    ``generator()`` returns a fresh generator positioned at the start of
    the stream, so repeated calls replay the same draws.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name, v in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not 0 <= int(v) < _MAX_UINT64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream_id]))


def _strict_uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform(0,1) draws with exact endpoints redrawn."""
    values = rng.random(count)
    bad = (values <= 0.0) | (values >= 1.0)
    while bad.any():
        values[bad] = rng.random(int(bad.sum()))
        bad = (values <= 0.0) | (values >= 1.0)
    return values


def sample_tau_sequence(stream: RngStream, count: int) -> TauSequence:
    """Draw ``count`` i.i.d. Uniform(0,1) offsets, strictly inside (0,1)."""
    if count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    values = _strict_uniform(stream.generator(), int(count))
    return TauSequence(values=values, complements=1.0 - values)


# numpy's SeedSequence (numpy/random/bit_generator.pyx): pool size, hash and
# mix constants.
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


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
    if rows < 1:
        raise ValueError(f"rows must be a positive integer, got {rows!r}")
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


def _pcg64_state(words) -> dict:
    """The ``PCG64.state`` that seeding with ``generate_state`` output ``words`` sets.

    PCG64's srandom: inc = (seq << 1) | 1, state = 0, step, add the initial
    state, step.  From state 0 the first step yields inc.
    """
    s_hi, s_lo, i_hi, i_lo = map(int, words)
    inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
    state = (((s_hi << 64) | s_lo) + inc) * _PCG64_MULT + inc
    return {
        "bit_generator": "PCG64",
        "state": {"state": state & _MASK128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def sample_tau_batches(
    stream: RngStream, replications: int, count: int, block_rows: int
) -> Iterator[TauSequence]:
    """Offset sequences of ``count`` offsets for ``replications`` streams, in blocks.

    Yields 2-d :class:`TauSequence` blocks of up to ``block_rows`` rows.
    Replication m comes from its own stream ``(stream.seed,
    stream.stream_id + m)`` and is bit-for-bit ``sample_tau_sequence`` on
    that stream, so batching replications changes no draw.  The seeds of all
    the streams are derived up front in one vectorised pass
    (:func:`_seed_words`); each row is then drawn through one reused
    generator set to that stream's start state.  A row holding an exact 0 or
    1 is redrawn from its start state by the single-stream rule.

    Raises:
        ValueError: if a count is not positive or a stream id would leave
            the 64-bit range (before anything is drawn).
    """
    if count < 1 or block_rows < 1:
        raise ValueError(f"count and block_rows must be positive integers, got {count!r} and {block_rows!r}")
    # Seeded here, outside the generator, so a bad range fails at the call.
    words = _seed_words(stream.seed, stream.stream_id, replications)
    return _draw_blocks(words, int(count), int(block_rows))


def _draw_blocks(words: np.ndarray, count: int, block_rows: int) -> Iterator[TauSequence]:
    # The seed is irrelevant: every row sets its own stream's state first.
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for start in range(0, len(words), block_rows):
        states = [_pcg64_state(w) for w in words[start : start + block_rows].tolist()]
        values = np.empty((len(states), count))
        for row, state in zip(values, states):
            bitgen.state = state
            gen.random(out=row)
        for r in np.flatnonzero(((values <= 0.0) | (values >= 1.0)).any(axis=1)):
            bitgen.state = states[r]
            values[r] = _strict_uniform(gen, count)
        yield TauSequence(values=values, complements=1.0 - values)


@dataclass(frozen=True, eq=False)
class BrownianPath:
    """Fine-grid Brownian motion plus one bridge sample inside every cell.

    grid_values[j] is B(j * step) with B(0) = 0; mid_times[j] is the time
    ``(j + offsets.values[j]) * step`` strictly inside cell j and
    mid_values[j] the bridge-sampled B at that time.
    """

    step: float
    total_time: float
    grid_times: np.ndarray
    grid_values: np.ndarray
    offsets: TauSequence
    mid_times: np.ndarray
    mid_values: np.ndarray

    @property
    def cells(self) -> int:
        return int(self.grid_values.size - 1)


def sample_brownian_path(stream: RngStream, total_time: float, step: float) -> BrownianPath:
    """Sample a Brownian path on the fine grid and its interior bridge points.

    Draw order is fixed (increments, then offsets, then bridge residuals) so
    a (seed, stream_id) pair pins the whole path.

    Raises:
        ValueError: if ``step`` is not in (0, total_time] or does not divide
            ``total_time`` to within rounding.
    """
    T = float(total_time)
    h = float(step)
    if not np.isfinite(T) or T <= 0.0:
        raise ValueError(f"total_time must be positive and finite, got {total_time!r}")
    if not np.isfinite(h) or h <= 0.0 or h > T:
        raise ValueError(f"step must lie in (0, total_time], got {step!r}")
    cells = round(T / h)
    if cells < 1 or abs(cells * h - T) > 4.0 * np.spacing(T):
        raise ValueError(f"step {step!r} does not divide total_time {total_time!r}")

    rng = stream.generator()
    increments = rng.standard_normal(cells) * np.sqrt(h)
    offsets = _strict_uniform(rng, cells)
    residuals = rng.standard_normal(cells)

    grid_values = np.empty(cells + 1)
    grid_values[0] = 0.0
    np.cumsum(increments, out=grid_values[1:])
    grid_times = np.linspace(0.0, T, cells + 1)

    complements = 1.0 - offsets
    mid_times = (np.arange(cells) + offsets) * h
    bridge_mean = complements * grid_values[:-1] + offsets * grid_values[1:]
    bridge_sd = np.sqrt(offsets * complements * h)
    mid_values = bridge_mean + bridge_sd * residuals

    for arr in (grid_times, grid_values, mid_times, mid_values):
        arr.setflags(write=False)
    return BrownianPath(
        step=h,
        total_time=T,
        grid_times=grid_times,
        grid_values=grid_values,
        offsets=TauSequence(values=offsets, complements=complements),
        mid_times=mid_times,
        mid_values=mid_values,
    )


@dataclass(frozen=True, eq=False)
class CoarseTau:
    """Coarse-grid offsets derived from a fine path's interior samples.

    For every coarse cell n the time ``t_n + values[n] * coarse_step`` is
    bit-for-bit one of the path's ``mid_times`` (its index is recorded in
    ``selected_indices``), so the randomised rule on the coarse grid reuses
    fine-grid samples with zero interpolation error.

    The complementary evaluation point ``t_n + complements[n] * coarse_step``
    has no pre-sampled value in general.  When the mirrored fine slot
    (slot k-1-s for selected slot s) happens to sit exactly on it, that
    sample is reused and ``comp_is_mirror[n]`` is True; otherwise the value
    is the conditional mean given the two fine grid values around it (their
    linear interpolant).  The interpolant keeps the construction free of
    randomness beyond the path's own, so a degenerate all-zero path yields
    exactly zero quadrature values.
    """

    factor: int
    coarse_step: float
    values: np.ndarray
    complements: np.ndarray
    selected_indices: np.ndarray
    mid_times: np.ndarray
    mid_values: np.ndarray
    comp_times: np.ndarray
    comp_values: np.ndarray
    comp_is_mirror: np.ndarray

    def __len__(self) -> int:
        return int(self.values.size)


def coarsen_tau(path: BrownianPath, coarse_step: float, stream: RngStream) -> CoarseTau:
    """Derive coarse-grid offsets that reuse the path's interior samples.

    Each coarse cell of width ``coarse_step = k * path.step`` contains k
    fine interior samples; one is selected uniformly at random (from
    ``stream``), which keeps the coarse offsets Uniform(0,1).
    Complementary points are resolved as described on :class:`CoarseTau`.

    Raises:
        ValueError: if ``coarse_step`` is not an integer multiple of the
            path step, or the grids are not exactly representable (use
            dyadic step sizes for the bit-for-bit reuse guarantee).
    """
    h_fine = path.step
    hc = float(coarse_step)
    if not np.isfinite(hc) or hc <= 0.0:
        raise ValueError(f"coarse_step must be positive, got {coarse_step!r}")
    factor = round(hc / h_fine)
    if factor < 1 or abs(factor * h_fine - hc) > 4.0 * np.spacing(hc):
        raise ValueError(
            f"coarse_step {coarse_step!r} is not an integer multiple of the path step {h_fine!r}"
        )
    fine_cells = path.cells
    cells, rem = divmod(fine_cells, factor)
    if rem != 0:
        raise ValueError(
            f"coarsening factor {factor} does not divide the {fine_cells} fine cells"
        )

    rng = stream.generator()
    slots = rng.integers(0, factor, size=cells)
    selected = np.arange(cells) * factor + slots
    coarse_nodes = path.grid_times[:: factor]

    mid_times = path.mid_times[selected]
    values = (mid_times - coarse_nodes[:-1]) / hc
    if np.any(values <= 0.0) or np.any(values >= 1.0):
        raise ValueError("derived coarse offsets left (0, 1); is the path grid dyadic?")
    if not np.array_equal(coarse_nodes[:-1] + values * hc, mid_times):
        raise ValueError(
            "coarse offsets do not reproduce the fine sample times exactly; "
            "use dyadic step sizes"
        )

    complements = 1.0 - values
    comp_times = coarse_nodes[:-1] + complements * hc

    mirror = selected - slots + (factor - 1 - slots)
    comp_is_mirror = path.mid_times[mirror] == comp_times
    comp_values = np.where(comp_is_mirror, path.mid_values[mirror], 0.0)

    fresh = ~comp_is_mirror
    if fresh.any():
        cell_idx = np.minimum(
            np.floor(comp_times[fresh] / h_fine).astype(np.int64), fine_cells - 1
        )
        left = path.grid_times[cell_idx]
        frac = (comp_times[fresh] - left) / h_fine
        if np.any(frac <= 0.0) or np.any(frac >= 1.0):
            raise ValueError("complementary times fell on fine grid nodes; grids misaligned")
        comp_values[fresh] = (
            (1.0 - frac) * path.grid_values[cell_idx] + frac * path.grid_values[cell_idx + 1]
        )

    for arr in (values, complements, selected, mid_times, comp_times, comp_values, comp_is_mirror):
        arr.setflags(write=False)
    return CoarseTau(
        factor=factor,
        coarse_step=hc,
        values=values,
        complements=complements,
        selected_indices=selected,
        mid_times=mid_times,
        mid_values=path.mid_values[selected],
        comp_times=comp_times,
        comp_values=comp_values,
        comp_is_mirror=comp_is_mirror,
    )


def save_path_csv(path: BrownianPath, destination) -> None:
    """Dump a path as CSV for cross-implementation comparison.

    One row per grid index j; the final row (j = J) has no interior sample
    and leaves the tau, t_mid and B_mid fields empty.  Floats are written
    in shortest round-trip form, so every field parses back to the same float.
    """
    with open(destination, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "t", "B_grid", "tau", "t_mid", "B_mid"])
        J = path.cells
        for j in range(J + 1):
            row = [str(j), repr(float(path.grid_times[j])), repr(float(path.grid_values[j]))]
            if j < J:
                row += [
                    repr(float(path.offsets.values[j])),
                    repr(float(path.mid_times[j])),
                    repr(float(path.mid_values[j])),
                ]
            else:
                row += ["", "", ""]
            writer.writerow(row)

