"""Seeded random streams, Brownian paths, and coarse-grid offset derivation.

Everything random in this package flows from an :class:`RngStream`, a
(seed, stream_id) pair mapped through ``numpy.random.SeedSequence`` so that
distinct stream ids under one seed give independent, non-overlapping
generators and the same pair always reproduces the same draws.

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


def sample_tau_batch(stream: RngStream, rows: int, count: int) -> TauSequence:
    """A 2-d batch of ``rows`` offset sequences of ``count`` offsets each.

    Row r comes from its own stream ``(stream.seed, stream.stream_id + r)``
    and is bit-for-bit ``sample_tau_sequence`` on that stream, so batching
    replications changes no draw.
    """
    if rows < 1 or count < 1:
        raise ValueError(f"rows and count must be positive integers, got {rows!r} and {count!r}")
    values = np.empty((int(rows), int(count)))
    for r in range(int(rows)):
        values[r] = _strict_uniform(RngStream(stream.seed, stream.stream_id + r).generator(), int(count))
    return TauSequence(values=values, complements=1.0 - values)


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


_PATH_CSV_HEADER = ["j", "t", "B_grid", "tau", "t_mid", "B_mid"]


def save_path_csv(path: BrownianPath, destination) -> None:
    """Dump a path as CSV for cross-implementation comparison.

    One row per grid index j; the final row (j = J) has no interior sample
    and leaves the tau, t_mid and B_mid fields empty.  Floats are written
    in shortest round-trip form, so a dump/load cycle is lossless.
    """
    with open(destination, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_PATH_CSV_HEADER)
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


def load_path_csv(source) -> BrownianPath:
    """Rebuild a :class:`BrownianPath` from :func:`save_path_csv` output."""
    with open(source, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _PATH_CSV_HEADER:
            raise ValueError(f"unexpected path CSV header: {header!r}")
        rows = list(reader)
    if len(rows) < 2:
        raise ValueError("path CSV must contain at least two grid rows")
    J = len(rows) - 1
    grid_times = np.array([float(r[1]) for r in rows])
    grid_values = np.array([float(r[2]) for r in rows])
    offsets = np.array([float(r[3]) for r in rows[:J]])
    mid_times = np.array([float(r[4]) for r in rows[:J]])
    mid_values = np.array([float(r[5]) for r in rows[:J]])
    step = grid_times[1] - grid_times[0]
    for arr in (grid_times, grid_values, mid_times, mid_values):
        arr.setflags(write=False)
    return BrownianPath(
        step=float(step),
        total_time=float(grid_times[-1]),
        grid_times=grid_times,
        grid_values=grid_values,
        offsets=TauSequence.from_values(offsets),
        mid_times=mid_times,
        mid_values=mid_values,
    )
