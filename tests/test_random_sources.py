import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from randquad import experiments, random_sources
from randquad.integrands import power_integrand, sobolev_seminorm
from randquad.quadrature import make_partition
from randquad.random_sources import (
    RngStream,
    _row_generator,
    _seed_row_type,
    _seed_words,
    _strict_uniform,
    coarse_tau_from,
    complement_cells,
    sample_path,
    sample_tau_batches,
    sample_tau_sequence,
    select_fine_cells,
)
from randquad.summation import BLOCK_ELEMENTS

from brownian_paths import WholePath, coarse_tau_of, coarsened, collect_path, hand_grid, sampled_path

EDGE_SEEDS = [0, 1, 2, 2**32 - 1, 2**32, 2**64 - 1]
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


class TestRngStream:
    def test_same_pair_reproduces(self):
        a = RngStream(12, 3).generator().random(100)
        b = RngStream(12, 3).generator().random(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(12, 3).generator().random(100)
        b = RngStream(12, 4).generator().random(100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -5), (2**64, 0)])
    def test_rejects_out_of_range(self, seed, stream):
        with pytest.raises(ValueError):
            RngStream(seed, stream)


class TestTauSampling:
    def test_regeneration_is_bitwise(self):
        a = sample_tau_sequence(RngStream(7, 1), 1000)
        b = sample_tau_sequence(RngStream(7, 1), 1000)
        np.testing.assert_array_equal(a, b)

    def test_strictly_interior(self):
        tau = sample_tau_sequence(RngStream(0), 10**5)
        assert np.all(tau > 0.0)
        assert np.all(tau < 1.0)

    def test_uniform_moments(self):
        tau = sample_tau_sequence(RngStream(101), 10**5)
        assert abs(tau.mean() - 0.5) < 0.01
        assert abs(tau.var() - 1.0 / 12.0) < 0.005

    def test_streams_uncorrelated(self):
        a = sample_tau_sequence(RngStream(55, 0), 10**5)
        b = sample_tau_sequence(RngStream(55, 1), 10**5)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.02

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_tau_sequence(RngStream(1), 0)


class TestBatchSeeding:
    """The vectorised seeding must reproduce numpy's SeedSequence, and numpy's
    PCG64 seeded from its words must match, bit for bit; a numpy release that
    changed either would fail here first."""

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize(
        "first,rows",
        [(0, 3), (2**20 - 1, 2), (2**32 - 2, 4), (2**40, 2), (2**64 - 3, 3)],
        ids=["zero", "slot-edge", "straddles-2^32", "lane", "top"],
    )
    def test_states_equal_numpy_seeding(self, seed, first, rows):
        words = _seed_words(seed, first, rows)
        assert words.shape == (rows, 4) and words.dtype == np.uint64
        for r in range(rows):
            seq = np.random.SeedSequence([seed, first + r])
            np.testing.assert_array_equal(words[r], seq.generate_state(4, np.uint64))
            assert np.random.PCG64(_seed_row_type()(words[r])).state == np.random.PCG64(seq).state

    @pytest.mark.parametrize("n_words,dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64), (4, ">u8")])
    def test_seed_row_rejects_any_other_request(self, n_words, dtype):
        row = _seed_row_type()(_seed_words(1, 2, 1)[0])
        with pytest.raises(ValueError, match="4 uint64 words"):
            row.generate_state(n_words, dtype)
        assert row.generate_state(4, np.uint64) is row.words

    @pytest.mark.parametrize(
        "rows,count", [(1, 48), (2, 48), (64, 48), (1000, 48), (3, BLOCK_ELEMENTS + 5)]
    )
    def test_rows_equal_single_stream_draws(self, rows, count):
        stream = RngStream(11, (3 << 40) + 5)
        blocks = list(sample_tau_batches(stream, rows, count))
        block_rows = max(1, BLOCK_ELEMENTS // count)
        assert [len(b) for b in blocks] == [min(block_rows, rows - s) for s in range(0, rows, block_rows)]
        values = np.concatenate(blocks)
        for m in (range(rows) if rows <= 64 else (0, 1, 84, 85, 500, rows - 1)):
            expected = sample_tau_sequence(RngStream(stream.seed, stream.stream_id + m), count)
            np.testing.assert_array_equal(values[m].view(np.int64), expected.view(np.int64))

    def test_a_row_drawing_an_exact_zero_is_redrawn_by_the_single_stream_rule(self, monkeypatch):
        # Seed words whose seeded state steps to 0 make the first output, and
        # so the first uniform, exactly 0.0.  PCG64 seeds with inc = 2 seq + 1
        # and state = (initstate + inc) * mult + inc.
        words = _seed_words(4, 2, 1)[0]
        seq = (int(words[2]) << 64) | int(words[3])
        inc = ((seq << 1) | 1) & _MASK128
        mult_inverse = pow(_PCG64_MULT, -1, 1 << 128)
        zero_next = (-inc * mult_inverse) % (1 << 128)
        initstate = ((zero_next - inc) * mult_inverse - inc) % (1 << 128)
        zero_words = np.array([initstate >> 64, initstate & ((1 << 64) - 1), words[2], words[3]], dtype=np.uint64)
        original = random_sources._row_generator

        def patched(row_words):
            return original(zero_words if np.array_equal(row_words, words) else row_words)

        monkeypatch.setattr(random_sources, "_row_generator", patched)
        (block,) = sample_tau_batches(RngStream(4), 5, 16)
        rng = _row_generator(zero_words)
        assert rng.random() == 0.0
        rng = _row_generator(zero_words)
        np.testing.assert_array_equal(block[2], _strict_uniform(rng, 16))
        assert np.all(block > 0.0)
        for m in (0, 1, 3, 4):
            np.testing.assert_array_equal(block[m], sample_tau_sequence(RngStream(4, m), 16))

    def test_stream_ids_past_64_bits_rejected_before_drawing(self):
        # Like RngStream, the batch refuses ids of 2^64 and more; the check is
        # made when the batch is requested, not when its first block is drawn.
        with pytest.raises(ValueError, match="64-bit"):
            sample_tau_batches(RngStream(0, 2**64 - 5), 6, 4)
        (block,) = sample_tau_batches(RngStream(1, 2**64 - 2), 2, 4)
        np.testing.assert_array_equal(block[1], sample_tau_sequence(RngStream(1, 2**64 - 1), 4))

    @pytest.mark.parametrize(
        "replications,count,message",
        [(2.5, 4, "replications"), (0, 4, "replications"), (-3, 4, "replications"), (4, 0, "count"), (4, 2.5, "count")],
    )
    def test_non_integer_or_non_positive_sizes_rejected_before_seeding(self, replications, count, message, monkeypatch):
        # 2.5 replications once drew two streams; 0 failed naming "rows".
        monkeypatch.setattr(random_sources, "_seed_words", lambda *args: pytest.fail("seeded before the sizes were checked"))
        with pytest.raises(ValueError, match=f"{message} must be an integer of at least 1"):
            sample_tau_batches(RngStream(0), replications, count)


@pytest.mark.parametrize("value", [64.0, 2.5, float("nan"), float("inf")])
@pytest.mark.parametrize(
    "name,least,build",
    [
        ("intervals", 1, make_partition),
        ("cells", 2, lambda cells: sobolev_seminorm(power_integrand(1.5), 1.2, 2.0, cells)),
        ("seed", 0, RngStream),
        ("stream_id", 0, lambda stream_id: RngStream(0, stream_id)),
        ("count", 1, lambda count: sample_tau_sequence(RngStream(0), count)),
        ("cells", 1, lambda cells: sample_path(RngStream(0), cells)),
        ("fine_cells", 1, lambda fine_cells: select_fine_cells(fine_cells, 1, RngStream(0))),
    ],
    ids=["make_partition", "sobolev_seminorm", "seed", "stream_id", "sample_tau_sequence", "sample_path", "select_fine_cells"],
)
def test_every_count_and_id_is_checked_by_one_integer_rule(name, least, build, value):
    # A whole float once built a 64-cell partition and a 64-cell Sobolev
    # estimate, and RngStream(2.5) drew seed 2's streams.
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer of at least {least}, got {value!r}")):
        build(value)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random is about a tenth of the package's import time, and
    # _seed_row_type defers it to the first draw; numpy 1.x loads it with
    # numpy itself, so there the check has nothing to guard.
    code = (
        "import sys, numpy; eager = 'numpy.random' in sys.modules; import randquad.cli; "
        "print(eager or 'numpy.random' not in sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"


class PlantedGenerator:
    """numpy's generator for seed 0, except that the uniform draw with
    absolute index n (counting every value ``random`` has returned, however
    the calls split them) is ``plants[n]``; every uniform drawn is kept in
    ``draws`` by its index.  A path's first pass draws from it, and its
    blocks from deep copies of it, which plant the same values."""

    def __init__(self, plants):
        self.rng = np.random.default_rng(0)
        self.plants = plants
        self.drawn = 0
        self.draws = {}

    def random(self, size):
        values = self.rng.random(size)
        for index, value in self.plants.items():
            if self.drawn <= index < self.drawn + size:
                values[index - self.drawn] = value
        self.draws.update(zip(range(self.drawn, self.drawn + size), values.tolist()))
        self.drawn += size
        return values

    def standard_normal(self, *args, **kwargs):
        return self.rng.standard_normal(*args, **kwargs)

    def stream(self):
        return SimpleNamespace(generator=lambda: self)


def _whole_array_strict_uniform(rng, count, base):
    def off_ends():
        t = base + values
        return (t <= base) | (t >= base + 1)

    values = rng.random(count)
    bad = off_ends()
    while bad.any():
        values[bad] = rng.random(int(bad.sum()))
        bad = off_ends()
    return values


def whole_array_brownian_path(stream, cells):
    """``sample_path`` with its blocks collected, as first written over
    whole arrays: the oracle."""
    h = 1.0 / cells
    rng = stream.generator()
    grid_values = np.zeros(cells + 1)
    np.cumsum(rng.standard_normal(cells) * np.sqrt(h), out=grid_values[1:])
    offsets = _whole_array_strict_uniform(rng, cells, base=np.arange(cells))
    complements = 1.0 - offsets
    mid_values = complements * grid_values[:-1]
    work = offsets * grid_values[1:]
    mid_values += work
    np.multiply(offsets, complements, out=work)
    work *= h
    np.sqrt(work, out=work)
    work *= rng.standard_normal(out=complements)
    mid_values += work
    return WholePath(grid_values, offsets), mid_values


def assert_paths_bitwise_equal(a, b):
    (grid_a, mids_a), (grid_b, mids_b) = a, b
    assert grid_a.cells == grid_b.cells
    for name in ("grid_values", "offsets"):
        assert getattr(grid_a, name).tobytes() == getattr(grid_b, name).tobytes(), name
    assert mids_a.tobytes() == mids_b.tobytes(), "mid_values"


def peak_and_kept(fn):
    """The peak and the final traced memory of ``fn()``, with its result.
    A first small path keeps the lazy imports behind numpy's generators out
    of the count."""
    sampled_path(RngStream(0), 2**4)
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, kept, result


class TestSamplePathGrid:
    def test_starts_at_zero_every_seed(self):
        for seed in range(5):
            grid, _ = sampled_path(RngStream(seed), 2**4)
            assert grid.grid_values[0] == 0.0

    def test_terminal_variance(self):
        terminal = np.array(
            [sampled_path(RngStream(9, i), 2**6)[0].grid_values[-1] for i in range(10**4)]
        )
        assert abs(terminal.var() - 1.0) < 0.05

    def test_bridge_residuals_standard_normal(self):
        path, mid_values = sampled_path(RngStream(23), 2**14)
        tau = path.offsets
        mean = (1.0 - tau) * path.grid_values[:-1] + tau * path.grid_values[1:]
        sd = np.sqrt(tau * (1.0 - tau) * path.step)
        residuals = ((mid_values - mean) / sd)[: 10**4]
        assert abs(residuals.mean()) < 0.05
        assert abs(residuals.var() - 1.0) < 0.07

    def test_union_grid_increments_match_interval_lengths(self):
        """Grid plus interior samples must still look like one Brownian path:
        each union-grid increment has variance equal to its interval length.
        This pins the orientation of the bridge mean."""
        path, mid_values = sampled_path(RngStream(31), 2**12)
        tau = path.offsets
        left = mid_values - path.grid_values[:-1]
        right = path.grid_values[1:] - mid_values
        ratios = np.concatenate(
            [left**2 / (tau * path.step), right**2 / ((1.0 - tau) * path.step)]
        )
        assert abs(ratios.mean() - 1.0) < 0.06

    def test_interior_times_strictly_inside(self):
        path, _ = sampled_path(RngStream(3), 2**8)
        cells = np.arange(path.cells)
        assert np.all(path.mid_times(cells) > cells * path.step)
        assert np.all(path.mid_times(cells) < (cells + 1) * path.step)

    def test_offset_whose_time_rounds_onto_a_node_is_redrawn(self):
        # 1 + 1e-300 rounds to 1, so the first offset drawn for cell 1 would
        # put its interior time on node 1; the draw after the 16 offsets
        # replaces it.
        rng = PlantedGenerator({1: 1e-300})
        path, _ = sampled_path(rng.stream(), 2**4)
        first = np.array([rng.draws[n] for n in range(16)])
        assert first[1] == 1e-300 and len(rng.draws) == 17
        assert path.offsets[1] == rng.draws[16]
        np.testing.assert_array_equal(np.delete(path.offsets, 1), np.delete(first, 1))
        cells = np.arange(path.cells)
        assert np.all(path.mid_times(cells) > cells * path.step)
        assert np.all(path.mid_times(cells) < (cells + 1) * path.step)

    @pytest.mark.parametrize("seed", [0, 2, 7, 11])
    def test_bitwise_equals_the_whole_array_oracle(self, seed):
        for k in range(17):
            stream = RngStream(seed, k)
            assert_paths_bitwise_equal(sampled_path(stream, 2**k), whole_array_brownian_path(stream, 2**k))

    def test_redraws_across_blocks_and_rounds_equal_the_oracle(self):
        # Cells 1 and 4097 (in the second block) would land on their left
        # node and cell 8191 on its right one; the first redraw of cell 1
        # (draw 8192, the first after the offsets) lands on the node again,
        # so a second round redraws it.
        plants = {1: 1e-300, 4097: 1e-300, 8191: 1.0 - 2.0**-53, 8192: 1e-300}
        rng = PlantedGenerator(plants)
        path, mid_values = sampled_path(rng.stream(), 2**13)
        assert len(rng.draws) == 2**13 + 3 + 1
        assert path.offsets[1] == rng.draws[8195]
        assert path.offsets[4097] == rng.draws[8193] and path.offsets[8191] == rng.draws[8194]
        oracle = whole_array_brownian_path(PlantedGenerator(plants).stream(), 2**13)
        assert_paths_bitwise_equal((path, mid_values), oracle)

    def test_peak_holds_the_sampled_arrays_and_a_few_blocks(self):
        # Both passes draw a block of BLOCK_ELEMENTS cells at a time: the
        # block the caller holds (node values, offsets, bridge samples) and
        # five arrays for the next, and no array of the path's size.  Whole,
        # the node values and offsets once took 2^20 bytes here.
        def consumed():
            for _ in sample_path(RngStream(0), 2**16).blocks():
                pass

        peak, _, _ = peak_and_kept(consumed)
        assert peak <= 8 * BLOCK_ELEMENTS * 8 + 16 * 1024
        peak, _, _ = peak_and_kept(lambda: sampled_path(RngStream(0), 2**16))
        assert peak <= 3 * 2**16 * 8 + 8 * BLOCK_ELEMENTS * 8

    def test_keeps_only_the_sampled_arrays(self):
        # The first pass keeps generators and the few redrawn offsets, not
        # the path.  Collected, the node values, offsets and interior values
        # are three arrays of 2^16 float64, and nothing else of that size.
        _, kept, path = peak_and_kept(lambda: sample_path(RngStream(0), 2**16))
        assert path.cells == 2**16
        assert kept <= 16 * 1024
        _, kept, (whole, _) = peak_and_kept(lambda: sampled_path(RngStream(0), 2**16))
        assert whole.cells == 2**16
        assert kept <= 3 * 2**16 * 8 + 16 * 1024

    def test_picked_offsets_are_the_paths_offsets(self):
        # Cell 4097 is picked and redrawn (its first offset, draw 4097, is
        # planted on its node), so its gathered offset is the redraw.  The
        # rungs' coarse cells span two blocks, one, half of one and one cell;
        # a narrow dtype need not hold the cell count.  The walk gathers
        # everything a rung reads: offsets and bridge samples at the picks,
        # and B around their complementary times.
        picked = [np.array([4097]), np.array([5, 8191]), np.int32([0, 2049, 4097, 8191]), np.arange(2**13), np.int8([5])]
        path = sample_path(PlantedGenerator({4097: 1e-300}).stream(), 2**13)
        _, _, rungs = experiments._stream_path(path, 2**13, picked)
        whole, mid_values = collect_path(path)
        for picks, (own, comps, offsets, mids, (left, right)) in zip(picked, rungs, strict=True):
            assert own is picks
            np.testing.assert_array_equal(comps, complement_cells(path.cells, picks))
            np.testing.assert_array_equal(offsets, whole.offsets[picks])
            np.testing.assert_array_equal(mids, mid_values[picks])
            np.testing.assert_array_equal(left, whole.grid_values[comps])
            np.testing.assert_array_equal(right, whole.grid_values[comps + 1])
        assert rungs[0][2][0] != 1e-300

    def test_blocks_replay_the_same_path(self):
        path = sample_path(RngStream(6), 2**13)
        assert_paths_bitwise_equal(collect_path(path), collect_path(path))

    @pytest.mark.parametrize("k", [0, 1, 5, 12])
    def test_step_is_exactly_the_dyadic_step(self, k):
        path = sample_path(RngStream(k), 2**k)
        assert path.cells == 2**k and path.step == 2.0**-k

    @pytest.mark.parametrize("cells", [0, -4, 3, 12, 2.5, 16.0, float("nan"), float("inf")])
    def test_rejects_cell_counts_not_a_power_of_two(self, cells):
        with pytest.raises(ValueError, match=f"cells must be .*, got {cells!r}"):
            sample_path(RngStream(1), cells)


class TestCoarsening:
    def test_identity_at_factor_one(self):
        path, mid_values = sampled_path(RngStream(4), 2**6)
        selected, ctau = coarsened(path, mid_values, 2**6, RngStream(4, 1))
        assert ctau.factor == 1
        np.testing.assert_allclose(ctau.values, path.offsets, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(selected, np.arange(path.cells))

    def test_slot_one_formula(self):
        # Selector that picks fine slot 1 of interval 0: tau_h = (1 + tau_1) / 2.
        path = hand_grid([0.0, 0.5, -0.25], [0.25, 0.75])
        stream = next(
            RngStream(0, i)
            for i in range(50)
            if RngStream(0, i).generator().integers(0, 2, size=1)[0] == 1
        )
        selected, ctau = coarsened(path, np.array([0.1, 0.2]), 1, stream)
        assert selected[0] == 1
        assert ctau.values[0] == (1.0 + 0.75) / 2.0
        assert ctau.mid_values[0] == 0.2

    @pytest.mark.parametrize("k", [2**i for i in range(1, 10)])
    def test_reuse_is_bitwise_exact(self, k):
        path, mid_values = sampled_path(RngStream(77), 2**14)
        hc = k * path.step
        selected, ctau = coarsened(path, mid_values, path.cells // k, RngStream(77, k))
        starts = np.arange(path.cells // k) * hc
        np.testing.assert_array_equal(starts + ctau.values * hc, path.mid_times(selected))
        np.testing.assert_array_equal(mid_values[selected], ctau.mid_values)
        assert np.all(ctau.values > 0.0) and np.all(ctau.values < 1.0)
        lo = np.arange(len(ctau)) * k
        assert np.all(selected >= lo)
        assert np.all(selected < lo + k)

    def test_coarse_offsets_still_uniform(self):
        # Uniform slot choice over per-slot uniforms keeps the marginal U(0,1):
        # Kolmogorov-Smirnov at the 1% level.
        path, mid_values = sampled_path(RngStream(13), 2**19)
        _, ctau = coarsened(path, mid_values, path.cells // 4, RngStream(13, 1))
        u = np.sort(ctau.values)
        n = u.size
        grid = np.arange(1, n + 1) / n
        d_stat = max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))
        assert d_stat < 1.628 / np.sqrt(n)

    def test_interpolated_complement_on_generic_path(self):
        path, mid_values = sampled_path(RngStream(19), 2**10)
        hc = 2.0**-7
        _, ctau = coarsened(path, mid_values, 2**7, RngStream(19, 1))
        comp_times = np.arange(len(ctau)) * hc + ctau.complements * hc
        idx = np.floor(comp_times / path.step).astype(int)
        frac = (comp_times - idx * path.step) / path.step
        assert np.all(frac > 0.0) and np.all(frac < 1.0)
        expected = (1 - frac) * path.grid_values[idx] + frac * path.grid_values[idx + 1]
        np.testing.assert_allclose(ctau.comp_values, expected, rtol=1e-12)

    @pytest.mark.parametrize(
        "cells,message",
        [(3, "do not divide"), (6, "do not divide"), (32, "do not divide"), (0, "at least 1"), (2.5, "integer")],
    )
    def test_rejects_counts_that_do_not_divide_the_paths(self, cells, message, monkeypatch):
        monkeypatch.setattr(RngStream, "generator", lambda self: pytest.fail("drew before the count was checked"))
        with pytest.raises(ValueError, match=message):
            select_fine_cells(2**4, cells, RngStream(1, 1))

    @pytest.mark.parametrize(
        "fine_cells, message",
        [
            (2**40, "fine_cells must be at most 2^31 for int32 picks"),
            (2**31 + 4, "fine_cells must be at most 2^31 for int32 picks"),
            (-16, "fine_cells must be an integer of at least 1"),
            (0, "fine_cells must be an integer of at least 1"),
        ],
        ids=["2^40", "past-int32", "negative", "zero"],
    )
    def test_rejects_fine_cell_counts_before_drawing(self, fine_cells, message, monkeypatch):
        # 2^40 cells once gave picks wrapped to negative int32 values, and
        # -16 failed inside numpy with "high <= 0" (whole floats are checked
        # with every other count).
        assert np.all(select_fine_cells(2**31, 4, RngStream(1)) // 2**29 == np.arange(4))
        monkeypatch.setattr(RngStream, "generator", lambda self: pytest.fail("drew before the count was checked"))
        with pytest.raises(ValueError, match=re.escape(f"{message}, got {fine_cells!r}")):
            select_fine_cells(fine_cells, 4, RngStream(1))

    @pytest.mark.parametrize(
        "selected, message",
        [
            ([3, 100, -1], "must be 1-d integers whose count divides 8"),
            ([8], "has a pick n outside coarse cell n"),
            ([2.7], "must be 1-d integers whose count divides 8"),
            ([2.0], "must be 1-d integers whose count divides 8"),
            (3, "must be 1-d integers whose count divides 8"),
            ([1, 2], "has a pick n outside coarse cell n"),
            ([[1, 2]], "must be 1-d integers whose count divides 8"),
            (np.array([], dtype=np.int64), "must be 1-d integers whose count divides 8"),
            ([-1, 2, 4, 6], "has a pick n outside coarse cell n"),
            (np.uint64([2**63 + 1, 5]), "has a pick n outside coarse cell n"),
        ],
        ids=[
            "three-of-eight",
            "past-the-end",
            "fractional",
            "whole-float",
            "scalar",
            "second-pick-outside",
            "2-d",
            "empty",
            "negative-pick",
            "wraps-in-int64",
        ],
    )
    def test_rejects_picks_that_are_not_cells_before_reading(self, selected, message):
        # As picks of a first pass, [3, 100, -1] once kept
        # [0.538, 6.9e-310, 0.0]: memory no block filled; [2.7] was read as
        # cell 2.  The walk checks every rung before it draws a block.
        with pytest.raises(ValueError, match="^selected " + re.escape(message)):
            complement_cells(8, selected)
        unread = SimpleNamespace(cells=8, blocks=lambda: pytest.fail("read before the picks were checked"))
        with pytest.raises(ValueError, match="^selected " + re.escape(message)):
            experiments._stream_path(unread, 1, [np.arange(8), selected])

    @pytest.mark.parametrize(
        "offsets,selected,message",
        [
            ([0.5] * 4, [3, 0], "selected has a pick n outside coarse cell n"),
            ([0.17] * 4, [0, 2, 3], "selected must be 1-d integers whose count divides 4"),
            ([0.1] * 9, [0, 3, 6], "do not reproduce"),
            ([1e-300, 0.5, 0.5, 0.5], [0], "fell on fine grid nodes"),
        ],
        ids=["cell-outside-its-coarse-cell", "three-coarse-cells-of-four", "thirds-of-nine", "complement-on-a-node"],
    )
    def test_coarse_tau_from_rejects_offsets_off_their_times(self, offsets, selected, message):
        path = hand_grid(np.zeros(len(offsets) + 1), offsets)
        selected = np.array(selected)
        with pytest.raises(ValueError, match=message):
            coarse_tau_of(path, np.zeros(path.cells), selected)

    def test_complement_cells_are_the_floor_of_the_complementary_times(self):
        # complement_cells names each pick's mirror cell without reading an
        # offset.  The reference is the floor of the complementary time,
        # computed as the coarse offsets compute it, clamped to the last
        # cell; coarse_tau_from must raise on exactly the rungs where that
        # time lands on a node, and only there may the two cells differ.
        edges = np.array([2.0**-53, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53])
        outcomes = set()
        for k in range(1, 29):
            fine_cells = 2**k
            h = 1.0 / fine_cells
            for cells in (2**e for e in range(min(k, 10) + 1)):
                factor = fine_cells // cells
                n = np.arange(cells)
                stream = RngStream(k, cells)
                for picks in (select_fine_cells(fine_cells, cells, stream), n * factor, n * factor + factor - 1):
                    picks = picks.astype(np.int32)
                    # One ulp of the pick inside its cell, at its left end and at its right.
                    ulp_ends = np.where(n % 2, np.nextafter(picks, np.inf), np.nextafter(picks + 1.0, 0.0)) - picks
                    for offsets in (stream.generator().random(cells), np.resize(edges, cells), np.roll(np.resize(edges, cells), 1), ulp_ends):
                        inside = ((picks + offsets) > picks) & ((picks + offsets) < picks + 1.0)
                        offsets = np.where(inside, offsets, 0.5)
                        hc = 1.0 / cells
                        values = ((picks + offsets) * h - n * hc) / hc
                        comp = (1.0 - values) * hc + n * hc
                        reference = np.minimum(np.floor(comp / h), fine_cells - 1)
                        frac = (comp - reference * h) / h
                        node = (frac <= 0.0) | (frac >= 1.0)
                        got = complement_cells(fine_cells, picks)
                        assert got.dtype == np.int32
                        np.testing.assert_array_equal(got[~node], reference[~node])
                        try:
                            coarse_tau_from(fine_cells, picks, got, offsets, offsets, (offsets, offsets))
                            raised = False
                        except ValueError as err:
                            assert "fell on fine grid nodes" in str(err)
                            raised = True
                        assert raised == node.any(), (k, cells)
                        outcomes.add(raised)
        assert outcomes == {False, True}
