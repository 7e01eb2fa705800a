import numpy as np
import pytest

from randquad import random_sources
from randquad.quadrature import TauSequence
from randquad.random_sources import (
    BrownianPath,
    RngStream,
    _pcg64_state,
    _seed_words,
    _strict_uniform,
    coarsen_tau,
    load_path_csv,
    sample_brownian_path,
    sample_tau_batches,
    sample_tau_sequence,
    save_path_csv,
)

EDGE_SEEDS = [0, 1, 2, 2**32 - 1, 2**32, 2**64 - 1]


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
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.complements, b.complements)

    def test_strictly_interior(self):
        tau = sample_tau_sequence(RngStream(0), 10**5)
        assert np.all(tau.values > 0.0)
        assert np.all(tau.values < 1.0)

    def test_uniform_moments(self):
        tau = sample_tau_sequence(RngStream(101), 10**5)
        assert abs(tau.values.mean() - 0.5) < 0.01
        assert abs(tau.values.var() - 1.0 / 12.0) < 0.005

    def test_streams_uncorrelated(self):
        a = sample_tau_sequence(RngStream(55, 0), 10**5).values
        b = sample_tau_sequence(RngStream(55, 1), 10**5).values
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.02

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_tau_sequence(RngStream(1), 0)


class TestBatchSeeding:
    """The vectorised seeding must reproduce numpy's SeedSequence/PCG64 bit for
    bit; a numpy release that changed either would fail here first."""

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
            expected = np.random.PCG64(np.random.SeedSequence([seed, first + r])).state
            assert _pcg64_state(words[r]) == expected

    @pytest.mark.parametrize("rows", [1, 2, 64, 1000])
    def test_rows_equal_single_stream_draws(self, rows):
        stream = RngStream(11, (3 << 40) + 5)
        blocks = list(sample_tau_batches(stream, rows, 48, 64))
        assert [len(b.values) for b in blocks] == [min(64, rows - s) for s in range(0, rows, 64)]
        values = np.concatenate([b.values for b in blocks])
        for m in (range(rows) if rows <= 64 else (0, 1, 63, 64, 500, rows - 1)):
            expected = sample_tau_sequence(RngStream(stream.seed, stream.stream_id + m), 48)
            np.testing.assert_array_equal(values[m].view(np.int64), expected.values.view(np.int64))

    def test_a_row_drawing_an_exact_zero_is_redrawn_by_the_single_stream_rule(self, monkeypatch):
        # A state whose next step lands on 0 makes the first output, and so
        # the first uniform, exactly 0.0.
        inc = _pcg64_state(_seed_words(4, 2, 1)[0])["state"]["inc"]
        mult_inverse = pow(random_sources._PCG64_MULT, -1, 1 << 128)
        zero_next = {
            "bit_generator": "PCG64",
            "state": {"state": (-inc * mult_inverse) % (1 << 128), "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        calls = []

        def patched(words):
            calls.append(None)
            return zero_next if len(calls) == 3 else _pcg64_state(words)

        monkeypatch.setattr(random_sources, "_pcg64_state", patched)
        (block,) = sample_tau_batches(RngStream(4), 5, 16, 8)
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = zero_next
        assert rng.random() == 0.0
        rng.bit_generator.state = zero_next
        np.testing.assert_array_equal(block.values[2], _strict_uniform(rng, 16))
        assert np.all(block.values > 0.0)
        for m in (0, 1, 3, 4):
            np.testing.assert_array_equal(block.values[m], sample_tau_sequence(RngStream(4, m), 16).values)

    def test_stream_ids_past_64_bits_rejected_before_drawing(self):
        # Like RngStream, the batch refuses ids of 2^64 and more; the check is
        # made when the batch is requested, not when its first block is drawn.
        with pytest.raises(ValueError, match="64-bit"):
            sample_tau_batches(RngStream(0, 2**64 - 5), 6, 4, 2)
        (block,) = sample_tau_batches(RngStream(1, 2**64 - 2), 2, 4, 2)
        np.testing.assert_array_equal(block.values[1], sample_tau_sequence(RngStream(1, 2**64 - 1), 4).values)


class TestBrownianPath:
    def test_starts_at_zero_every_seed(self):
        for seed in range(5):
            path = sample_brownian_path(RngStream(seed), 1.0, 2.0**-4)
            assert path.grid_values[0] == 0.0

    def test_terminal_variance(self):
        terminal = np.array(
            [sample_brownian_path(RngStream(9, i), 1.0, 2.0**-6).grid_values[-1] for i in range(10**4)]
        )
        assert abs(terminal.var() - 1.0) < 0.05

    def test_bridge_residuals_standard_normal(self):
        path = sample_brownian_path(RngStream(23), 1.0, 2.0**-14)
        tau = path.offsets.values
        mean = (1.0 - tau) * path.grid_values[:-1] + tau * path.grid_values[1:]
        sd = np.sqrt(tau * (1.0 - tau) * path.step)
        residuals = ((path.mid_values - mean) / sd)[: 10**4]
        assert abs(residuals.mean()) < 0.05
        assert abs(residuals.var() - 1.0) < 0.07

    def test_union_grid_increments_match_interval_lengths(self):
        """Grid plus interior samples must still look like one Brownian path:
        each union-grid increment has variance equal to its interval length.
        This pins the orientation of the bridge mean."""
        path = sample_brownian_path(RngStream(31), 1.0, 2.0**-12)
        tau = path.offsets.values
        left = path.mid_values - path.grid_values[:-1]
        right = path.grid_values[1:] - path.mid_values
        ratios = np.concatenate(
            [left**2 / (tau * path.step), right**2 / ((1.0 - tau) * path.step)]
        )
        assert abs(ratios.mean() - 1.0) < 0.06

    def test_interior_times_strictly_inside(self):
        path = sample_brownian_path(RngStream(3), 1.0, 2.0**-8)
        assert np.all(path.mid_times > path.grid_times[:-1])
        assert np.all(path.mid_times < path.grid_times[1:])

    @pytest.mark.parametrize("step", [0.0, -0.5, 2.0, 0.3])
    def test_rejects_bad_steps(self, step):
        with pytest.raises(ValueError):
            sample_brownian_path(RngStream(1), 1.0, step)


def _hand_path(grid_values, offsets, mid_values, total_time=1.0):
    grid_values = np.asarray(grid_values, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    cells = grid_values.size - 1
    step = total_time / cells
    return BrownianPath(
        step=step,
        total_time=total_time,
        grid_times=np.linspace(0.0, total_time, cells + 1),
        grid_values=grid_values,
        offsets=TauSequence.from_values(offsets),
        mid_times=(np.arange(cells) + offsets) * step,
        mid_values=np.asarray(mid_values, dtype=float),
    )


class TestCoarsenTau:
    def test_identity_at_factor_one(self):
        path = sample_brownian_path(RngStream(4), 1.0, 2.0**-6)
        ctau = coarsen_tau(path, 2.0**-6, RngStream(4, 1))
        assert ctau.factor == 1
        np.testing.assert_allclose(ctau.values, path.offsets.values, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(ctau.selected_indices, np.arange(path.cells))

    def test_slot_one_formula(self):
        # Selector that picks fine slot 1 of interval 0: tau_h = (1 + tau_1) / 2.
        path = _hand_path([0.0, 0.5, -0.25], [0.25, 0.75], [0.1, 0.2])
        stream = next(
            RngStream(0, i)
            for i in range(50)
            if RngStream(0, i).generator().integers(0, 2, size=1)[0] == 1
        )
        ctau = coarsen_tau(path, 1.0, stream)
        assert ctau.selected_indices[0] == 1
        assert ctau.values[0] == (1.0 + 0.75) / 2.0

    @pytest.mark.parametrize("k", [2**i for i in range(1, 10)])
    def test_reuse_is_bitwise_exact(self, k):
        path = sample_brownian_path(RngStream(77), 1.0, 2.0**-14)
        hc = k * path.step
        ctau = coarsen_tau(path, hc, RngStream(77, k))
        nodes = path.grid_times[::k]
        np.testing.assert_array_equal(nodes[:-1] + ctau.values * hc, ctau.mid_times)
        np.testing.assert_array_equal(path.mid_times[ctau.selected_indices], ctau.mid_times)
        np.testing.assert_array_equal(path.mid_values[ctau.selected_indices], ctau.mid_values)
        assert np.all(ctau.values > 0.0) and np.all(ctau.values < 1.0)
        lo = np.arange(len(ctau)) * k
        assert np.all(ctau.selected_indices >= lo)
        assert np.all(ctau.selected_indices < lo + k)

    def test_coarse_offsets_still_uniform(self):
        # Uniform slot choice over per-slot uniforms keeps the marginal U(0,1):
        # Kolmogorov-Smirnov at the 1% level.
        path = sample_brownian_path(RngStream(13), 1.0, 2.0**-19)
        ctau = coarsen_tau(path, 4 * path.step, RngStream(13, 1))
        u = np.sort(ctau.values)
        n = u.size
        grid = np.arange(1, n + 1) / n
        d_stat = max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))
        assert d_stat < 1.628 / np.sqrt(n)

    def test_mirrored_offsets_reuse_samples(self):
        # Offsets 0.25/0.75 mirror each other exactly, so the complementary
        # point coincides with the stored sample of the mirrored slot.
        path = _hand_path([0.0, 0.3, -0.1], [0.25, 0.75], [5.0, 7.0])
        ctau = coarsen_tau(path, 1.0, RngStream(2))
        assert ctau.comp_is_mirror.all()
        assert ctau.comp_is_mirror.sum() == 1
        s = int(ctau.selected_indices[0])
        assert ctau.comp_values[0] == path.mid_values[1 - s]

    def test_interpolated_complement_on_generic_path(self):
        path = sample_brownian_path(RngStream(19), 1.0, 2.0**-10)
        ctau = coarsen_tau(path, 2.0**-7, RngStream(19, 1))
        fresh = ~ctau.comp_is_mirror
        assert fresh.any()
        idx = np.floor(ctau.comp_times[fresh] / path.step).astype(int)
        frac = (ctau.comp_times[fresh] - path.grid_times[idx]) / path.step
        expected = (1 - frac) * path.grid_values[idx] + frac * path.grid_values[idx + 1]
        np.testing.assert_allclose(ctau.comp_values[fresh], expected, rtol=1e-12)

    def test_rejects_non_multiple(self):
        path = sample_brownian_path(RngStream(1), 1.0, 2.0**-4)
        with pytest.raises(ValueError):
            coarsen_tau(path, 0.3, RngStream(1, 1))


class TestPathCsv:
    def test_round_trip_bitwise(self, tmp_path):
        path = sample_brownian_path(RngStream(88), 1.0, 2.0**-7)
        dest = tmp_path / "path.csv"
        save_path_csv(path, dest)
        loaded = load_path_csv(dest)
        assert loaded.step == path.step
        assert loaded.total_time == path.total_time
        np.testing.assert_array_equal(loaded.grid_times, path.grid_times)
        np.testing.assert_array_equal(loaded.grid_values, path.grid_values)
        np.testing.assert_array_equal(loaded.offsets.values, path.offsets.values)
        np.testing.assert_array_equal(loaded.mid_times, path.mid_times)
        np.testing.assert_array_equal(loaded.mid_values, path.mid_values)

    def test_header_checked(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_path_csv(bad)
