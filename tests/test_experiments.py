import time
import tracemalloc

import numpy as np
import pytest

from randquad import experiments
from randquad.experiments import (
    _LANE_AS_RATE,
    _LANE_COARSEN,
    _LANE_PATH,
    DEFAULT_SEED,
    MAX_REPLICATIONS,
    ErrorLadder,
    LadderRow,
    _lane_stream,
    as_rate_check,
    example2_path,
    fit_order,
    mc_lp_error,
    run_example1,
    run_example2,
    union_grid_reference,
    warn_if_nonmonotone,
)
from randquad.integrands import (
    affine_integrand,
    brownian_integrand,
    ctq_brownian,
    power_integrand,
    rtq_brownian,
)
from randquad.quadrature import Integrand, QuadratureValue, ctq, make_partition, rtq, rtq_prefix
from randquad.random_sources import (
    BrownianPath,
    RngStream,
    coarsen_tau,
    sample_brownian_path,
    sample_tau_sequence,
)
from randquad.summation import BLOCK_ELEMENTS, NeumaierSum


def synthetic_ladder(constant, order, exponents=(5, 6, 7, 8, 9, 10)):
    rows = tuple(
        LadderRow(step=2.0**-i, intervals=2**i, error=constant * (2.0**-i) ** order, wall_time_s=0.0)
        for i in exponents
    )
    return ErrorLadder(rule="CTQ", metric="absolute", rows=rows, label="synthetic")


class TestErrorLadder:
    def test_requires_decreasing_steps(self):
        rows = (
            LadderRow(step=0.25, intervals=4, error=1.0, wall_time_s=0.0),
            LadderRow(step=0.5, intervals=2, error=1.0, wall_time_s=0.0),
        )
        with pytest.raises(ValueError):
            ErrorLadder(rule="CTQ", metric="absolute", rows=rows)

    def test_rejects_bad_errors(self):
        rows = (LadderRow(step=0.5, intervals=2, error=-1.0, wall_time_s=0.0),)
        with pytest.raises(ValueError):
            ErrorLadder(rule="CTQ", metric="absolute", rows=rows)

    def test_nonmonotone_warning(self):
        rows = (
            LadderRow(step=0.5, intervals=2, error=1e-3, wall_time_s=0.0),
            LadderRow(step=0.25, intervals=4, error=2e-3, wall_time_s=0.0),
        )
        with pytest.warns(RuntimeWarning, match="increased"):
            warn_if_nonmonotone(ErrorLadder(rule="CTQ", metric="absolute", rows=rows))


class TestFitOrder:
    def test_exact_square_law(self):
        report = fit_order(synthetic_ladder(1.0, 2.0))
        assert report.fitted_order == pytest.approx(2.0, abs=1e-12)
        assert report.intercept == pytest.approx(0.0, abs=1e-12)
        assert report.residual < 1e-12

    def test_exact_power_law_with_constant(self):
        report = fit_order(synthetic_ladder(3.0, 2.5))
        assert report.fitted_order == pytest.approx(2.5, abs=1e-12)
        assert report.intercept == pytest.approx(np.log2(3.0), abs=1e-12)

    def test_refit_is_idempotent(self):
        report = fit_order(synthetic_ladder(0.7, 1.75))
        again = fit_order(report.ladder)
        assert again.fitted_order == report.fitted_order
        assert again.intercept == report.intercept
        assert again.residual == report.residual

    def test_zero_rows_excluded_with_warning(self):
        rows = (
            LadderRow(step=0.5, intervals=2, error=1e-2, wall_time_s=0.0),
            LadderRow(step=0.25, intervals=4, error=0.0, wall_time_s=0.0),
            LadderRow(step=0.125, intervals=8, error=1e-4, wall_time_s=0.0),
        )
        ladder = ErrorLadder(rule="CTQ", metric="absolute", rows=rows)
        with pytest.warns(RuntimeWarning, match="zero-error"):
            report = fit_order(ladder)
        assert np.isfinite(report.fitted_order)

    def test_too_few_usable_rows(self):
        rows = (
            LadderRow(step=0.5, intervals=2, error=0.0, wall_time_s=0.0),
            LadderRow(step=0.25, intervals=4, error=1e-3, wall_time_s=0.0),
        )
        ladder = ErrorLadder(rule="CTQ", metric="absolute", rows=rows)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError):
                fit_order(ladder)


class TestMcLpError:
    def test_affine_is_exact_for_every_replication(self):
        g = affine_integrand(2.0, -1.0)
        error, se = mc_lp_error(g, make_partition(8), 2.0, 50, RngStream(1, 0))
        assert error <= 1e-15
        assert se <= 1e-15

    def test_beats_ctq_absolute_error(self):
        g = power_integrand(1.5)
        part = make_partition(32)
        error, _ = mc_lp_error(g, part, 2.0, 1000, RngStream(3, 0))
        ctq_error = abs(g.exact_integral - ctq(g, part).value)
        assert error < ctq_error

    def test_doubling_replications_self_consistent(self):
        g = power_integrand(1.5)
        part = make_partition(32)
        for seed in (3, 4, 5):
            e1, s1 = mc_lp_error(g, part, 2.0, 500, RngStream(seed, 0))
            e2, s2 = mc_lp_error(g, part, 2.0, 1000, RngStream(seed, 0))
            assert abs(e1 - e2) < 3.0 * max(s1, s2)

    def test_requires_reference(self):
        g = Integrand(evaluator=lambda t: np.asarray(t) ** 2, label="bare")
        with pytest.raises(ValueError, match="exact integral"):
            mc_lp_error(g, make_partition(4), 2.0, 10, RngStream(0))

    @pytest.mark.parametrize("p", [0.5, float("inf"), float("nan")])
    def test_rejects_p_outside_one_to_infinity(self, p):
        with pytest.raises(ValueError, match="p must be finite and at least 1"):
            mc_lp_error(power_integrand(1.5), make_partition(4), p, 10, RngStream(0))

    @pytest.mark.parametrize("p", [65.0, 400.0])
    def test_rejects_p_whose_powers_underflow(self, p):
        # The errors are about 1e-5: the mean of |error|^65 is subnormal (its
        # standard error overflowed), and that of |error|^400 is 0.0.
        part = make_partition(32)
        with pytest.raises(ValueError, match=f"p = {p}"):
            mc_lp_error(power_integrand(1.5), part, p, 5, RngStream(0))

    @pytest.mark.parametrize("p", [40.0, 60.0])
    def test_rejects_p_whose_powers_have_an_underflowing_variance(self, p):
        # The mean of |error|^p is a normal double here, but the squared
        # deviations behind its variance underflow, which read as a standard
        # error of 0.0.
        part = make_partition(32)
        with pytest.raises(ValueError, match=f"p = {p}: the variance"):
            mc_lp_error(power_integrand(1.5), part, p, 200, RngStream(0))

    def test_rejects_p_whose_powers_overflow(self):
        g = Integrand(evaluator=lambda t: np.asarray(t) ** 1.5, exact_integral=1e154)
        part = make_partition(4)
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(ValueError, match="p = 2.0"):
            mc_lp_error(g, part, 2.0, 4, RngStream(0))

    def test_rejects_single_replication(self):
        with pytest.raises(ValueError):
            mc_lp_error(power_integrand(1.5), make_partition(4), 2.0, 1, RngStream(0))

    @pytest.mark.parametrize(
        "intervals,replications,p",
        [
            (32, 300, 2.0),  # many rows per batch; 300 is not a multiple of 64 or 128
            (1024, 11, 3.0),  # a few rows per batch; odd M leaves a short last batch
            (8192, 3, 2.0),  # N above the batch size: one row per batch
        ],
    )
    def test_batched_equals_per_replication_loop(self, intervals, replications, p):
        g = power_integrand(1.25)
        part = make_partition(intervals)
        stream = RngStream(9, 5 << 20)
        powered = np.empty(replications)
        for m in range(replications):
            tau = sample_tau_sequence(RngStream(stream.seed, stream.stream_id + m), intervals)
            powered[m] = abs(g.exact_integral - rtq(g, part, tau).value) ** p
        mean = float(np.mean(powered))
        expected_error = mean ** (1.0 / p)
        se_mean = float(np.sqrt(np.var(powered, ddof=1) / replications))
        expected_se = (1.0 / p) * mean ** (1.0 / p - 1.0) * se_mean
        assert mc_lp_error(g, part, p, replications, stream) == (expected_error, expected_se)


class TestStreamPacking:
    def test_slot_and_replication_limits(self):
        limit = 1 << 20
        assert _lane_stream(1, 2, limit - 1, limit - 1).stream_id == (2 << 40) + ((limit - 1) << 20) + limit - 1
        for slot, replication in ((limit, 0), (0, limit), (-1, 0)):
            with pytest.raises(ValueError, match="collide"):
                _lane_stream(1, 0, slot, replication)

    def test_example1_rejects_replications_past_the_packing_before_drawing(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="replications"):
            run_example1(replications=MAX_REPLICATIONS + 1)
        assert time.perf_counter() - start < 1.0


def per_node_max_prefix_errors(gamma, steps, master):
    """``as_rate_check``'s max-prefix errors as its per-node loop computed
    them, with the running integral of t**gamma in Python float arithmetic."""
    maxima = []
    for m, h in enumerate(steps):
        part = make_partition(round(1.0 / h))
        stream = _lane_stream(master.seed, _LANE_AS_RATE, master.stream_id, m)
        partials = rtq_prefix(power_integrand(gamma), part, sample_tau_sequence(stream, part.intervals)).value
        max_err = 0.0
        for n in range(1, part.intervals + 1):
            err = abs(float(part.nodes[n]) ** (gamma + 1.0) / (gamma + 1.0) - float(partials[n - 1]))
            if err > max_err:
                max_err = err
        maxima.append(max_err)
    return maxima


class TestAsRateCheck:
    def test_max_prefix_errors_equal_the_per_node_loop_on_the_acceptance_ladder(self):
        steps = [2.0**-i for i in range(5, 13)]
        master = RngStream(DEFAULT_SEED)
        check = as_rate_check(power_integrand(1.75), 2.0, 0.25, steps, master)
        assert [row.max_prefix_error for row in check.rows] == per_node_max_prefix_errors(1.75, steps, master)

    @pytest.mark.parametrize("gamma", [1.25, 1.5, 1.75])
    def test_max_prefix_errors_within_an_ulp_of_the_integral_elsewhere(self, gamma):
        # numpy's array power and Python's float power may round t**(gamma+1)
        # an ulp apart (seed 7, gamma 1.5, h = 2^-5 does), so off the
        # acceptance ladder the two agree to an ulp of the running integral.
        steps = [2.0**-i for i in range(5, 13)]
        master = RngStream(7)
        check = as_rate_check(power_integrand(gamma), 2.0, 0.25, steps, master)
        loop = per_node_max_prefix_errors(gamma, steps, master)
        ulp = np.spacing(1.0 / (gamma + 1.0))
        for row, expected in zip(check.rows, loop):
            assert abs(row.max_prefix_error - expected) <= ulp

    def test_affine_passes_every_rung_with_zero_error(self):
        g = affine_integrand(1.0, 3.0)
        check = as_rate_check(g, 2.0, 0.25, [2.0**-i for i in range(3, 7)], RngStream(0))
        assert all(row.passed for row in check.rows)
        assert max(row.max_prefix_error for row in check.rows) <= 1e-14
        assert check.first_passing_index == 0

    def test_rough_power_eventually_passes(self):
        g = power_integrand(1.75)
        check = as_rate_check(g, 2.0, 0.25, [2.0**-i for i in range(5, 11)], RngStream(2))
        assert check.target_exponent == 2.25
        assert check.first_passing_index is not None

    def test_shrinking_eps_tightens_monotonically(self):
        g = power_integrand(1.75)
        steps = [2.0**-i for i in range(5, 11)]
        loose = as_rate_check(g, 2.0, 0.4, steps, RngStream(2))
        tight = as_rate_check(g, 2.0, 0.1, steps, RngStream(2))
        for row_t, row_l in zip(tight.rows, loose.rows):
            assert row_t.bound < row_l.bound
            assert row_t.max_prefix_error == row_l.max_prefix_error
            if row_t.passed:
                assert row_l.passed

    @pytest.mark.parametrize("eps", [0.0, 0.5, -0.1, 0.7])
    def test_eps_validation(self, eps):
        with pytest.raises(ValueError):
            as_rate_check(affine_integrand(0, 1), 2.0, eps, [0.5], RngStream(0))


class TestRunExample1:
    def test_report_layout_and_determinism(self):
        kwargs = dict(gammas=(1.5,), step_exponents=range(5, 9), replications=20, seed=77)
        a = run_example1(**kwargs)
        b = run_example1(**kwargs)
        assert len(a.reports) == 3
        for ra, rb in zip(a.reports, b.reports):
            assert ra.fitted_order == rb.fitted_order
            np.testing.assert_array_equal(ra.ladder.errors, rb.ladder.errors)

    def test_ctq_ladder_monotone(self):
        result = run_example1(gammas=(1.5,), step_exponents=range(5, 9), replications=5, seed=1)
        errors = result.report("1.5", "CTQ", "absolute").ladder.errors
        assert np.all(np.diff(errors) < 0)

    def test_rows_carry_metadata(self):
        result = run_example1(gammas=(1.25,), step_exponents=range(5, 8), replications=10, seed=3)
        lad = result.report("1.25", "RTQ", "L2_monte_carlo").ladder
        for row in lad.rows:
            assert row.replications == 10
            assert row.std_error is not None and row.std_error > 0
            assert row.wall_time_s >= 0

    def test_unknown_report_raises(self):
        result = run_example1(gammas=(1.25,), step_exponents=range(5, 7), replications=5, seed=3)
        with pytest.raises(KeyError):
            result.report("1.25", "CTQ", "pathwise")

    def test_exactly_integrated_exponent_degrades_to_nan_order(self):
        # gamma = 1 is affine, so every ladder is exactly zero; the driver
        # reports NaN orders instead of failing the fit.
        with pytest.warns(RuntimeWarning, match="regularity"):
            result = run_example1(gammas=(1.0,), step_exponents=range(5, 8), replications=5, seed=3)
        for report in result.reports:
            assert np.all(report.ladder.errors <= 1e-15)
            assert np.isnan(report.fitted_order)


def collected_example2_path(seed, reference_step):
    """Example 2's path for ``seed`` as one :class:`BrownianPath`."""
    grid, bridge = example2_path(seed, reference_step)
    mid_values = np.concatenate([values for _, values in bridge])
    return BrownianPath(step=grid.step, grid_values=grid.grid_values, offsets=grid.offsets, mid_values=mid_values)


class TestRunExample2:
    def test_structure_and_determinism(self):
        kwargs = dict(step_exponents=range(5, 8), reference_step=2.0**-10, seed=8)
        a = run_example2(**kwargs)
        b = run_example2(**kwargs)
        assert len(a.reports) == 2
        assert a.reference == b.reference
        for ra, rb in zip(a.reports, b.reports):
            np.testing.assert_array_equal(ra.ladder.errors, rb.ladder.errors)

    def test_reference_is_union_trapezoid_of_the_integrand(self):
        result = run_example2(step_exponents=range(5, 7), reference_step=2.0**-9, seed=8)
        assert result.reference == union_grid_reference(brownian_integrand(collected_example2_path(8, 2.0**-9)))

    def test_reference_matches_finest_partition_quadrature(self):
        result = run_example2(step_exponents=range(5, 7), reference_step=2.0**-9, seed=8)
        bi = brownian_integrand(collected_example2_path(8, 2.0**-9))
        fine = ctq_brownian(bi, make_partition(2**9)).value
        assert result.reference == pytest.approx(fine, rel=1e-13)

    def test_rejects_steps_finer_than_reference(self):
        with pytest.raises(ValueError):
            run_example2(step_exponents=range(5, 12), reference_step=2.0**-10, seed=8)

    # On the reference grid itself CTQ can equal the reference exactly.
    @pytest.mark.filterwarnings("ignore:fit_order. excluded")
    @pytest.mark.parametrize("seed", [0, 2, 7, 11])
    def test_streamed_run_bitwise_equals_the_whole_array_composition(self, seed, monkeypatch):
        # References below, at and above one bridge block (BLOCK_ELEMENTS
        # cells), a coarse cell spanning every block (min-exp 0) and a
        # finest rung on the reference grid (max-exp = reference exponent).
        values = []

        def recording(rule):
            def record(*args):
                value = rule(*args).value
                values.append(value)
                return QuadratureValue(value=value, rule="", evaluations=0)

            return record

        monkeypatch.setattr(experiments, "ctq_brownian", recording(ctq_brownian))
        monkeypatch.setattr(experiments, "rtq_brownian", recording(rtq_brownian))
        for ref_exp, lo, hi in ((3, 0, 3), (11, 2, 6), (12, 0, 12), (13, 5, 13), (14, 0, 9), (17, 14, 17)):
            values.clear()
            result = run_example2(step_exponents=range(lo, hi + 1), reference_step=2.0**-ref_exp, seed=seed)
            streamed = [result.reference] + values[experiments.TIMING_REPEATS - 1 :: experiments.TIMING_REPEATS]

            path = sample_brownian_path(_lane_stream(seed, _LANE_PATH), 2.0**-ref_exp)
            bi = brownian_integrand(path)
            whole = [union_grid_reference(bi)]
            for hj, e in enumerate(range(lo, hi + 1)):
                part = make_partition(2**e)
                ctau = coarsen_tau(path, part.step, _lane_stream(seed, _LANE_COARSEN, hj))
                whole += [ctq_brownian(bi, part).value, rtq_brownian(bi, part, ctau).value]
            assert np.array(streamed).tobytes() == np.array(whole).tobytes(), (ref_exp, lo, hi)

    def test_peak_memory_holds_two_path_arrays(self):
        # The node values and the offsets are the only whole arrays; the
        # bridge samples and the Euler prefix sums stream a block at a time.
        run_example2(step_exponents=range(5, 7), reference_step=2.0**-8, seed=2)
        tracemalloc.start()
        try:
            run_example2(step_exponents=range(5, 11), reference_step=2.0**-18, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * 2**18

    def test_zero_path_gives_zero_reference_and_rule_values(self):
        cells = 2**8
        zero = BrownianPath(
            step=2.0**-8,
            grid_values=np.zeros(cells + 1),
            offsets=np.full(cells, 0.4),
            mid_values=np.zeros(cells),
        )
        bi = brownian_integrand(zero)
        assert union_grid_reference(bi) == 0.0
        for n in (32, 64, 128):
            part = make_partition(n)
            assert ctq_brownian(bi, part).value == 0.0
            ctau = coarsen_tau(zero, part.step, RngStream(8, n))
            assert rtq_brownian(bi, part, ctau).value == 0.0


def value_at_union_grid_reference(bi):
    """``union_grid_reference`` as first written, through ``bi.value_at``: the oracle."""
    path = bi.path
    acc = NeumaierSum()
    block = BLOCK_ELEMENTS // 2
    for start in range(0, path.cells, block):
        stop = min(start + block, path.cells)
        times = np.empty(2 * (stop - start) + 1)
        times[0::2] = np.arange(start, stop + 1) * path.step
        times[1::2] = path.mid_times(np.arange(start, stop))
        widths = np.diff(times)
        if np.any(widths <= 0.0):
            raise ValueError("union grid is not strictly increasing")
        g = bi.value_at(times)
        acc.extend(0.5 * widths * (g[:-1] + g[1:]))
    return acc.value


def _path(grid_values, offsets):
    grid_values = np.asarray(grid_values, dtype=float)
    cells = grid_values.size - 1
    return BrownianPath(
        step=1.0 / cells,
        grid_values=grid_values,
        offsets=np.asarray(offsets, dtype=float),
        mid_values=np.zeros(cells),
    )


def _edge_offsets(cells):
    """Offsets one ulp of j inside cell j, alternately at its left and right end."""
    j = np.arange(cells, dtype=float)
    left = np.nextafter(j, np.inf) - j
    right = np.nextafter(j + 1.0, 0.0) - j
    offsets = np.where(j % 2 == 1, left, right)
    offsets[0] = 0.5
    return offsets


class TestUnionGridReference:
    @pytest.mark.parametrize("seed", [0, 2, 7, 11])
    def test_bitwise_equals_the_value_at_oracle(self, seed):
        for k in range(17):
            bi = brownian_integrand(sample_brownian_path(RngStream(seed, k), 2.0**-k))
            new, old = union_grid_reference(bi), value_at_union_grid_reference(bi)
            assert np.float64(new).tobytes() == np.float64(old).tobytes(), k

    @pytest.mark.parametrize(
        "path",
        [
            _path(np.zeros(2**8 + 1), np.full(2**8, 0.4)),
            _path(np.linspace(0.0, 1.0, 9), np.full(8, 0.5)),
            _path([0.0, 1.0, -2.0, 0.5, 3.0], [0.5] * 4),
            _path(np.random.default_rng(5).standard_normal(2**12 + 1), _edge_offsets(2**12)),
        ],
        ids=["zero", "linear", "hand", "edge-offsets"],
    )
    def test_hand_built_paths_bitwise_equal_the_oracle(self, path):
        bi = brownian_integrand(path)
        new, old = union_grid_reference(bi), value_at_union_grid_reference(bi)
        assert np.float64(new).tobytes() == np.float64(old).tobytes()

    @pytest.mark.parametrize("step, cells", [(1.0 / 3.0, 3), (0.25, 8)], ids=["step-1/3", "step-too-long"])
    def test_path_off_the_dyadic_grid_rejected_before_summing(self, step, cells, monkeypatch):
        class NoSum:
            def extend(self, values):
                raise AssertionError("summed before the step was checked")

        monkeypatch.setattr(experiments, "NeumaierSum", NoSum)
        path = BrownianPath(
            step=step,
            grid_values=np.linspace(0.0, 1.0, cells + 1),
            offsets=np.full(cells, 0.5),
            mid_values=np.zeros(cells),
        )
        with pytest.raises(ValueError, match="step"):
            union_grid_reference(brownian_integrand(path))

    def test_offset_off_its_cell_rejected(self):
        for offsets in ([0.5, 1.0, 0.5, 0.5], [0.5, 0.5, np.nan, 0.5], [0.5, 0.5, 0.5, -0.25]):
            with pytest.raises(ValueError, match="strictly increasing"):
                union_grid_reference(brownian_integrand(_path(np.zeros(5), offsets)))

    def test_peak_memory_does_not_grow_with_the_cells(self):
        peaks = []
        for k in (14, 18):
            bi = brownian_integrand(sample_brownian_path(RngStream(3), 2.0**-k))
            tracemalloc.start()
            try:
                union_grid_reference(bi)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 16 * 1024
