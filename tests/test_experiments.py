import re
import time
import tracemalloc

import numpy as np
import pytest

from randquad import experiments, random_sources
from randquad.experiments import (
    _LANE_AS_RATE,
    _LANE_COARSEN,
    _LANE_PATH,
    DEFAULT_SEED,
    MAX_REPLICATIONS,
    ASRateRow,
    ErrorLadder,
    LadderRow,
    _lane_stream,
    as_rate_check,
    fit_order,
    mc_lp_error,
    run_example1,
    run_example2,
    warn_if_nonmonotone,
)
from randquad.integrands import (
    affine_integrand,
    ctq_brownian,
    power_integrand,
    rtq_brownian,
)
from randquad.quadrature import Integrand, Partition, QuadratureValue, ctq, make_partition, rtq, rtq_prefix
from randquad.random_sources import PathBlock, RngStream, sample_tau_sequence
from randquad.summation import BLOCK_ELEMENTS, NeumaierSum, compensated_sum

from brownian_paths import coarsened, collect_path, euler_integrand, hand_grid, sampled_path


def synthetic_ladder(constant, order, exponents=(5, 6, 7, 8, 9, 10)):
    rows = tuple(
        LadderRow(intervals=2**i, error=constant * (2.0**-i) ** order, wall_time_s=0.0)
        for i in exponents
    )
    return ErrorLadder(rule="CTQ", metric="absolute", rows=rows, label="synthetic")


class TestErrorLadder:
    def test_requires_decreasing_steps(self):
        rows = (
            LadderRow(intervals=4, error=1.0, wall_time_s=0.0),
            LadderRow(intervals=2, error=1.0, wall_time_s=0.0),
        )
        with pytest.raises(ValueError, match="strictly decreasing step"):
            ErrorLadder(rule="CTQ", metric="absolute", rows=rows)

    def test_step_is_derived_from_the_cell_count(self):
        # A row once stored a step beside its count, and fit_order fitted
        # step 0.3 on 4 cells without complaint.
        assert LadderRow(intervals=8, error=1.0, wall_time_s=0.0).step == 0.125
        with pytest.raises(TypeError):
            LadderRow(step=0.3, intervals=4, error=1.0, wall_time_s=0.0)

    @pytest.mark.parametrize("intervals", [2.5, 4.0, 0, -4, float("nan")])
    @pytest.mark.parametrize(
        "record",
        [
            lambda n: LadderRow(intervals=n, error=1e-2, wall_time_s=0.0),
            lambda n: ASRateRow(intervals=n, max_prefix_error=0.0, bound=1.0, passed=True),
            lambda n: Partition(intervals=n),
        ],
        ids=["LadderRow", "ASRateRow", "Partition"],
    )
    def test_cell_count_must_be_a_positive_integer(self, record, intervals):
        # fit_order once fitted an order of 4.90 on rows of 2.5 and 4 cells,
        # and a row of 0 cells raised a bare ZeroDivisionError from its step.
        with pytest.raises(ValueError, match=re.escape(f"intervals must be an integer of at least 1, got {intervals!r}")):
            record(intervals)

    def test_rejects_bad_errors(self):
        rows = (LadderRow(intervals=2, error=-1.0, wall_time_s=0.0),)
        with pytest.raises(ValueError):
            ErrorLadder(rule="CTQ", metric="absolute", rows=rows)

    def test_nonmonotone_warning(self):
        rows = (
            LadderRow(intervals=2, error=1e-3, wall_time_s=0.0),
            LadderRow(intervals=4, error=2e-3, wall_time_s=0.0),
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
            LadderRow(intervals=2, error=1e-2, wall_time_s=0.0),
            LadderRow(intervals=4, error=0.0, wall_time_s=0.0),
            LadderRow(intervals=8, error=1e-4, wall_time_s=0.0),
        )
        ladder = ErrorLadder(rule="CTQ", metric="absolute", rows=rows)
        with pytest.warns(RuntimeWarning, match="zero-error"):
            report = fit_order(ladder)
        assert np.isfinite(report.fitted_order)

    def test_too_few_usable_rows(self):
        rows = (
            LadderRow(intervals=2, error=0.0, wall_time_s=0.0),
            LadderRow(intervals=4, error=1e-3, wall_time_s=0.0),
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

    @pytest.mark.parametrize("replications", [1, 2.5, 0, -3])
    def test_rejects_replications_that_are_not_an_integer_of_at_least_two_before_drawing(self, replications, monkeypatch):
        # 2.5 once drew two streams and divided by 2.5.
        monkeypatch.setattr(experiments, "sample_tau_batches", lambda *args: pytest.fail("drew before the check"))
        with pytest.raises(ValueError, match=f"replications must be an integer of at least 2, got {replications}"):
            mc_lp_error(power_integrand(1.5), make_partition(8), 2.0, replications, RngStream(0))

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

    @pytest.mark.parametrize("replications", [1, 2.5, 0, -3])
    def test_example1_rejects_replications_that_are_not_an_integer_of_at_least_two_before_drawing(
        self, replications, monkeypatch
    ):
        # 2.5 once wrote rows with M = 2.5.
        for name in ("ctq", "sample_tau_sequence", "mc_lp_error"):
            monkeypatch.setattr(experiments, name, lambda *args: pytest.fail("a rung ran before the check"))
        with pytest.raises(ValueError, match=f"replications must be an integer of at least 2, got {replications}"):
            run_example1(gammas=(1.5,), step_exponents=range(3, 5), replications=replications)

    @pytest.mark.parametrize("p", [0.5, float("nan")])
    def test_example1_rejects_p_before_drawing(self, p, monkeypatch):
        # p = 0.5 once made 5 ctq calls and drew a pathwise sequence first.
        for name in ("ctq", "sample_tau_sequence", "mc_lp_error"):
            monkeypatch.setattr(experiments, name, lambda *args: pytest.fail("a rung ran before the check"))
        with pytest.raises(ValueError, match=f"p must be finite and at least 1, got {p}"):
            run_example1(gammas=(1.5,), step_exponents=range(3, 5), replications=5, p=p)

    def test_example1_rejects_replications_past_the_packing_before_drawing(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="replications"):
            run_example1(replications=MAX_REPLICATIONS + 1)
        assert time.perf_counter() - start < 1.0


def per_node_max_prefix_errors(gamma, step_exponents, master):
    """``as_rate_check``'s max-prefix errors as its per-node loop computed
    them, with the running integral of t**gamma in Python float arithmetic."""
    maxima = []
    for m, i in enumerate(step_exponents):
        part = make_partition(2**i)
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
        exponents = range(5, 13)
        master = RngStream(DEFAULT_SEED)
        check = as_rate_check(power_integrand(1.75), 2.0, 0.25, exponents, master)
        assert [row.max_prefix_error for row in check.rows] == per_node_max_prefix_errors(1.75, exponents, master)
        assert [(row.step, row.intervals) for row in check.rows] == [(2.0**-i, 2**i) for i in exponents]

    @pytest.mark.parametrize("gamma", [1.25, 1.5, 1.75])
    def test_max_prefix_errors_within_an_ulp_of_the_integral_elsewhere(self, gamma):
        # numpy's array power and Python's float power may round t**(gamma+1)
        # an ulp apart (seed 7, gamma 1.5, h = 2^-5 does), so off the
        # acceptance ladder the two agree to an ulp of the running integral.
        master = RngStream(7)
        check = as_rate_check(power_integrand(gamma), 2.0, 0.25, range(5, 13), master)
        loop = per_node_max_prefix_errors(gamma, range(5, 13), master)
        ulp = np.spacing(1.0 / (gamma + 1.0))
        for row, expected in zip(check.rows, loop):
            assert abs(row.max_prefix_error - expected) <= ulp

    def test_affine_passes_every_rung_with_zero_error(self):
        g = affine_integrand(1.0, 3.0)
        check = as_rate_check(g, 2.0, 0.25, range(3, 7), RngStream(0))
        assert all(row.passed for row in check.rows)
        assert max(row.max_prefix_error for row in check.rows) <= 1e-14
        assert check.first_passing_index == 0

    def test_rough_power_eventually_passes(self):
        g = power_integrand(1.75)
        check = as_rate_check(g, 2.0, 0.25, range(5, 11), RngStream(2))
        assert check.target_exponent == 2.25
        assert check.first_passing_index is not None

    def test_shrinking_eps_tightens_monotonically(self):
        g = power_integrand(1.75)
        loose = as_rate_check(g, 2.0, 0.4, range(5, 11), RngStream(2))
        tight = as_rate_check(g, 2.0, 0.1, range(5, 11), RngStream(2))
        for row_t, row_l in zip(tight.rows, loose.rows):
            assert row_t.bound < row_l.bound
            assert row_t.max_prefix_error == row_l.max_prefix_error
            if row_t.passed:
                assert row_l.passed

    def test_no_passing_index_when_the_last_rung_fails(self):
        # At sigma = 10 the bound h ** 10.25 is far below every rung's error.
        check = as_rate_check(power_integrand(1.75), 10.0, 0.25, range(3, 6), RngStream(0))
        assert not check.rows[-1].passed
        assert check.first_passing_index is None

    def test_integrand_without_a_running_integral_rejected(self):
        g = Integrand(evaluator=lambda t: t, label="identity")
        with pytest.raises(ValueError, match="'identity' has no exact running integral"):
            as_rate_check(g, 2.0, 0.25, range(3, 6), RngStream(0))

    @pytest.mark.parametrize(
        "exponents",
        [(5.5, 6), (5, np.nan), (-1, 5), (5, 1023), (6, 5), (5,), ()],
        ids=["fractional", "nan", "negative", "subnormal", "decreasing", "one", "empty"],
    )
    def test_bad_exponent_rejected_before_drawing(self, exponents, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew offsets before every exponent was checked")

        monkeypatch.setattr(experiments, "sample_tau_sequence", no_draw)
        with pytest.raises(ValueError, match="exponent"):
            as_rate_check(power_integrand(1.75), 2.0, 0.25, exponents, RngStream(0))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected_before_drawing(self, sigma, monkeypatch):
        # nan once gave a nan target exponent and no passing rung, silently.
        monkeypatch.setattr(experiments, "sample_tau_sequence", lambda *args: pytest.fail("drew before the check"))
        with pytest.raises(ValueError, match=f"sigma must be finite, got {sigma}"):
            as_rate_check(power_integrand(1.75), sigma, 0.25, range(3, 6), RngStream(2))

    @pytest.mark.parametrize("stream_id", [2**20, 2**64 - 1])
    def test_stream_id_above_the_slots_rejected_before_drawing_naming_it(self, stream_id, monkeypatch):
        # The id is the streams' slot: 2^20 was refused from inside the
        # stream packing, as "stream slot 1048576 is outside [0, 1048576)".
        monkeypatch.setattr(experiments, "sample_tau_sequence", lambda *args: pytest.fail("drew before the check"))
        message = f"master_stream.stream_id must be below 2^20 = 1048576, got {stream_id}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_rate_check(power_integrand(1.75), 2.0, 0.25, range(3, 6), RngStream(2, stream_id))

    def test_largest_stream_id_draws_its_own_slot(self):
        check = as_rate_check(power_integrand(1.75), 2.0, 0.25, range(3, 6), RngStream(2, 2**20 - 1))
        assert [row.max_prefix_error for row in check.rows] == per_node_max_prefix_errors(1.75, range(3, 6), RngStream(2, 2**20 - 1))

    @pytest.mark.parametrize("eps", [0.0, 0.5, -0.1, 0.7])
    def test_eps_validation(self, eps):
        with pytest.raises(ValueError, match="eps"):
            as_rate_check(affine_integrand(0, 1), 2.0, eps, range(1, 3), RngStream(0))


@pytest.mark.parametrize(
    "driver, kwargs",
    [
        (run_example1, dict(step_exponents=[10, 10], replications=1000)),
        (run_example1, dict(step_exponents=[11, 5], replications=1000)),
        (run_example2, dict(step_exponents=[15, 5], reference_exp=18)),
    ],
    ids=["example1-repeated", "example1-decreasing", "example2-decreasing"],
)
def test_exponents_not_strictly_increasing_rejected_before_sampling(driver, kwargs, monkeypatch):
    # ErrorLadder rejects these too, but only after every rung has run.
    def no_work(*args):
        raise AssertionError("sampled before the step exponents were checked")

    monkeypatch.setattr(experiments, "mc_lp_error", no_work)
    monkeypatch.setattr(experiments, "sample_path", no_work)
    with pytest.raises(ValueError, match=r"step exponents \[.*\] must strictly increase"):
        driver(**kwargs)


@pytest.mark.parametrize(
    "driver, kwargs",
    [
        (run_example1, dict(gammas=(1.5,), step_exponents=[5, 1100], replications=5)),
        (run_example2, dict(step_exponents=[5, 1023], reference_exp=18)),
    ],
    ids=["example1", "example2"],
)
def test_step_below_the_normal_range_rejected_before_sampling(driver, kwargs, monkeypatch):
    # 2^-1100 is 0.0, which once failed late as a bare ZeroDivisionError
    # after the 2^-5 rung had run; 2^-1023 is subnormal.  Both lie far
    # above the memory cap.
    def no_work(*args):
        raise AssertionError("sampled before the step exponents were checked")

    monkeypatch.setattr(experiments, "mc_lp_error", no_work)
    monkeypatch.setattr(experiments, "sample_path", no_work)
    bad = kwargs["step_exponents"][-1]
    with pytest.raises(ValueError, match=f"^the finest step exponent {bad} is above 24, the largest whose rungs fit in memory$"):
        driver(**kwargs)


@pytest.mark.parametrize(
    "driver, kwargs, message",
    [
        (run_example1, dict(step_exponents=(5.5, 6)), "a step exponent must be an integer of at least 0, got 5.5"),
        (run_example2, dict(step_exponents=(5.5, 6)), "a step exponent must be an integer of at least 0, got 5.5"),
        (run_example2, dict(step_exponents=(-1, 5)), r"holds -1; exponents must be at least 0"),
        (run_example2, dict(step_exponents=range(5, 9), reference_exp=7), r"reference exponent 7 must lie in \[8, 28\]"),
        (run_example2, dict(step_exponents=(5, 6), reference_exp=7.5), "reference_exp must be an integer of at least 0"),
        (run_example2, dict(step_exponents=(5, 6), reference_exp=1023), r"reference exponent 1023 must lie in \[6, 28\]"),
        (run_example2, dict(step_exponents=(5, 6), reference_exp=29), r"reference exponent 29 must lie in \[6, 28\]"),
        (run_example2, dict(step_exponents=(5, 25)), "the finest step exponent 25 is above 24, the largest whose rungs fit in memory"),
        (run_example1, dict(step_exponents=(5, 25)), "the finest step exponent 25 is above 24, the largest whose rungs fit in memory"),
        (
            lambda **kwargs: as_rate_check(power_integrand(1.75), 2.0, 0.25, master_stream=RngStream(0), **kwargs),
            dict(step_exponents=(5, 25)),
            "the finest step exponent 25 is above 24, the largest whose rungs fit in memory",
        ),
    ],
    ids=[
        "example1-fractional",
        "fractional",
        "negative",
        "reference-coarser",
        "reference-fractional",
        "reference-subnormal",
        "reference-above-the-time-cap",
        "ladder-above-the-memory-cap",
        "example1-ladder-above-the-memory-cap",
        "as-rate-ladder-above-the-memory-cap",
    ],
)
def test_bad_exponent_rejected_before_sampling(driver, kwargs, message, monkeypatch):
    # run_example1(step_exponents=(5.5, 6)) once ran a rung of
    # round(1 / 2^-5.5) = 45 cells and reported h = 1/45.  Example 1 and
    # as_rate_check once accepted a finest exponent up to 1022; at about
    # 60 B per cell, 2^25 cells need 2 GB.
    def no_work(*args):
        raise AssertionError("sampled before the exponents were checked")

    for name in ("mc_lp_error", "sample_path", "sample_tau_sequence"):
        monkeypatch.setattr(experiments, name, no_work)
    with pytest.raises(ValueError, match=message):
        driver(**kwargs)


@pytest.mark.parametrize("gammas", [(1.5, -2.0), (1.5, float("nan"))], ids=["divergent", "nan"])
def test_every_gamma_checked_before_the_first_rung(gammas, monkeypatch):
    # Both once ran the whole gamma = 1.5 ladder before the second was rejected.
    def no_work(*args):
        raise AssertionError("a rung ran before every gamma was checked")

    monkeypatch.setattr(experiments, "ctq", no_work)
    with pytest.raises(ValueError, match="gamma must be"):
        run_example1(gammas=gammas, step_exponents=range(5, 7), replications=5)


def test_example1_runs_every_gamma_of_a_one_shot_iterable():
    # The label check once consumed the generator, leaving 0 reports.
    kwargs = dict(step_exponents=range(3, 5), replications=2)
    result = run_example1(gammas=(g for g in [1.5, 1.75]), **kwargs)
    expected = run_example1(gammas=[1.5, 1.75], **kwargs)
    assert [r.ladder.label for r in result.reports] == ["1.5"] * 3 + ["1.75"] * 3
    for got, want in zip(result.reports, expected.reports, strict=True):
        assert got.ladder.errors.tobytes() == want.ladder.errors.tobytes()


def test_example1_rejects_no_gammas_before_anything_is_built(monkeypatch):
    # gammas=() once returned a study of 0 reports.
    def no_work(*args):
        raise AssertionError("built or drew before the gammas were checked")

    monkeypatch.setattr(experiments, "power_integrand", no_work)
    monkeypatch.setattr(RngStream, "generator", no_work)
    with pytest.raises(ValueError, match="gammas is empty"):
        run_example1(gammas=(), step_exponents=range(3, 5), replications=2)


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

    def test_every_rung_shares_its_partition_and_rtq_timing(self):
        result = run_example1(gammas=(1.25, 1.75), step_exponents=range(3, 7), replications=5, seed=4)
        for label in ("1.25", "1.75"):
            ctq_rows, l2_rows, path_rows = (
                result.report(label, rule, metric).ladder.rows
                for rule, metric in (("CTQ", "absolute"), ("RTQ", "L2_monte_carlo"), ("RTQ", "pathwise"))
            )
            for i, c, l2, pw in zip(range(3, 7), ctq_rows, l2_rows, path_rows, strict=True):
                assert l2.wall_time_s == pw.wall_time_s
                for row in (c, l2, pw):
                    assert (row.step, row.intervals) == (2.0**-i, 2**i)

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


class TestRunExample2:
    def test_complement_cells_run_once_per_rung(self, monkeypatch):
        # The walk and coarse_tau_from once both named each rung's cells,
        # checking its picks twice: 8 calls for 4 rungs.
        calls, named = [], random_sources.complement_cells

        def counted(fine_cells, selected):
            calls.append(selected.size)
            return named(fine_cells, selected)

        monkeypatch.setattr(experiments, "complement_cells", counted)
        monkeypatch.setattr(random_sources, "complement_cells", counted)
        run_example2(step_exponents=range(3, 7), reference_exp=9, seed=8)
        assert calls == [8, 16, 32, 64]

    def test_structure_and_determinism(self):
        kwargs = dict(step_exponents=range(5, 8), reference_exp=10, seed=8)
        a = run_example2(**kwargs)
        b = run_example2(**kwargs)
        assert len(a.reports) == 2
        assert a.reference == b.reference
        for ra, rb in zip(a.reports, b.reports):
            np.testing.assert_array_equal(ra.ladder.errors, rb.ladder.errors)

    def test_reference_is_union_trapezoid_of_the_integrand(self):
        result = run_example2(step_exponents=range(5, 7), reference_exp=9, seed=8)
        path, _ = sampled_path(_lane_stream(8, _LANE_PATH), 2**9)
        oracle = value_at_union_grid_reference(path, euler_integrand(path))
        assert np.float64(result.reference).tobytes() == np.float64(oracle).tobytes()

    def test_result_keeps_the_path_it_drew(self):
        # 2^13 cells are two blocks; the path walks bit for bit as a fresh
        # first pass on Example 2's stream, however often it is walked.
        path = run_example2(step_exponents=range(5, 8), reference_exp=13, seed=8).path
        walks = [collect_path(path), collect_path(path), sampled_path(_lane_stream(8, _LANE_PATH), 2**13)]
        for (grid, mids), (first_grid, first_mids) in zip(walks[1:], walks):
            assert grid.grid_values.tobytes() == first_grid.grid_values.tobytes()
            assert grid.offsets.tobytes() == first_grid.offsets.tobytes()
            assert mids.tobytes() == first_mids.tobytes()

    def test_reference_matches_finest_partition_quadrature(self):
        result = run_example2(step_exponents=range(5, 7), reference_exp=9, seed=8)
        bi = euler_integrand(sampled_path(_lane_stream(8, _LANE_PATH), 2**9)[0])
        fine = ctq_brownian(bi, make_partition(2**9)).value
        assert result.reference == pytest.approx(fine, rel=1e-13)

    def test_rejects_steps_finer_than_reference(self):
        message = "the reference exponent 10 must lie in [11, 28], from the finest step exponent up"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_example2(step_exponents=range(5, 12), reference_exp=10, seed=8)

    def test_derived_steps_are_exactly_the_dyadic_steps(self, monkeypatch):
        # Every step is derived as 1.0 / 2^i; that is 2.0**-i exactly down to
        # the smallest normal double, far below any ladder the drivers accept.
        assert all(1.0 / 2**i == 2.0**-i for i in range(1023))
        nodes = []

        def recording(bi, part):
            nodes.append(bi)
            return ctq_brownian(bi, part)

        monkeypatch.setattr(experiments, "ctq_brownian", recording)
        run_example2(step_exponents=range(3, 7), reference_exp=9, seed=8)
        assert {(bi.cells, bi.step, bi.stride) for bi in nodes} == {(2**6, 2.0**-6, 2**3)}

    def test_both_ladders_share_every_rungs_partition(self):
        result = run_example2(step_exponents=range(2, 7), reference_exp=8, seed=8)
        ctq_rows, rtq_rows = (report.ladder.rows for report in result.reports)
        for i, c, r in zip(range(2, 7), ctq_rows, rtq_rows, strict=True):
            assert (c.step, c.intervals) == (r.step, r.intervals) == (2.0**-i, 2**i)

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
            result = run_example2(step_exponents=range(lo, hi + 1), reference_exp=ref_exp, seed=seed)
            streamed = [result.reference] + values[experiments.TIMING_REPEATS - 1 :: experiments.TIMING_REPEATS]

            path, mid_values = sampled_path(_lane_stream(seed, _LANE_PATH), 2**ref_exp)
            bi = euler_integrand(path)
            whole = [value_at_union_grid_reference(path, bi)]
            for hj, e in enumerate(range(lo, hi + 1)):
                part = make_partition(2**e)
                _, ctau = coarsened(path, mid_values, part.intervals, _lane_stream(seed, _LANE_COARSEN, hj))
                whole += [ctq_brownian(bi, part).value, rtq_brownian(bi, part, ctau).value]
            assert np.array(streamed).tobytes() == np.array(whole).tobytes(), (ref_exp, lo, hi)

    @staticmethod
    def traced_peak(reference_exp):
        tracemalloc.start()
        try:
            run_example2(step_exponents=range(5, 11), reference_exp=reference_exp, seed=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_the_reference(self):
        # Nothing the run holds grows with the reference: 2^18 cells peak
        # within two blocks of 2^14, where whole node values and offsets
        # would add about 4 MiB.  The peak is a few dozen blocks of the pass
        # and the coarse rungs' arrays.
        run_example2(step_exponents=range(5, 7), reference_exp=8, seed=2)
        small, large = self.traced_peak(14), self.traced_peak(18)
        assert large <= small + 2 * BLOCK_ELEMENTS * 8
        assert large < 32 * BLOCK_ELEMENTS * 8

    def test_peak_memory_is_bounded_per_coarse_cell(self):
        # The ladder 5..14 picks 2^15 - 2^5 fine cells; the run holds at most
        # 64 B per pick and a few dozen blocks of the pass.  One sorted
        # record of all the picks once took about 120 B per pick, and the
        # result kept its 24 B per pick.
        picks = 2**15 - 2**5
        run_example2(step_exponents=range(5, 7), reference_exp=8, seed=2)
        tracemalloc.start()
        try:
            result = run_example2(step_exponents=range(5, 15), reference_exp=16, seed=2)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * picks + 16 * BLOCK_ELEMENTS * 8
        assert kept < 2**14 * 4  # the finest rung's picks as int32

    def test_zero_path_gives_zero_reference_and_rule_values(self):
        cells = 2**8
        zero = hand_grid(np.zeros(cells + 1), np.full(cells, 0.4))
        assert union_terms_sum(zero) == 0.0
        bi = euler_integrand(zero)
        for n in (32, 64, 128):
            part = make_partition(n)
            assert ctq_brownian(bi, part).value == 0.0
            _, ctau = coarsened(zero, np.zeros(cells), n, RngStream(8, n))
            assert rtq_brownian(bi, part, ctau).value == 0.0


def value_at_union_grid_reference(path, bi):
    """Example 2's reference for ``path``, the trapezoidal rule on the union
    grid through ``bi.value_at``: the oracle."""
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


def _edge_offsets(cells):
    """Offsets one ulp of j inside cell j, alternately at its left and right end."""
    j = np.arange(cells, dtype=float)
    left = np.nextafter(j, np.inf) - j
    right = np.nextafter(j + 1.0, 0.0) - j
    offsets = np.where(j % 2 == 1, left, right)
    offsets[0] = 0.5
    return offsets


def union_terms_sum(path):
    """The compensated sum of ``_union_terms`` over the whole path ``path``
    as one block, bit for bit the blocked sum ``run_example2`` carries."""
    block = PathBlock(start=0, nodes=path.grid_values, offsets=path.offsets, mid_values=None)
    return compensated_sum(experiments._union_terms(block, euler_integrand(path).prefix, path.step))


class TestUnionGridReference:
    @pytest.mark.parametrize("seed", [0, 2, 7, 11])
    def test_bitwise_equals_the_value_at_oracle(self, seed):
        for k in range(17):
            path, _ = sampled_path(RngStream(seed, k), 2**k)
            new, old = union_terms_sum(path), value_at_union_grid_reference(path, euler_integrand(path))
            assert np.float64(new).tobytes() == np.float64(old).tobytes(), k

    @pytest.mark.parametrize(
        "path",
        [
            hand_grid(np.zeros(2**8 + 1), np.full(2**8, 0.4)),
            hand_grid(np.linspace(0.0, 1.0, 9), np.full(8, 0.5)),
            hand_grid([0.0, 1.0, -2.0, 0.5, 3.0], [0.5] * 4),
            hand_grid(np.random.default_rng(5).standard_normal(2**12 + 1), _edge_offsets(2**12)),
        ],
        ids=["zero", "linear", "hand", "edge-offsets"],
    )
    def test_hand_built_paths_bitwise_equal_the_oracle(self, path):
        new, old = union_terms_sum(path), value_at_union_grid_reference(path, euler_integrand(path))
        assert np.float64(new).tobytes() == np.float64(old).tobytes()

    def test_offset_off_its_cell_rejected(self):
        for offsets in ([0.5, 1.0, 0.5, 0.5], [0.5, 0.5, np.nan, 0.5], [0.5, 0.5, 0.5, -0.25]):
            with pytest.raises(ValueError, match="strictly increasing"):
                union_terms_sum(hand_grid(np.zeros(5), offsets))
