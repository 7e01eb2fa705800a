"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest report.  Every tolerance is stated
inline; stochastic checks run on the package's fixed default seed, so the
whole suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from randquad.experiments import (
    DEFAULT_SEED,
    ErrorLadder,
    LadderRow,
    as_rate_check,
    fit_order,
    mc_lp_error,
    run_example1,
    run_example2,
)
from randquad.integrands import (
    affine_integrand,
    constant_integrand,
    ctq_brownian,
    power_integrand,
)
from randquad.quadrature import Integrand, ctq, make_partition, rtq
from randquad.random_sources import RngStream, sample_tau_sequence

from brownian_paths import coarsened, euler_integrand, sampled_path

GAMMAS = (1.25, 1.5, 1.75)
GAMMA_LABELS = ("1.25", "1.5", "1.75")
TARGET_CTQ_ORDERS = (1.96, 1.99, 1.99)
TARGET_RTQ_L2_ORDERS = (2.24, 2.44, 2.50)


def _verdict(number, description, check):
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}", flush=True)
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {description}", flush=True)


def test_criterion_01_ctq_orders():
    def check():
        start = time.perf_counter()
        for gamma, target in zip(GAMMAS, TARGET_CTQ_ORDERS):
            g = power_integrand(gamma)
            rows = []
            for i in range(5, 11):
                part = make_partition(2**i)
                error = abs(g.exact_integral - ctq(g, part).value)
                rows.append(LadderRow(intervals=2**i, error=error, wall_time_s=0.0))
            order = fit_order(ErrorLadder(rule="CTQ", metric="absolute", rows=tuple(rows))).fitted_order
            assert abs(order - target) <= 0.15, f"gamma={gamma}: {order} vs {target}"
        assert time.perf_counter() - start < 1.0

    _verdict(1, "CTQ absolute-error orders match 1.96/1.99/1.99 within 0.15 (< 1 s)", check)


def test_criterion_02_rtq_l2_orders():
    def check():
        start = time.perf_counter()
        result = run_example1(replications=100, p=2.0, seed=DEFAULT_SEED)
        for label, target in zip(GAMMA_LABELS, TARGET_RTQ_L2_ORDERS):
            order = result.report(label, "RTQ", "L2_monte_carlo").fitted_order
            assert abs(order - target) <= 0.25, f"gamma={label}: {order} vs {target}"
        assert time.perf_counter() - start < 30.0

    _verdict(2, "RTQ L2 orders (M=100) match 2.24/2.44/2.50 within 0.25 (< 30 s)", check)


def test_criterion_03_pathwise_orders_property():
    def check():
        result = run_example1(replications=100, p=2.0, seed=DEFAULT_SEED)
        for label in GAMMA_LABELS:
            pathwise = result.report(label, "RTQ", "pathwise").fitted_order
            l2 = result.report(label, "RTQ", "L2_monte_carlo").fitted_order
            ctq_order = result.report(label, "CTQ", "absolute").fitted_order
            assert pathwise > 2.0, f"gamma={label}: pathwise order {pathwise}"
            assert l2 - ctq_order >= 0.2, f"gamma={label}: L2-CTQ gap {l2 - ctq_order}"

    _verdict(3, "every pathwise order > 2.0 and RTQ L2 exceeds CTQ by >= 0.2", check)


def test_criterion_04_unbiasedness():
    def check():
        start = time.perf_counter()
        g = power_integrand(1.5)
        part = make_partition(32)
        replications = 10**4
        values = np.empty(replications)
        base = 7 << 40  # clear of the stream-id lanes the drivers use
        for m in range(replications):
            tau = sample_tau_sequence(RngStream(DEFAULT_SEED, base + m), 32)
            values[m] = rtq(g, part, tau).value
        z = abs(values.mean() - 0.4) / (values.std(ddof=1) / math.sqrt(replications))
        assert z <= 4.0, f"standardized deviation {z}"
        assert time.perf_counter() - start < 10.0

    _verdict(4, "RTQ sample mean at gamma=3/2, N=32, M=1e4 within 4 standard errors of 0.4 (< 10 s)", check)


def test_criterion_05_affine_exactness():
    def check():
        # The rounding unit is set by the magnitude actually accumulated,
        # |a|T + |b|T^2/2, which also covers a + bt with a cancelling integral.
        cases = [
            (constant_integrand(3.0), 3.0),
            (affine_integrand(0.25, 1.5), 0.25 + 0.75),
            (affine_integrand(1.0, -2.0), 1.0 + 1.0),
        ]
        rng = np.random.default_rng(DEFAULT_SEED)
        for n in (1, 2, 32, 1024):
            part = make_partition(n)
            for g, magnitude in cases:
                exact = g.exact_integral
                tol = 8 * np.spacing(magnitude)
                assert abs(ctq(g, part).value - exact) <= tol
                for _ in range(100):
                    tau = rng.uniform(1e-6, 1.0 - 1e-6, size=n)
                    assert abs(rtq(g, part, tau).value - exact) <= tol

    _verdict(5, "CTQ and RTQ exact (<= 8 ulp) on constants and affine functions", check)


def test_criterion_06_order_fit_oracle():
    def check():
        for constant, order in ((1.0, 2.0), (3.0, 2.5), (0.125, 1.75)):
            rows = tuple(
                LadderRow(intervals=2**i, error=constant * (2.0**-i) ** order, wall_time_s=0.0)
                for i in range(5, 11)
            )
            report = fit_order(ErrorLadder(rule="CTQ", metric="absolute", rows=rows))
            assert abs(report.fitted_order - order) <= 1e-12
            assert abs(report.intercept - math.log2(constant)) <= 1e-12

    _verdict(6, "fit_order recovers synthetic power-law slopes and intercepts to 1e-12", check)


def test_criterion_07_brownian_machinery():
    def check():
        terminal = np.array(
            [
                sampled_path(RngStream(DEFAULT_SEED, i), 2**6)[0].grid_values[-1]
                for i in range(10**4)
            ]
        )
        assert abs(terminal.var() - 1.0) < 0.05, f"terminal variance {terminal.var()}"

        path, mid_values = sampled_path(RngStream(DEFAULT_SEED, 10**5), 2**14)
        tau = path.offsets
        mean = (1.0 - tau) * path.grid_values[:-1] + tau * path.grid_values[1:]
        sd = np.sqrt(tau * (1.0 - tau) * path.step)
        residuals = ((mid_values - mean) / sd)[: 10**4]
        assert abs(residuals.mean()) < 0.05, f"residual mean {residuals.mean()}"
        assert abs(residuals.var() - 1.0) < 0.07, f"residual variance {residuals.var()}"

        for k in (2, 4, 8, 16, 32, 64, 128, 256, 512):
            hc = k * path.step
            selected, ctau = coarsened(path, mid_values, path.cells // k, RngStream(DEFAULT_SEED, 10**5 + k))
            starts = np.arange(path.cells // k) * hc
            assert np.array_equal(starts + ctau.values * hc, path.mid_times(selected)), f"k={k}"

    _verdict(7, "Brownian variance and bridge checks pass; coarsening reuse bit-for-bit for k=2..512", check)


def test_criterion_08_example2_property():
    def check():
        start = time.perf_counter()
        result = run_example2(reference_exp=14, seed=DEFAULT_SEED)
        ctq_report = result.report("gB", "CTQ", "pathwise")
        rtq_report = result.report("gB", "RTQ", "pathwise")
        assert rtq_report.fitted_order > ctq_report.fitted_order, (
            f"RTQ {rtq_report.fitted_order} vs CTQ {ctq_report.fitted_order}"
        )
        for c_row, r_row in zip(ctq_report.ladder.rows, rtq_report.ladder.rows):
            assert r_row.wall_time_s <= 3.0 * c_row.wall_time_s, (
                f"h={c_row.step}: RTQ {r_row.wall_time_s}s vs CTQ {c_row.wall_time_s}s"
            )
        assert time.perf_counter() - start < 60.0

    _verdict(8, "example 2: RTQ pathwise order beats CTQ and RTQ time <= 3x CTQ per step (< 60 s)", check)


def test_criterion_09_almost_sure_rate():
    def check():
        g = power_integrand(1.75)
        result = as_rate_check(g, sigma=2.0, eps=0.25, step_exponents=range(5, 13), master_stream=RngStream(DEFAULT_SEED))
        assert any(row.passed for row in result.rows), "no rung satisfied the bound"
        m0 = result.first_passing_index
        print(f"    almost-sure rate check: first all-passing index m0 = {m0}", flush=True)

    _verdict(9, "pathwise max prefix error falls below h^(1/2+sigma-eps) from a reported m0 on", check)


def test_criterion_10_double_sum_identity():
    def check():
        path, _ = sampled_path(RngStream(DEFAULT_SEED, 424242), 2**10)
        bi = euler_integrand(path)

        def brute_force(intervals):
            k = path.cells // intervals
            h = 1.0 / intervals

            def prefix(n):
                total = 0.0
                for i in range(n * k):
                    total += path.grid_values[i] * path.step
                return total

            terms = [h * prefix(n) for n in range(1, intervals + 1)]
            terms.append(-0.5 * h * prefix(intervals))
            return math.fsum(terms)

        for n in (8, 16, 32, 64):
            part = make_partition(n)
            fast = ctq_brownian(bi, part).value
            direct = brute_force(n)
            assert abs(fast - direct) <= 2 * np.spacing(abs(direct)), f"N={n}"
            generic = ctq(Integrand(evaluator=bi.value_at), part).value
            assert abs(fast - generic) <= 1e-12 * abs(generic), f"N={n}"

    _verdict(10, "prefix-sum quadrature equals the direct nested expansion (2 ulp) and generic CTQ (1e-12)", check)
