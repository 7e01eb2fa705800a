import dataclasses
import math
import time

import numpy as np
import pytest

from randquad.integrands import (
    SOBOLEV_MAX_CELLS,
    affine_integrand,
    brownian_integrand,
    constant_integrand,
    ctq_brownian,
    power_integrand,
    rtq_brownian,
    sobolev_seminorm,
)
from randquad.quadrature import TauSequence, ctq, make_partition
from randquad.random_sources import BrownianPath, RngStream, coarsen_tau, sample_brownian_path


class TestPowerIntegrand:
    def test_three_halves_exact_integral(self):
        assert power_integrand(1.5).exact_integral == pytest.approx(0.4, abs=1e-15)

    def test_five_quarters_at_one(self):
        g = power_integrand(1.25)
        assert g.evaluator(np.array([1.0]))[0] == 1.0

    def test_seven_quarters_exact_integral(self):
        assert power_integrand(1.75).exact_integral == pytest.approx(1 / 2.75, rel=1e-15)

    def test_derivative_and_prefix(self):
        g = power_integrand(1.5, total_time=2.0)
        t = np.array([0.25, 1.0])
        np.testing.assert_allclose(g.exact_derivative(t), 1.5 * t**0.5, rtol=1e-15)
        assert g.exact_prefix_integral(2.0) == g.exact_integral

    def test_low_exponent_warns_but_evaluates(self):
        with pytest.warns(RuntimeWarning, match="regularity"):
            g = power_integrand(0.5)
        assert g.evaluator(np.array([0.25]))[0] == 0.5


@pytest.mark.parametrize(
    "build",
    [
        lambda: power_integrand(float("nan")),
        lambda: power_integrand(1.5, total_time=0.0),
        lambda: constant_integrand(1.0, total_time=float("inf")),
        lambda: constant_integrand(1.0, total_time=-1.0),
        lambda: constant_integrand(float("nan")),
        lambda: affine_integrand(1.0, 2.0, total_time=float("nan")),
        lambda: affine_integrand(float("inf"), 2.0),
        lambda: affine_integrand(1.0, float("-inf")),
    ],
)
def test_non_finite_integrand_parameters_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


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


def _zero_path(cells=8, total_time=1.0):
    return _hand_path(
        np.zeros(cells + 1), np.full(cells, 0.375), np.zeros(cells), total_time=total_time
    )


class TestBrownianIntegrand:
    def test_prefix_starts_at_zero(self):
        bi = brownian_integrand(sample_brownian_path(RngStream(1), 1.0, 2.0**-6))
        assert bi.prefix[0] == 0.0

    def test_linear_path_hand_value(self):
        # B(t_i) = t_i gives Euler sums h^2 * n(n-1)/2.
        cells = 8
        grid = np.linspace(0.0, 1.0, cells + 1)
        path = _hand_path(grid, np.full(cells, 0.5), grid[:-1] + 0.5 / cells)
        bi = brownian_integrand(path)
        h = path.step
        n = np.arange(cells + 1)
        np.testing.assert_allclose(bi.prefix, h * h * n * (n - 1) / 2.0, rtol=1e-14, atol=1e-18)

    def test_node_evaluation_is_prefix(self):
        path = sample_brownian_path(RngStream(2), 1.0, 2.0**-8)
        bi = brownian_integrand(path)
        np.testing.assert_array_equal(bi.value_at(path.grid_times), bi.prefix)

    def test_euler_recurrence(self):
        path = sample_brownian_path(RngStream(3), 1.0, 2.0**-8)
        bi = brownian_integrand(path)
        steps = np.diff(bi.prefix)
        # Differences of stored prefixes are exact only up to the rounding of
        # the prefix representation itself.
        atol = 8 * np.spacing(np.max(np.abs(bi.prefix)))
        np.testing.assert_allclose(steps, path.step * path.grid_values[:-1], rtol=0, atol=atol)

    def test_out_of_range_rejected(self):
        bi = brownian_integrand(sample_brownian_path(RngStream(4), 1.0, 2.0**-4))
        with pytest.raises(ValueError):
            bi.value_at(np.array([1.5]))
        with pytest.raises(ValueError):
            bi.value_at(np.array([-0.01]))


class TestCtqBrownian:
    def test_zero_path(self):
        bi = brownian_integrand(_zero_path())
        assert ctq_brownian(bi, make_partition(1.0, 4)).value == 0.0

    def test_matches_generic_rule_on_same_nodes(self):
        bi = brownian_integrand(sample_brownian_path(RngStream(11), 1.0, 2.0**-10))
        for n in (32, 128, 1024):
            part = make_partition(1.0, n)
            closed = ctq_brownian(bi, part).value
            generic = ctq(bi.as_integrand(), part).value
            assert abs(closed - generic) <= 1e-12 * abs(generic)

    def test_two_cell_hand_expansion(self):
        # Direct expansion: h * (G(t_1) + G(t_2)) - (h/2) * G(t_2) with
        # G the running Euler sums, all recomputed by brute force.
        path = _hand_path([0.0, 1.0, -2.0, 0.5, 3.0], [0.5] * 4, [0.1] * 4)
        bi = brownian_integrand(path)
        part = make_partition(1.0, 2)
        k, h = 2, 0.5
        def brute_prefix(n):
            total = 0.0
            for i in range(n * k):
                total += path.grid_values[i] * path.step
            return total
        expected = math.fsum([h * brute_prefix(1), h * brute_prefix(2), -0.5 * h * brute_prefix(2)])
        value = ctq_brownian(bi, part).value
        assert abs(value - expected) <= 2 * np.spacing(abs(expected))

    def test_misaligned_nodes_rejected(self):
        bi = brownian_integrand(sample_brownian_path(RngStream(5), 1.0, 2.0**-3))
        with pytest.raises(ValueError):
            ctq_brownian(bi, make_partition(1.0, 3))


class TestRtqBrownian:
    def test_zero_path(self):
        path = _zero_path()
        bi = brownian_integrand(path)
        part = make_partition(1.0, 4)
        ctau = coarsen_tau(path, part.step, RngStream(21))
        assert rtq_brownian(bi, part, ctau).value == 0.0

    def test_single_cell_hand_expansion(self):
        path = _hand_path([0.0, 0.7, -0.4], [0.25, 0.75], [2.0, -3.0])
        bi = brownian_integrand(path)
        part = make_partition(1.0, 1)
        ctau = coarsen_tau(path, 1.0, RngStream(9))
        # Mirrored offsets: whichever slot is selected, the evaluation pair is
        # (0.125 -> 2.0, 0.875 -> -3.0); G(0) = 0 and B(0) = 0 kill the rest.
        expected = 0.25 * (0.125 * 2.0 + 0.875 * (-3.0))
        assert rtq_brownian(bi, part, ctau).value == pytest.approx(expected, rel=1e-15)

    def test_swap_invariance_is_exact(self):
        path = sample_brownian_path(RngStream(14), 1.0, 2.0**-10)
        bi = brownian_integrand(path)
        part = make_partition(1.0, 64)
        ctau = coarsen_tau(path, part.step, RngStream(14, 1))
        swapped = dataclasses.replace(
            ctau,
            values=ctau.complements,
            complements=ctau.values,
            mid_times=ctau.comp_times,
            mid_values=ctau.comp_values,
            comp_times=ctau.mid_times,
            comp_values=ctau.mid_values,
        )
        assert rtq_brownian(bi, part, ctau).value == rtq_brownian(bi, part, swapped).value

    def test_wrong_coarse_step_rejected(self):
        path = sample_brownian_path(RngStream(15), 1.0, 2.0**-8)
        bi = brownian_integrand(path)
        ctau = coarsen_tau(path, 2.0**-5, RngStream(15, 1))
        with pytest.raises(ValueError):
            rtq_brownian(bi, make_partition(1.0, 64), ctau)

    def test_missing_sample_names_cell(self):
        path = sample_brownian_path(RngStream(16), 1.0, 2.0**-8)
        bi = brownian_integrand(path)
        part = make_partition(1.0, 32)
        ctau = coarsen_tau(path, part.step, RngStream(16, 1))
        tampered = np.array(ctau.mid_times)
        tampered[5] += 1e-9
        object.__setattr__(ctau, "mid_times", tampered)
        with pytest.raises(ValueError, match="cell 5"):
            rtq_brownian(bi, part, ctau)


class TestSobolevSeminorm:
    def test_zero_integrand(self):
        est = sobolev_seminorm(constant_integrand(0.0), 1.5, 2.0, 128)
        assert est.value == 0.0
        assert est.term_value == est.term_derivative == est.term_slobodeckij == 0.0

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_identity_function_closed_form(self, p):
        # For g(t) = t on [0,1] with sigma = 1 the difference-quotient term
        # vanishes and the norm is (1/(p+1) + 1) ** (1/p).
        g = affine_integrand(0.0, 1.0)
        est = sobolev_seminorm(g, 1.0, p, 512)
        assert est.term_slobodeckij == 0.0
        assert est.value == pytest.approx((1.0 / (p + 1.0) + 1.0) ** (1.0 / p), rel=1e-4)

    def test_stable_under_cell_refinement_inside_the_space(self):
        g = power_integrand(1.5)
        delta = 2.0 / 512
        coarse = sobolev_seminorm(g, 1.2, 2.0, 512, delta)
        fine = sobolev_seminorm(g, 1.2, 2.0, 1024, delta)
        assert abs(fine.value - coarse.value) / coarse.value < 0.05

    def test_growth_gate_separates_regularity(self):
        # Near the membership boundary sigma = gamma + 1/2 the estimate keeps
        # growing as the guard band shrinks; well inside the space it settles.
        g = power_integrand(1.5)

        def growth(sigma):
            values = [
                sobolev_seminorm(g, sigma, 2.0, 512 * m, delta=2.0 / (512 * m)).value
                for m in (1, 2, 4)
            ]
            return [(b - a) / a for a, b in zip(values, values[1:])]

        inside = growth(1.2)
        boundary = growth(1.95)
        assert max(inside) < 0.01
        assert min(boundary) > 0.05

    def test_requires_exact_derivative(self):
        g = power_integrand(1.5)
        bare = type(g)(evaluator=g.evaluator, total_time=1.0, label="bare")
        with pytest.raises(ValueError, match="derivative"):
            sobolev_seminorm(bare, 1.5, 2.0, 64)

    @pytest.mark.parametrize("sigma,p,cells", [
        (0.9, 2.0, 64), (2.0, 2.0, 64), (1.5, 1.0, 64), (1.5, 2.0, 1),
        (1.5, float("nan"), 64), (1.5, float("inf"), 64), (float("nan"), 2.0, 64),
    ])
    def test_parameter_validation(self, sigma, p, cells):
        with pytest.raises(ValueError):
            sobolev_seminorm(power_integrand(1.5), sigma, p, cells)

    @pytest.mark.parametrize("delta", [0.0, -0.1, float("nan"), float("inf")])
    def test_delta_must_be_positive_and_finite(self, delta):
        with pytest.raises(ValueError, match="delta"):
            sobolev_seminorm(power_integrand(1.5), 1.5, 2.0, 64, delta)

    def test_cells_above_the_cap_rejected_before_allocating(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=str(SOBOLEV_MAX_CELLS)):
            sobolev_seminorm(power_integrand(1.5), 1.2, 2.0, SOBOLEV_MAX_CELLS + 1)
        assert time.perf_counter() - start < 0.5
