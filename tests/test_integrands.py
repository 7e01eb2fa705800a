import dataclasses
import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from randquad.integrands import (
    _BLOCK_ELEMENTS,
    SOBOLEV_MAX_CELLS,
    BrownianIntegrand,
    _slobodeckij_sum,
    affine_integrand,
    constant_integrand,
    ctq_brownian,
    power_integrand,
    rtq_brownian,
    sobolev_seminorm,
)
from randquad.quadrature import Integrand, ctq, make_partition
from randquad.random_sources import RngStream
from randquad.summation import compensated_sum

from brownian_paths import coarsened, euler_integrand, hand_grid, sampled_path


class TestPowerIntegrand:
    def test_three_halves_exact_integral(self):
        assert power_integrand(1.5).exact_integral == pytest.approx(0.4, abs=1e-15)

    def test_five_quarters_at_one(self):
        g = power_integrand(1.25)
        assert g.evaluator(np.array([1.0]))[0] == 1.0

    def test_seven_quarters_exact_integral(self):
        assert power_integrand(1.75).exact_integral == pytest.approx(1 / 2.75, rel=1e-15)

    def test_derivative_and_prefix(self):
        g = power_integrand(1.5)
        t = np.array([0.25, 1.0])
        np.testing.assert_allclose(g.exact_derivative(t), 1.5 * t**0.5, rtol=1e-15)
        assert g.exact_prefix_integral(1.0) == g.exact_integral

    def test_low_exponent_warns_but_evaluates(self):
        with pytest.warns(RuntimeWarning, match="regularity"):
            g = power_integrand(0.5)
        assert g.evaluator(np.array([0.25]))[0] == 0.5


@pytest.mark.parametrize(
    "build",
    [
        lambda: power_integrand(float("nan")),
        lambda: constant_integrand(float("nan")),
        lambda: affine_integrand(float("inf"), 2.0),
        lambda: affine_integrand(1.0, float("-inf")),
    ],
)
def test_non_finite_integrand_parameters_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("gamma", [-1.0, -1.5, -3.0])
def test_divergent_exponent_rejected(gamma):
    # -1.5 once returned exact_integral -2.0, and -1 a bare ZeroDivisionError.
    with pytest.raises(ValueError, match=re.escape(f"got {gamma!r}: the integral of t**gamma over [0, 1] diverges")):
        power_integrand(gamma)


def _zero_path(cells=8):
    return hand_grid(np.zeros(cells + 1), np.full(cells, 0.375)), np.zeros(cells)


class TestBrownianIntegrand:
    def test_prefix_starts_at_zero(self):
        bi = euler_integrand(sampled_path(RngStream(1), 2**6)[0])
        assert bi.prefix[0] == 0.0

    def test_linear_path_hand_value(self):
        # B(t_i) = t_i gives Euler sums h^2 * n(n-1)/2.
        cells = 8
        grid = np.linspace(0.0, 1.0, cells + 1)
        path = hand_grid(grid, np.full(cells, 0.5))
        bi = euler_integrand(path)
        h = path.step
        n = np.arange(cells + 1)
        np.testing.assert_allclose(bi.prefix, h * h * n * (n - 1) / 2.0, rtol=1e-14, atol=1e-18)

    def test_node_evaluation_is_prefix(self):
        path, _ = sampled_path(RngStream(2), 2**8)
        bi = euler_integrand(path)
        np.testing.assert_array_equal(bi.value_at(np.arange(path.cells + 1) * path.step), bi.prefix)

    def test_euler_recurrence(self):
        path, _ = sampled_path(RngStream(3), 2**8)
        bi = euler_integrand(path)
        steps = np.diff(bi.prefix)
        # Differences of stored prefixes are exact only up to the rounding of
        # the prefix representation itself.
        atol = 8 * np.spacing(np.max(np.abs(bi.prefix)))
        np.testing.assert_allclose(steps, path.step * path.grid_values[:-1], rtol=0, atol=atol)

    def test_out_of_range_rejected(self):
        bi = euler_integrand(sampled_path(RngStream(4), 2**4)[0])
        with pytest.raises(ValueError):
            bi.value_at(np.array([1.5]))
        with pytest.raises(ValueError):
            bi.value_at(np.array([-0.01]))
        # NaN once fell through to the gather as an IndexError.
        with pytest.raises(ValueError, match=r"evaluation time nan outside \[0, 1\]"):
            bi.value_at(np.array([0.5, np.nan]))
        with pytest.raises(ValueError, match="evaluation time nan"):
            bi.value_at(np.nan)
        assert bi.value_at(np.array([])).shape == (0,)

    def test_value_at_needs_the_paths_own_grid(self):
        # At stride 2 the prefix sums run over a grid twice as fine as the
        # nodes, so the left-point extension would mix the two grids.
        bi = BrownianIntegrand(grid_values=np.zeros(5), prefix=np.zeros(5), stride=2)
        with pytest.raises(ValueError, match="stride 1"):
            bi.value_at(np.array([0.5]))


class TestCtqBrownian:
    def test_zero_path(self):
        bi = euler_integrand(_zero_path()[0])
        assert ctq_brownian(bi, make_partition(4)).value == 0.0

    def test_matches_generic_rule_on_same_nodes(self):
        bi = euler_integrand(sampled_path(RngStream(11), 2**10)[0])
        for n in (32, 128, 1024):
            part = make_partition(n)
            closed = ctq_brownian(bi, part).value
            generic = ctq(Integrand(evaluator=bi.value_at), part).value
            assert abs(closed - generic) <= 1e-12 * abs(generic)

    def test_two_cell_hand_expansion(self):
        # Direct expansion: h * (G(t_1) + G(t_2)) - (h/2) * G(t_2) with
        # G the running Euler sums, all recomputed by brute force.
        path = hand_grid([0.0, 1.0, -2.0, 0.5, 3.0], [0.5] * 4)
        bi = euler_integrand(path)
        part = make_partition(2)
        k, h = 2, 0.5
        def brute_prefix(n):
            total = 0.0
            for i in range(n * k):
                total += path.grid_values[i] * path.step
            return total
        expected = math.fsum([h * brute_prefix(1), h * brute_prefix(2), -0.5 * h * brute_prefix(2)])
        value = ctq_brownian(bi, part).value
        assert abs(value - expected) <= 2 * np.spacing(abs(expected))

    # 3 and 5 cells do not divide the path's 8; 16 is finer than it.
    @pytest.mark.parametrize("intervals", [3, 5, 16])
    def test_misaligned_nodes_rejected(self, intervals):
        bi = euler_integrand(sampled_path(RngStream(5), 2**3)[0])
        with pytest.raises(ValueError, match="not a subset of the path's grid"):
            ctq_brownian(bi, make_partition(intervals))


class TestRtqBrownian:
    def test_zero_path(self):
        path, mid_values = _zero_path()
        bi = euler_integrand(path)
        part = make_partition(4)
        _, ctau = coarsened(path, mid_values, part.intervals, RngStream(21))
        assert rtq_brownian(bi, part, ctau).value == 0.0

    def test_single_cell_hand_expansion(self):
        path, mid_values = hand_grid([0.0, 0.7, -0.4], [0.25, 0.75]), np.array([2.0, -3.0])
        bi = euler_integrand(path)
        part = make_partition(1)
        selected, ctau = coarsened(path, mid_values, 1, RngStream(9))
        # The selected slot s puts tau at (s + offset_s) / 2 with sample
        # mid_values[s]; the complement takes B's interpolant through
        # (0, 0.7, -0.4) at 1 - tau.  G(0) = 0 and B(0) = 0 kill the rest.
        s = int(selected[0])
        tau = (s + path.offsets[s]) / 2.0
        b_comp = np.interp(1.0 - tau, [0.0, 0.5, 1.0], path.grid_values)
        expected = 0.25 * (tau * mid_values[s] + (1.0 - tau) * b_comp)
        assert rtq_brownian(bi, part, ctau).value == pytest.approx(expected, rel=1e-15)

    def test_swap_invariance_is_exact(self):
        path, mid_values = sampled_path(RngStream(14), 2**10)
        bi = euler_integrand(path)
        part = make_partition(64)
        _, ctau = coarsened(path, mid_values, part.intervals, RngStream(14, 1))
        swapped = dataclasses.replace(
            ctau,
            values=ctau.complements,
            complements=ctau.values,
            mid_values=ctau.comp_values,
            comp_values=ctau.mid_values,
        )
        assert rtq_brownian(bi, part, ctau).value == rtq_brownian(bi, part, swapped).value

    @pytest.mark.parametrize("intervals", [3, 5, 16])
    def test_misaligned_nodes_rejected(self, intervals):
        path, mid_values = sampled_path(RngStream(5), 2**3)
        _, ctau = coarsened(path, mid_values, 2**2, RngStream(5, 1))
        with pytest.raises(ValueError, match="not a subset of the path's grid"):
            rtq_brownian(euler_integrand(path), make_partition(intervals), ctau)

    def test_wrong_coarse_step_rejected(self):
        path, mid_values = sampled_path(RngStream(15), 2**8)
        bi = euler_integrand(path)
        _, ctau = coarsened(path, mid_values, 2**5, RngStream(15, 1))
        with pytest.raises(ValueError):
            rtq_brownian(bi, make_partition(64), ctau)

    def test_wrong_cell_count_rejected(self):
        # Coarse 2^-5 on a 2^-8 path has factor 8, as N = 64 on a 2^-9 path
        # does, but 32 cells instead of 64.
        _, ctau = coarsened(*sampled_path(RngStream(16), 2**8), 2**5, RngStream(16, 1))
        bi = euler_integrand(sampled_path(RngStream(16), 2**9)[0])
        with pytest.raises(ValueError, match="32 cells of 8 fine cells each, but the partition has 64 cells of 8"):
            rtq_brownian(bi, make_partition(64), ctau)


def dense_slobodeckij_term(g, sigma, p, cells):
    """The double-integral term from the dense kernel, correctly rounded: the oracle.

    Each kept pair's kernel value is computed on its own, and ``math.fsum``
    adds them exactly before one rounding.  The kernel is symmetric, so the
    pairs i < j are summed once, a row at a time, and doubled, which is exact.
    """
    width = 1.0 / cells
    delta = 2.0 * width
    mid = (np.arange(cells) + 0.5) * width
    dv = np.asarray(g.exact_derivative(mid), dtype=np.float64)
    exponent = 1.0 + (sigma - 1.0) * p

    def row(i):
        dist = np.arange(1, cells - i) / cells
        keep = dist >= delta
        return (np.abs(dv[i] - dv[i + 1 :]) ** p)[keep] / dist[keep] ** exponent

    kept = itertools.chain.from_iterable(row(i).tolist() for i in range(cells))
    return 2.0 * math.fsum(kept) * width * width


def diagonal_slobodeckij_sum(dv, delta, p, exponent):
    """The kept diagonals summed by fresh numpy temporaries: the bitwise oracle."""
    cells = dv.size
    return 2.0 * compensated_sum([
        np.sum(np.abs(dv[k:] - dv[:-k]) ** p) / (k / cells) ** exponent
        for k in range(1, cells)
        if k / cells >= delta
    ])


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
        bare = type(g)(evaluator=g.evaluator, label="bare")
        with pytest.raises(ValueError, match="derivative"):
            sobolev_seminorm(bare, 1.5, 2.0, 64)

    @pytest.mark.parametrize("sigma,p,cells", [
        (0.9, 2.0, 64), (2.0, 2.0, 64), (1.5, 1.0, 64), (1.5, 2.0, 1),
        (1.5, float("nan"), 64), (1.5, float("inf"), 64), (float("nan"), 2.0, 64),
    ])
    def test_parameter_validation(self, sigma, p, cells):
        with pytest.raises(ValueError):
            sobolev_seminorm(power_integrand(1.5), sigma, p, cells)

    @pytest.mark.parametrize("cells", [64.7, float("inf"), float("nan")])
    def test_non_integer_cells_rejected(self, cells):
        with pytest.raises(ValueError, match=re.escape(f"cells must be an integer of at least 2, got {cells!r}")):
            sobolev_seminorm(power_integrand(1.5), 1.2, 2.0, cells)

    @pytest.mark.parametrize("g, sigma, p, cells, term", [
        (constant_integrand(1e200), 1.2, 2.0, 8, "term |g|^p is inf at p = 2.0"),
        (power_integrand(1.5), 1.9, 400.0, 16, "term slobodeckij is nan at p = 400.0"),
    ], ids=["constant-1e200", "power-1.5"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_terms_rejected(self, g, sigma, p, cells, term):
        # numpy's overflow and invalid-value warnings once came first.
        with pytest.raises(ValueError, match=re.escape(term)):
            sobolev_seminorm(g, sigma, p, cells)

    @pytest.mark.parametrize("delta", [0.0, -0.1, float("nan"), float("inf")])
    def test_delta_must_be_positive_and_finite(self, delta):
        with pytest.raises(ValueError, match="delta"):
            sobolev_seminorm(power_integrand(1.5), 1.5, 2.0, 64, delta)

    @pytest.mark.parametrize("sigma", [1.2, 1.95])
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
    @pytest.mark.parametrize("cells", [2, 3, 7, 16, 17, 100, 128, 257, 1000, 1024, 1500, 3000, 4096])
    def test_slobodeckij_term_within_an_ulp_of_the_correctly_rounded_sum(self, cells, p, sigma):
        g = power_integrand(1.5)
        est = sobolev_seminorm(g, sigma, p, cells)
        oracle = dense_slobodeckij_term(g, sigma, p, cells)
        assert abs(est.term_slobodeckij - oracle) <= np.spacing(oracle)

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
    @pytest.mark.parametrize("cells", [2, 3, 7, 8, 9, 128, 129, 136, 257, 1024, 1500, 4096, SOBOLEV_MAX_CELLS])
    @pytest.mark.parametrize("delta_of", [
        lambda cells: 2 / cells,
        lambda cells: 3 / cells,
        lambda cells: np.nextafter(3 / cells, 0.0),
        lambda cells: (cells - 1) / cells,
        lambda cells: 1.5,
    ], ids=["2/cells", "3/cells", "below-3/cells", "last-diagonal", "none-kept"])
    def test_diagonal_sum_matches_fresh_temporaries_bit_for_bit(self, cells, p, delta_of):
        # The differences change sign, so negative ones reach both the square
        # at p = 2 and the abs before np.power; a read-only dv shows that the
        # kernel writes only into its own buffer.  Around 8 and 128 values
        # numpy's pairwise sum changes its tree, and a block's rows run from
        # one diagonal to over a hundred.  Under errstate(all="raise"),
        # arithmetic on a padding value or on an unwritten buffer value that
        # overflowed or made a nan would raise.
        mid = (np.arange(cells) + 0.5) / cells
        dv = power_integrand(1.5).exact_derivative(mid) - 1.0
        dv.setflags(write=False)
        delta = float(delta_of(cells))
        exponent = 1.0 + 0.2 * p
        with np.errstate(all="raise"):
            got = _slobodeckij_sum(dv, delta, p, exponent)
        assert got == diagonal_slobodeckij_sum(dv, delta, p, exponent)

    @pytest.mark.parametrize("gamma, sigma, p, exact", [
        (1.5, 1.2, 2.0, 0.7582166143),
        (1.25, 1.2, 2.0, 0.2798637573),
        (1.5, 1.4, 3.0, 0.8838739441),
    ])
    def test_slobodeckij_term_converges_to_the_closed_form(self, gamma, sigma, p, exact):
        # With a = gamma - 1 and s = sigma - 1, substituting y = x u turns the
        # double integral of |g'(x) - g'(y)|^p / |x - y|^(1 + s p) for
        # g = t**gamma into gamma^p * 2 / (a p - s p + 1) times the integral
        # over (0, 1) of |1 - u^a|^p (1 - u)^(-1 - s p).  The values are that
        # expression evaluated by mpmath at 30 digits, rounded to ten.  This
        # checks the kernel's value, not its agreement with an older kernel.
        g = power_integrand(gamma)
        error = {
            cells: abs(sobolev_seminorm(g, sigma, p, cells).term_slobodeckij - exact) / exact
            for cells in (2048, SOBOLEV_MAX_CELLS)
        }
        assert error[SOBOLEV_MAX_CELLS] < error[2048]
        if gamma == 1.5:
            assert error[SOBOLEV_MAX_CELLS] < 1e-4

    # The midpoint difference once dropped 258 of the 510 pairs at |i - j| = 2
    # for 257 cells, 1760 of 2996 for 1500 and 2778 of 5996 for 3000.
    @pytest.mark.parametrize("cells", [257, 1500, 3000])
    @pytest.mark.parametrize("delta_of", [
        None,
        lambda cells: 3 / cells,
        lambda cells: np.nextafter(3 / cells, 0.0),
        lambda cells: np.nextafter(3 / cells, 1.0),
        lambda cells: 2.5 / cells,
        lambda cells: 0.1,
    ], ids=["default", "3/cells", "below-3/cells", "above-3/cells", "2.5/cells", "0.1"])
    def test_guard_band_keeps_exactly_the_pairs_at_grid_distance_delta(self, cells, delta_of):
        # The derivative at midpoint i is i.  With sigma = 1 and p = 2 a pair
        # |i - j| = k apart adds k^2 / (k / cells), and 2 (cells - k) pairs lie
        # k apart.  A pair more or less at k >= 2 moves the sum by over 1e-7
        # of it, far above its rounding.
        delta = None if delta_of is None else float(delta_of(cells))
        index = Integrand(evaluator=np.zeros_like, exact_derivative=lambda t: np.floor(t * cells))
        est = sobolev_seminorm(index, 1.0, 2.0, cells, delta)
        k = np.arange(1, cells)
        dist = k / cells
        kept = k >= 2 if delta is None else dist >= delta
        expected = math.fsum(2.0 * (cells - k[kept]) * (k[kept] ** 2.0 / dist[kept])) / cells**2
        assert est.term_slobodeckij == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_excluded_pairs_add_exactly_zero(self):
        # |dv_i - dv_j| ** 2 overflows for the two pairs at |i - j| = 1, which
        # lie inside the guard band; the one kept pair (0, 2) adds 0.
        a = 2.0**511
        g = Integrand(evaluator=np.zeros_like, exact_derivative=lambda t: np.array([a, -a, a]))
        with np.errstate(over="ignore"):
            est = sobolev_seminorm(g, 1.5, 2.0, 3)
        assert est.term_slobodeckij == 0.0
        assert np.isfinite(est.value)

    @pytest.mark.parametrize("cells", [4096, SOBOLEV_MAX_CELLS])
    def test_kernel_memory_is_bounded(self, cells):
        # The dense 4096 x 4096 kernel held over 400 MiB of arrays.
        tracemalloc.start()
        try:
            sobolev_seminorm(power_integrand(1.5), 1.2, 2.0, cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_kernel_memory_is_one_block_without_ufunc_buffers(self):
        # The subtraction of a block of short diagonals once went through
        # numpy's default 8192-element buffers: with blocks of 2**15 values a
        # 1024-cell estimate peaked at 517 KiB, 256 KiB of block and about
        # 193 KB of those buffers.
        tracemalloc.start()
        try:
            sobolev_seminorm(power_integrand(1.5), 1.2, 2.0, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * _BLOCK_ELEMENTS + 160 * 2**10

    def test_numpy_state_is_the_callers_after_an_estimate(self):
        bufsize = np.setbufsize(4096)
        try:
            with np.errstate(over="raise"):
                before = np.getbufsize(), np.geterr()
                sobolev_seminorm(power_integrand(1.5), 1.2, 2.0, 1024)
                assert (np.getbufsize(), np.geterr()) == before
        finally:
            np.setbufsize(bufsize)

    def test_numpy_state_is_the_callers_after_the_kernel_raises(self):
        # Differences of 2^601 square to inf, and under over="raise" the
        # np.square of the first block raises inside the capped loop.  The
        # kernel is called directly: numpy 2 also restores the buffer size
        # on leaving ``sobolev_seminorm``'s own ``np.errstate`` block.
        dv = np.tile([2.0**600, -(2.0**600)], 512)
        bufsize = np.setbufsize(4096)
        try:
            with np.errstate(over="raise"):
                before = np.getbufsize(), np.geterr()
                with pytest.raises(FloatingPointError, match="overflow encountered in square"):
                    _slobodeckij_sum(dv, 2 / dv.size, 2.0, 1.4)
                assert (np.getbufsize(), np.geterr()) == before
        finally:
            np.setbufsize(bufsize)

    def test_cells_above_the_cap_rejected_before_allocating(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=str(SOBOLEV_MAX_CELLS)):
            sobolev_seminorm(power_integrand(1.5), 1.2, 2.0, SOBOLEV_MAX_CELLS + 1)
        assert time.perf_counter() - start < 0.5
