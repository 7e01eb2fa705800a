import math

import numpy as np
import pytest

from randquad.summation import BLOCK_ELEMENTS, NeumaierSum, compensated_cumsum, compensated_sum


def test_recovers_cancellation_kahan_misses():
    # Classic case where plain Kahan loses the small term entirely.
    values = [1.0, 1e100, 1.0, -1e100]
    assert compensated_sum(values) == 2.0


def test_matches_fsum_on_mixed_magnitudes():
    rng = np.random.default_rng(42)
    for _ in range(50):
        values = (rng.standard_normal(500) * 10.0 ** rng.integers(-12, 12, size=500)).tolist()
        assert compensated_sum(values) == pytest.approx(math.fsum(values), rel=1e-15, abs=1e-300)


def test_cumsum_prefixes_equal_independent_sums():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(200).tolist()
    partials = compensated_cumsum(values)
    for k in (1, 17, 199, 200):
        assert partials[k - 1] == compensated_sum(values[:k])


def test_cumsum_last_is_sum_bitwise():
    rng = np.random.default_rng(3)
    values = (rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 8, size=1000)).tolist()
    assert compensated_cumsum(values)[-1] == compensated_sum(values)


def test_accumulator_is_incremental():
    acc = NeumaierSum()
    for x in (0.1, 0.2, 0.3):
        acc.extend((x,))
    assert acc.value == compensated_sum([0.1, 0.2, 0.3])


def neumaier_loop(values):
    """Scalar Neumaier recurrence, one element at a time: the kernel's oracle."""
    total = 0.0
    carry = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            carry += (total - t) + x
        else:
            carry += (x - t) + total
        total = t
    return total + carry


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def wide_magnitudes(rng, shape, max_exp=300):
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-max_exp, max_exp + 1, size=shape)


BLOCK = BLOCK_ELEMENTS


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_kernel_bitwise_equals_scalar_loop_across_block_edges(n):
    rng = np.random.default_rng(n)
    values = wide_magnitudes(rng, n)
    assert bits(compensated_sum(values)) == bits(neumaier_loop(values.tolist()))
    prefixes = compensated_cumsum(values)
    loop_prefixes = [neumaier_loop(values[: k + 1].tolist()) for k in range(0, n, max(1, n // 37))]
    np.testing.assert_array_equal(bits(prefixes[:: max(1, n // 37)]), bits(loop_prefixes))


def test_kernel_bitwise_equals_scalar_loop_on_wide_magnitudes():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 3000))
        values = wide_magnitudes(rng, n, max_exp=int(rng.integers(0, 301)))
        assert bits(compensated_sum(values)) == bits(neumaier_loop(values.tolist()))


def test_leading_negative_zero_matches_scalar_loop():
    for values in ([-0.0], [-0.0, -0.0], [-0.0, 1.5, -1.5], [-0.0, 1e-300, -1e300]):
        assert bits(compensated_sum(values)) == bits(neumaier_loop(values))
        assert bits(compensated_cumsum(values)[-1]) == bits(neumaier_loop(values))


def test_rows_sum_independently_and_match_per_row_loops():
    # Odd and even row counts, row lengths that are not multiples of the
    # block width, and inputs that are column slices or Fortran-ordered.
    rng = np.random.default_rng(5)
    shapes = ((1, 10), (3, BLOCK + 7), (128, 32), (4, 1024), (BLOCK + 3, 2), (3, 3 * (BLOCK // 3) + 5), (2, BLOCK + 1))
    for rows, n in shapes:
        full = wide_magnitudes(rng, (rows, 2 * n), max_exp=200)
        for values in (full[:, :n], full[:, ::2], np.asfortranarray(full[:, n:])):
            expected = [neumaier_loop(row.tolist()) for row in values]
            np.testing.assert_array_equal(bits(compensated_sum(values)), bits(expected))


def test_cumsum_of_a_strided_input_across_block_edges():
    rng = np.random.default_rng(19)
    values = wide_magnitudes(rng, 3 * (2 * BLOCK + 9))[::3]
    prefixes = compensated_cumsum(values)
    for k in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 8):
        assert bits(prefixes[k]) == bits(neumaier_loop(values[: k + 1].tolist()))


def test_cumsum_last_is_sum_bitwise_across_blocks():
    rng = np.random.default_rng(13)
    for n in (1, BLOCK, 2 * BLOCK + 1):
        values = wide_magnitudes(rng, n)
        assert bits(compensated_cumsum(values)[-1]) == bits(compensated_sum(values))


def test_accumulator_fed_in_pieces_equals_one_sum():
    rng = np.random.default_rng(17)
    values = wide_magnitudes(rng, 2 * BLOCK + 9)
    acc = NeumaierSum()
    for start in range(0, values.size, 1000):
        acc.extend(values[start : start + 1000])
    assert bits(acc.value) == bits(compensated_sum(values))
