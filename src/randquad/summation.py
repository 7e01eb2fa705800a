"""Compensated floating-point accumulation.

Quadrature error ladders in this package reach ~1e-9; naive left-to-right
summation noise at that scale would corrupt fitted convergence orders, so
every quadrature sum goes through the Neumaier (improved Kahan) recurrence

    t_k = fl(t_{k-1} + x_k),    c_k = fl(c_{k-1} + e_k),    value = t_n + c_n

where e_k is the exact rounding error of the k-th addition and t_0 = c_0 = 0.

The recurrence runs in numpy, not element by element, and is still the
same recurrence bit for bit (the vectorised form of Ogita, Rump and Oishi's
Sum2, "Accurate sum and dot product", SIAM J. Sci. Comput. 26(6), 2005):

- ``np.cumsum`` is a sequential add, so the cumulative sum of
  ``[t_0, x_1, ..., x_n]`` is exactly the sequence of running totals t_k.
  Starting from 0.0 also keeps the scalar loop's handling of a leading -0.0.
- Knuth's branch-free TwoSum, ``z = t_k - t_{k-1}``,
  ``e_k = (t_{k-1} - (t_k - z)) + (x_k - z)``, recovers each rounding error
  exactly.  Neumaier's branch on ``|t_{k-1}| >= |x_k|`` computes the same
  exact error, so the carries match too.
- The carries are the cumulative sum of ``[c_0, e_1, ..., e_n]`` and the
  running compensated values are ``t_k + c_k``.

``compensated_sum`` is the last running value and ``compensated_cumsum`` all
of them, both from the one kernel, so the sum/prefix identity holds by
construction; that is what lets the randomised rule and its prefix
(partial-sum) variant agree bit for bit on the final element.

The kernel takes a 2-d ``(rows, n)`` array whose rows sum independently and
walks it in blocks of about ``BLOCK_ELEMENTS`` values, carrying each row's
``(t, c)`` state from one block to the next.  It copies each block into
``(width + 1, rows)`` buffers, step k of every row in buffer row k: each
TwoSum operation is then one contiguous pass, and for an even row count
both scans run on pairs of rows viewed as complex numbers, whose sum is the
two real sums, in half the dependent steps.  Temporaries stay cache-sized
and peak memory bounded however long the input, and a caller can stream
blocks it builds on the fly through one :class:`NeumaierSum`.
"""

from __future__ import annotations

import math

import numpy as np

# Values per kernel block (all rows together); small enough that a block's
# temporaries stay in cache.
BLOCK_ELEMENTS = 1 << 12


def _accumulate(values: np.ndarray, total: np.ndarray, carry: np.ndarray, prefixes=None) -> None:
    """Run the Neumaier recurrence along each row of the 2-d ``values``.

    ``total`` and ``carry`` hold one running state per row and are updated
    in place.  When ``prefixes`` (shaped like ``values``) is given, the
    running compensated values are written into it.
    """
    rows, n = values.shape
    if values.size == 0:
        return
    width = min(n, max(1, BLOCK_ELEMENTS // rows))
    scan_type = np.complex128 if rows % 2 == 0 else np.float64  # pairs of rows, see the module docstring
    x_buf, t_buf, e_buf, z_buf = np.empty((4, width + 1, rows))
    for start in range(0, n, width):
        k = min(width, n - start)
        x_t, t, e, z = x_buf[: k + 1], t_buf[: k + 1], e_buf[: k + 1], z_buf[:k]
        x_t[0] = total
        x_t[1:] = values[:, start : start + k].T
        np.add.accumulate(x_t.view(scan_type), axis=0, out=t.view(scan_type))
        x, prev, new, err = x_t[1:], t[:-1], t[1:], e[1:]
        # TwoSum: z = new - prev; err = (prev - (new - z)) + (x - z)
        np.subtract(new, prev, out=z)
        np.subtract(new, z, out=err)
        np.subtract(prev, err, out=err)
        np.subtract(x, z, out=z)
        np.add(err, z, out=err)
        e[0] = carry
        np.add.accumulate(e.view(scan_type), axis=0, out=e.view(scan_type))
        if prefixes is not None:
            np.add(new, err, out=prefixes.T[start : start + k])
        total[:] = t[k]
        carry[:] = e[k]


class NeumaierSum:
    """Running compensated sum that can be fed one block of values at a time.

    Feeding the values in pieces gives the same result bit for bit as
    ``compensated_sum`` over all of them, because the kernel's carried
    ``(total, carry)`` state is the whole state of the recurrence.
    """

    __slots__ = ("_total", "_carry")

    def __init__(self) -> None:
        self._total = np.zeros(1)
        self._carry = np.zeros(1)

    def extend(self, values) -> None:
        _accumulate(np.asarray(values, dtype=np.float64).reshape(1, -1), self._total, self._carry)

    @property
    def value(self) -> float:
        return float(self._total[0] + self._carry[0])


def compensated_sum(values):
    """Sum ``values`` along the last axis with Neumaier compensation.

    Every row sums independently, and the result is an array of the
    remaining shape (a float for 1-d input).
    """
    arr = np.asarray(values, dtype=np.float64)
    rows = arr.reshape(math.prod(arr.shape[:-1]), arr.shape[-1])
    total, carry = np.zeros((2, len(rows)))
    _accumulate(rows, total, carry)
    sums = total + carry
    return float(sums[0]) if arr.ndim == 1 else sums.reshape(arr.shape[:-1])


def compensated_cumsum(values) -> np.ndarray:
    """All running compensated partial sums of ``values``, flattened.

    The k-th entry equals ``compensated_sum(values[:k+1])`` bit for bit:
    both are values of the same recurrence at the same step.
    """
    row = np.asarray(values, dtype=np.float64).reshape(1, -1)
    prefixes = np.empty_like(row)
    _accumulate(row, np.zeros(1), np.zeros(1), prefixes)
    return prefixes[0]
