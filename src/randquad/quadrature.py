"""Equidistant partitions of [0, 1] and the two trapezoidal quadrature rules.

The classical rule (CTQ) evaluates the integrand at both endpoints of every
cell.  The randomised rule (RTQ) instead evaluates at a uniformly drawn
interior offset ``tau`` and at its reflection ``1 - tau`` about the cell
midpoint; averaging the two keeps the rule exact on affine functions while
the randomness averages out the cell-level error of rough integrands.

Every integrand and partition lives on [0, 1]; the integral of g over
[0, T] is T times the integral of g(T s) over [0, 1], and both rules
commute with that rescaling node for node.

Both rules run one path: one integrand call on the two evaluation points
a, b of every cell, stacked; the cell terms g(a) + g(b); one compensated
sum of them along the last axis, scaled by h/2; and one finiteness check
of the result.  That check covers both evaluations: a non-finite g value
makes its cell term and every later running sum non-finite, and only a
failed check scans g(a), then g(b), for the node to name.  Each rule
makes 2N integrand evaluations per partition, so their cost accounting
stays symmetric.

Offsets are plain float64 arrays: 1-d for one sequence, 2-d with one
sequence per row.  ``rtq`` takes a batch of offset sequences as the rows of
a 2-d array; a single sequence is the one-row case of the same path.
The rules form ``1 - tau`` themselves and check both offsets once, in
``_offset_times``.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .random_sources import _integer
from .summation import compensated_cumsum, compensated_sum

CTQ = "CTQ"
RTQ = "RTQ"


class EvaluationError(ArithmeticError):
    """An integrand returned a non-finite value, or finite values whose rule
    value overflows; the message names the node or the overflow."""


class _CellCount:
    """A record of a grid on [0, 1] that stores only its cell count
    ``intervals``, an integer of at least 1 (ValueError otherwise)."""

    def __post_init__(self) -> None:
        _integer("intervals", self.intervals, 1)

    @property
    def step(self) -> float:
        return 1.0 / self.intervals


@dataclass(frozen=True, eq=False)
class Partition(_CellCount):
    """Equidistant grid over [0, 1] with N cells of width h = 1/N."""

    intervals: int

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The N + 1 nodes ``np.linspace(0, 1, N + 1)``, read-only; ``nodes[-1]`` is 1."""
        nodes = np.linspace(0.0, 1.0, self.intervals + 1)
        nodes.setflags(write=False)
        return nodes


def make_partition(intervals: int) -> Partition:
    """Build the equidistant partition of [0, 1] with ``intervals`` cells.

    Raises:
        ValueError: if ``intervals`` is not an integer of at least 1.
    """
    return Partition(intervals=_integer("intervals", intervals, 1))


@dataclass(frozen=True, eq=False)
class Integrand:
    """A real-valued evaluable function on [0, 1].

    ``evaluator`` must accept a float64 array of times and return the values
    as an array of the same shape.  Evaluation must be pure: same times,
    same values.

    ``exact_prefix_integral`` maps an array of times t to the integrals over
    [0, t]; when set, ``exact_integral`` should equal its value at 1 up to
    rounding.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    exact_integral: float | None = None
    exact_derivative: Callable[[np.ndarray], np.ndarray] | None = None
    exact_prefix_integral: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True, eq=False)
class QuadratureValue:
    """Result of one quadrature rule application.

    For a batch of offset sequences ``value`` holds one value per row, and
    for ``rtq_prefix`` one partial sum per cell; ``evaluations`` counts the
    integrand evaluations behind all of them.
    """

    value: float | np.ndarray
    rule: str
    evaluations: int


def _rule_value(g: Integrand, part: Partition, times: np.ndarray, rule: str, accumulate) -> QuadratureValue:
    """h/2 times ``accumulate`` of the cell terms g(a) + g(b), checked finite,
    with the evaluation points a, b of every cell stacked in ``times``."""
    values = np.asarray(g.evaluator(times), dtype=np.float64)
    if values.shape != times.shape:
        raise ValueError(f"integrand {g.label!r} returned shape {values.shape} for times of shape {times.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the fault
        value = 0.5 * part.step * accumulate(values[0] + values[1])
    if not np.isfinite(value).all():  # covers both points, see the module docstring
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            raise EvaluationError(
                f"integrand {g.label!r} returned a non-finite value at node t={float(times[tuple(bad[0])])!r}"
            )
        raise EvaluationError(
            f"integrand {g.label!r} has finite values whose {rule} cell terms or their sum overflow the double range"
        )
    return QuadratureValue(value=value, rule=rule, evaluations=values.size)


def _offset_times(part: Partition, tau) -> np.ndarray:
    """The times t_n + tau_n h and t_n + (1 - tau_n) h, stacked, one row per offset sequence.

    Raises:
        ValueError: unless ``tau`` is 1-d or 2-d with at least N offsets per
            row, and every offset and its complement lie strictly inside (0, 1).
    """
    n = part.intervals
    tau = np.asarray(tau, dtype=np.float64)
    if tau.ndim not in (1, 2) or tau.size == 0 or tau.shape[-1] < n:
        raise ValueError(f"tau must be 1-d or 2-d with at least {n} offsets per row, got shape {tau.shape}")
    comp = np.subtract(1.0, tau)
    # comp > 0 rejects tau >= 1; comp < 1 rejects tau <= 0 and any tau whose
    # complement rounds to 1.  Written so that NaN fails both comparisons.
    if not (np.minimum.reduce(comp, axis=None) > 0.0 and np.maximum.reduce(comp, axis=None) < 1.0):
        raise ValueError("offsets tau and 1 - tau must lie strictly inside (0, 1)")
    times = np.empty((2, *tau.shape[:-1], n))
    np.multiply(tau[..., :n], part.step, out=times[0])
    np.multiply(comp[..., :n], part.step, out=times[1])
    times += part.nodes[:-1]
    return times


def ctq(g: Integrand, part: Partition) -> QuadratureValue:
    """Classical trapezoidal quadrature of ``g`` over ``part``.

    Every cell evaluates both of its endpoints, 2N evaluations in total.
    """
    return _rule_value(g, part, np.stack((part.nodes[:-1], part.nodes[1:])), CTQ, compensated_sum)


def rtq(g: Integrand, part: Partition, tau) -> QuadratureValue:
    """Randomised trapezoidal quadrature: per-cell evaluation at tau and 1 - tau.

    ``tau`` is array_like: 1-d for one offset sequence, 2-d with one per
    row, each offset strictly inside (0, 1).  Deterministic given ``tau``;
    extra offsets beyond the partition's cell count are ignored.  For a 2-d
    ``tau`` the value is an array with one rule value per row, each
    bit-for-bit equal to ``rtq`` on that row alone.
    """
    return _rule_value(g, part, _offset_times(part, tau), RTQ, compensated_sum)


def rtq_prefix(g: Integrand, part: Partition, tau) -> QuadratureValue:
    """Partial sums of the randomised rule over the first n cells, n = 1..N.

    ``tau`` is one offset sequence, a 1-d array_like checked as by ``rtq``.
    ``value`` is an array whose element n - 1 approximates the integral over
    [0, t_n]; its last element is bit-for-bit equal to ``rtq(g, part, tau)``
    because both run the same compensated accumulation.
    """
    times = _offset_times(part, tau)
    if times.ndim != 2:
        raise ValueError("rtq_prefix supports single offset sequences only")
    return _rule_value(g, part, times, RTQ, compensated_cumsum)
