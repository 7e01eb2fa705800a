"""The integrand corpus on [0, 1]: power functions and a Brownian-driven integral.

``power_integrand`` builds t**gamma with its closed-form integral and
derivative.  For gamma between 1 and 2 the derivative is only Holder
continuous at the origin, which is exactly the low-regularity regime the
randomised rule is designed for.

The Brownian target is g(t) = integral of a Brownian path B over [0, t].
It has no closed form, so it is approximated once on the path's fine grid
by the left-point Euler rule (``euler_prefix``, a block of cells at a time).
``BrownianIntegrand``, the one node type, holds B and those sums at the
nodes the two quadrature rules read; the rules are evaluated on coarser
grids through their algebraically expanded forms (``ctq_brownian``,
``rtq_brownian``), which collapse to running prefix sums instead of nested
double sums.

``sobolev_seminorm`` is a purely diagnostic discretisation of the
fractional Sobolev (Sobolev-Slobodeckij) norm used to check which
regularity class an integrand belongs to.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .quadrature import CTQ, RTQ, Integrand, Partition, QuadratureValue
from .random_sources import CoarseTau, _integer
from .summation import compensated_sum

# Largest ``cells`` accepted by ``sobolev_seminorm``, a time bound: memory
# stays small, but the double integral is O(cells**2) work, and one estimate
# at 8192 cells takes about 37 ms at p = 2 and 130 ms at p = 2.5 (2-vCPU
# x86-64 VM, 2 MiB L2 per core, numpy 2.4).
SOBOLEV_MAX_CELLS = 8192

# Values per block of Slobodeckij diagonals (``_slobodeckij_sum``), 512 KiB.
# A block costs about 10 us of numpy calls however few values it holds.
# With the ufunc buffer capped, blocks of 2**16 values beat blocks of 2**15
# in 16 of 16 paired runs of the ``sobolev_1024`` benchmark, by 5% in cells
# per second; one estimate at 4096 cells took 9.5 ms against 9.9 ms, and
# the peak RSS of ``sobolev --cells 1024`` rose by about 0.12 MiB (2-vCPU
# x86-64 VM, numpy 2.4).
_BLOCK_ELEMENTS = 1 << 16

# numpy's ufunc buffer size, in elements, for ``_slobodeckij_sum``'s loop.
_UFUNC_BUFFER = 1024


def _finite(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def power_integrand(gamma: float) -> Integrand:
    """The power function t**gamma on [0, 1].

    Exact integral: 1 / (gamma+1).  Exponents at or below 1 are accepted
    (the rules still evaluate) but warn, because the regularity statements
    behind the convergence orders no longer apply.  At or below -1 the
    integral diverges, and they raise ValueError.
    """
    gamma = _finite("gamma", gamma)
    if gamma <= -1.0:
        raise ValueError(f"gamma must be above -1, got {gamma!r}: the integral of t**gamma over [0, 1] diverges")
    if gamma <= 1.0:
        warnings.warn(
            f"gamma={gamma!r} is at or below 1; the rule is still evaluable but the "
            "low-regularity convergence guarantees are void",
            RuntimeWarning,
            stacklevel=2,
        )

    def value(t: np.ndarray) -> np.ndarray:
        return np.asarray(t, dtype=np.float64) ** gamma

    def singular_value(t: np.ndarray) -> np.ndarray:
        # Infinite at 0, a node the rules name in their own error.
        with np.errstate(divide="ignore"):
            return value(t)

    def derivative(t: np.ndarray) -> np.ndarray:
        return gamma * np.asarray(t, dtype=np.float64) ** (gamma - 1.0)

    def prefix(t: np.ndarray) -> np.ndarray:
        return np.asarray(t, dtype=np.float64) ** (gamma + 1.0) / (gamma + 1.0)

    return Integrand(
        evaluator=value if gamma >= 0.0 else singular_value,
        label=f"power(gamma={gamma:g})",
        exact_integral=1.0 / (gamma + 1.0),
        exact_derivative=derivative,
        exact_prefix_integral=prefix,
    )


def constant_integrand(c: float) -> Integrand:
    """The constant function c, exact on any partition for both rules."""
    c = _finite("c", c)
    return Integrand(
        evaluator=lambda t: np.full_like(np.asarray(t, dtype=np.float64), c),
        label=f"constant({c:g})",
        exact_integral=c,
        exact_derivative=lambda t: np.zeros_like(np.asarray(t, dtype=np.float64)),
        exact_prefix_integral=lambda t: c * np.asarray(t, dtype=np.float64),
    )


def affine_integrand(a: float, b: float) -> Integrand:
    """The affine function a + b*t; both rules integrate it exactly."""
    a, b = _finite("a", a), _finite("b", b)

    def prefix(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return a * t + b * t**2 / 2.0

    return Integrand(
        evaluator=lambda t: a + b * np.asarray(t, dtype=np.float64),
        label=f"affine({a:g},{b:g})",
        exact_integral=a + b / 2.0,
        exact_derivative=lambda t: np.full_like(np.asarray(t, dtype=np.float64), b),
        exact_prefix_integral=prefix,
    )


@dataclass(frozen=True, eq=False)
class BrownianIntegrand:
    """Euler approximation of t -> integral of B over [0, t] at the nodes
    ``n * step`` of the grid of [0, 1] with ``cells`` cells, ``step`` being
    ``1.0 / cells``: B (``grid_values``) and its Euler integral (``prefix``)
    there, all that ``ctq_brownian`` and ``rtq_brownian`` read.

    The prefix sums run over the path's fine grid, which has ``stride``
    cells per cell of this one, with prefix[0] = 0.  At stride 1 the nodes
    are the path's own, prefix[n] - prefix[n-1] = step * B(t_{n-1}), and
    ``value_at`` extends the sums between nodes with the same left-point
    convention, G(t) = prefix[n] + B(t_n) * (t - t_n): the continuous
    piecewise-linear interpolant of the prefix sums, whose trapezoidal rule
    on the union grid is Example 2's reference.
    """

    grid_values: np.ndarray
    prefix: np.ndarray
    stride: int

    @property
    def cells(self) -> int:
        return int(self.grid_values.size - 1)

    @property
    def step(self) -> float:
        return 1.0 / self.cells

    def value_at(self, times) -> np.ndarray:
        if self.stride != 1:
            raise ValueError(f"value_at needs the path's own grid (stride 1), got stride {self.stride!r}")
        t = np.asarray(times, dtype=np.float64)
        if t.size and not (t.min() >= 0.0 and t.max() <= 1.0):
            bad = t[~((t >= 0.0) & (t <= 1.0))][0]
            raise ValueError(f"evaluation time {float(bad)!r} outside [0, 1]")
        idx = np.minimum(np.floor(t / self.step).astype(np.int64), self.cells - 1)
        return self.prefix[idx] + self.grid_values[idx] * (t - idx * self.step)


def euler_prefix(left_values: np.ndarray, step: float, first: float = 0.0) -> np.ndarray:
    """Euler prefix sums from ``first``, adding ``step * B`` for each cell's
    left node value of B.  ``np.cumsum`` adds sequentially, so blocks each
    started from the last sum of the one before give one call's sums."""
    prefix = np.empty(left_values.size + 1)
    prefix[0] = first
    np.multiply(left_values, step, out=prefix[1:])
    return np.cumsum(prefix, out=prefix)


def _coarse_factor(nodes: BrownianIntegrand, part: Partition) -> int:
    factor, rest = divmod(nodes.cells, part.intervals)
    if rest:
        raise ValueError(f"partition nodes are not a subset of the path's grid ({part.intervals} cells, grid of {nodes.cells})")
    return factor


def ctq_brownian(bi: BrownianIntegrand, part: Partition) -> QuadratureValue:
    """Classical trapezoidal quadrature of the Brownian target, expanded form.

    Because the integrand vanishes at 0, the trapezoid sum telescopes to
    h * sum(G(t_n), n=1..N) - (h/2) * G(t_N); the nested sum over path
    values hides inside the stored prefix array, so the evaluation is O(N).
    Agrees with the generic rule applied to the same node values up to
    rounding.
    """
    factor = _coarse_factor(bi, part)
    g_nodes = bi.prefix[::factor]
    h = part.step
    value = float(h * compensated_sum(g_nodes[1:]) - 0.5 * h * g_nodes[-1])
    return QuadratureValue(value=value, rule=CTQ, evaluations=2 * part.intervals)


def rtq_brownian(bi: BrownianIntegrand, part: Partition, ctau: CoarseTau) -> QuadratureValue:
    """Randomised trapezoidal quadrature of the Brownian target, expanded form.

    Every cell's two interior integrals are approximated by the cell-level
    trapezoid (not the Euler rule, which would collapse back to the
    classical value), giving

        h * sum G(t_n)  +  (h^2/4) * sum B(t_n)
                        +  (h^2/4) * sum (tau_n * B_tau + (1-tau_n) * B_comp)

    with all sums over n = 0..N-1.  B_tau values are reused fine-grid
    samples and B_comp values linear interpolants of the path, both fixed
    when ``coarse_tau_from`` built ``ctau`` on this path from the cells
    ``select_fine_cells`` picked, one per cell of the partition.

    Raises:
        ValueError: if the partition is not on the path's grid, or ``ctau``
            was built for another factor or cell count.
    """
    factor = _coarse_factor(bi, part)
    if ctau.factor != factor * bi.stride or len(ctau) != part.intervals:
        raise ValueError(
            f"CoarseTau has {len(ctau)} cells of {ctau.factor} fine cells each, "
            f"but the partition has {part.intervals} cells of {factor * bi.stride}"
        )

    h = part.step
    quarter = 0.25 * h * h
    g_nodes = bi.prefix[::factor]
    b_nodes = bi.grid_values[::factor]
    random_part = ctau.values * ctau.mid_values + ctau.complements * ctau.comp_values
    cells = h * g_nodes[:-1] + quarter * (b_nodes[:-1] + random_part)
    value = compensated_sum(cells)
    return QuadratureValue(value=value, rule=RTQ, evaluations=2 * part.intervals)


@dataclass(frozen=True)
class SobolevEstimate:
    """Discretised Sobolev-Slobodeckij norm of an integrand (diagnostic only)."""

    sigma: float
    p: float
    value: float
    delta: float
    cells: int
    term_value: float
    term_derivative: float
    term_slobodeckij: float


def _slobodeckij_sum(dv, delta: float, p: float, exponent: float) -> float:
    """Sum of the Slobodeckij kernel over the kept pairs, a block of diagonals at a time.

    Midpoints i and j are k = |i - j| cells apart, and the kernel takes
    their distance as d_k = k / cells, correctly rounded, not as the rounded
    difference of the two midpoints: whether a pair is kept (d_k >= delta)
    then depends on k alone.  A kept pair adds |dv_i - dv_j| ** p / d_k **
    exponent.  The kernel is symmetric, so each kept diagonal k >= 1 is
    summed once, divided by d_k ** exponent and counted twice; the
    diagonals are combined by ``compensated_sum``.

    d_k >= delta is monotone in k, so the work starts at the first kept
    diagonal.  Each diagonal's sum has the bits of
    ``np.sum(np.abs(dv[k:] - dv[:-k]) ** p)``, yet a block of R consecutive
    diagonals k, ..., k + R - 1 takes one subtraction, one power and one
    ``np.add.reduceat``:

    - The block is a reused buffer viewed as (R, L + 1), where L = cells - k
      is the length of its longest diagonal.  Row r holds 0.0 and then
      ``windows[k + r, :L] - dv[:L]``, ``windows`` being the length-cells
      windows of dv followed by zeros: diagonal k + r, then r padding values
      0.0 - dv_i, whose p-th powers the |dg|^p term already takes, so they
      overflow only where that term does.
    - ``np.sum`` of a 1-d float64 array is ``np.add.reduce``, which is 0.0
      plus numpy's pairwise sum of all n values, while a ``reduceat``
      segment is its first value plus the pairwise sum of the other n - 1.
      A segment from a row's leading 0.0 to the end of its diagonal is
      therefore that diagonal's ``np.add.reduce`` bit for bit.  The padding
      falls into the segments in between, which are discarded, and the
      block handed to ``reduceat`` ends with the last diagonal, so it reads
      only values written for this block.
    - At p = 2 an array's ``** 2.0`` is ``np.square`` and x * x == |x| * |x|
      exactly, so the ``abs`` pass is skipped there.
    - The loop runs with numpy's ufunc buffer capped at ``_UFUNC_BUFFER``
      elements, and the caller's size is restored after it, also when it
      raises.  numpy stages the subtraction of a block through buffers when
      its diagonals are at most a quarter of the buffer size long: at the
      default 8192 elements that was every block of diagonals up to 2048
      long, copied through three 64 KiB buffers that do not fit in L1.
      Under the cap, diagonals over 256 long are subtracted unbuffered and
      shorter ones through three 8 KiB buffers.  Buffering moves values and
      changes no arithmetic, so every sum keeps its bits.
    """
    cells = dv.size
    first = next((k for k in range(1, cells) if k / cells >= delta), cells)
    padded = np.zeros(2 * cells)
    padded[:cells] = dv
    windows = sliding_window_view(padded, cells)
    buffer = np.empty(max(_BLOCK_ELEMENTS, cells))
    # reduceat cut j of a block with rows of L + 1 values lies at
    # cut_row[j] * (L + 1) - cut_back[j]: even j = 2 r at row r's leading
    # 0.0, odd j = 2 r + 1 just after its diagonal.  A block has at most
    # min(L, _BLOCK_ELEMENTS // (L + 1)) <= isqrt(_BLOCK_ELEMENTS) rows.
    cut = np.arange(2 * math.isqrt(_BLOCK_ELEMENTS))
    cut_row = (cut + 1) // 2
    cut_back = cut % 2 * (cut // 2)
    segment_sums = np.empty(2 * (cells - first))
    k = first
    bufsize = np.setbufsize(_UFUNC_BUFFER)
    try:
        while k < cells:
            length = cells - k
            rows = max(1, min(length, _BLOCK_ELEMENTS // (length + 1)))
            block = buffer[: rows * (length + 1)].reshape(rows, length + 1)
            block[:, 0] = 0.0
            np.subtract(windows[k : k + rows, :length], dv[:length], out=block[:, 1:])
            flat = buffer[: rows * length + 1]
            if p == 2.0:
                np.square(flat, out=flat)
            else:
                np.abs(flat, out=flat)
                np.power(flat, p, out=flat)
            cuts = 2 * rows - 1
            at = 2 * (k - first)
            np.add.reduceat(flat, cut_row[:cuts] * (length + 1) - cut_back[:cuts], out=segment_sums[at : at + cuts])
            k += rows
    finally:
        np.setbufsize(bufsize)
    # Python-float powers, as one diagonal at a time took them: numpy's
    # array power may take a SIMD loop that rounds differently.
    divisors = np.fromiter(((k / cells) ** exponent for k in range(first, cells)), float, cells - first)
    return 2.0 * compensated_sum(segment_sums[::2] / divisors)


def sobolev_seminorm(
    g: Integrand,
    sigma: float,
    p: float,
    cells: int,
    delta: float | None = None,
) -> SobolevEstimate:
    """Midpoint-rule estimate of the fractional Sobolev norm of order sigma.

    The three terms (p-th powers of the function, of its derivative, and
    the double-integral difference quotient of the derivative) are each
    discretised on a midpoint grid of ``cells`` points.  Two midpoints k
    cells apart are taken to lie k / cells apart (correctly rounded), and
    double-integral cells closer to the diagonal than ``delta`` are
    excluded, since the kernel is singular there.  Default guard band: two
    cell widths, which keeps exactly the pairs with k >= 2.

    The estimate keeps growing under delta-refinement when the integrand
    sits at or beyond the membership boundary, which is what makes it
    useful as a (purely heuristic) diagnostic.

    The double integral is summed by diagonals of the ``cells x cells``
    kernel, a block of them at a time in one reused buffer (see
    ``_slobodeckij_sum``), so memory stays O(cells).  The work is
    O(cells**2), so ``cells`` is capped at ``SOBOLEV_MAX_CELLS`` to bound the
    time (about 37 ms per estimate at that size and p = 2, 130 ms at
    p = 2.5).

    Raises:
        ValueError: if ``g`` carries no exact derivative, sigma/p/cells
            are out of range (``cells`` not an integer of at least 2, or
            above ``SOBOLEV_MAX_CELLS``), or a term or the total is not finite.
    """
    if g.exact_derivative is None:
        raise ValueError(f"sobolev_seminorm requires an exact derivative; {g.label!r} has none")
    sigma = float(sigma)
    p = float(p)
    if not 1.0 <= sigma < 2.0:
        raise ValueError(f"sigma must lie in [1, 2), got {sigma!r}")
    if not 2.0 <= p < np.inf:
        raise ValueError(f"p must be finite and at least 2, got {p!r}")
    cells = _integer("cells", cells, 2)
    if cells > SOBOLEV_MAX_CELLS:
        raise ValueError(f"cells must be at most {SOBOLEV_MAX_CELLS}, got {cells!r}")
    width = 1.0 / cells
    if delta is None:
        delta = 2.0 * width
    delta = float(delta)
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")

    mid = (np.arange(cells) + 0.5) * width
    gv = np.asarray(g.evaluator(mid), dtype=np.float64)
    dv = np.asarray(g.exact_derivative(mid), dtype=np.float64)

    # A power that leaves the double range makes its term inf or nan, which
    # the check below names; numpy's warnings on the way would only precede it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        term_value = float(np.sum(np.abs(gv) ** p) * width)
        term_derivative = float(np.sum(np.abs(dv) ** p) * width)
        exponent = 1.0 + (sigma - 1.0) * p
        term_slobodeckij = _slobodeckij_sum(dv, delta, p, exponent) * width * width

    total = term_value + term_derivative + term_slobodeckij
    terms = {
        "term |g|^p": term_value,
        "term |dg|^p": term_derivative,
        "term slobodeckij": term_slobodeckij,
        "total": total,
    }
    for name, term in terms.items():
        if not np.isfinite(term):
            raise ValueError(f"{name} is {term!r} at p = {p!r}: a power in it left the double range; use a smaller p")
    return SobolevEstimate(
        sigma=sigma,
        p=p,
        value=total ** (1.0 / p),
        delta=delta,
        cells=cells,
        term_value=term_value,
        term_derivative=term_derivative,
        term_slobodeckij=term_slobodeckij,
    )
