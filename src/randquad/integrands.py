"""The integrand corpus on [0, 1]: power functions and a Brownian-driven integral.

``power_integrand`` builds t**gamma with its closed-form integral and
derivative.  For gamma between 1 and 2 the derivative is only Holder
continuous at the origin, which is exactly the low-regularity regime the
randomised rule is designed for.

The Brownian target is g(t) = integral of a Brownian path B over [0, t].
It has no closed form, so it is approximated once on the path's fine grid
by the left-point Euler rule (``brownian_integrand``) and the two
quadrature rules are then evaluated on coarser grids through their
algebraically expanded forms (``ctq_brownian``, ``rtq_brownian``), which
collapse to running prefix sums instead of nested double sums.

``sobolev_seminorm`` is a purely diagnostic discretisation of the
fractional Sobolev (Sobolev-Slobodeckij) norm used to check which
regularity class an integrand belongs to.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .quadrature import CTQ, RTQ, Integrand, Partition, QuadratureValue
from .random_sources import BrownianPath, CoarseTau
from .summation import compensated_sum

# Largest ``cells`` accepted by ``sobolev_seminorm``, a time bound: memory
# stays small, but the double integral is O(cells**2) work, and one estimate
# at 8192 cells takes about 0.25 s (2-vCPU x86-64 VM, 2 MiB L2, numpy 2.4).
SOBOLEV_MAX_CELLS = 8192

# Kernel elements built and summed at once by ``sobolev_seminorm``.  Must be
# at least 128, numpy's pairwise-sum leaf, which it never splits.  2^14 ran
# fastest of 2^12..2^15 at 1024-8192 cells, about 15% ahead of 2^13; at 2^15,
# where each float64 temporary reaches 256 KiB, an estimate took up to twice
# as long.
KERNEL_BLOCK_ELEMENTS = 1 << 14


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

    def derivative(t: np.ndarray) -> np.ndarray:
        return gamma * np.asarray(t, dtype=np.float64) ** (gamma - 1.0)

    def prefix(t: np.ndarray) -> np.ndarray:
        return np.asarray(t, dtype=np.float64) ** (gamma + 1.0) / (gamma + 1.0)

    return Integrand(
        evaluator=value,
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
class EulerNodes:
    """B (``grid_values``) and its Euler integral (``prefix``) at the nodes
    ``n * step`` of a dyadic grid of [0, 1], all that ``ctq_brownian`` and
    ``rtq_brownian`` read.  The prefix sums run over the path's fine grid,
    which has ``stride`` cells per cell of this one."""

    step: float
    grid_values: np.ndarray
    prefix: np.ndarray
    stride: int

    @property
    def cells(self) -> int:
        return int(self.grid_values.size - 1)


@dataclass(frozen=True, eq=False)
class BrownianIntegrand(EulerNodes):
    """Euler approximation of t -> integral of B over [0, t] on the path's
    fine grid of [0, 1] (the nodes are the path's own).

    ``prefix[n]`` approximates the integral up to the n-th fine node, with
    prefix[0] = 0 and prefix[n] - prefix[n-1] = step * B(t_{n-1}).  Between
    nodes the value is extended with the same left-point convention,
    G(t) = prefix[n] + B(t_n) * (t - t_n), which makes the extension the
    continuous piecewise-linear interpolant of the prefix sums.
    """

    path: BrownianPath

    def value_at(self, times) -> np.ndarray:
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


def brownian_integrand(path: BrownianPath) -> BrownianIntegrand:
    """The Euler prefix sums of a path over all its cells, as one block."""
    prefix = euler_prefix(path.grid_values[:-1], path.step)
    prefix.setflags(write=False)
    return BrownianIntegrand(step=path.step, grid_values=path.grid_values, prefix=prefix, stride=1, path=path)


def _coarse_factor(nodes: EulerNodes, part: Partition) -> int:
    factor = round(part.step / nodes.step)
    if (
        factor < 1
        or factor * part.intervals != nodes.cells
        or not np.array_equal(part.nodes, np.arange(0, nodes.cells + 1, factor) * nodes.step)
    ):
        raise ValueError(
            "partition nodes are not a subset of the path's grid "
            f"(coarse step {part.step!r}, grid step {nodes.step!r})"
        )
    return factor


def ctq_brownian(bi: EulerNodes, part: Partition) -> QuadratureValue:
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


def rtq_brownian(bi: EulerNodes, part: Partition, ctau: CoarseTau) -> QuadratureValue:
    """Randomised trapezoidal quadrature of the Brownian target, expanded form.

    Every cell's two interior integrals are approximated by the cell-level
    trapezoid (not the Euler rule, which would collapse back to the
    classical value), giving

        h * sum G(t_n)  +  (h^2/4) * sum B(t_n)
                        +  (h^2/4) * sum (tau_n * B_tau + (1-tau_n) * B_comp)

    with all sums over n = 0..N-1.  B_tau values are reused fine-grid
    samples and B_comp values linear interpolants of the path, both fixed
    when ``coarsen_tau`` built ``ctau`` on this path and step.

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


def _slobodeckij_sum(dv, delta: float, p: float, exponent: float) -> np.float64:
    """``np.sum`` of the dense Slobodeckij kernel, built a row block at a time.

    Midpoints i and j are k = |i - j| cells apart, and the kernel takes
    their distance as d_k = k / cells, correctly rounded, not as the rounded
    difference of the two midpoints: whether a pair is excluded (d_k <
    delta, adding exactly 0.0) then depends on k alone.  A kept pair adds
    |dv_i - dv_j| ** p / d_k ** exponent.  The mask and the powers of d_k
    are tabulated once per k, and row i of each is the contiguous slice
    ``[cells-1-i : 2*cells-1-i]`` of the table mirrored about k = 0.

    numpy sums a contiguous float64 array pairwise: a range of more than 128
    values splits at half its length rounded down to a multiple of 8, and
    smaller ranges are summed directly.  This replays that tree over flat
    ranges of the C-ordered ``cells x cells`` kernel and hands each range of
    at most ``KERNEL_BLOCK_ELEMENTS`` values to ``np.sum``, which walks the
    rest of the same tree.  Every kernel value comes from the dense
    expressions, so the total is bit-identical to summing the dense array.
    """
    cells = dv.size
    dist = np.arange(cells) / cells
    band = dist < delta
    # Excluded pairs divide by a placeholder 1.0 and are then set to 0.0.
    den = np.where(band, 1.0, dist ** exponent)
    window = np.lib.stride_tricks.sliding_window_view
    den_rows = window(np.concatenate((den[:0:-1], den)), cells)[::-1]
    band_rows = window(np.concatenate((band[:0:-1], band)), cells)[::-1]

    def block_sum(lo: int, hi: int) -> np.float64:
        size = hi - lo
        if size > KERNEL_BLOCK_ELEMENTS:
            half = size // 2
            half -= half % 8
            return block_sum(lo, lo + half) + block_sum(lo + half, hi)
        rows = slice(lo // cells, -(-hi // cells))
        flat = slice(lo - rows.start * cells, hi - rows.start * cells)
        diff = np.abs(dv[rows, None] - dv[None, :]).ravel()[flat]
        kernel = diff ** p
        kernel /= den_rows[rows].ravel()[flat]
        np.copyto(kernel, 0.0, where=band_rows[rows].ravel()[flat])
        return np.sum(kernel)

    return block_sum(0, cells * cells)


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

    The double integral walks the ``cells x cells`` kernel in row blocks of
    about ``KERNEL_BLOCK_ELEMENTS`` values, so memory stays bounded, and
    equals the dense ``np.sum`` bit for bit (see ``_slobodeckij_sum``).
    The work is O(cells**2), so ``cells`` is capped at ``SOBOLEV_MAX_CELLS``
    to bound the time (about 0.25 s per estimate at that size).

    Raises:
        ValueError: if ``g`` carries no exact derivative, sigma/p/cells
            are out of range (``cells`` above ``SOBOLEV_MAX_CELLS`` included),
            or a term or the total is not finite.
    """
    if g.exact_derivative is None:
        raise ValueError(f"sobolev_seminorm requires an exact derivative; {g.label!r} has none")
    sigma = float(sigma)
    p = float(p)
    if not 1.0 <= sigma < 2.0:
        raise ValueError(f"sigma must lie in [1, 2), got {sigma!r}")
    if not 2.0 <= p < np.inf:
        raise ValueError(f"p must be finite and at least 2, got {p!r}")
    cells = int(cells)
    if not 2 <= cells <= SOBOLEV_MAX_CELLS:
        raise ValueError(f"cells must lie in [2, {SOBOLEV_MAX_CELLS}], got {cells!r}")
    width = 1.0 / cells
    if delta is None:
        delta = 2.0 * width
    delta = float(delta)
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")

    mid = (np.arange(cells) + 0.5) * width
    gv = np.asarray(g.evaluator(mid), dtype=np.float64)
    dv = np.asarray(g.exact_derivative(mid), dtype=np.float64)

    term_value = float(np.sum(np.abs(gv) ** p) * width)
    term_derivative = float(np.sum(np.abs(dv) ** p) * width)

    exponent = 1.0 + (sigma - 1.0) * p
    term_slobodeckij = float(_slobodeckij_sum(dv, delta, p, exponent) * width * width)

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
