"""The integrand corpus: power functions and a Brownian-driven integral.

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

# Largest ``cells`` accepted by ``sobolev_seminorm``: its dense cells x cells
# arrays then take over 2 GiB.
SOBOLEV_MAX_CELLS = 8192


def _finite(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _horizon(total_time: float) -> float:
    T = float(total_time)
    if not 0.0 < T < np.inf:
        raise ValueError(f"total_time must be positive and finite, got {total_time!r}")
    return T


def power_integrand(gamma: float, total_time: float = 1.0) -> Integrand:
    """The power function t**gamma on [0, total_time].

    Exact integral: total_time**(gamma+1) / (gamma+1).  Exponents at or
    below 1 are accepted (the rules still evaluate) but warn, because the
    regularity statements behind the convergence orders no longer apply.
    """
    T = _horizon(total_time)
    gamma = _finite("gamma", gamma)
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
        total_time=T,
        label=f"power(gamma={gamma:g})",
        # Python's float power, not numpy's: the two can differ by an ulp,
        # and every error ladder is measured against this value.
        exact_integral=T ** (gamma + 1.0) / (gamma + 1.0),
        exact_derivative=derivative,
        exact_prefix_integral=prefix,
    )


def constant_integrand(c: float, total_time: float = 1.0) -> Integrand:
    """The constant function c, exact on any partition for both rules."""
    T = _horizon(total_time)
    c = _finite("c", c)
    return Integrand(
        evaluator=lambda t: np.full_like(np.asarray(t, dtype=np.float64), c),
        total_time=T,
        label=f"constant({c:g})",
        exact_integral=c * T,
        exact_derivative=lambda t: np.zeros_like(np.asarray(t, dtype=np.float64)),
        exact_prefix_integral=lambda t: c * np.asarray(t, dtype=np.float64),
    )


def affine_integrand(a: float, b: float, total_time: float = 1.0) -> Integrand:
    """The affine function a + b*t; both rules integrate it exactly."""
    T = _horizon(total_time)
    a, b = _finite("a", a), _finite("b", b)

    def prefix(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return a * t + b * t**2 / 2.0

    return Integrand(
        evaluator=lambda t: a + b * np.asarray(t, dtype=np.float64),
        total_time=T,
        label=f"affine({a:g},{b:g})",
        exact_integral=a * T + b * T * T / 2.0,
        exact_derivative=lambda t: np.full_like(np.asarray(t, dtype=np.float64), b),
        exact_prefix_integral=prefix,
    )


@dataclass(frozen=True, eq=False)
class BrownianIntegrand:
    """Euler approximation of t -> integral of B over [0, t] on the fine grid.

    ``prefix[n]`` approximates the integral up to the n-th fine node, with
    prefix[0] = 0 and prefix[n] - prefix[n-1] = step * B(t_{n-1}).  Between
    nodes the value is extended with the same left-point convention,
    G(t) = prefix[n] + B(t_n) * (t - t_n), which makes the extension the
    continuous piecewise-linear interpolant of the prefix sums.
    """

    path: BrownianPath
    prefix: np.ndarray

    def value_at(self, times) -> np.ndarray:
        t = np.asarray(times, dtype=np.float64)
        if np.any(t < 0.0) or np.any(t > self.path.total_time):
            bad = t[(t < 0.0) | (t > self.path.total_time)][0]
            raise ValueError(f"evaluation time {bad!r} outside [0, {self.path.total_time!r}]")
        idx = np.minimum(np.floor(t / self.path.step).astype(np.int64), self.path.cells - 1)
        left = self.path.grid_times[idx]
        return self.prefix[idx] + self.path.grid_values[idx] * (t - left)

    def as_integrand(self) -> Integrand:
        return Integrand(
            evaluator=self.value_at,
            total_time=self.path.total_time,
            label="gB",
        )


def brownian_integrand(path: BrownianPath) -> BrownianIntegrand:
    """Accumulate the Euler prefix sums of a path, one fine cell at a time.

    ``np.cumsum`` adds sequentially from prefix[0] = 0.0, so every prefix is
    the left-to-right running sum of the products step * B(t_j).
    """
    prefix = np.empty(path.cells + 1)
    prefix[0] = 0.0
    np.multiply(path.grid_values[:-1], path.step, out=prefix[1:])
    np.cumsum(prefix, out=prefix)
    prefix.setflags(write=False)
    return BrownianIntegrand(path=path, prefix=prefix)


def _coarse_factor(bi: BrownianIntegrand, part: Partition) -> int:
    factor = round(part.step / bi.path.step)
    if (
        factor < 1
        or factor * part.intervals != bi.path.cells
        or not np.array_equal(part.nodes, bi.path.grid_times[::factor])
    ):
        raise ValueError(
            "partition nodes are not a subset of the path's fine grid "
            f"(coarse step {part.step!r}, fine step {bi.path.step!r})"
        )
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
    samples, exact by construction of ``ctau``; B_comp values were resolved
    when ``ctau`` was built.
    """
    factor = _coarse_factor(bi, part)
    n_cells = part.intervals
    if len(ctau) != n_cells:
        raise ValueError(f"CoarseTau has {len(ctau)} cells but the partition has {n_cells}")
    if ctau.factor != factor or ctau.coarse_step != part.step:
        raise ValueError(
            f"CoarseTau was built for step {ctau.coarse_step!r}, partition has {part.step!r}"
        )
    expected = part.nodes[:-1] + ctau.values * part.step
    aligned = expected == ctau.mid_times
    if not aligned.all():
        cell = int(np.nonzero(~aligned)[0][0])
        raise ValueError(
            f"no intermediate sample available at cell {cell}: "
            f"t={expected[cell]!r} is not a stored fine sample time"
        )

    h = part.step
    quarter = 0.25 * h * h
    g_nodes = bi.prefix[::factor]
    b_nodes = bi.path.grid_values[::factor]
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
    discretised on a midpoint grid of ``cells`` points; double-integral
    cells closer to the diagonal than ``delta`` are excluded, since the
    kernel is singular there.  Default guard band: two cell widths.

    The estimate keeps growing under delta-refinement when the integrand
    sits at or beyond the membership boundary, which is what makes it
    useful as a (purely heuristic) diagnostic.

    The double integral is computed on dense ``cells x cells`` arrays, so
    ``cells`` is capped at ``SOBOLEV_MAX_CELLS``.

    Raises:
        ValueError: if ``g`` carries no exact derivative, or sigma/p/cells
            are out of range (``cells`` above ``SOBOLEV_MAX_CELLS`` included).
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
    T = g.total_time
    width = T / cells
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

    dist = np.abs(mid[:, None] - mid[None, :])
    keep = dist >= delta
    diff = np.abs(dv[:, None] - dv[None, :])
    kernel = np.zeros_like(dist)
    exponent = 1.0 + (sigma - 1.0) * p
    kernel[keep] = diff[keep] ** p / dist[keep] ** exponent
    term_slobodeckij = float(np.sum(kernel) * width * width)

    total = term_value + term_derivative + term_slobodeckij
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
