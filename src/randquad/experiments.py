"""Error estimation, convergence-order fitting, and experiment drivers.

Two reproduction drivers live here.  ``run_example1`` integrates the power
functions t**gamma over a dyadic ladder of step sizes and reports three
error ladders per exponent: the deterministic rule's absolute error, the
randomised rule's Monte Carlo L^p error, and a single-realisation
(pathwise) error.  ``run_example2`` does the same comparison for the
Brownian-driven integrand against a fine union-grid reference.

Randomness policy: every driver takes one seed; each (ladder, step,
replication) slot maps to its own stream id through a fixed packing,
``lane * 2^40 + slot * 2^20 + replication``, so runs are reproducible and
replications never share a stream.  The packing holds only while slots and
replications stay below 2^20; past that a replication would silently reuse
the next slot's streams, so larger values are rejected with ``ValueError``
(``run_example1`` checks its replication count before drawing anything).

Batching: ``mc_lp_error`` evaluates its replications in the blocks that
``random_sources.sample_tau_batches`` yields.  Each row of a block still
draws from its own stream, the block is one integrand call and one row-wise
compensated sum, and every replication's value is bit-for-bit the one a
separate ``rtq`` call would give.

Example 2 in one pass: ``run_example2`` keeps only the path's node values
and offsets whole.  It draws every rung's fine-cell selection first, then
walks the bridge blocks once, carrying the Euler prefix sums, summing the
union-grid trapezoids and keeping the selected bridge samples and the prefix
sums at the finest rung's nodes, which is all the rungs read.  Every value
is bit for bit that of ``sample_brownian_path``, ``brownian_integrand``,
``union_grid_reference``, ``coarsen_tau`` and the two rules composed.

Timing: each quadrature call is repeated five times and the median of a
monotonic clock is reported, which resists scheduler noise without
distorting the typical cost.
"""

from __future__ import annotations

import sys
import time
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .integrands import (
    BrownianIntegrand,
    EulerNodes,
    Integrand,
    ctq_brownian,
    euler_prefix,
    power_integrand,
    rtq_brownian,
)
from .quadrature import CTQ, RTQ, Partition, ctq, make_partition, rtq, rtq_prefix
from .random_sources import (
    BrownianGrid,
    RngStream,
    _dyadic_cells,
    coarse_tau_from,
    sample_path_grid,
    sample_tau_batches,
    sample_tau_sequence,
    select_fine_cells,
)
from .summation import BLOCK_ELEMENTS, NeumaierSum

# Fixed default so every run is reproducible without flags; chosen because
# its single-realisation (pathwise) ladders show the typical behaviour
# clearly rather than one of the occasional lucky near-cancellations.
DEFAULT_SEED = 2
DEFAULT_STEP_EXPONENTS = tuple(range(5, 11))
DEFAULT_GAMMAS = (1.25, 1.5, 1.75)
DEFAULT_REPLICATIONS = 100
DEFAULT_P = 2.0
# Example 2's reference step is 2^-DEFAULT_REFERENCE_EXP.
DEFAULT_REFERENCE_EXP = 14

METRIC_ABSOLUTE = "absolute"
METRIC_PATHWISE = "pathwise"

# Stream-id packing: lane * 2^40 + slot * 2^20 + replication.  Lanes keep the
# drivers' random inputs disjoint; slots enumerate (integrand, step) pairs.
_SLOT_STRIDE = 1 << 20
_LANE_STRIDE = 1 << 40
MAX_REPLICATIONS = _SLOT_STRIDE
_LANE_MC = 0
_LANE_PATHWISE = 1
_LANE_AS_RATE = 2
_LANE_PATH = 3
_LANE_COARSEN = 4

TIMING_REPEATS = 5


def mc_metric_name(p: float) -> str:
    return "L2_monte_carlo" if p == 2.0 else f"Lp_monte_carlo(p={p:g})"


def _lane_stream(seed: int, lane: int, slot: int = 0, replication: int = 0) -> RngStream:
    for name, value, limit in (
        ("slot", slot, _LANE_STRIDE // _SLOT_STRIDE),
        ("replication", replication, _SLOT_STRIDE),
    ):
        if not 0 <= value < limit:
            raise ValueError(f"stream {name} {value!r} is outside [0, {limit}); stream ids would collide")
    return RngStream(seed, lane * _LANE_STRIDE + slot * _SLOT_STRIDE + replication)


@dataclass(frozen=True)
class LadderRow:
    """One rung of an error ladder."""

    step: float
    intervals: int
    error: float
    wall_time_s: float
    replications: int = 1
    std_error: float | None = None


@dataclass(frozen=True, eq=False)
class ErrorLadder:
    """(h, error) rows for one rule and one error metric, coarsest first."""

    rule: str
    metric: str
    rows: tuple[LadderRow, ...]
    label: str = ""

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        steps = [r.step for r in rows]
        if any(b >= a for a, b in zip(steps, steps[1:])):
            raise ValueError("ladder rows must be sorted by strictly decreasing step")
        for r in rows:
            if not np.isfinite(r.error) or r.error < 0.0:
                raise ValueError(f"ladder errors must be finite and nonnegative, got {r.error!r}")
        object.__setattr__(self, "rows", rows)

    @property
    def steps(self) -> np.ndarray:
        return np.array([r.step for r in self.rows])

    @property
    def errors(self) -> np.ndarray:
        return np.array([r.error for r in self.rows])


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """An error ladder with its fitted order: the least-squares slope of
    log2(error) against log2(h)."""

    ladder: ErrorLadder
    fitted_order: float
    intercept: float
    residual: float


def fit_order(ladder: ErrorLadder) -> ConvergenceReport:
    """Ordinary least squares in (log2 h, log2 error).

    Rows with exactly zero error carry no log-space information; they are
    excluded with a warning.  Fewer than two usable rows is an error.
    """
    usable = [r for r in ladder.rows if r.error > 0.0]
    dropped = len(ladder.rows) - len(usable)
    if dropped:
        warnings.warn(
            f"fit_order: excluded {dropped} zero-error row(s) from the fit",
            RuntimeWarning,
            stacklevel=2,
        )
    if len(usable) < 2:
        raise ValueError("fit_order needs at least two rows with positive error")
    x = np.log2([r.step for r in usable])
    y = np.log2([r.error for r in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return ConvergenceReport(
        ladder=ladder,
        fitted_order=float(slope),
        intercept=float(intercept),
        residual=float(np.sqrt(np.mean(resid**2))),
    )


def _fit_or_degenerate(ladder: ErrorLadder) -> ConvergenceReport:
    """Fit an order, or report NaN for a ladder the rule integrated exactly."""
    if sum(r.error > 0.0 for r in ladder.rows) < 2:
        return ConvergenceReport(
            ladder=ladder, fitted_order=float("nan"), intercept=float("nan"), residual=float("nan")
        )
    return fit_order(ladder)


def mc_lp_error(
    g: Integrand,
    part: Partition,
    p: float,
    replications: int,
    stream: RngStream,
) -> tuple[float, float]:
    """Monte Carlo L^p error of the randomised rule, with its standard error.

    Runs ``replications`` independent offset sequences (stream ids
    ``stream.stream_id + m``), averages |exact - RTQ_m|^p and returns
    the p-th root together with the delta-method standard error of that
    root.  The replications' streams are seeded together and evaluated in
    batches; the result is bit-for-bit that of one ``rtq`` call per
    replication.

    Raises ``ValueError`` naming ``p`` when |error|^p leaves the double
    range: the mean is not finite, or falls below the smallest normal double
    while some error is non-zero, or the variance of |error|^p falls below
    it while those powers differ.  A rule that is exact on every replication
    returns (0, 0).
    """
    if replications < 2:
        raise ValueError("replications must be at least 2 to estimate a standard error")
    if not 1.0 <= p < np.inf:
        raise ValueError(f"p must be finite and at least 1, got {p!r}")
    exact = g.exact_integral
    if exact is None:
        raise ValueError(f"integrand {g.label!r} has no exact integral")
    errors = []
    for tau in sample_tau_batches(stream, replications, part.intervals):
        errors += [abs(exact - v) for v in rtq(g, part, tau).value.tolist()]
    powered = [e ** p for e in errors]
    mean = float(np.mean(powered))
    # Below the smallest normal double the mean has lost precision, and the
    # standard error's mean ** (1/p - 1) can overflow.
    if not np.isfinite(mean) or (mean < sys.float_info.min and max(errors) > 0.0):
        raise ValueError(
            f"|error|^p leaves the double range at p = {p!r}: the mean of |error|^p is "
            f"{mean!r} while the largest |error| is {max(errors)!r}; use a smaller p"
        )
    # The variance squares deviations of |error|^p, so it underflows at a
    # smaller p than the mean and would report a standard error of 0.
    var = float(np.var(powered, ddof=1))
    if var < sys.float_info.min and min(powered) != max(powered):
        raise ValueError(
            f"|error|^p leaves the double range at p = {p!r}: the variance of |error|^p is "
            f"{var!r} while the powers differ; use a smaller p"
        )
    error = mean ** (1.0 / p)
    se_mean = float(np.sqrt(var / replications))
    if mean == 0.0:
        return 0.0, 0.0
    std_error = (1.0 / p) * mean ** (1.0 / p - 1.0) * se_mean
    return error, std_error


@dataclass(frozen=True)
class ASRateRow:
    step: float
    intervals: int
    max_prefix_error: float
    bound: float
    passed: bool


@dataclass(frozen=True, eq=False)
class ASRateCheck:
    """Pathwise max-prefix errors against the bound h ** (1/2 + sigma - eps)."""

    target_exponent: float
    rows: tuple[ASRateRow, ...]

    @property
    def first_passing_index(self) -> int | None:
        """First index from which every remaining rung passes, if any."""
        ok = [r.passed for r in self.rows]
        for m in range(len(ok)):
            if all(ok[m:]):
                return m
        return None


def as_rate_check(
    g: Integrand,
    sigma: float,
    eps: float,
    steps,
    master_stream: RngStream,
) -> ASRateCheck:
    """Check the almost-sure pathwise rate on one realisation per step size.

    For each step h the randomised rule's partial sums are compared with the
    exact running integral at every node; the max error must fall below
    h ** (1/2 + sigma - eps).  The theory guarantees this from some random
    index onward, so callers should inspect ``first_passing_index`` rather
    than expect every rung to pass.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps!r}")
    if g.exact_prefix_integral is None:
        raise ValueError(f"integrand {g.label!r} has no exact running integral")
    target = 0.5 + float(sigma) - float(eps)
    rows = []
    for m, h in enumerate(steps):
        part = make_partition(round(1.0 / h))
        tau = sample_tau_sequence(
            _lane_stream(master_stream.seed, _LANE_AS_RATE, master_stream.stream_id, m),
            part.intervals,
        )
        partials = rtq_prefix(g, part, tau).value
        max_err = float(np.max(np.abs(g.exact_prefix_integral(part.nodes[1:]) - partials)))
        bound = h**target
        rows.append(
            ASRateRow(
                step=h,
                intervals=part.intervals,
                max_prefix_error=max_err,
                bound=bound,
                passed=max_err <= bound,
            )
        )
    return ASRateCheck(target_exponent=target, rows=tuple(rows))


def _dyadic_steps(step_exponents) -> list[float]:
    """The steps 2^-i of a driver's ladder on [0, 1].

    A ladder needs two rungs to fit an order, so an empty or one-exponent
    range is an error, and so is an exponent below 0, whose step is longer
    than [0, 1]; all are raised before anything is sampled or written.
    """
    exponents = list(step_exponents)
    if not exponents:
        raise ValueError(
            f"the step exponent range {step_exponents!r} is empty; the minimum must not exceed the maximum"
        )
    if len(exponents) < 2:
        raise ValueError(
            f"the step exponent range {step_exponents!r} has one exponent; fitting an order needs at least two"
        )
    if min(exponents) < 0:
        raise ValueError(
            f"the step exponent range {step_exponents!r} holds {min(exponents)!r}; exponents must be at least 0"
        )
    return [2.0**-i for i in exponents]


def _timed(fn):
    """Median wall time of ``fn()`` over ``TIMING_REPEATS`` calls, plus its value."""
    times = []
    value = None
    for _ in range(TIMING_REPEATS):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return value, float(np.median(times))


def warn_if_nonmonotone(ladder: ErrorLadder) -> None:
    """Warn when halving h increased the error along a ladder.

    Expected to hold for the shipped smooth monotone-derivative integrands;
    demoted to a warning because rounding can dominate at the smallest h.
    """
    errors = ladder.errors
    steps = ladder.steps
    for i in np.nonzero(np.diff(errors) > 0)[0]:
        warnings.warn(
            f"{ladder.rule}/{ladder.metric} error increased from h={steps[i]!r} "
            f"to h={steps[i + 1]!r} ({ladder.label})",
            RuntimeWarning,
            stacklevel=2,
        )


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Fitted reports for every ladder of one experiment run."""

    reports: tuple[ConvergenceReport, ...]

    def report(self, label: str, rule: str, metric: str) -> ConvergenceReport:
        for r in self.reports:
            lad = r.ladder
            if lad.label == label and lad.rule == rule and lad.metric == metric:
                return r
        raise KeyError(f"no report for ({label!r}, {rule!r}, {metric!r})")


@dataclass(frozen=True, eq=False)
class Example2Result(ExperimentResult):
    reference: float = float("nan")


def run_example1(
    gammas=DEFAULT_GAMMAS,
    step_exponents=DEFAULT_STEP_EXPONENTS,
    replications: int = DEFAULT_REPLICATIONS,
    p: float = DEFAULT_P,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Power-function convergence study on [0, 1]: CTQ absolute, RTQ L^p, RTQ pathwise.

    Deterministic given ``seed``; wall times are measured, everything else
    is reproducible bit for bit.  Each gamma's ``:g`` form labels its
    ladders and files, so gammas whose labels collide raise ValueError.
    """
    if replications > MAX_REPLICATIONS:
        raise ValueError(
            f"replications must be at most {MAX_REPLICATIONS} (2^20), got {replications!r}; "
            "more would reuse the next slot's random streams"
        )
    steps = _dyadic_steps(step_exponents)
    labels = [f"{gamma:g}" for gamma in gammas]
    shared = sorted({label for label in labels if labels.count(label) > 1})
    if shared:
        raise ValueError(f"gammas {list(gammas)!r} share the labels {shared}; each gamma needs its own")
    reports = []
    for gi, (gamma, label) in enumerate(zip(gammas, labels)):
        g = power_integrand(gamma)
        exact = g.exact_integral
        ctq_rows, l2_rows, path_rows = [], [], []
        for hj, h in enumerate(steps):
            part = make_partition(round(1.0 / h))
            slot = gi * len(steps) + hj

            q, t_ctq = _timed(lambda: ctq(g, part))
            ctq_rows.append(
                LadderRow(step=h, intervals=part.intervals, error=abs(exact - q.value), wall_time_s=t_ctq)
            )

            # One RTQ call is timed per rung; both RTQ ladders report it.
            tau_path = sample_tau_sequence(_lane_stream(seed, _LANE_PATHWISE, slot), part.intervals)
            qp, t_rtq = _timed(lambda: rtq(g, part, tau_path))
            path_rows.append(
                LadderRow(step=h, intervals=part.intervals, error=abs(exact - qp.value), wall_time_s=t_rtq)
            )

            err, se = mc_lp_error(g, part, p, replications, _lane_stream(seed, _LANE_MC, slot))
            l2_rows.append(
                LadderRow(
                    step=h,
                    intervals=part.intervals,
                    error=err,
                    wall_time_s=t_rtq,
                    replications=replications,
                    std_error=se,
                )
            )

        ladders = (
            ErrorLadder(rule=CTQ, metric=METRIC_ABSOLUTE, rows=tuple(ctq_rows), label=label),
            ErrorLadder(rule=RTQ, metric=mc_metric_name(p), rows=tuple(l2_rows), label=label),
            ErrorLadder(rule=RTQ, metric=METRIC_PATHWISE, rows=tuple(path_rows), label=label),
        )
        warn_if_nonmonotone(ladders[0])
        reports.extend(_fit_or_degenerate(lad) for lad in ladders)
    return ExperimentResult(reports=tuple(reports))


def union_grid_reference(bi: BrownianIntegrand) -> float:
    """Trapezoidal value of the Brownian target on the union grid, by fiat
    the exact value for example-2 error ladders.

    The union grid interleaves the fine nodes with the bridge-sampled
    interior points, and the integrand values on it follow the integrand's
    own evaluation convention, so the coarse rules are measured against the
    best trapezoidal value of the very function they integrate rather than
    against an inconsistent rebuild of it.

    The terms are built from slices of the path and the prefix sums, and
    they are bit for bit those of ``bi.value_at`` on the union grid.  The
    step h is 2^-k, so the node j * h and the interior time
    m_j = fl(j + tau_j) * h are exact, m_j / h = fl(j + tau_j) lies strictly
    between j and j + 1 (sampling redraws any other offset, and a width
    check below rejects it), and ``value_at``'s floor lands on j.  Its
    value there is prefix[j] + B_j * (m_j - j * h), the same expression on
    the same operands as the left width (which Sterbenz's lemma makes
    exact); at a node it is prefix[j] + B_j * 0 = prefix[j], and at t = 1,
    clamped to the last cell, prefix[cells - 1] + B_{cells-1} * h, which is
    how ``brownian_integrand`` formed prefix[cells].

    The union grid is built and summed a block of fine cells at a time
    (``_union_terms``, which ``run_example2`` shares), so memory stays
    bounded however fine the path; the carried compensated state makes the
    value bit-for-bit that of one sum over the whole grid.

    Raises:
        ValueError: if the path's step is not 2^-k for its cell count
            (before anything is summed), or the union grid is not strictly
            increasing.
    """
    path = bi.path
    if _dyadic_cells(path.step) != path.cells:
        raise ValueError(f"a path of {path.cells} cells needs step 1/{path.cells}, got {path.step!r}")
    acc = NeumaierSum()
    for start in range(0, path.cells, BLOCK_ELEMENTS):
        acc.extend(_union_terms(path, bi.prefix[start : start + BLOCK_ELEMENTS + 1], start))
    return acc.value


def _union_terms(grid: BrownianGrid, prefix: np.ndarray, start: int) -> np.ndarray:
    """The union-grid trapezoids of the fine cells from ``start`` on whose
    Euler prefix sums, at the cells' nodes, are ``prefix``."""
    stop = start + prefix.size - 1
    j = np.arange(start, stop + 1, dtype=np.float64)
    nodes = j * grid.step
    mids = (j[:-1] + grid.offsets[start:stop]) * grid.step
    widths = np.empty(2 * (stop - start))
    widths[0::2] = mids - nodes[:-1]
    widths[1::2] = nodes[1:] - mids
    if not np.all(widths > 0.0):
        raise ValueError("union grid is not strictly increasing")
    g = np.empty(widths.size + 1)
    g[0::2] = prefix
    g[1::2] = prefix[:-1] + grid.grid_values[start:stop] * widths[0::2]
    return 0.5 * widths * (g[:-1] + g[1:])


def example2_path(seed: int, reference_step: float) -> tuple[BrownianGrid, Iterator[tuple[int, np.ndarray]]]:
    """Example 2's path for ``seed``, as :func:`sample_path_grid` returns it:
    its nodes and offsets, and an iterator that draws its bridge samples."""
    return sample_path_grid(_lane_stream(seed, _LANE_PATH), reference_step)


def _stream_path(grid: BrownianGrid, bridge, selected: list[np.ndarray], stride: int):
    """One pass over the bridge blocks: the union-grid reference, the Euler
    prefix sums at every ``stride``-th node, and the bridge samples of each
    selection of fine cells (gathered through one sorted list of them all)."""
    acc = NeumaierSum()
    node_prefix = np.empty(grid.cells // stride + 1)
    cells = np.concatenate(selected)
    cells.sort()
    cell_mids = np.empty(cells.size)
    prefix = np.zeros(1)
    for start, mids in bridge:
        stop = start + mids.size
        prefix = euler_prefix(grid.grid_values[start:stop], grid.step, prefix[-1])
        acc.extend(_union_terms(grid, prefix, start))
        first_node = -(-start // stride)
        node_prefix[first_node : stop // stride + 1] = prefix[first_node * stride - start :: stride]
        lo, hi = np.searchsorted(cells, (start, stop))
        cell_mids[lo:hi] = mids[cells[lo:hi] - start]
    return acc.value, node_prefix, [cell_mids[np.searchsorted(cells, picked)] for picked in selected]


def run_example2(
    step_exponents=DEFAULT_STEP_EXPONENTS,
    reference_step: float = 2.0**-DEFAULT_REFERENCE_EXP,
    seed: int = DEFAULT_SEED,
) -> Example2Result:
    """Brownian-target convergence study on [0, 1] against a union-grid reference.

    One path per run, sampled from the seed on the dyadic grid of step
    ``reference_step``; coarse offsets reuse the path's interior samples
    exactly; errors are pathwise (one realisation) by construction.
    """
    steps = _dyadic_steps(step_exponents)
    if min(steps) < reference_step:
        raise ValueError("coarse steps must not be finer than the reference step")
    grid, bridge = example2_path(seed, reference_step)
    selected = [select_fine_cells(grid, h, _lane_stream(seed, _LANE_COARSEN, hj)) for hj, h in enumerate(steps)]
    stride = round(min(steps) / grid.step)
    reference, node_prefix, mid_values = _stream_path(grid, bridge, selected, stride)
    nodes = EulerNodes(step=min(steps), grid_values=grid.grid_values[::stride], prefix=node_prefix, stride=stride)

    ctq_rows, rtq_rows = [], []
    for h, picked, mids in zip(steps, selected, mid_values):
        part = make_partition(round(1.0 / h))
        ctau = coarse_tau_from(grid, h, picked, mids)

        qc, t_ctq = _timed(lambda: ctq_brownian(nodes, part))
        ctq_rows.append(
            LadderRow(step=h, intervals=part.intervals, error=abs(reference - qc.value), wall_time_s=t_ctq)
        )
        qr, t_rtq = _timed(lambda: rtq_brownian(nodes, part, ctau))
        rtq_rows.append(
            LadderRow(step=h, intervals=part.intervals, error=abs(reference - qr.value), wall_time_s=t_rtq)
        )

    ladders = (
        ErrorLadder(rule=CTQ, metric=METRIC_PATHWISE, rows=tuple(ctq_rows), label="gB"),
        ErrorLadder(rule=RTQ, metric=METRIC_PATHWISE, rows=tuple(rtq_rows), label="gB"),
    )
    return Example2Result(reports=tuple(_fit_or_degenerate(lad) for lad in ladders), reference=reference)
