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

Batching: ``mc_lp_error`` evaluates its replications in blocks of about
``BATCH_ELEMENTS`` cells, ``max(1, BATCH_ELEMENTS // N)`` replications at a
time.  Each row of a block still draws from its own stream, the block is
one integrand call and one row-wise compensated sum, and every replication's
value is bit-for-bit the one a separate ``rtq`` call would give.  The
streams of all M replications are seeded once, in one vectorised pass
(``random_sources.sample_tau_batches``), rather than by building a numpy
``SeedSequence`` and ``PCG64`` per replication; the draws are the same.

Timing: each quadrature call is repeated five times and the median of a
monotonic clock is reported, which resists scheduler noise without
distorting the typical cost.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .integrands import (
    BrownianIntegrand,
    Integrand,
    brownian_integrand,
    ctq_brownian,
    power_integrand,
    rtq_brownian,
)
from .quadrature import CTQ, RTQ, Partition, ctq, make_partition, rtq, rtq_prefix
from .random_sources import (
    BrownianPath,
    RngStream,
    coarsen_tau,
    sample_brownian_path,
    sample_tau_batches,
    sample_tau_sequence,
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
METRIC_PATHWISE_MAX_PREFIX = "pathwise_max_prefix"

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
# Cells per batched block of Monte Carlo replications.
BATCH_ELEMENTS = 1 << 11


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
    reference: float | None = None,
) -> tuple[float, float]:
    """Monte Carlo L^p error of the randomised rule, with its standard error.

    Runs ``replications`` independent offset sequences (stream ids
    ``stream.stream_id + m``), averages |reference - RTQ_m|^p and returns
    the p-th root together with the delta-method standard error of that
    root.  The replications' streams are seeded together and evaluated in
    batches of ``max(1, BATCH_ELEMENTS // N)`` rows; the result is
    bit-for-bit that of one ``rtq`` call per replication.
    """
    if replications < 2:
        raise ValueError("replications must be at least 2 to estimate a standard error")
    if not 1.0 <= p < np.inf:
        raise ValueError(f"p must be finite and at least 1, got {p!r}")
    if reference is None:
        reference = g.exact_integral
    if reference is None:
        raise ValueError(f"integrand {g.label!r} has no exact integral; pass reference=")
    powered = []
    batch = max(1, BATCH_ELEMENTS // part.intervals)
    for tau in sample_tau_batches(stream, replications, part.intervals, batch):
        powered += [abs(reference - v) ** p for v in rtq(g, part, tau).value.tolist()]
    mean = float(np.mean(powered))
    error = mean ** (1.0 / p)
    se_mean = float(np.sqrt(np.var(powered, ddof=1) / replications))
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

    def ladder(self, label: str = "") -> ErrorLadder:
        """The max-prefix errors as an error ladder, e.g. for order fitting."""
        rows = tuple(
            LadderRow(
                step=r.step,
                intervals=r.intervals,
                error=r.max_prefix_error,
                wall_time_s=float("nan"),
            )
            for r in self.rows
        )
        return ErrorLadder(rule=RTQ, metric=METRIC_PATHWISE_MAX_PREFIX, rows=rows, label=label)


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
        part = make_partition(g.total_time, round(g.total_time / h))
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
    """The steps 2^-i of a driver's ladder.

    A ladder needs two rungs to fit an order, so an empty or one-exponent
    range is an error, raised before anything is sampled or written.
    """
    steps = [2.0**-i for i in step_exponents]
    if not steps:
        raise ValueError(
            f"the step exponent range {step_exponents!r} is empty; the minimum must not exceed the maximum"
        )
    if len(steps) < 2:
        raise ValueError(
            f"the step exponent range {step_exponents!r} has one exponent; fitting an order needs at least two"
        )
    return steps


def _timed(fn, repeats: int = TIMING_REPEATS):
    """Median wall time of ``fn()`` over ``repeats`` calls, plus its value."""
    times = []
    value = None
    for _ in range(repeats):
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
    path: BrownianPath | None = None
    reference: float = float("nan")


def run_example1(
    gammas=DEFAULT_GAMMAS,
    step_exponents=DEFAULT_STEP_EXPONENTS,
    replications: int = DEFAULT_REPLICATIONS,
    p: float = DEFAULT_P,
    seed: int = DEFAULT_SEED,
    total_time: float = 1.0,
) -> ExperimentResult:
    """Power-function convergence study: CTQ absolute, RTQ L^p, RTQ pathwise.

    Deterministic given ``seed``; wall times are measured, everything else
    is reproducible bit for bit.
    """
    if replications > MAX_REPLICATIONS:
        raise ValueError(
            f"replications must be at most {MAX_REPLICATIONS} (2^20), got {replications!r}; "
            "more would reuse the next slot's random streams"
        )
    steps = _dyadic_steps(step_exponents)
    reports = []
    for gi, gamma in enumerate(gammas):
        g = power_integrand(gamma, total_time)
        exact = g.exact_integral
        label = f"{gamma:g}"
        ctq_rows, l2_rows, path_rows = [], [], []
        for hj, h in enumerate(steps):
            part = make_partition(total_time, round(total_time / h))
            slot = gi * len(steps) + hj

            q, t_ctq = _timed(lambda: ctq(g, part))
            ctq_rows.append(
                LadderRow(step=h, intervals=part.intervals, error=abs(exact - q.value), wall_time_s=t_ctq)
            )

            mc_stream = _lane_stream(seed, _LANE_MC, slot)
            err, se = mc_lp_error(g, part, p, replications, mc_stream)
            tau0 = sample_tau_sequence(RngStream(mc_stream.seed, mc_stream.stream_id), part.intervals)
            _, t_rtq = _timed(lambda: rtq(g, part, tau0))
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

            tau_path = sample_tau_sequence(_lane_stream(seed, _LANE_PATHWISE, slot), part.intervals)
            qp, t_path = _timed(lambda: rtq(g, part, tau_path))
            path_rows.append(
                LadderRow(step=h, intervals=part.intervals, error=abs(exact - qp.value), wall_time_s=t_path)
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

    The union grid is built and summed a block of fine cells at a time, so
    memory stays bounded however fine the path; the carried compensated
    state makes the value bit-for-bit that of one sum over the whole grid.
    """
    path = bi.path
    acc = NeumaierSum()
    block = BLOCK_ELEMENTS // 2
    for start in range(0, path.cells, block):
        stop = min(start + block, path.cells)
        times = np.empty(2 * (stop - start) + 1)
        times[0::2] = path.grid_times[start : stop + 1]
        times[1::2] = path.mid_times[start:stop]
        widths = np.diff(times)
        if np.any(widths <= 0.0):
            raise ValueError("union grid is not strictly increasing")
        g = bi.value_at(times)
        acc.extend(0.5 * widths * (g[:-1] + g[1:]))
    return acc.value


def run_example2(
    step_exponents=DEFAULT_STEP_EXPONENTS,
    reference_step: float = 2.0**-DEFAULT_REFERENCE_EXP,
    seed: int = DEFAULT_SEED,
    total_time: float = 1.0,
    path: BrownianPath | None = None,
) -> Example2Result:
    """Brownian-target convergence study against a union-grid reference.

    One path per run; coarse offsets reuse the path's interior samples
    exactly; errors are pathwise (one realisation) by construction.  A
    pre-built ``path`` (consistent with ``reference_step``) can be injected
    for controlled studies; by default one is sampled from the seed.
    """
    steps = _dyadic_steps(step_exponents)
    if min(steps) < reference_step:
        raise ValueError("coarse steps must not be finer than the reference step")
    if path is None:
        path = sample_brownian_path(_lane_stream(seed, _LANE_PATH), total_time, reference_step)
    elif path.step != reference_step or path.total_time != total_time:
        raise ValueError("injected path does not match reference_step / total_time")
    bi = brownian_integrand(path)
    reference = union_grid_reference(bi)

    ctq_rows, rtq_rows = [], []
    for hj, h in enumerate(steps):
        part = make_partition(total_time, round(total_time / h))
        ctau = coarsen_tau(path, h, _lane_stream(seed, _LANE_COARSEN, hj))

        qc, t_ctq = _timed(lambda: ctq_brownian(bi, part))
        ctq_rows.append(
            LadderRow(step=h, intervals=part.intervals, error=abs(reference - qc.value), wall_time_s=t_ctq)
        )
        qr, t_rtq = _timed(lambda: rtq_brownian(bi, part, ctau))
        rtq_rows.append(
            LadderRow(step=h, intervals=part.intervals, error=abs(reference - qr.value), wall_time_s=t_rtq)
        )

    ladders = (
        ErrorLadder(rule=CTQ, metric=METRIC_PATHWISE, rows=tuple(ctq_rows), label="gB"),
        ErrorLadder(rule=RTQ, metric=METRIC_PATHWISE, rows=tuple(rtq_rows), label="gB"),
    )
    return Example2Result(
        reports=tuple(_fit_or_degenerate(lad) for lad in ladders),
        path=path,
        reference=reference,
    )
