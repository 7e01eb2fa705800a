"""Error estimation, convergence-order fitting, and experiment drivers.

Two reproduction drivers live here.  ``run_example1`` integrates the power
functions t**gamma over a dyadic ladder and reports three error ladders per
exponent: the deterministic rule's absolute error, the randomised rule's
Monte Carlo L^p error, and a single-realisation (pathwise) error.
``run_example2`` does the same comparison for the Brownian-driven
integrand against a fine union-grid reference.  Both take integer step
exponents i and name each grid by its cell count 2^i (``_ladder``); a step
is ``1.0 / cells``, which is 2^-i exactly for every exponent they accept.

Randomness policy: every driver takes one seed; each (ladder, rung,
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

Example 2 in O(block + coarse cells) memory: ``run_example2`` holds no
array of the path's size.  After the first pass of
``random_sources.sample_path`` it draws every rung's picks
(``select_fine_cells``, one int32 fine cell per coarse cell), and one walk
of the path's blocks carries the Euler prefix sums, sums the union-grid
trapezoids, keeps B and the prefix sums at the finest rung's nodes and,
with one ``gather`` call per block, fills one record per rung: the picked
offsets and bridge samples, and B around the complementary times, whose
cells ``complement_cells`` names and checks once per rung.
``coarse_tau_from`` takes each record, coarsest first, then it is dropped.
``MAX_REFERENCE_EXP`` bounds the reference by time; ``_ladder`` bounds the
finest rung of every study by memory (``MAX_LADDER_EXP``).

Timing: each quadrature call is repeated five times and the median of a
monotonic clock is reported, which resists scheduler noise without
distorting the typical cost.
"""

from __future__ import annotations

import sys
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .integrands import (
    BrownianIntegrand,
    Integrand,
    _finite,
    ctq_brownian,
    euler_prefix,
    power_integrand,
    rtq_brownian,
)
from .quadrature import CTQ, RTQ, Partition, _CellCount, ctq, make_partition, rtq, rtq_prefix
from .random_sources import (
    BrownianPath,
    PathBlock,
    RngStream,
    _integer,
    coarse_tau_from,
    complement_cells,
    gather,
    sample_path,
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
# Largest reference exponent of Example 2, a time bound: the path streams in
# memory that does not grow with it, but each fine cell costs about 100 ns,
# so a reference of 2^28 cells takes about 30 s (2-vCPU x86-64 VM, numpy 2.4).
MAX_REFERENCE_EXP = 28
# Largest finest step exponent of every study, a memory bound: Example 1 holds
# about 60 B per cell of its finest rung (279 MiB peak RSS at 2^22, -M 2) and
# Example 2 about 55 B per coarse cell (149 MiB at reference 2^-21 and ladder
# 5..20), so a ladder down to 2^-24 takes 1 to 2 GB.
MAX_LADDER_EXP = 24

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
class LadderRow(_CellCount):
    """One rung of an error ladder, on ``intervals`` cells of width ``step``."""

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
        sizes = [r.intervals for r in rows]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
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


def _lp_exponent(p: float) -> None:
    if not 1.0 <= p < np.inf:
        raise ValueError(f"p must be finite and at least 1, got {p!r}")


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

    Raises ``ValueError`` before any draw unless ``replications`` is an
    integer of at least 2, and naming ``p`` when |error|^p leaves the
    double range: the mean is not finite, or falls below the smallest
    normal double while some error is non-zero, or the variance of
    |error|^p falls below it while those powers differ.  A rule that is exact on every replication
    returns (0, 0).
    """
    replications = _integer("replications", replications, 2)
    _lp_exponent(p)
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
class ASRateRow(_CellCount):
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
    step_exponents,
    master_stream: RngStream,
) -> ASRateCheck:
    """Check the almost-sure pathwise rate on one realisation per rung of
    the ladder ``step_exponents`` (as ``_ladder`` checks it).

    For each step h = 2^-i the randomised rule's partial sums are compared
    with the exact running integral at every node; the max error must fall
    below h ** (1/2 + sigma - eps).  The theory guarantees this from some
    random index onward, so callers should inspect ``first_passing_index``
    rather than expect every rung to pass.  Rung m draws from slot
    ``master_stream.stream_id``, replication m, of the check's lane of
    stream ids (see the module docstring), so that id must lie in
    [0, 2^20).  Nothing is drawn before every argument is checked.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps!r}")
    if (slots := _LANE_STRIDE // _SLOT_STRIDE) <= master_stream.stream_id:
        raise ValueError(f"master_stream.stream_id must be below 2^20 = {slots}, got {master_stream.stream_id!r}")
    if g.exact_prefix_integral is None:
        raise ValueError(f"integrand {g.label!r} has no exact running integral")
    ladder = _ladder(step_exponents)
    target = 0.5 + _finite("sigma", sigma) - float(eps)
    rows = []
    for m, cells in enumerate(ladder):
        part = make_partition(cells)
        tau = sample_tau_sequence(
            _lane_stream(master_stream.seed, _LANE_AS_RATE, master_stream.stream_id, m),
            part.intervals,
        )
        partials = rtq_prefix(g, part, tau).value
        max_err = float(np.max(np.abs(g.exact_prefix_integral(part.nodes[1:]) - partials)))
        bound = part.step**target
        rows.append(
            ASRateRow(
                intervals=part.intervals,
                max_prefix_error=max_err,
                bound=bound,
                passed=max_err <= bound,
            )
        )
    return ASRateCheck(target_exponent=target, rows=tuple(rows))


def _ladder(step_exponents) -> list[int]:
    """The cell counts 2^i of a driver's ladder on [0, 1], one per exponent i.

    A ladder needs two rungs to fit an order, so an empty or one-exponent
    range is an error, and so is an exponent below 0, whose step is longer
    than [0, 1], one that is not an integer, a list that does not strictly
    increase, and a finest exponent above ``MAX_LADDER_EXP``, whose rungs
    would not fit in memory; all are raised before anything is sampled or
    written.
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
    exponents = [_integer("a step exponent", i, 0) for i in exponents]
    if any(b <= a for a, b in zip(exponents, exponents[1:])):
        raise ValueError(f"the step exponents {exponents!r} must strictly increase, one rung per exponent")
    if (i := exponents[-1]) > MAX_LADDER_EXP:
        raise ValueError(f"the finest step exponent {i} is above {MAX_LADDER_EXP}, the largest whose rungs fit in memory")
    return [2**i for i in exponents]


def _timed_row(part: Partition, exact: float, rule) -> LadderRow:
    """The rung of ``part``: the error |exact - value| of ``rule()``'s
    value, and its median wall time over ``TIMING_REPEATS`` calls."""
    times = []
    for _ in range(TIMING_REPEATS):
        t0 = time.perf_counter()
        q = rule()
        times.append(time.perf_counter() - t0)
    error = abs(exact - q.value)
    return LadderRow(intervals=part.intervals, error=error, wall_time_s=float(np.median(times)))


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
    """Example 2's reports, reference value and the path it drew."""

    reference: float
    path: BrownianPath


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
    ladders and files, so no gammas, or gammas whose labels collide, raise
    ValueError.
    """
    replications = _integer("replications", replications, 2)
    if replications > MAX_REPLICATIONS:
        raise ValueError(
            f"replications must be at most {MAX_REPLICATIONS} (2^20), got {replications!r}; "
            "more would reuse the next slot's random streams"
        )
    _lp_exponent(p)
    ladder = _ladder(step_exponents)
    gammas = list(gammas)
    if not gammas:
        raise ValueError("gammas is empty; the study needs at least one exponent")
    labels = [f"{gamma:g}" for gamma in gammas]
    shared = sorted({label for label in labels if labels.count(label) > 1})
    if shared:
        raise ValueError(f"gammas {gammas!r} share the labels {shared}; each gamma needs its own")
    # Every gamma is checked before the first rung runs.
    integrands = [power_integrand(gamma) for gamma in gammas]
    reports = []
    for gi, (g, label) in enumerate(zip(integrands, labels)):
        exact = g.exact_integral
        ctq_rows, l2_rows, path_rows = [], [], []
        for hj, cells in enumerate(ladder):
            part = make_partition(cells)
            slot = gi * len(ladder) + hj

            ctq_rows.append(_timed_row(part, exact, lambda: ctq(g, part)))

            # One RTQ call is timed per rung; both RTQ ladders report it.
            tau_path = sample_tau_sequence(_lane_stream(seed, _LANE_PATHWISE, slot), part.intervals)
            path_rows.append(_timed_row(part, exact, lambda: rtq(g, part, tau_path)))

            err, se = mc_lp_error(g, part, p, replications, _lane_stream(seed, _LANE_MC, slot))
            l2_rows.append(replace(path_rows[-1], error=err, replications=replications, std_error=se))

        ladders = (
            ErrorLadder(rule=CTQ, metric=METRIC_ABSOLUTE, rows=tuple(ctq_rows), label=label),
            ErrorLadder(rule=RTQ, metric=mc_metric_name(p), rows=tuple(l2_rows), label=label),
            ErrorLadder(rule=RTQ, metric=METRIC_PATHWISE, rows=tuple(path_rows), label=label),
        )
        warn_if_nonmonotone(ladders[0])
        reports.extend(_fit_or_degenerate(lad) for lad in ladders)
    return ExperimentResult(reports=tuple(reports))


def _union_terms(block: PathBlock, prefix: np.ndarray, step: float) -> np.ndarray:
    """The union-grid trapezoids of ``block``'s cells, of step ``step``,
    whose Euler prefix sums, at the cells' nodes, are ``prefix``.

    Each term is bit for bit that of ``BrownianIntegrand.value_at`` on the
    union grid.  The step h is 2^-k, so the node j * h and the interior time
    m_j = fl(j + tau_j) * h are exact, m_j / h lies strictly between j and
    j + 1 (the width check rejects any other offset), and ``value_at``'s
    floor lands on j.  Its value there, prefix[j] + B_j * (m_j - j * h), is
    the same expression on the same operands as the left width, which
    Sterbenz's lemma makes exact; at t = 1, clamped to the last cell, it is
    how the last prefix sum was formed.
    """
    j = np.arange(block.start, block.start + block.offsets.size + 1, dtype=np.float64)
    nodes = j * step
    mids = j[:-1] + block.offsets
    mids *= step
    left = mids - nodes[:-1]
    right = nodes[1:] - mids
    if not (left.min() > 0.0 and right.min() > 0.0):
        raise ValueError("union grid is not strictly increasing")
    # The value at each interior time, then the left and right trapezoids,
    # written straight into their interleaved places.
    mid_g = block.nodes[:-1] * left
    mid_g += prefix[:-1]
    terms = np.empty(2 * left.size)
    np.multiply(0.5, left, out=terms[0::2])
    terms[0::2] *= prefix[:-1] + mid_g
    np.multiply(0.5, right, out=terms[1::2])
    mid_g += prefix[1:]
    terms[1::2] *= mid_g
    return terms


def _stream_path(path: BrownianPath, stride: int, selected):
    """One pass over the path's blocks: the union-grid reference, the
    :class:`BrownianIntegrand` of every ``stride``-th node, and per rung of
    picks ``selected`` the arguments of :func:`coarse_tau_from` after
    ``fine_cells``, every rung's complement cells named and checked before
    the walk gathers what the rung reads."""
    rungs = [
        (picks, complement_cells(path.cells, picks), np.empty(picks.size), np.empty(picks.size), (np.empty(picks.size), np.empty(picks.size)))
        for picks in selected
    ]
    starts = np.arange(0, path.cells + 1, min(path.cells, BLOCK_ELEMENTS))  # every block's start, then the end
    ends = [(np.searchsorted(picks, starts), np.searchsorted(cells, starts)) for picks, cells, *_ in rungs]
    acc = NeumaierSum()
    node_values = np.empty(path.cells // stride + 1)
    node_prefix = np.empty(node_values.size)
    prefix = np.zeros(1)
    for block in path.blocks():
        start, stop = block.start, block.start + block.offsets.size
        prefix = euler_prefix(block.nodes[:-1], path.step, prefix[-1])
        acc.extend(_union_terms(block, prefix, path.step))
        first = -(-start // stride)
        kept = slice(first * stride - start, None, stride)
        node_values[first : stop // stride + 1] = block.nodes[kept]
        node_prefix[first : stop // stride + 1] = prefix[kept]
        gather(rungs, ends, block)
    return acc.value, BrownianIntegrand(grid_values=node_values, prefix=node_prefix, stride=stride), rungs


def run_example2(
    step_exponents=DEFAULT_STEP_EXPONENTS,
    reference_exp: int = DEFAULT_REFERENCE_EXP,
    seed: int = DEFAULT_SEED,
) -> Example2Result:
    """Brownian-target convergence study on [0, 1] against a union-grid reference.

    One path per run, sampled from the seed on the grid of 2^reference_exp
    cells (at least the finest rung's, at most ``MAX_REFERENCE_EXP``);
    coarse offsets reuse the path's interior samples exactly; errors are
    pathwise (one realisation) by construction.  The reference, by fiat the
    exact value, is the trapezoidal value of the Euler-extended integral on
    the union grid of fine nodes and bridge samples, so the coarse rules
    are measured against the best trapezoidal value of the very function
    they integrate.  The path's stream is named here, from ``seed``; the
    path is drawn twice, a block at a time (see the module docstring), so
    memory does not grow with the reference, and the result keeps it as
    generator snapshots, no array of its cells.
    """
    ladder = _ladder(step_exponents)
    finest = ladder[-1].bit_length() - 1
    if not finest <= _integer("reference_exp", reference_exp, 0) <= MAX_REFERENCE_EXP:
        raise ValueError(
            f"the reference exponent {reference_exp!r} must lie in [{finest}, {MAX_REFERENCE_EXP}], "
            "from the finest step exponent up"
        )
    fine_cells = 2**reference_exp
    path = sample_path(_lane_stream(seed, _LANE_PATH), fine_cells)
    selected = (select_fine_cells(fine_cells, cells, _lane_stream(seed, _LANE_COARSEN, hj)) for hj, cells in enumerate(ladder))
    reference, nodes, rungs = _stream_path(path, fine_cells // ladder[-1], selected)

    ctq_rows, rtq_rows = [], []
    for cells in ladder:
        part = make_partition(cells)
        ctau = coarse_tau_from(fine_cells, *rungs.pop(0))

        ctq_rows.append(_timed_row(part, reference, lambda: ctq_brownian(nodes, part)))
        rtq_rows.append(_timed_row(part, reference, lambda: rtq_brownian(nodes, part, ctau)))
        del ctau  # before the next, finer rung is built

    ladders = (
        ErrorLadder(rule=CTQ, metric=METRIC_PATHWISE, rows=tuple(ctq_rows), label="gB"),
        ErrorLadder(rule=RTQ, metric=METRIC_PATHWISE, rows=tuple(rtq_rows), label="gB"),
    )
    return Example2Result(reports=tuple(_fit_or_degenerate(lad) for lad in ladders), reference=reference, path=path)
