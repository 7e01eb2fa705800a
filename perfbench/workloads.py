"""The benchmark's workloads: CLI argument lists, sizes and expectations.

Each workload is one ``randquad`` CLI invocation.  The benchmark appends
``--seed`` (and ``--outdir`` for the subcommands that write files); every
other argument is fixed here.  Why each workload exists:

- ``ex1_mc1000`` is many short sums (18,270 compensated sums of at most
  1024 terms and 18,036 random streams per pass).  Per-call overhead in
  summation, quadrature, random_sources and the Monte Carlo loop shows here,
  and so does batching of replications.
- ``ex2_ref20`` is a few long sums (111 sums, one of them the 2^21-cell
  union-grid reference) plus a 2^20-cell Brownian path.  Per-element
  throughput and memory show here; per-call overhead barely registers.
- ``sobolev_1024`` draws no random numbers and makes no compensated sums.
  It is the bypass workload for summation and random_sources changes, and
  the one where the dense double-integral kernel and peak memory dominate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 2
# Seed kept out of tuning: a change is judged on it as well as on the default.
HELD_OUT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    # True for subcommands that take --outdir and write files there.
    writes_files: bool
    # Output files compared with the golden ("stdout" for printed output).
    outputs: tuple[str, ...]
    # Quadrature cells per pass, the numerator of cells_per_s.
    cells: int
    # Fresh processes per measured run, each contributing one cold pass:
    # as many as the run's time allows with a couple of warm passes each.
    processes: int
    # Boundaries the traced run must see at least once (layer.function).
    boundaries: tuple[str, ...]
    # Counts measured by the traced run at the commit that added this
    # benchmark; a later change may move them on purpose.
    seed_commit_counts: dict[str, int] = field(default_factory=dict)


_EX1_N_SUM = sum(2**e for e in range(5, 11))  # N = 32 .. 1024
_EX2_N_SUM = sum(2**e for e in range(5, 16))  # N = 32 .. 32768

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ex1_mc1000",
            argv=("example1", "-M", "1000"),
            writes_files=True,
            outputs=("errors.csv", "orders.csv"),
            # replications x N, over three gammas
            cells=3 * 1000 * _EX1_N_SUM,
            processes=3,
            boundaries=(
                "cli.main",
                "experiments.run_example1",
                "experiments.mc_lp_error",
                "experiments.fit_order",
                "quadrature.make_partition",
                "quadrature.ctq",
                "quadrature.rtq",
                "random_sources.sample_tau_sequence",
                "random_sources.RngStream.generator",
                "summation.compensated_sum",
                "integrands.power_integrand",
                "integrands.power_integrand.evaluator",
            ),
            seed_commit_counts={
                "summation.elements": 6_138_720,
                "summation.calls": 18_270,
                "random_sources.streams": 18_036,
                "quadrature.cells": 6_138_720,
            },
        ),
        Workload(
            name="ex2_ref20",
            argv=("example2", "--h-ref-exp", "20", "--max-exp", "15"),
            writes_files=True,
            outputs=("errors.csv", "orders.csv"),
            # coarse cells plus the 2^20 reference cells
            cells=_EX2_N_SUM + 2**20,
            processes=5,
            boundaries=(
                "cli.main",
                "experiments.run_example2",
                "experiments.union_grid_reference",
                "experiments.fit_order",
                "quadrature.make_partition",
                "random_sources.sample_brownian_path",
                "random_sources.coarsen_tau",
                "random_sources.RngStream.generator",
                "integrands.brownian_integrand",
                "integrands.ctq_brownian",
                "integrands.rtq_brownian",
                "integrands.BrownianIntegrand.value_at",
                "summation.compensated_sum",
            ),
            seed_commit_counts={
                "summation.elements": 2_752_192,
                "summation.calls": 111,
            },
        ),
        Workload(
            name="sobolev_1024",
            argv=("sobolev", "--sigma", "1.2", "--cells", "1024"),
            writes_files=False,
            outputs=("stdout",),
            # double-integral grid pairs at 1024, 2048 and 4096 cells
            cells=sum((1024 * k) ** 2 for k in (1, 2, 4)),
            processes=8,
            boundaries=(
                "cli.main",
                "integrands.power_integrand",
                "integrands.power_integrand.evaluator",
                "integrands.power_integrand.exact_derivative",
                "integrands.sobolev_seminorm",
            ),
            seed_commit_counts={
                "summation.elements": 0,
                "random_sources.streams": 0,
            },
        ),
    )
}
