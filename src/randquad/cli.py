"""Command-line front end.

Subcommands:

    eval      one quadrature evaluation of a builtin integrand
    example1  power-function convergence study
    example2  Brownian-target convergence study (--dump-path adds path.csv)
    sobolev   fractional Sobolev norm diagnostic with a delta-refinement probe

Exit codes: 0 success, 2 usage or validation error (a size too large to
allocate included), 3 output I/O error.
All randomness flows from --seed; without the flag a fixed documented
default is used, never wall-clock entropy.

This is the one module that writes files: CSV tables, .dat plot data and
gnuplot scripts, every number in shortest round-trip decimal form.

``main`` hands the parsed ``argparse.Namespace`` straight to the
subcommand's ``cmd_*`` function; every default is stated once, as the
flag's ``default=``, and the study defaults are read from ``experiments``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
from collections.abc import Iterator

import numpy as np

from .experiments import (
    DEFAULT_GAMMAS,
    DEFAULT_P,
    DEFAULT_REFERENCE_EXP,
    DEFAULT_REPLICATIONS,
    DEFAULT_SEED,
    DEFAULT_STEP_EXPONENTS,
    MAX_LADDER_EXP,
    MAX_REFERENCE_EXP,
    METRIC_ABSOLUTE,
    METRIC_PATHWISE,
    ErrorLadder,
    ExperimentResult,
    mc_metric_name,
    run_example1,
    run_example2,
)
from .integrands import (
    SOBOLEV_MAX_CELLS,
    affine_integrand,
    constant_integrand,
    power_integrand,
    sobolev_seminorm,
)
from .quadrature import CTQ, RTQ, Integrand, ctq, make_partition, rtq
from .random_sources import BrownianPath, RngStream, sample_tau_sequence

OUTPUT_DIR_ENV = "RANDQUAD_OUTDIR"
_DEFAULT_OUTPUT_DIR = "randquad-output"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """No option starts with a digit or a dot, so a token that parses as a
    float is a value; argparse's own negative-number test misses exponents
    (``--c1 -1e3``).  Subparsers are built with the parent's class."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="randquad",
        description="Classical and randomised trapezoidal quadrature experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed (default: %(default)s)")

    def add_integrand(p):
        p.add_argument("--integrand", choices=("power", "constant", "affine"), default="power")
        p.add_argument("--gamma", type=float, default=1.5, help="exponent for the power integrand")
        p.add_argument("--c0", type=float, default=0.0, help="constant value / affine intercept")
        p.add_argument("--c1", type=float, default=1.0, help="affine slope")

    def add_outdir(p):
        p.add_argument(
            "--outdir",
            default=None,
            help=f"output directory (default: ${OUTPUT_DIR_ENV} or {_DEFAULT_OUTPUT_DIR!r})",
        )

    def add_steps(p):
        p.add_argument("--min-exp", type=int, default=DEFAULT_STEP_EXPONENTS[0], help="coarsest step 2^-min_exp")
        p.add_argument("--max-exp", type=int, default=DEFAULT_STEP_EXPONENTS[-1], help=f"finest step 2^-max_exp, max_exp at most {MAX_LADDER_EXP}")

    p_eval = sub.add_parser("eval", help="evaluate one quadrature rule once")
    p_eval.add_argument("--rule", choices=("ctq", "rtq"), required=True)
    add_integrand(p_eval)
    p_eval.add_argument("--N", dest="intervals", type=int, required=True, help=f"number of cells, at most 2^{MAX_LADDER_EXP}")
    add_seed(p_eval)

    p_ex1 = sub.add_parser("example1", help="power-function convergence study")
    p_ex1.add_argument("--gammas", type=float, nargs="+", default=DEFAULT_GAMMAS)
    add_steps(p_ex1)
    p_ex1.add_argument("-M", dest="replications", type=int, default=DEFAULT_REPLICATIONS, help="Monte Carlo replications")
    p_ex1.add_argument("-p", dest="p", type=float, default=DEFAULT_P, help="L^p error exponent")
    add_outdir(p_ex1)
    add_seed(p_ex1)

    p_ex2 = sub.add_parser("example2", help="Brownian-target convergence study")
    p_ex2.add_argument("--h-ref-exp", type=int, default=DEFAULT_REFERENCE_EXP, help=f"reference step is 2^-h_ref_exp, h_ref_exp at most {MAX_REFERENCE_EXP}")
    add_steps(p_ex2)
    p_ex2.add_argument("--dump-path", action="store_true", help="also write path.csv")
    add_outdir(p_ex2)
    add_seed(p_ex2)

    p_sob = sub.add_parser("sobolev", help="fractional Sobolev norm diagnostic")
    add_integrand(p_sob)
    p_sob.add_argument("--sigma", type=float, required=True, help="regularity order in [1, 2)")
    p_sob.add_argument("-p", dest="p", type=float, default=DEFAULT_P)
    p_sob.add_argument("--cells", type=int, default=512)
    p_sob.add_argument("--delta", type=float, default=None, help="diagonal guard band (default: 2 cell widths)")
    # perfbench/run.py appends --seed to every workload's command line.
    p_sob.add_argument("--seed", type=int, default=DEFAULT_SEED, help="accepted and ignored: sobolev draws nothing")

    return parser


def _build_integrand(args: argparse.Namespace) -> Integrand:
    if args.integrand == "power":
        return power_integrand(args.gamma)
    if args.integrand == "constant":
        return constant_integrand(args.c0)
    return affine_integrand(args.c0, args.c1)


def _fmt(value) -> str:
    """Shortest round-trip decimal form; strings pass through, None is empty."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def cmd_eval(args: argparse.Namespace) -> int:
    # The ladders' memory cap: a rule holds at most about 50 B per cell.
    if args.intervals > 2**MAX_LADDER_EXP:
        raise ValueError(f"--N must be at most 2^{MAX_LADDER_EXP} = {2**MAX_LADDER_EXP}, got {args.intervals}")
    g = _build_integrand(args)
    part = make_partition(args.intervals)
    if args.rule == "ctq":
        q = ctq(g, part)
    else:
        tau = sample_tau_sequence(RngStream(args.seed), part.intervals)
        q = rtq(g, part, tau)
    print(f"rule: {q.rule}")
    print(f"integrand: {g.label} on [0, 1.0]")
    print(f"N: {part.intervals}")
    print(f"h: {_fmt(part.step)}")
    print(f"value: {_fmt(q.value)}")
    print(f"evaluations: {q.evaluations}")
    if args.rule == "rtq":
        print(f"seed: {args.seed}")
    if g.exact_integral is not None:
        print(f"exact: {_fmt(g.exact_integral)}")
        print(f"abs_error: {_fmt(abs(g.exact_integral - q.value))}")
    return EXIT_OK


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(_fmt, row) for row in rows)


def _write_tables(outdir: str, result: ExperimentResult) -> None:
    """errors.csv (one row per ladder rung) and orders.csv (one row per ladder)."""
    _write_csv(
        os.path.join(outdir, "errors.csv"),
        ["gamma", "rule", "metric", "h", "N", "M", "error", "std_error", "wall_time_s"],
        (
            (lad.label, lad.rule, lad.metric, r.step, r.intervals, r.replications, r.error, r.std_error, r.wall_time_s)
            for lad in (rep.ladder for rep in result.reports)
            for r in lad.rows
        ),
    )
    _write_csv(
        os.path.join(outdir, "orders.csv"),
        ["gamma", "rule", "metric", "fitted_order", "intercept", "residual"],
        (
            (rep.ladder.label, rep.ladder.rule, rep.ladder.metric, rep.fitted_order, rep.intercept, rep.residual)
            for rep in result.reports
        ),
    )


def _path_rows(path: BrownianPath):
    """One path.csv row per grid index j, a block of the path at a time; the
    last (j = J) has no interior sample, so its tau, t_mid and B_mid fields
    are empty."""
    for block in path.blocks():
        j = np.arange(block.start, block.start + block.offsets.size)
        yield from zip(j, j * path.step, block.nodes[:-1], block.offsets, (j + block.offsets) * path.step, block.mid_values)
    yield path.cells, path.cells * path.step, block.nodes[-1], None, None, None


def _error_panel(dat: str, title: str, series, orders):
    """Error ladders ``[(column header, series title, ladder)]`` plus one
    guide h^order through the coarsest error of each of the first ladders."""
    h = series[0][2].steps
    columns = [(head, name, lad.errors) for head, name, lad in series]
    columns += [
        (f"guide_order{order:g}", f"h^{order:g}", lad.errors[0] * (h / h[0]) ** order)
        for (_, _, lad), order in zip(series, orders)
    ]
    return dat, title, "error", h, columns


def _timing_panel(dat: str, title: str, ladders: list[ErrorLadder]):
    """Each ladder's measured ``wall_time_s`` against h."""
    columns = [
        (f"{lad.rule.lower()}_time_s", lad.rule, [row.wall_time_s for row in lad.rows])
        for lad in ladders
    ]
    return dat, title, "wall time (s)", ladders[0].steps, columns


def _write_plots(outdir: str, script: str, panels) -> None:
    """Write each panel's .dat file and one gnuplot script that plots them all.

    A panel is ``(dat name, title, y label, h, [(column header, series
    title, values)])``; column 1 of the .dat file is h and column i + 2 is
    series i.
    """
    lines = [
        "set terminal svg size 900,700",
        'set output "plots.svg"',
        "set logscale xy 2",
        'set xlabel "h"',
        "set key left top",
        f"set multiplot layout {max(1, (len(panels) + 1) // 2)},2",
    ]
    for dat, title, ylabel, h, columns in panels:
        with open(os.path.join(outdir, dat), "w") as fh:
            fh.write(" ".join(["#", "h", *(head for head, _, _ in columns)]) + "\n")
            for row in zip(h, *(values for _, _, values in columns)):
                fh.write(" ".join(map(_fmt, row)) + "\n")
        plot = ", ".join(
            f'"{dat}" using 1:{i + 2} with linespoints title "{name}"' for i, (_, name, _) in enumerate(columns)
        )
        lines += [f'set title "{title}"', f'set ylabel "{ylabel}"', f"plot {plot}"]
    lines.append("unset multiplot")
    with open(os.path.join(outdir, script), "w") as fh:
        fh.write("\n".join(lines) + "\n")


@contextlib.contextmanager
def _output_dir(outdir: str | None) -> Iterator[str]:
    """The output directory, made and probed for writing before the study
    runs.  If the run then fails, each directory made here is removed again
    while it is empty; a directory that existed before is never touched."""
    outdir = outdir or os.environ.get(OUTPUT_DIR_ENV, _DEFAULT_OUTPUT_DIR)
    made = []
    missing = os.path.abspath(outdir)
    while not os.path.lexists(missing):
        made.append(missing)
        missing = os.path.dirname(missing)
    try:
        os.makedirs(outdir, exist_ok=True)
        probe = os.path.join(outdir, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
        yield outdir
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def cmd_example1(args: argparse.Namespace) -> int:
    with _output_dir(args.outdir) as outdir:
        result = run_example1(
            gammas=args.gammas,
            step_exponents=range(args.min_exp, args.max_exp + 1),
            replications=args.replications,
            p=args.p,
            seed=args.seed,
        )
        _write_tables(outdir, result)

        metric_lp = mc_metric_name(args.p)
        panels = [
            _error_panel(
                f"example1_errors_gamma{label}.dat",
                f"gamma={label}",
                [
                    ("ctq_abs", CTQ, result.report(label, CTQ, METRIC_ABSOLUTE).ladder),
                    (f"rtq_l{args.p:g}", f"{RTQ} L{args.p:g}", result.report(label, RTQ, metric_lp).ladder),
                    ("rtq_pathwise", f"{RTQ} {METRIC_PATHWISE}", result.report(label, RTQ, METRIC_PATHWISE).ladder),
                ],
                # The orders on t**gamma: min(gamma + 1, 2) for CTQ and
                # min(gamma + 1, 2.5) for RTQ in L^p, one guide if they agree.
                sorted({min(gamma + 1.0, 2.0), min(gamma + 1.0, 2.5)}),
            )
            for gamma, label in ((gamma, f"{gamma:g}") for gamma in args.gammas)
        ]
        timing_label = "1.5" if 1.5 in args.gammas else f"{args.gammas[0]:g}"
        panels.append(
            _timing_panel(
                f"example1_timing_gamma{timing_label}.dat",
                f"time cost, gamma={timing_label}",
                [result.report(timing_label, CTQ, METRIC_ABSOLUTE).ladder, result.report(timing_label, RTQ, metric_lp).ladder],
            )
        )
        _write_plots(outdir, "example1.gp", panels)
    print(f"example1: wrote errors.csv, orders.csv, {len(panels)} plot panel(s) to {outdir}")
    return EXIT_OK


def cmd_example2(args: argparse.Namespace) -> int:
    # run_example2 rejects these too, but naming reference_exp, not the flag.
    if not 0 <= args.h_ref_exp <= MAX_REFERENCE_EXP:
        raise ValueError(f"--h-ref-exp must lie in [0, {MAX_REFERENCE_EXP}], got {args.h_ref_exp}")
    if args.max_exp > MAX_LADDER_EXP:
        raise ValueError(f"--max-exp must be at most {MAX_LADDER_EXP} for example2, whose rungs hold about 55 B per coarse cell, got {args.max_exp}")
    with _output_dir(args.outdir) as outdir:
        result = run_example2(
            step_exponents=range(args.min_exp, args.max_exp + 1),
            reference_exp=args.h_ref_exp,
            seed=args.seed,
        )
        _write_tables(outdir, result)
        if args.dump_path:
            _write_csv(os.path.join(outdir, "path.csv"), ["j", "t", "B_grid", "tau", "t_mid", "B_mid"], _path_rows(result.path))

        lad_ctq, lad_rtq = (rep.ladder for rep in result.reports)
        panels = [
            # CTQ and RTQ both have order 2 on the Brownian target, so one guide.
            _error_panel("example2_errors.dat", "errors vs reference", [("ctq", CTQ, lad_ctq), ("rtq", RTQ, lad_rtq)], (2.0,)),
            _timing_panel("example2_timing.dat", "time cost", [lad_ctq, lad_rtq]),
        ]
        _write_plots(outdir, "example2.gp", panels)
    print(f"example2: wrote errors.csv, orders.csv, {len(panels)} plot panel(s) to {outdir} (reference={_fmt(result.reference)})")
    return EXIT_OK


_SOBOLEV_DIVISORS = (1, 2, 4)


def cmd_sobolev(args: argparse.Namespace) -> int:
    g = _build_integrand(args)
    if args.cells < 2:
        raise ValueError(f"--cells must be at least 2, got {args.cells}")
    # Refinement probe: halving the guard band only reveals new near-diagonal
    # mass if the grid resolves it, so cells are doubled along with delta.
    # Check the finest probe against the cap before any estimate runs.
    finest = args.cells * _SOBOLEV_DIVISORS[-1]
    if finest > SOBOLEV_MAX_CELLS:
        raise ValueError(
            f"--cells {args.cells} probes {finest} cells, above the cap of {SOBOLEV_MAX_CELLS}; "
            f"use --cells {SOBOLEV_MAX_CELLS // _SOBOLEV_DIVISORS[-1]} or fewer"
        )
    est = sobolev_seminorm(g, args.sigma, args.p, args.cells, args.delta)
    estimates = [est] + [
        sobolev_seminorm(g, args.sigma, args.p, args.cells * divisor, est.delta / divisor)
        for divisor in _SOBOLEV_DIVISORS[1:]
    ]
    print(f"integrand: {g.label} on [0, 1.0]")
    print(f"sigma: {_fmt(est.sigma)}  p: {_fmt(est.p)}  cells: {est.cells}  delta: {_fmt(est.delta)}")
    print(f"term |g|^p:          {_fmt(est.term_value)}")
    print(f"term |dg|^p:         {_fmt(est.term_derivative)}")
    print(f"term slobodeckij:    {_fmt(est.term_slobodeckij)}")
    print(f"total (p-th root):   {_fmt(est.value)}")
    growth = [
        (b.value - a.value) / a.value if a.value > 0 else 0.0
        for a, b in zip(estimates, estimates[1:])
    ]
    print(
        "delta refinement (delta, delta/2, delta/4): "
        + ", ".join(_fmt(e.value) for e in estimates)
    )
    diverging = bool(growth) and min(growth) > 0.04
    print(f"relative growth per halving: {', '.join(f'{g_:.4f}' for g_ in growth)}")
    print("indicator: " + ("DIVERGING under delta refinement" if diverging else "stable under delta refinement"))
    return EXIT_OK


_COMMANDS = {
    "eval": cmd_eval,
    "example1": cmd_example1,
    "example2": cmd_example2,
    "sobolev": cmd_sobolev,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.subcommand](args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
