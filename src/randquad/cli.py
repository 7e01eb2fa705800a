"""Command-line front end.

Subcommands:

    eval      one quadrature evaluation of a builtin integrand
    example1  power-function convergence study (errors.csv, orders.csv,
              gnuplot data and a script that renders it)
    example2  Brownian-target convergence study (errors.csv, orders.csv,
              timing.csv, optional path.csv dump)
    sobolev   fractional Sobolev norm diagnostic with a delta-refinement probe

Exit codes: 0 success, 2 usage or validation error (a size too large to
allocate included), 3 output I/O error.
All randomness flows from --seed; without the flag a fixed documented
default is used, never wall-clock entropy.  CSV numbers are written in
shortest round-trip decimal form.

``main`` hands the parsed ``argparse.Namespace`` straight to the
subcommand's ``cmd_*`` function; every default is stated once, as the
flag's ``default=``, and the study defaults are read from ``experiments``.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from .experiments import (
    DEFAULT_GAMMAS,
    DEFAULT_P,
    DEFAULT_REFERENCE_EXP,
    DEFAULT_REPLICATIONS,
    DEFAULT_SEED,
    DEFAULT_STEP_EXPONENTS,
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
from .quadrature import Integrand, ctq, make_partition, rtq
from .random_sources import RngStream, sample_tau_sequence, save_path_csv

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
        p.add_argument("--max-exp", type=int, default=DEFAULT_STEP_EXPONENTS[-1], help="finest step 2^-max_exp")

    p_eval = sub.add_parser("eval", help="evaluate one quadrature rule once")
    p_eval.add_argument("--rule", choices=("ctq", "rtq"), required=True)
    add_integrand(p_eval)
    p_eval.add_argument("--N", dest="intervals", type=int, required=True, help="number of cells")
    add_seed(p_eval)

    p_ex1 = sub.add_parser("example1", help="power-function convergence study")
    p_ex1.add_argument("--gammas", type=float, nargs="+", default=DEFAULT_GAMMAS)
    add_steps(p_ex1)
    p_ex1.add_argument("-M", dest="replications", type=int, default=DEFAULT_REPLICATIONS, help="Monte Carlo replications")
    p_ex1.add_argument("-p", dest="p", type=float, default=DEFAULT_P, help="L^p error exponent")
    add_outdir(p_ex1)
    add_seed(p_ex1)

    p_ex2 = sub.add_parser("example2", help="Brownian-target convergence study")
    p_ex2.add_argument("--h-ref-exp", type=int, default=DEFAULT_REFERENCE_EXP, help="reference step is 2^-h_ref_exp")
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
    """Shortest decimal form that parses back to the same value."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def cmd_eval(args: argparse.Namespace) -> int:
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


def _write_errors_csv(path: str, ladders: list[ErrorLadder]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "rule", "metric", "h", "N", "M", "error", "std_error", "wall_time_s"])
        for lad in ladders:
            for row in lad.rows:
                writer.writerow(
                    [
                        lad.label,
                        lad.rule,
                        lad.metric,
                        _fmt(row.step),
                        row.intervals,
                        row.replications,
                        _fmt(row.error),
                        _fmt(row.std_error),
                        _fmt(row.wall_time_s),
                    ]
                )


def _write_orders_csv(path: str, result: ExperimentResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "rule", "metric", "fitted_order", "intercept", "residual"])
        for rep in result.reports:
            lad = rep.ladder
            writer.writerow(
                [
                    lad.label,
                    lad.rule,
                    lad.metric,
                    _fmt(rep.fitted_order),
                    _fmt(rep.intercept),
                    _fmt(rep.residual),
                ]
            )


def _write_timing_csv(path: str, ladders: list[ErrorLadder]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rule", "h_exponent", "h", "N", "wall_time_s"])
        for lad in ladders:
            for row in lad.rows:
                exponent = int(round(-math.log2(row.step)))
                writer.writerow([lad.rule, exponent, _fmt(row.step), row.intervals, _fmt(row.wall_time_s)])


def _guide(h: np.ndarray, anchor_err: float, order: float) -> np.ndarray:
    return anchor_err * (h / h[0]) ** order


def _write_dat(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w") as fh:
        fh.write("# " + " ".join(header) + "\n")
        for row in zip(*columns):
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def _gnuplot_script(path: str, panels: list[tuple[str, str, list[tuple[str, int]]]]) -> None:
    """Emit a gnuplot script; panels are (dat_file, title, [(series, column)])."""
    lines = [
        "set terminal svg size 900,700",
        'set output "plots.svg"',
        "set logscale xy 2",
        'set xlabel "h"',
        'set ylabel "error"',
        "set key left top",
        f"set multiplot layout {max(1, (len(panels) + 1) // 2)},2",
    ]
    for dat, title, cols in panels:
        plot = ", ".join(
            f'"{dat}" using 1:{col} with linespoints title "{name}"' for name, col in cols
        )
        lines.append(f'set title "{title}"')
        lines.append(f"plot {plot}")
    lines.append("unset multiplot")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _ensure_outdir(outdir: str | None) -> str:
    outdir = outdir or os.environ.get(OUTPUT_DIR_ENV, _DEFAULT_OUTPUT_DIR)
    os.makedirs(outdir, exist_ok=True)
    probe = os.path.join(outdir, ".write-probe")
    with open(probe, "w") as fh:
        fh.write("")
    os.remove(probe)
    return outdir


def cmd_example1(args: argparse.Namespace) -> int:
    outdir = _ensure_outdir(args.outdir)
    result = run_example1(
        gammas=args.gammas,
        step_exponents=range(args.min_exp, args.max_exp + 1),
        replications=args.replications,
        p=args.p,
        seed=args.seed,
    )
    ladders = [rep.ladder for rep in result.reports]
    _write_errors_csv(os.path.join(outdir, "errors.csv"), ladders)
    _write_orders_csv(os.path.join(outdir, "orders.csv"), result)

    panels = []
    metric_l2 = mc_metric_name(args.p)
    for gamma in args.gammas:
        label = f"{gamma:g}"
        lad_ctq = result.report(label, "CTQ", "absolute").ladder
        lad_l2 = result.report(label, "RTQ", metric_l2).ladder
        lad_pw = result.report(label, "RTQ", "pathwise").ladder
        h = lad_ctq.steps
        cols = [
            h,
            lad_ctq.errors,
            lad_l2.errors,
            lad_pw.errors,
            _guide(h, lad_ctq.errors[0], 2.0),
            _guide(h, lad_l2.errors[0], 2.5),
        ]
        dat = f"example1_errors_gamma{label}.dat"
        _write_dat(
            os.path.join(outdir, dat),
            ["h", "ctq_abs", "rtq_l2", "rtq_pathwise", "guide_order2", "guide_order2.5"],
            cols,
        )
        panels.append(
            (
                dat,
                f"gamma={label}",
                [("CTQ", 2), ("RTQ L2", 3), ("RTQ pathwise", 4), ("h^2", 5), ("h^2.5", 6)],
            )
        )

    timing_label = "1.5" if 1.5 in args.gammas else f"{args.gammas[0]:g}"
    lad_ctq = result.report(timing_label, "CTQ", "absolute").ladder
    lad_rtq = result.report(timing_label, "RTQ", metric_l2).ladder
    dat = f"example1_timing_gamma{timing_label}.dat"
    _write_dat(
        os.path.join(outdir, dat),
        ["h", "ctq_time_s", "rtq_time_s"],
        [lad_ctq.steps, np.array([r.wall_time_s for r in lad_ctq.rows]), np.array([r.wall_time_s for r in lad_rtq.rows])],
    )
    panels.append((dat, f"time cost, gamma={timing_label}", [("CTQ", 2), ("RTQ", 3)]))
    _gnuplot_script(os.path.join(outdir, "example1.gp"), panels)
    print(f"example1: wrote errors.csv, orders.csv, {len(panels)} plot panel(s) to {outdir}")
    return EXIT_OK


def cmd_example2(args: argparse.Namespace) -> int:
    if args.h_ref_exp < args.max_exp:
        raise ValueError("h-ref-exp must be at least max-exp (reference finer than coarse grids)")
    outdir = _ensure_outdir(args.outdir)
    result = run_example2(
        step_exponents=range(args.min_exp, args.max_exp + 1),
        reference_step=2.0**-args.h_ref_exp,
        seed=args.seed,
    )
    ladders = [rep.ladder for rep in result.reports]
    _write_errors_csv(os.path.join(outdir, "errors.csv"), ladders)
    _write_orders_csv(os.path.join(outdir, "orders.csv"), result)
    _write_timing_csv(os.path.join(outdir, "timing.csv"), ladders)
    if args.dump_path:
        save_path_csv(result.path, os.path.join(outdir, "path.csv"))

    lad_ctq, lad_rtq = ladders
    h = lad_ctq.steps
    _write_dat(
        os.path.join(outdir, "example2_errors.dat"),
        ["h", "ctq", "rtq", "guide_order1.5", "guide_order2"],
        [h, lad_ctq.errors, lad_rtq.errors, _guide(h, lad_ctq.errors[0], 1.5), _guide(h, lad_rtq.errors[0], 2.0)],
    )
    _write_dat(
        os.path.join(outdir, "example2_timing.dat"),
        ["h", "ctq_time_s", "rtq_time_s"],
        [h, np.array([r.wall_time_s for r in lad_ctq.rows]), np.array([r.wall_time_s for r in lad_rtq.rows])],
    )
    _gnuplot_script(
        os.path.join(outdir, "example2.gp"),
        [
            ("example2_errors.dat", "errors vs reference", [("CTQ", 2), ("RTQ", 3), ("h^1.5", 4), ("h^2", 5)]),
            ("example2_timing.dat", "time cost", [("CTQ", 2), ("RTQ", 3)]),
        ],
    )
    print(f"example2: wrote errors.csv, orders.csv, timing.csv to {outdir} (reference={_fmt(result.reference)})")
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
