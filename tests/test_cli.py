import ast
import contextlib
import csv
import functools
import inspect
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from randquad import cli
from randquad.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from randquad import experiments
from randquad.experiments import _LANE_PATH, _lane_stream
from randquad.integrands import power_integrand, sobolev_seminorm

from brownian_paths import sampled_path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def drop_column(rows, name):
    idx = rows[0].index(name)
    return [[cell for i, cell in enumerate(row) if i != idx] for row in rows]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--rule", "ctq", "--integrand", "power", "--gamma", "1.5", "--N", "32"],
        ["eval", "--rule", "rtq", "--integrand", "affine", "--c0", "0.5", "--c1", "-2.0", "--N", "7", "--seed", "9"],
        ["example1", "--gammas", "1.25", "1.75", "--min-exp", "4", "--max-exp", "7", "-M", "17", "-p", "3.0"],
        ["example2", "--h-ref-exp", "12", "--min-exp", "5", "--max-exp", "8", "--dump-path"],
        ["sobolev", "--integrand", "power", "--gamma", "1.5", "--sigma", "1.95", "--cells", "256", "--delta", "0.001"],
    ],
)
def test_flag_combinations_run(argv, tmp_path, capsys):
    if argv[0].startswith("example"):
        argv = argv + ["--outdir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("subcommand", ["example1", "example2"])
def test_study_flags_default_to_the_driver_defaults(subcommand, tmp_path, monkeypatch):
    driver = getattr(cli, subcommand.replace("example", "run_example"))
    received = {}

    class Received(Exception):
        pass

    def record(**kwargs):
        received.update(kwargs)
        raise Received

    monkeypatch.setattr(cli, driver.__name__, record)
    with pytest.raises(Received):
        main([subcommand, "--outdir", str(tmp_path)])
    received["step_exponents"] = tuple(received["step_exponents"])
    defaults = inspect.signature(driver).parameters
    assert received == {name: defaults[name].default for name in received}


class TestEval:
    def test_ctq_prints_value_and_error(self, capsys):
        code = main(["eval", "--rule", "ctq", "--integrand", "power", "--gamma", "1.5", "--N", "32"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "rule: CTQ" in out
        assert "h: 0.03125" in out
        assert "evaluations: 64" in out
        value = float(out.split("value: ")[1].splitlines()[0])
        assert abs(value - 0.4) < 2e-4
        assert "abs_error:" in out

    def test_rtq_is_reproducible(self, capsys):
        argv = ["eval", "--rule", "rtq", "--integrand", "power", "--gamma", "1.5", "--N", "32", "--seed", "7"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                "--rule ctq --integrand power --gamma 1.5 --N 32",
                [
                    "rule: CTQ",
                    "integrand: power(gamma=1.5) on [0, 1.0]",
                    "N: 32",
                    "h: 0.03125",
                    "value: 0.4001176712097782",
                    "evaluations: 64",
                    "exact: 0.4",
                    "abs_error: 0.00011767120977818069",
                ],
            ),
            (
                "--rule rtq --integrand power --gamma 1.5 --N 32 --seed 7",
                [
                    "rule: RTQ",
                    "integrand: power(gamma=1.5) on [0, 1.0]",
                    "N: 32",
                    "h: 0.03125",
                    "value: 0.39999659100151724",
                    "evaluations: 64",
                    "seed: 7",
                    "exact: 0.4",
                    "abs_error: 3.40899848277898e-06",
                ],
            ),
            (
                "--rule rtq --integrand affine --c0 0.3 --c1 -2.5 --N 7 --seed 3",
                [
                    "rule: RTQ",
                    "integrand: affine(0.3,-2.5) on [0, 1.0]",
                    "N: 7",
                    "h: 0.14285714285714285",
                    "value: -0.9499999999999998",
                    "evaluations: 14",
                    "seed: 3",
                    "exact: -0.95",
                    "abs_error: 1.1102230246251565e-16",
                ],
            ),
        ],
        ids=["ctq-power", "rtq-power", "rtq-affine"],
    )
    def test_output_is_pinned_byte_for_byte(self, argv, expected, capsys):
        assert main(["eval", *argv.split()]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "".join(line + "\n" for line in expected)
        assert captured.err == ""

    def test_zero_intervals_exits_2(self, capsys):
        assert main(["eval", "--rule", "ctq", "--N", "0"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_integrand_exits_2(self, capsys):
        code = main(["eval", "--rule", "ctq", "--integrand", "mystery", "--N", "4"])
        assert code == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err


class TestExample1Command:
    def test_outputs_and_reproducibility(self, tmp_path, capsys):
        argv = [
            "example1", "--gammas", "1.5", "--min-exp", "5", "--max-exp", "8",
            "-M", "20", "--seed", "11", "--outdir",
        ]
        assert main(argv + [str(tmp_path / "a")]) == EXIT_OK
        assert main(argv + [str(tmp_path / "b")]) == EXIT_OK
        capsys.readouterr()

        orders = read_csv(tmp_path / "a" / "orders.csv")
        assert orders[0] == ["gamma", "rule", "metric", "fitted_order", "intercept", "residual"]
        assert len(orders) == 1 + 3  # one gamma, three ladders

        errors_a = read_csv(tmp_path / "a" / "errors.csv")
        assert errors_a[0] == ["gamma", "rule", "metric", "h", "N", "M", "error", "std_error", "wall_time_s"]
        assert len(errors_a) == 1 + 3 * 4  # three ladders, four steps

        # Data reproducibility: identical up to measured wall time.
        errors_b = read_csv(tmp_path / "b" / "errors.csv")
        assert drop_column(errors_a, "wall_time_s") == drop_column(errors_b, "wall_time_s")
        assert read_csv(tmp_path / "a" / "orders.csv") == read_csv(tmp_path / "b" / "orders.csv")

        assert (tmp_path / "a" / "example1.gp").exists()
        assert (tmp_path / "a" / "example1_errors_gamma1.5.dat").exists()
        assert (tmp_path / "a" / "example1_timing_gamma1.5.dat").exists()

    def test_default_run_has_nine_order_rows_and_table_value(self, tmp_path, capsys):
        argv = ["example1", "--outdir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        orders = read_csv(tmp_path / "orders.csv")
        assert len(orders) == 1 + 9  # three gammas x three ladders
        ctq_three_halves = next(
            float(row[3]) for row in orders[1:] if row[0] == "1.5" and row[1] == "CTQ"
        )
        assert abs(ctq_three_halves - 1.99) < 0.15

    def test_env_var_default_outdir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RANDQUAD_OUTDIR", str(tmp_path / "env"))
        argv = ["example1", "--gammas", "1.5", "--min-exp", "5", "--max-exp", "6", "-M", "5"]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "env" / "orders.csv").exists()

    def test_replications_past_stream_packing_exit_2_immediately(self, tmp_path, capsys):
        start = time.perf_counter()
        assert main(["example1", "-M", "1048577", "--outdir", str(tmp_path)]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        assert "replications" in capsys.readouterr().err
        assert not (tmp_path / "errors.csv").exists()

    def test_unwritable_outdir_exits_3(self, capsys, monkeypatch):
        def driver_must_not_run(**kwargs):
            pytest.fail("the driver ran before the output directory was probed")

        monkeypatch.setattr(cli, "run_example1", driver_must_not_run)
        argv = ["example1", "--gammas", "1.5", "--min-exp", "5", "--max-exp", "6", "-M", "5",
                "--outdir", "/proc/nonexistent/out"]
        assert main(argv) == EXIT_IO
        assert "I/O error" in capsys.readouterr().err


class TestExample2Command:
    def test_fast_mode_outputs_and_order_inequality(self, tmp_path, capsys):
        argv = [
            "example2", "--h-ref-exp", "10", "--min-exp", "5", "--max-exp", "9",
            "--seed", "3", "--dump-path", "--outdir", str(tmp_path),
        ]
        assert main(argv) == EXIT_OK
        capsys.readouterr()

        errors = read_csv(tmp_path / "errors.csv")
        assert len(errors) == 1 + 2 * 5  # two rules, five steps
        assert {row[1] for row in errors[1:]} == {"CTQ", "RTQ"}

        wall_times = [float(row[errors[0].index("wall_time_s")]) for row in errors[1:]]
        assert all(math.isfinite(t) and t > 0.0 for t in wall_times)
        assert not (tmp_path / "timing.csv").exists()

        orders = {(row[1]): float(row[3]) for row in read_csv(tmp_path / "orders.csv")[1:]}
        assert orders["RTQ"] > orders["CTQ"]

        assert (tmp_path / "path.csv").exists()
        assert (tmp_path / "example2.gp").exists()

    def test_dump_path_round_trip_bitwise(self, tmp_path, capsys):
        argv = ["example2", "--h-ref-exp", "7", "--min-exp", "4", "--max-exp", "6", "--seed", "88", "--dump-path"]
        assert main(argv + ["--outdir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        path, mid_values = sampled_path(_lane_stream(88, _LANE_PATH), 2**7)
        header, *rows = read_csv(tmp_path / "path.csv")
        assert header == ["j", "t", "B_grid", "tau", "t_mid", "B_mid"]
        assert [int(r[0]) for r in rows] == list(range(path.cells + 1))
        assert rows[-1][3:] == ["", "", ""]

        def column(index, count):
            return np.array([float(r[index]) for r in rows[:count]]).view(np.uint64)

        for index, expected in (
            (1, np.arange(path.cells + 1) * path.step),
            (2, path.grid_values),
            (3, path.offsets),
            (4, path.mid_times(np.arange(path.cells))),
            (5, mid_values),
        ):
            np.testing.assert_array_equal(column(index, len(expected)), expected.view(np.uint64))

    def test_dump_path_writes_the_studys_own_path(self, tmp_path, capsys, monkeypatch):
        # path.csv once came from a second first pass over the same stream.
        calls = []
        original = experiments.sample_path

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(experiments, "sample_path", counted)
        argv = ["example2", "--h-ref-exp", "9", "--min-exp", "4", "--max-exp", "6", "--seed", "3", "--dump-path"]
        assert main(argv + ["--outdir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        assert len(calls) == 1
        assert (tmp_path / "path.csv").exists()

    def test_dump_path_spans_bridge_blocks_in_order(self, tmp_path, capsys):
        # 2^13 cells are two bridge blocks; path.csv streams them one by one.
        argv = ["example2", "--h-ref-exp", "13", "--min-exp", "4", "--max-exp", "6", "--seed", "5", "--dump-path"]
        assert main(argv + ["--outdir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        path, mid_values = sampled_path(_lane_stream(5, _LANE_PATH), 2**13)
        rows = read_csv(tmp_path / "path.csv")[1:]
        assert [int(r[0]) for r in rows] == list(range(path.cells + 1))
        for index, expected in ((2, path.grid_values[:-1]), (3, path.offsets), (5, mid_values)):
            np.testing.assert_array_equal(np.array([float(r[index]) for r in rows[:-1]]), expected)

    def test_default_run_has_six_rows_per_rule(self, tmp_path, capsys):
        argv = ["example2", "--outdir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        errors = read_csv(tmp_path / "errors.csv")
        by_rule = {"CTQ": 0, "RTQ": 0}
        for row in errors[1:]:
            by_rule[row[1]] += 1
        assert by_rule == {"CTQ": 6, "RTQ": 6}

    def test_reference_must_be_finest(self, tmp_path, capsys):
        argv = ["example2", "--h-ref-exp", "8", "--max-exp", "10", "--outdir", str(tmp_path / "a" / "b")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "reference exponent 8 must lie in [10, 28], from the finest step exponent up" in err
        assert not (tmp_path / "a").exists()


def _plot_clauses(script):
    """(title, ylabel, [(dat file, column, series title)]) per plot line of a gnuplot script."""
    panels, title, ylabel = [], None, None
    for line in script.read_text().splitlines():
        if line.startswith("set title "):
            title = line[len("set title "):].strip('"')
        elif line.startswith("set ylabel "):
            ylabel = line[len("set ylabel "):].strip('"')
        elif line.startswith("plot "):
            clauses = re.findall(r'"([^"]+)" using 1:(\d+) with linespoints title "([^"]*)"', line)
            assert len(clauses) == line.count(" using ")
            panels.append((title, ylabel, [(dat, int(col), name) for dat, col, name in clauses]))
    return panels


@pytest.mark.parametrize(
    "argv, script",
    [
        (["example1", "--gammas", "1.25", "1.75", "-M", "5", "--min-exp", "4", "--max-exp", "6"], "example1.gp"),
        (["example2", "--h-ref-exp", "10", "--min-exp", "5", "--max-exp", "9"], "example2.gp"),
    ],
    ids=["example1", "example2"],
)
def test_plot_script_matches_its_data(argv, script, tmp_path, capsys):
    assert main(argv + ["--outdir", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    panels = _plot_clauses(tmp_path / script)
    assert panels
    for _, _, clauses in panels:
        for dat, col, _ in clauses:
            lines = (tmp_path / dat).read_text().splitlines()
            assert lines[0].startswith("# ")
            names = lines[0][2:].split()
            assert 2 <= col <= len(names)
            assert len(lines) > 1
            assert all(len(line.split()) == len(names) for line in lines[1:])


def test_plot_labels_name_the_error_exponent_and_the_axis(tmp_path, capsys):
    # At -p 4 the L4 series was titled "RTQ L2" with a .dat column "rtq_l2",
    # and the timing panel inherited the y label "error".
    argv = ["example1", "-p", "4", "-M", "20", "--gammas", "1.5", "--min-exp", "4", "--max-exp", "6"]
    assert main(argv + ["--outdir", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    script = (tmp_path / "example1.gp").read_text()
    assert '"RTQ L4"' in script and "RTQ L2" not in script
    header = (tmp_path / "example1_errors_gamma1.5.dat").read_text().splitlines()[0]
    assert header.split()[1:4] == ["h", "ctq_abs", "rtq_l4"]
    assert [(title, ylabel) for title, ylabel, _ in _plot_clauses(tmp_path / "example1.gp")] == [
        ("gamma=1.5", "error"),
        ("time cost, gamma=1.5", "wall time (s)"),
    ]


def test_example1_guides_follow_the_orders_on_t_gamma(tmp_path, capsys):
    # The guides were drawn at h^2 and h^2.5 for every gamma, so at gamma =
    # 1.25 the plot showed a half-order RTQ gain that t^1.25 does not have.
    # At or below gamma = 1 the two orders agree and one guide is drawn.
    argv = ["example1", "--gammas", "0.75", "1.25", "1.5", "2", "-M", "5", "--min-exp", "4", "--max-exp", "7"]
    with pytest.warns(RuntimeWarning, match="regularity"):
        assert main(argv + ["--outdir", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    for gamma, orders in ((0.75, [1.75]), (1.25, [2.0, 2.25]), (1.5, [2.0, 2.5]), (2.0, [2.0, 2.5])):
        header, *lines = (tmp_path / f"example1_errors_gamma{gamma:g}.dat").read_text().splitlines()
        names = header.split()[1:]
        assert names[4:] == [f"guide_order{order:g}" for order in orders]
        table = np.array([[float(v) for v in line.split()] for line in lines])
        log_h = np.log2(table[:, 0])
        for column, order in zip(table[:, 4:].T, orders):
            np.testing.assert_allclose(np.diff(np.log2(column)) / np.diff(log_h), order, rtol=1e-12)


def test_example2_draws_one_guide_at_order_2(tmp_path, capsys):
    # An h^1.5 guide was drawn beside the h^2 one, though CTQ and RTQ both
    # have order 2 on the Brownian target.
    assert main(["example2", "--h-ref-exp", "10", "--min-exp", "3", "--max-exp", "7", "--outdir", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    header, *lines = (tmp_path / "example2_errors.dat").read_text().splitlines()
    assert header.split()[1:] == ["h", "ctq", "rtq", "guide_order2"]
    table = np.array([[float(v) for v in line.split()] for line in lines])
    assert table[0, 3] == table[0, 1]  # through CTQ's coarsest error
    np.testing.assert_allclose(np.diff(np.log2(table[:, 3])) / np.diff(np.log2(table[:, 0])), 2.0, rtol=1e-12)
    (_, _, clauses), _ = _plot_clauses(tmp_path / "example2.gp")
    assert clauses == [("example2_errors.dat", 2, "CTQ"), ("example2_errors.dat", 3, "RTQ"), ("example2_errors.dat", 4, "h^2")]


@pytest.mark.parametrize("subcommand", ["example1", "example2"])
def test_empty_step_ladder_exits_2_before_writing(subcommand, tmp_path, capsys):
    argv = [subcommand, "--min-exp", "8", "--max-exp", "5", "--outdir", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    assert "step exponent range range(8, 6) is empty" in capsys.readouterr().err
    assert not (tmp_path / "errors.csv").exists()


@pytest.mark.parametrize("gammas", [["1.5", "1.5"], ["1.5", "1.5000001"]])
def test_colliding_gamma_labels_exit_2_before_writing(gammas, tmp_path, capsys):
    # Both once exited 0 with two gamma-1.5 rows per ladder in orders.csv
    # and a single gamma-1.5 .dat file.
    argv = ["example1", "--gammas", *gammas, "-M", "10", "--min-exp", "3", "--max-exp", "4", "--outdir", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    assert "share the labels ['1.5']" in capsys.readouterr().err
    assert not (tmp_path / "errors.csv").exists()


@pytest.mark.parametrize("subcommand", ["example1", "example2"])
def test_negative_step_exponent_exits_2_before_writing(subcommand, tmp_path, capsys):
    # Once failed only at the first partition, after example2 had sampled its
    # path, naming make_partition's argument (0 intervals) and not the flag.
    argv = [subcommand, "--min-exp", "-1", "--max-exp", "3", "--outdir", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    assert "step exponent range range(-1, 4) holds -1; exponents must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "errors.csv").exists()


@pytest.mark.parametrize("subcommand", ["example1", "example2"])
def test_one_rung_ladder_exits_2_before_writing(subcommand, tmp_path, capsys):
    # One rung cannot be fitted; before this was rejected, example1 exited 0
    # with NaN orders.
    argv = [subcommand, "--min-exp", "5", "--max-exp", "5", "--outdir", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    assert "range(5, 6) has one exponent" in capsys.readouterr().err
    assert not (tmp_path / "errors.csv").exists()


@pytest.mark.parametrize(
    "h_ref_exp, message",
    [
        ("-2000", "reference_exp must be an integer of at least 0, got -2000"),
        ("-1", "reference_exp must be an integer of at least 0, got -1"),
        *((e, f"the reference exponent {e} must lie in [10, 28], from the finest step exponent up") for e in ("5", "29", "1023", "2000")),
    ],
)
def test_reference_exponent_out_of_range_exits_2_before_drawing(h_ref_exp, message, tmp_path, capsys, monkeypatch):
    # -2000 once failed with "(34, 'Numerical result out of range')" and 2000
    # with a message about a reference step of 0.0; 29 and up would stream for
    # minutes to days (MAX_REFERENCE_EXP).  A CLI copy of the check stated
    # the range as [0, 28], which let 5 through to run_example2's [10, 28].
    monkeypatch.setattr(experiments, "sample_path", lambda *args: pytest.fail("drew before the check"))
    argv = ["example2", "--h-ref-exp", h_ref_exp, "--outdir", str(tmp_path / "a" / "b")]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv", [["example1", "--max-exp", "25"], ["example2", "--h-ref-exp", "25", "--max-exp", "25"]], ids=["example1", "example2"]
)
def test_ladder_above_the_memory_cap_exits_2_before_running(argv, tmp_path, capsys, monkeypatch):
    # Example 1 once accepted --max-exp up to 1022 and ran out of memory near
    # 2^27 cells, and example2 --max-exp 25 once started a run needing about
    # 8 GB; a CLI copy of the check then worded example2's refusal its own way.
    monkeypatch.setattr(experiments, "ctq", lambda *args: pytest.fail("ran a rung before the ladder was checked"))
    monkeypatch.setattr(experiments, "sample_path", lambda *args: pytest.fail("drew before the ladder was checked"))
    assert main(argv + ["--outdir", str(tmp_path / "a" / "b")]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: the finest step exponent 25 is above 24, the largest whose rungs fit in memory\n"
    assert list(tmp_path.iterdir()) == []


# Each study bound is checked once, by the library, so the CLI's one error
# line is the ValueError the API call with the same value raises.
_TO_25 = range(experiments.DEFAULT_STEP_EXPONENTS[0], 26)
LIBRARY_BOUNDS = [
    *(
        (["example2", "--h-ref-exp", e], functools.partial(experiments.run_example2, reference_exp=int(e)))
        for e in ("-2000", "-1", "5", "29", "1023", "2000")
    ),
    (["example2", "--h-ref-exp", "25", "--max-exp", "25"], functools.partial(experiments.run_example2, _TO_25, 25)),
    (["example1", "--max-exp", "25"], functools.partial(experiments.run_example1, step_exponents=_TO_25)),
    *(
        (["sobolev", "--sigma", "1.2", "--cells", c], functools.partial(sobolev_seminorm, power_integrand(1.5), 1.2, 2.0, int(c)))
        for c in ("1", "0", "-4")
    ),
]


@pytest.mark.parametrize("argv, call", LIBRARY_BOUNDS, ids=[" ".join(argv) for argv, _ in LIBRARY_BOUNDS])
def test_study_bounds_are_reported_in_the_librarys_words(argv, call, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "sample_path", lambda *args: pytest.fail("drew before the check"))
    with pytest.raises(ValueError) as exc:
        call()
    outdir = [] if argv[0] == "sobolev" else ["--outdir", str(tmp_path / "a")]
    assert main(argv + outdir) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert list(tmp_path.iterdir()) == []


def test_the_cli_checks_only_the_bounds_no_library_function_owns():
    # A library bound copied into a cmd_* function is a second check with a
    # wording of its own, and once stated the wrong range; the CLI owns only
    # the --N cap of eval and the cap on sobolev's finest probe.
    tree = ast.parse(inspect.getsource(cli))
    raises = [
        (func.name, ast.unparse(node.exc))
        for func in tree.body
        if isinstance(func, ast.FunctionDef) and func.name.startswith("cmd_")
        for node in ast.walk(func)
        if isinstance(node, ast.Raise)
    ]
    assert [name for name, _ in raises] == ["cmd_eval", "cmd_sobolev"]
    assert "--N must be at most" in raises[0][1]
    assert "probes" in raises[1][1]


@pytest.mark.parametrize("rule", ["ctq", "rtq"])
def test_eval_above_the_memory_cap_exits_2_naming_the_flag(rule, capsys, monkeypatch):
    # --N was unbounded: at up to 50 B per cell, 2^27 cells need 6.7 GB.
    for name in ("ctq", "rtq", "make_partition", "sample_tau_sequence"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(f"called {name} before --N was checked"))
    assert main(["eval", "--rule", rule, "--N", "16777217"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --N must be at most 2^24 = 16777216, got 16777217\n"


REJECTED_RUNS = {
    "example1-divergent-gamma": ["example1", "--gammas", "1.5", "-2", "-M", "5", "--min-exp", "3", "--max-exp", "4"],
    "example1-nan-gamma": ["example1", "--gammas", "1.5", "nan", "-M", "5", "--min-exp", "3", "--max-exp", "4"],
    "example2-one-rung": ["example2", "--min-exp", "5", "--max-exp", "5"],
}


@pytest.mark.parametrize("argv", REJECTED_RUNS.values(), ids=REJECTED_RUNS.keys())
def test_rejected_run_removes_the_directories_it_made(argv, tmp_path, capsys):
    # Each once exited 2 and left an empty a/b behind.
    assert main(argv + ["--outdir", str(tmp_path / "a" / "b")]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", REJECTED_RUNS.values(), ids=REJECTED_RUNS.keys())
def test_rejected_run_leaves_an_existing_directory_in_place(argv, tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    (tmp_path / "full").mkdir()
    (tmp_path / "full" / "notes.txt").write_text("kept")
    for outdir in ("empty", "full"):
        assert main(argv + ["--outdir", str(tmp_path / outdir)]) == EXIT_USAGE
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty", "full"]
    assert list((tmp_path / "empty").iterdir()) == []
    assert [p.name for p in (tmp_path / "full").iterdir()] == ["notes.txt"]
    assert (tmp_path / "full" / "notes.txt").read_text() == "kept"


class TestSobolevCommand:
    def test_zero_integrand_all_terms_zero(self, capsys):
        argv = ["sobolev", "--integrand", "constant", "--c0", "0", "--sigma", "1.5"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert "term |g|^p:          0.0" in out
        assert "term |dg|^p:         0.0" in out
        assert "term slobodeckij:    0.0" in out

    def test_inside_the_space_is_stable(self, capsys):
        argv = ["sobolev", "--integrand", "power", "--gamma", "1.5", "--sigma", "1.2", "--cells", "256"]
        assert main(argv) == EXIT_OK
        assert "stable under delta refinement" in capsys.readouterr().out

    def test_boundary_prints_divergence_indicator(self, capsys):
        argv = ["sobolev", "--integrand", "power", "--gamma", "1.5", "--sigma", "1.95", "--cells", "256"]
        assert main(argv) == EXIT_OK
        assert "DIVERGING" in capsys.readouterr().out

    @pytest.mark.parametrize("cells", ["2049", "8192"])
    def test_cells_above_the_cap_exit_2_without_computing(self, cells, capsys):
        argv = ["sobolev", "--integrand", "power", "--gamma", "1.5", "--sigma", "1.2", "--cells", cells]
        start = time.perf_counter()
        assert main(argv) == EXIT_USAGE
        assert time.perf_counter() - start < 0.5
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("cells", ["1", "0", "-4"])
    def test_cells_below_two_exit_2(self, cells, capsys):
        argv = ["sobolev", "--integrand", "power", "--gamma", "1.5", "--sigma", "1.2", "--cells", cells]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: cells must be an integer of at least 2, got {cells}\n"

    def test_invalid_sigma_exits_2(self, capsys):
        argv = ["sobolev", "--integrand", "power", "--gamma", "1.5", "--sigma", "2.5"]
        assert main(argv) == EXIT_USAGE
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["-p", "1e6", "--cells", "8"], "error: term |dg|^p is inf at p = 1000000.0"),
            (["-p", "800"], "error: term slobodeckij is nan at p = 800.0"),
        ],
        ids=["overflow", "nan"],
    )
    def test_power_out_of_the_double_range_exits_2_with_one_line(self, argv, message, capsys):
        # numpy's overflow, divide and invalid-value warnings, each with its
        # source line, once came before the error line.
        assert main(["sobolev", "--sigma", "1.5", *argv]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("p, replications", [("400", "5"), ("40", "200")], ids=["mean", "variance"])
def test_lp_error_underflow_at_large_p_exits_2(p, replications, tmp_path, capsys):
    argv = ["example1", "-p", p, "-M", replications, "--gammas", "1.5", "--min-exp", "5", "--max-exp", "6"]
    assert main(argv + ["--outdir", str(tmp_path)]) == EXIT_USAGE
    assert f"p = {float(p)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["example1", "-p", "inf", "-M", "5", "--gammas", "1.5", "--min-exp", "5", "--max-exp", "6"], "p must be"),
        (["example1", "-p", "nan", "-M", "5", "--gammas", "1.5", "--min-exp", "5", "--max-exp", "6"], "p must be"),
        (["sobolev", "--sigma", "1.2", "-p", "nan"], "p must be"),
        (["sobolev", "--sigma", "1.2", "-p", "inf"], "p must be"),
        (["sobolev", "--sigma", "1.2", "--delta", "nan"], "delta must be"),
        (["sobolev", "--sigma", "1.2", "--delta", "inf"], "delta must be"),
        (["sobolev", "--sigma", "1.2", "--integrand", "affine", "--c0", "nan"], "must be finite"),
        (["sobolev", "--sigma", "1.2", "--integrand", "constant", "--c0", "1e200", "--cells", "8"], "term |g|^p is inf"),
        (["sobolev", "--sigma", "1.9", "-p", "400", "--cells", "16"], "term slobodeckij is nan"),
        (["eval", "--rule", "ctq", "--integrand", "constant", "--c0", "1e308", "--N", "4"], "CTQ cell terms or their sum overflow"),
        (["eval", "--rule", "rtq", "--integrand", "constant", "--c0", "1e308", "--N", "4"], "RTQ cell terms or their sum overflow"),
        (["eval", "--rule", "ctq", "--integrand", "constant", "--c0", "6e307", "--N", "4"], "CTQ cell terms or their sum overflow"),
        (["eval", "--rule", "rtq", "--gamma", "-1.5", "--N", "4"], "got -1.5: the integral of t**gamma"),
        (["eval", "--rule", "ctq", "--gamma", "-1", "--N", "4"], "got -1.0: the integral of t**gamma"),
    ],
)
def test_non_finite_study_parameters_exit_2(argv, message, tmp_path, capsys):
    # Each of these once exited 0 with a zero error, a NaN rule value, a NaN
    # order or a NaN or infinite total reported as "stable", or exited 2 with
    # a bare "float division by zero".  The overflows are formed with numpy's
    # warnings off and checked by name, so the error line is all that prints.
    if argv[0] == "example1":
        argv = argv + ["--outdir", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, split, joined, warns",
    [
        (["eval", "--rule", "ctq", "--integrand", "affine", "--c0", "1", "--N", "4"], ["--c1", "-1e3"], ["--c1=-1e3"], False),
        (["eval", "--rule", "ctq", "--N", "4"], ["--gamma", "-5e-1"], ["--gamma=-5e-1"], True),
    ],
)
def test_negative_values_with_an_exponent_are_values(argv, split, joined, warns, capsys):
    # argparse took "-1e3" and "-5e-1" for options, so the split forms exited
    # 2 with "expected one argument".
    results = []
    for flags in (split, joined):
        # gamma = -0.5 warns that it is below 1.
        with pytest.warns(RuntimeWarning) if warns else contextlib.nullcontext():
            code = main(argv + flags)
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]
    assert "expected one argument" not in results[0][2]
    assert results[0][0] == (EXIT_USAGE if warns else EXIT_OK)


@pytest.mark.parametrize("subcommand", [["eval", "--rule", "ctq", "--N", "4"], ["sobolev", "--sigma", "1.2"]])
def test_horizon_flag_is_gone(subcommand, capsys):
    assert main(subcommand + ["--T", "2"]) == EXIT_USAGE
    assert "unrecognized arguments: --T 2" in capsys.readouterr().err


def test_impossible_size_exits_2_with_one_error_line(capsys):
    # 2^56 cells once asked numpy for 512 PiB; the memory cap on --N now
    # rejects them before anything is allocated.
    assert main(["eval", "--rule", "ctq", "--N", str(2**56)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_failed_allocation_exits_2_with_one_error_line(capsys, monkeypatch):
    # Below the caps an allocation can still fail on a small host.
    def refused(*args):
        raise MemoryError("Unable to allocate 32.0 B for an array with shape (4,)")

    monkeypatch.setattr(cli, "ctq", refused)
    assert main(["eval", "--rule", "ctq", "--N", "4"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 32.0 B for an array with shape (4,)\n"


def test_non_finite_evaluation_error_prints_a_plain_float(capsys):
    # The node was printed as a numpy repr, "t=np.float64(0.0)".
    # gamma = -0.5 warns that it is below 1.
    with pytest.warns(RuntimeWarning):
        assert main(["eval", "--rule", "ctq", "--gamma", "-5e-1", "--N", "4"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: integrand 'power(gamma=-0.5)' returned a non-finite value at node t=0.0\n"
    assert captured.out == ""


def test_infinite_power_prints_its_own_warning_and_one_error_line():
    # numpy's "divide by zero encountered in power" once came between the
    # two: t**-0.5 is infinite at the node t = 0 that the error names.
    argv = [sys.executable, "-m", "randquad.cli", "eval", "--rule", "ctq", "--gamma", "-5e-1", "--N", "4"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run(argv, capture_output=True, text=True, env=env, check=False)
    assert run.returncode == EXIT_USAGE
    lines = run.stderr.splitlines()
    warned = [line for line in lines if "Warning" in line]
    assert len(warned) == 1 and "at or below 1" in warned[0]
    assert [line for line in lines if line.startswith("error: ")] == [lines[-1]]
    assert "divide by zero" not in run.stderr
