import csv
import inspect
import os
import time

import pytest

from randquad import cli
from randquad.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main


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

        timing = read_csv(tmp_path / "timing.csv")
        assert timing[0] == ["rule", "h_exponent", "h", "N", "wall_time_s"]
        assert [row[1] for row in timing[1:6]] == ["5", "6", "7", "8", "9"]

        orders = {(row[1]): float(row[3]) for row in read_csv(tmp_path / "orders.csv")[1:]}
        assert orders["RTQ"] > orders["CTQ"]

        assert (tmp_path / "path.csv").exists()
        assert (tmp_path / "example2.gp").exists()

    def test_default_run_has_six_rows_per_rule(self, tmp_path, capsys):
        argv = ["example2", "--outdir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        errors = read_csv(tmp_path / "errors.csv")
        by_rule = {"CTQ": 0, "RTQ": 0}
        for row in errors[1:]:
            by_rule[row[1]] += 1
        assert by_rule == {"CTQ": 6, "RTQ": 6}

    def test_reference_must_be_finest(self, capsys):
        argv = ["example2", "--h-ref-exp", "8", "--max-exp", "10"]
        assert main(argv) == EXIT_USAGE
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["example1", "example2"])
def test_empty_step_ladder_exits_2_before_writing(subcommand, tmp_path, capsys):
    argv = [subcommand, "--min-exp", "8", "--max-exp", "5", "--outdir", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    assert "step exponent range range(8, 6) is empty" in capsys.readouterr().err
    assert not (tmp_path / "errors.csv").exists()


@pytest.mark.parametrize("subcommand", ["example1", "example2"])
def test_one_rung_ladder_exits_2_before_writing(subcommand, tmp_path, capsys):
    # One rung cannot be fitted; before this was rejected, example1 exited 0
    # with NaN orders.
    argv = [subcommand, "--min-exp", "5", "--max-exp", "5", "--outdir", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    assert "range(5, 6) has one exponent" in capsys.readouterr().err
    assert not (tmp_path / "errors.csv").exists()


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
        assert f"--cells must be at least 2, got {cells}" in capsys.readouterr().err

    def test_invalid_sigma_exits_2(self, capsys):
        argv = ["sobolev", "--integrand", "power", "--gamma", "1.5", "--sigma", "2.5"]
        assert main(argv) == EXIT_USAGE
        assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["example1", "-p", "inf", "-M", "5", "--gammas", "1.5", "--min-exp", "5", "--max-exp", "6"], "p must be"),
        (["example1", "-p", "nan", "-M", "5", "--gammas", "1.5", "--min-exp", "5", "--max-exp", "6"], "p must be"),
        (["sobolev", "--sigma", "1.2", "-p", "nan"], "p must be"),
        (["sobolev", "--sigma", "1.2", "-p", "inf"], "p must be"),
        (["sobolev", "--sigma", "1.2", "--delta", "nan"], "delta must be"),
        (["sobolev", "--sigma", "1.2", "--delta", "inf"], "delta must be"),
        (["sobolev", "--sigma", "1.2", "--integrand", "constant", "--c0", "1", "--T", "inf"], "total_time"),
        (["sobolev", "--sigma", "1.2", "--integrand", "affine", "--c0", "nan"], "must be finite"),
    ],
)
def test_non_finite_study_parameters_exit_2(argv, message, tmp_path, capsys):
    # Each of these once exited 0 with a zero error, a NaN order or a NaN
    # total reported as "stable".
    if argv[0] == "example1":
        argv = argv + ["--outdir", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_impossible_size_exits_2_with_one_error_line(capsys):
    # 2^56 cells ask numpy for 512 PiB, more than any 64-bit address space,
    # so the allocation fails before any memory is touched.
    assert main(["eval", "--rule", "ctq", "--N", str(2**56)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
