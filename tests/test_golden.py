"""The 0-ulp output contract: a run reproduces the benchmark's committed golden.

``perfbench/golden/<workload>.json`` holds, per seed, the records of one
benchmark workload: its ``errors.csv``/``orders.csv`` rows without the
measured ``wall_time_s`` column, or its printed lines split into tokens at
whitespace and commas.  The three workloads cover both generic rules
(``example1 -M 1000``), the Brownian machinery and the streamed reference
(``example2 --h-ref-exp 20 --max-exp 15``) and the Sobolev diagnostic
(``sobolev --sigma 1.2 --cells 1024``).  Any change that moves one of their
values by one ulp fails here.  Every workload runs at the default seed 2;
``example1 -M 1000``, which exercises the batched stream seeding, and
``example2 --h-ref-exp 20``, which exercises the Brownian path, run at the
held-out seed 7 as well.  The tests only read the golden files.

The Sobolev workload runs at p = 2, where the Slobodeckij kernel squares
its differences; the stdout of ``sobolev --sigma 1.2 --cells 256`` at
p = 2.5 and p = 3, pinned below, covers its ``abs`` and ``np.power``
branch at 0 ulps.
"""

import csv
import json
import re
from pathlib import Path

import pytest

from randquad.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
DEFAULT_SEED = "2"
HELD_OUT_SEED = "7"
TOKEN_SPLIT = re.compile(r"[\s,]+")


def records_without_timing(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if "wall_time_s" in rows[0]:
        drop = rows[0].index("wall_time_s")
        rows = [[cell for i, cell in enumerate(row) if i != drop] for row in rows]
    return rows


def run_workload(name, tmp_path, capsys, seed=DEFAULT_SEED):
    """Run a workload's argv at ``seed``; return its argv, its records and the golden's."""
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    expected = golden["seeds"][seed]
    argv = [*golden["argv"], "--seed", seed]
    if "stdout" not in expected:
        argv += ["--outdir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    records = {}
    for output in expected:
        if output == "stdout":
            records[output] = [TOKEN_SPLIT.split(line.strip()) for line in stdout.splitlines() if line.strip()]
        else:
            records[output] = records_without_timing(tmp_path / output)
    return golden["argv"], records, expected


def check_example1_mc1000(tmp_path, capsys, seed):
    argv, records, expected = run_workload("ex1_mc1000", tmp_path, capsys, seed)
    assert argv == ["example1", "-M", "1000"]
    assert set(expected) == {"errors.csv", "orders.csv"}
    for name in expected:
        assert records[name] == expected[name], name


def test_example1_mc1000_matches_golden_bit_for_bit(tmp_path, capsys):
    check_example1_mc1000(tmp_path, capsys, DEFAULT_SEED)


def test_example1_mc1000_matches_golden_on_the_held_out_seed(tmp_path, capsys):
    check_example1_mc1000(tmp_path, capsys, HELD_OUT_SEED)


def check_example2_ref20(tmp_path, capsys, seed):
    argv, records, expected = run_workload("ex2_ref20", tmp_path, capsys, seed)
    assert argv[:5] == ["example2", "--h-ref-exp", "20", "--max-exp", "15"]
    assert set(expected) == {"errors.csv", "orders.csv"}
    for name in expected:
        assert records[name] == expected[name], name


def test_example2_fine_reference_matches_golden_bit_for_bit(tmp_path, capsys):
    check_example2_ref20(tmp_path, capsys, DEFAULT_SEED)


def test_example2_fine_reference_matches_golden_on_the_held_out_seed(tmp_path, capsys):
    check_example2_ref20(tmp_path, capsys, HELD_OUT_SEED)


def test_sobolev_1024_matches_golden_bit_for_bit(tmp_path, capsys):
    argv, records, expected = run_workload("sobolev_1024", tmp_path, capsys)
    assert argv == ["sobolev", "--sigma", "1.2", "--cells", "1024"]
    assert records == expected


SOBOLEV_256_STDOUT = {
    "2.5": """\
integrand: power(gamma=1.5) on [0, 1.0]
sigma: 1.2  p: 2.5  cells: 256  delta: 0.0078125
term |g|^p:          0.21052393160878188
term |dg|^p:         1.2247429793438602
term slobodeckij:    0.5960772794078312
total (p-th root):   1.3277411231493352
delta refinement (delta, delta/2, delta/4): 1.3277411231493352, 1.3278707779175873, 1.3279172388312972
relative growth per halving: 0.0001, 0.0000
indicator: stable under delta refinement
""",
    "3": """\
integrand: power(gamma=1.5) on [0, 1.0]
sigma: 1.2  p: 3.0  cells: 256  delta: 0.0078125
term |g|^p:          0.1818153208063741
term |dg|^p:         1.3499968343755244
term slobodeckij:    0.5000188345200565
total (p-th root):   1.266569988942889
delta refinement (delta, delta/2, delta/4): 1.266569988942889, 1.2666527721781078, 1.2666830887888423
relative growth per halving: 0.0001, 0.0000
indicator: stable under delta refinement
""",
}


@pytest.mark.parametrize("p", sorted(SOBOLEV_256_STDOUT))
def test_sobolev_non_square_power_matches_pinned_stdout(p, capsys):
    assert main(["sobolev", "--sigma", "1.2", "--cells", "256", "-p", p]) == EXIT_OK
    assert capsys.readouterr().out == SOBOLEV_256_STDOUT[p]
