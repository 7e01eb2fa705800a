"""The 0-ulp output contract: a run reproduces the benchmark's committed golden.

``perfbench/golden/ex2_ref20.json`` holds the ``errors.csv``/``orders.csv``
records (without the measured ``wall_time_s`` column) of
``example2 --h-ref-exp 20 --max-exp 15`` per seed.  Any change to the
summation kernel, the Brownian machinery or the reference that moves a
value by one ulp fails here.
"""

import csv
import json
from pathlib import Path

from randquad.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "ex2_ref20.json"


def records_without_timing(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if "wall_time_s" in rows[0]:
        drop = rows[0].index("wall_time_s")
        rows = [[cell for i, cell in enumerate(row) if i != drop] for row in rows]
    return rows


def test_example2_fine_reference_matches_golden_bit_for_bit(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    argv = [*golden["argv"], "--seed", "2", "--outdir", str(tmp_path)]
    assert argv[:5] == ["example2", "--h-ref-exp", "20", "--max-exp", "15"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    expected = golden["seeds"]["2"]
    for name in ("errors.csv", "orders.csv"):
        assert records_without_timing(tmp_path / name) == expected[name], name
