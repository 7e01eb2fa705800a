"""Golden outputs: reading a pass's outputs, comparing them in ulps, regenerating.

A pass's outputs are a dict of *records*: for each output file, its rows as
lists of string fields.  CSV files drop the measured ``wall_time_s``
column; printed output is split into whitespace/comma-separated tokens.
Two fields match when their strings are equal; otherwise both must parse as
floats and their distance is counted in ulps (units in the last place).

The golden file of a workload holds the records of every seed in
``GOLDEN_SEEDS``.  A run on one of those seeds is compared field by field.
A run on any other seed is compared only on the fields that are equal for
every committed seed (the seed-independent ones, such as the deterministic
rule's rows and the step/size columns); the rest is checked by requiring
every pass of the run to produce identical outputs.

Regenerate the golden files (only in a change that edits the benchmark,
for example one that changes the random draws on purpose)::

    python3 perfbench/golden.py            # every workload
    python3 perfbench/golden.py ex2_ref20  # one workload
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import re
import struct
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SEEDS = tuple(range(16))
# Outputs must stay bit-identical: a faster path counts only if the CSV
# outputs are unchanged.
ULP_TOLERANCE = 0
_TIMING_COLUMN = "wall_time_s"
_TOKEN_SPLIT = re.compile(r"[\s,]+")


def read_outputs(workload: Workload, outdir: str, stdout: str) -> dict[str, list[list[str]]]:
    """The records of one pass: its output files minus the timing column."""
    records = {}
    for name in workload.outputs:
        if name == "stdout":
            records[name] = [_TOKEN_SPLIT.split(line.strip()) for line in stdout.splitlines() if line.strip()]
            continue
        with open(os.path.join(outdir, name), newline="") as fh:
            rows = list(csv.reader(fh))
        if rows and _TIMING_COLUMN in rows[0]:
            drop = rows[0].index(_TIMING_COLUMN)
            rows = [[cell for i, cell in enumerate(row) if i != drop] for row in rows]
        records[name] = rows
    return records


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _ordinal(x: float) -> int:
    """Position of x on the ordered line of doubles (adjacent doubles differ by 1)."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def field_ulps(a: str, b: str) -> float:
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return 0.0 if (x == y or (math.isnan(x) and math.isnan(y))) else math.inf
    return float(abs(_ordinal(x) - _ordinal(y)))


def drift_ulps(records, reference, mask=None) -> float:
    """Largest field distance in ulps; inf when the shapes or labels differ.

    ``mask`` has the shape of ``reference`` and selects the fields compared.
    """
    worst = 0.0
    if set(records) != set(reference):
        return math.inf
    for name, ref_rows in reference.items():
        rows = records[name]
        if len(rows) != len(ref_rows):
            return math.inf
        for r, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            if len(row) != len(ref_row):
                return math.inf
            for c, (a, b) in enumerate(zip(row, ref_row)):
                if mask is None or mask[name][r][c]:
                    worst = max(worst, field_ulps(a, b))
    return worst


def golden_path(workload_name: str) -> Path:
    return GOLDEN_DIR / f"{workload_name}.json"


def load(workload_name: str) -> dict:
    with open(golden_path(workload_name)) as fh:
        return json.load(fh)


def reference_for(golden: dict, seed: int):
    """(reference records, mask or None, whether the seed has its own golden)."""
    seeds = golden["seeds"]
    if str(seed) in seeds:
        return seeds[str(seed)], None, True
    base = seeds[str(DEFAULT_SEED)]
    mask = {
        name: [
            [all(s[name][r][c] == cell for s in seeds.values()) for c, cell in enumerate(row)]
            for r, row in enumerate(rows)
        ]
        for name, rows in base.items()
    }
    return base, mask, False


def regenerate(workload: Workload, tmp_root: str) -> dict:
    import numpy

    import randquad.cli
    from worker import run_pass

    seeds = {}
    for seed in GOLDEN_SEEDS:
        result = run_pass(randquad.cli, workload, seed, tmp_root)
        if result.rc != 0:
            raise SystemExit(f"{workload.name} seed {seed}: the CLI exited with {result.rc}")
        seeds[str(seed)] = result.records
    return {
        "workload": workload.name,
        "argv": list(workload.argv),
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "seeds": seeds,
    }


def _dumps(data: dict) -> str:
    """JSON with one output row per line, so golden changes diff readably."""
    head = {k: v for k, v in data.items() if k != "seeds"}
    lines = [json.dumps(head)[:-1] + ', "seeds": {']
    for i, (seed, records) in enumerate(data["seeds"].items()):
        lines.append(f"{json.dumps(seed)}: {{")
        for j, (name, rows) in enumerate(records.items()):
            lines.append(f"{json.dumps(name)}: [")
            lines.extend(json.dumps(row) + ("," if k < len(rows) - 1 else "") for k, row in enumerate(rows))
            lines.append("]" + ("," if j < len(records) - 1 else ""))
        lines.append("}" + ("," if i < len(data["seeds"]) - 1 else ""))
    lines.append("}}")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    import tempfile

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    names = argv or list(WORKLOADS)
    out_root = root / ".perfbench-out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        for name in names:
            data = regenerate(WORKLOADS[name], tmp)
            golden_path(name).write_text(_dumps(data))
            print(f"wrote {golden_path(name).relative_to(root)} ({len(data['seeds'])} seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
