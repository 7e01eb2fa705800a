"""Runs the passes of one workload in a fresh process and writes their results.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/worker.py SPEC.json RESULT.json

The spec names the workload, seed, time budget, minimum pass counts, the
golden reference and whether to trace.  The process imports randquad once,
then runs passes back to back (a closed loop with one client): the first
pass is the cold one, every later pass is warm.  With tracing, warm passes
alternate untraced and traced, so the tracing overhead is measured in the
same process.  Every pass goes through the public entry point
``randquad.cli.main(argv)`` and is checked against the golden.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import golden
from tracer import LAYERS, Tracer
from workloads import Workload

MIN_TRACED_PASSES = 3


@dataclass
class PassResult:
    wall_ns: int
    rc: int
    records: dict | None = None
    files_written: int = 0
    bytes_written: int = 0
    traced: bool = False
    summary: dict | None = field(default=None, repr=False)
    spans: list | None = field(default=None, repr=False)


def run_pass(cli, workload: Workload, seed: int, tmp_root: str, tracer=None) -> PassResult:
    """One CLI invocation of ``workload``; outputs go to a fresh temporary directory."""
    outdir = tempfile.mkdtemp(dir=tmp_root)
    argv = [*workload.argv, "--seed", str(seed)]
    if workload.writes_files:
        argv += ["--outdir", outdir]
    stdout = io.StringIO()
    # Collect the previous pass's garbage outside the timed region, so that
    # every pass starts from the same heap state.
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        wall_ns = time.perf_counter_ns() - start
    finally:
        if tracer is not None:
            tracer.restore()
    result = PassResult(wall_ns=wall_ns, rc=rc, traced=tracer is not None)
    if rc == 0:
        try:
            result.records = golden.read_outputs(workload, outdir, stdout.getvalue())
        except (OSError, ValueError) as exc:
            print(f"perfbench: unreadable outputs: {exc}", file=sys.stderr)
            result.rc = -1
    for entry in os.scandir(outdir):
        result.files_written += 1
        result.bytes_written += entry.stat().st_size
    shutil.rmtree(outdir)
    if tracer is not None:
        result.summary = tracer.summary(wall_ns)
        result.spans = list(tracer.spans)
    return result


def _layer_metrics(workload: Workload, traced: list[PassResult], untraced_ns: list[int], tracer):
    """Per-layer metrics of the median traced pass, that pass, the problems found
    and the expected boundaries that were never called."""
    problems = []
    counts = [dict(p.summary["counts"], **{f"{k}.calls": v for k, v in p.summary["layer_calls"].items()}) for p in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("counts differ between traced passes")
    rep = sorted(traced, key=lambda p: p.wall_ns)[(len(traced) - 1) // 2]
    s = rep.summary
    wall = s["wall_ns"]
    if sum(s["layer_self_ns"].values()) + s["unattributed_ns"] != wall:
        problems.append("layer self times and unattributed time do not add up to the traced wall time")
    c = s["counts"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = s["layer_calls"][layer]
        metrics[f"{layer}.self_s"] = s["layer_self_ns"][layer] / 1e9
        metrics[f"{layer}.share"] = s["layer_self_ns"][layer] / wall
    metrics.update(c)
    metrics["summation.ns_per_element"] = (
        s["layer_self_ns"]["summation"] / c["summation.elements"] if c["summation.elements"] else 0.0
    )
    metrics["random_sources.us_per_stream"] = (
        s["layer_self_ns"]["random_sources"] / 1e3 / c["random_sources.streams"] if c["random_sources.streams"] else 0.0
    )
    metrics["experiments.fit_s"] = s["boundary_inclusive_ns"].get("experiments.fit_order", 0) / 1e9
    metrics["cli.files_written"] = rep.files_written
    metrics["cli.bytes_written"] = rep.bytes_written
    missing = sorted(set(tracer.not_found) | {b for b in workload.boundaries if b not in s["boundary_calls"]})
    metrics["trace.traced_wall_s"] = wall / 1e9
    metrics["trace.overhead_s"] = (wall - statistics.median(untraced_ns)) / 1e9
    metrics["trace.unattributed_s"] = s["unattributed_ns"] / 1e9
    metrics["trace.missing_boundaries"] = len(missing)
    return metrics, rep, problems, missing


def _write_spans(path: str, boundaries: list[str], spans: list) -> None:
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"boundaries": boundaries, "fields": ["parent", "boundary", "start_ns", "end_ns"]}) + "\n")
        base = spans[0][2] if spans else 0
        for parent, bid, start, end in spans:
            fh.write(f"[{parent},{bid},{start - base},{end - base}]\n")


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    started = time.monotonic()
    sys.path.insert(0, spec["src"])
    import numpy

    import randquad
    import randquad.cli as cli

    workload = Workload(**spec["workload"])
    seed = spec["seed"]
    deadline = started + spec["budget_s"]
    reference, mask = spec["reference"], spec["mask"]

    tracer = Tracer(randquad) if spec["trace"] else None

    passes = [run_pass(cli, workload, seed, spec["tmp"])]
    if tracer is None:
        while len(passes) - 1 < spec["min_warm"] or time.monotonic() < deadline:
            passes.append(run_pass(cli, workload, seed, spec["tmp"]))
    else:
        traced = 0
        while traced < MIN_TRACED_PASSES or time.monotonic() < deadline:
            passes.append(run_pass(cli, workload, seed, spec["tmp"]))
            passes.append(run_pass(cli, workload, seed, spec["tmp"], tracer))
            traced += 1

    out = {
        "passes": [
            {
                "wall_s": p.wall_ns / 1e9,
                "rc": p.rc,
                "traced": p.traced,
                "drift_ulps": None if p.records is None or reference is None else golden.drift_ulps(p.records, reference, mask),
                "digest": None if p.records is None else golden.digest(p.records),
                "files_written": p.files_written,
                "bytes_written": p.bytes_written,
            }
            for p in passes
        ],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        traced_passes = [p for p in passes if p.traced]
        untraced_ns = [p.wall_ns for p in passes[1:] if not p.traced]
        metrics, rep, problems, missing = _layer_metrics(workload, traced_passes, untraced_ns, tracer)
        out["trace"] = {"metrics": metrics, "problems": problems, "missing_boundaries": missing}
        if spec["spans_path"]:
            _write_spans(spec["spans_path"], tracer.boundaries, rep.spans)
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
