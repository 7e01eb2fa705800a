"""randquad benchmark: runs one workload (or all) and prints its metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports randquad from ``src/``.
Each workload is one ``randquad`` CLI invocation (see ``workloads.py``),
run in fresh single-threaded processes (BLAS/OpenMP thread counts set to 1)
as a closed loop with one client: a pass starts when the previous one ends.
The seed is handed to the program as ``--seed``.

``--trace 0`` measures, with tracing off:

- ``setup_s``: median time to import randquad in a fresh process (16
  imports, spread over the run between the workload processes);
- ``first_pass_s``: median cold pass (the first pass of a fresh process);
- ``wall_s``: median warm pass;
- ``cells_per_s``: quadrature cells of one pass over ``wall_s``;
- ``peak_rss_mib``: median ``ru_maxrss`` of the workload processes.

It also prints, as a diagnostic, ``wall_s_tail``: the slowest warm pass
that still has ten passes beyond it, with its percentile and the pass
count.  A run holds only about a dozen warm passes, so that pass is at or
below the median (with 11 it is the fastest) and it is the least steady
figure of the run; it is not a metric of ``BENCHMARK.json``.

``--trace 1`` runs one process whose warm passes alternate untraced and
traced (see ``tracer.py``) and prints the per-layer metrics of the median
traced pass.

Every pass is compared with the committed golden outputs (``golden.py``).
A pass that exits non-zero, drifts from the golden by more than the ulp
tolerance, or differs from the other passes of the run is a failed pass.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any pass failed.  Results, machine provenance and (with tracing) the
spans of the median traced pass are written to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import golden
from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# Fresh processes timed for setup_s, spread over the run between the
# workload processes (after one untimed import that warms the bytecode
# cache), so that they see the same machine as the passes.
SETUP_IMPORTS = 16
# wall_s is the median of at least 11 warm passes; the wall_s_tail
# diagnostic needs ten warm passes beyond it.
TAIL_BEYOND = 10
MIN_WARM_PASSES = TAIL_BEYOND + 1
# Every run must end well within the 180 s a run is allowed.
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "first_pass_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "share": "ratio",
    "elements": "count",
    "ns_per_element": "ns",
    "cells": "count",
    "evaluations": "count",
    "streams": "count",
    "draws": "count_computed",
    "us_per_stream": "us",
    "eval_points": "count",
    "dense_bytes": "B_computed",
    "replications": "count",
    "fit_s": "s",
    "files_written": "count",
    "bytes_written": "B",
    "traced_wall_s": "s",
    "overhead_s": "s",
    "unattributed_s": "s",
    "missing_boundaries": "count",
}


def unit_of(metric: str) -> str:
    return END_TO_END.get(metric) or PER_LAYER_UNITS[metric.rsplit(".", 1)[1]]


class BenchmarkError(Exception):
    """The benchmark cannot run here (as opposed to a failed pass)."""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    return env


def provenance() -> dict:
    info = {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": None,
        "llc": None,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (-1, None)
    for index in cache.glob("index*"):
        try:
            level = int((index / "level").read_text())
            if level > best[0] and (index / "type").read_text().strip() in ("Unified", "Data"):
                best = (level, f"L{level} {(index / 'size').read_text().strip()}")
        except (OSError, ValueError):
            continue
    info["llc"] = best[1]
    return info


class Runner:
    def __init__(self, root: Path, workload: Workload, seed: int, seconds: int, out_dir: Path) -> None:
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.env = child_env(self.src)
        self.started = time.monotonic()
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=out_dir)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def import_times(self, count: int) -> list[float]:
        """Seconds to import randquad in each of ``count`` fresh processes."""
        snippet = "import time; t = time.perf_counter(); import randquad.cli; print(time.perf_counter() - t)"
        samples = []
        for _ in range(count):
            proc = subprocess.run(
                [sys.executable, "-c", snippet], env=self.env, capture_output=True, text=True, timeout=self.remaining()
            )
            if proc.returncode != 0:
                raise BenchmarkError(f"importing randquad failed:\n{proc.stderr}")
            samples.append(float(proc.stdout))
        return samples

    def worker(self, index: int, budget_s: float, min_warm: int, trace: bool, reference, mask) -> dict | None:
        spec = {
            "src": str(self.src),
            "workload": asdict(self.workload),
            "seed": self.seed,
            "budget_s": budget_s,
            "min_warm": min_warm,
            "trace": trace,
            "reference": reference,
            "mask": mask,
            "tmp": self.tmp,
            "spans_path": str(self.out_dir / f"spans-{self.workload.name}-seed{self.seed}.jsonl.gz") if trace else None,
        }
        spec_path = Path(self.tmp) / f"spec-{index}.json"
        result_path = Path(self.tmp) / f"result-{index}.json"
        spec_path.write_text(json.dumps(spec))
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), str(spec_path), str(result_path)],
                env=self.env,
                stdout=subprocess.DEVNULL,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            print(f"perfbench: worker {index} exceeded the time limit and was stopped", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result_path.exists():
            print(f"perfbench: worker {index} exited with {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(result_path.read_text())


def judge_passes(results: list[dict | None]) -> tuple[int, int, float]:
    """Passes attempted, passes failed and the largest golden drift in ulps.

    A pass fails when it exited non-zero, drifted beyond the ulp tolerance,
    or produced outputs that differ from the run's majority.  A worker that
    died counts as one failed pass.
    """
    passes = [p for r in results if r for p in r["passes"]]
    lost = sum(1 for r in results if r is None)
    digests = Counter(p["digest"] for p in passes if p["digest"] is not None)
    majority = digests.most_common(1)[0][0] if digests else None
    failed = lost
    drift = 0.0
    for p in passes:
        if p["drift_ulps"] is not None:
            drift = max(drift, p["drift_ulps"])
        bad_drift = p["drift_ulps"] is not None and p["drift_ulps"] > golden.ULP_TOLERANCE
        if p["rc"] != 0 or bad_drift or p["digest"] != majority:
            failed += 1
    return len(passes) + lost, failed, drift


def tail(values: list[float]) -> tuple[float, float]:
    """The slowest value with TAIL_BEYOND values beyond it, and its percentile."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(runner: Runner, trace: bool, golden_data: dict | None) -> dict:
    """Run the workload's processes and reduce their passes to metrics."""
    if golden_data is None:
        reference, mask, golden_note = None, None, "no golden; agreement between passes only"
    else:
        reference, mask, exact = golden.reference_for(golden_data, runner.seed)
        golden_note = f"golden seed {runner.seed}" if exact else "seed-independent fields of the golden, plus agreement between passes"
    report = {"golden": golden_note, "provenance": provenance()}

    if trace:
        results = [runner.worker(0, runner.seconds, 0, True, reference, mask)]
    else:
        runner.import_times(1)
        setup = []
        start = time.monotonic()
        results = []
        warm = 0
        processes = runner.workload.processes
        for i in range(processes):
            setup += runner.import_times(SETUP_IMPORTS * (i + 1) // processes - len(setup))
            slice_end = start + runner.seconds * (i + 1) / processes
            need = math.ceil(max(0, MIN_WARM_PASSES - warm) / (processes - i))
            result = runner.worker(i, max(0.0, slice_end - time.monotonic()), need, False, reference, mask)
            results.append(result)
            if result:
                warm += len(result["passes"]) - 1
        report["setup_samples_s"] = setup
    attempted, failed, drift = judge_passes(results)
    report.update(attempted=attempted, failed=failed, golden_drift_ulps=drift, results=results)
    live = [r for r in results if r]
    if live:
        report["provenance"].update(numpy=live[0]["numpy"])
    if trace:
        if not live:
            raise BenchmarkError("the traced worker produced no result")
        t = live[0]["trace"]
        report["metrics"] = t["metrics"]
        report["problems"] = t["problems"]
        report["missing_boundaries"] = t["missing_boundaries"]
        return report
    cold = [r["passes"][0]["wall_s"] for r in live]
    warm_s = [p["wall_s"] for r in live for p in r["passes"][1:]]
    if len(warm_s) < MIN_WARM_PASSES:
        raise BenchmarkError(f"only {len(warm_s)} warm passes completed; {MIN_WARM_PASSES} are needed")
    wall = statistics.median(warm_s)
    tail_s, tail_pct = tail(warm_s)
    report["metrics"] = {
        "setup_s": statistics.median(report["setup_samples_s"]),
        "first_pass_s": statistics.median(cold),
        "wall_s": wall,
        "cells_per_s": runner.workload.cells / wall,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in live),
    }
    report["notes"] = {
        "setup_s": f"median of {len(report['setup_samples_s'])} fresh imports",
        "first_pass_s": f"median of {len(cold)} cold passes, one per process",
        "wall_s": f"median of {len(warm_s)} warm passes",
        "cells_per_s": f"{runner.workload.cells} cells per pass",
        "peak_rss_mib": f"median of {len(live)} processes",
    }
    report["diagnostics"] = {"wall_s_tail": tail_s, "wall_s_tail_percentile": tail_pct, "warm_passes": len(warm_s)}
    return report


def print_report(workload: Workload, seed: int, trace: bool, report: dict) -> None:
    print(f"perfbench {workload.name} seed={seed} trace={int(trace)}")
    notes = report.get("notes", {})
    for key, value in report["metrics"].items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<32} {value:>16.6g} {unit_of(key)}{note}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.3g}")
    print(f"  golden_drift_ulps {report['golden_drift_ulps']:g} (tolerance {golden.ULP_TOLERANCE}; {report['golden']})")
    if "diagnostics" in report:
        d = report["diagnostics"]
        print(
            f"  wall_s_tail {d['wall_s_tail']:.6g} s (p{d['wall_s_tail_percentile']:.0f} of {d['warm_passes']} warm passes,"
            f" {TAIL_BEYOND} beyond it; diagnostic)"
        )
    if trace:
        missing = report["missing_boundaries"]
        print(f"  missing boundaries: {', '.join(missing) if missing else 'none'}")
        diffs = {k: (v, report["metrics"].get(k)) for k, v in workload.seed_commit_counts.items() if report["metrics"].get(k) != v}
        print(f"  counts vs the benchmark's first commit: {'equal' if not diffs else diffs}")
        for problem in report["problems"]:
            print(f"  PROBLEM: {problem}")
    print(f"  provenance: {json.dumps(report['provenance'])}")


def run_one(root: Path, workload: Workload, seed: int, seconds: int, trace: bool, out_dir: Path) -> bool:
    try:
        golden_data = golden.load(workload.name)
    except FileNotFoundError:
        golden_data = None
    runner = Runner(root, workload, seed, seconds, out_dir)
    try:
        report = measure(runner, trace, golden_data)
    finally:
        runner.close()
    result_file = out_dir / f"result-{workload.name}-seed{seed}-trace{int(trace)}.json"
    result_file.write_text(json.dumps(report, indent=1))
    print_report(workload, seed, trace, report)
    correct = report["failed"] == 0 and not report.get("problems")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in report["metrics"].items()},
            }
        ),
        flush=True,
    )
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = HERE.parent
    if not (root / "src" / "randquad" / "cli.py").is_file():
        print(f"perfbench: no randquad sources under {root / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            ok = run_one(root, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), out_dir) and ok
        except (BenchmarkError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
