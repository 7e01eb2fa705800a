"""Tests of the benchmark itself (not of randquad).

    python3 -m pytest perfbench/tests -q

They run each workload at a tiny size through the same worker processes
as a real run, so they take a few tens of seconds.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import golden  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, METHODS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

TINY_ARGV = {
    "ex1_mc1000": ("example1", "-M", "3", "--gammas", "1.5", "--min-exp", "3", "--max-exp", "5"),
    "ex2_ref20": ("example2", "--h-ref-exp", "8", "--max-exp", "6"),
    "sobolev_1024": ("sobolev", "--sigma", "1.2", "--cells", "16"),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], name=f"tiny_{name}", argv=TINY_ARGV[name])


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def out_dir(tmp_path):
    return tmp_path


def measure(workload, out_dir, trace, golden_data=None, seed=DEFAULT_SEED):
    runner = run.Runner(ROOT, workload, seed, 1, out_dir)
    try:
        return run.measure(runner, trace, golden_data)
    finally:
        runner.close()


def records_of(workload, out_dir):
    import randquad.cli
    from worker import run_pass

    return run_pass(randquad.cli, workload, DEFAULT_SEED, str(out_dir)).records


class TestGoldenComparison:
    def test_one_ulp_is_counted(self):
        x = 0.1
        assert golden.field_ulps(repr(x), repr(math.nextafter(x, 1.0))) == 1.0
        assert golden.field_ulps(repr(-x), repr(math.nextafter(-x, -1.0))) == 1.0
        assert golden.field_ulps("0.0", "-0.0") == 0.0

    def test_label_or_shape_change_is_infinite(self):
        ref = {"orders.csv": [["gamma", "rule"], ["1.5", "CTQ"]]}
        assert golden.drift_ulps({"orders.csv": [["gamma", "rule"], ["1.5", "RTQ"]]}, ref) == math.inf
        assert golden.drift_ulps({"orders.csv": [["gamma", "rule"]]}, ref) == math.inf

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_golden_covers_default_and_held_out_seeds(self, name):
        seeds = golden.load(name)["seeds"]
        assert {str(DEFAULT_SEED), str(HELD_OUT_SEED)} <= set(seeds)

    def test_mask_keeps_only_seed_independent_fields(self):
        data = golden.load("ex1_mc1000")
        reference, mask, exact = golden.reference_for(data, 10**6)
        assert not exact
        errors_mask = mask["errors.csv"]
        header, rows = reference["errors.csv"][0], reference["errors.csv"][1:]
        ctq_rows = [m for m, row in zip(errors_mask[1:], rows) if row[header.index("rule")] == "CTQ"]
        rtq_rows = [m for m, row in zip(errors_mask[1:], rows) if row[header.index("rule")] == "RTQ"]
        assert ctq_rows and all(all(m) for m in ctq_rows)
        assert all(not m[header.index("error")] for m in rtq_rows)

    def test_perturbed_golden_value_is_a_failed_pass(self, out_dir):
        workload = tiny("ex1_mc1000")
        records = records_of(workload, out_dir)
        perturbed = copy.deepcopy(records)
        row = perturbed["orders.csv"][1]
        row[3] = repr(math.nextafter(float(row[3]), math.inf))
        data = {"seeds": {str(DEFAULT_SEED): perturbed}}
        report = measure(workload, out_dir, trace=False, golden_data=data)
        assert report["attempted"] >= run.MIN_WARM_PASSES
        assert report["failed"] == report["attempted"]
        assert report["golden_drift_ulps"] == 1.0

        clean = measure(workload, out_dir, trace=False, golden_data={"seeds": {str(DEFAULT_SEED): records}})
        assert clean["failed"] == 0
        assert clean["golden_drift_ulps"] == 0.0

    def test_disagreeing_pass_fails(self):
        ok = {"rc": 0, "drift_ulps": None, "digest": "a"}
        odd = dict(ok, digest="b")
        attempted, failed, _ = run.judge_passes([{"passes": [ok, ok, odd]}, None])
        assert (attempted, failed) == (4, 2)


class TestTracer:
    def test_restores_every_wrapped_function(self):
        import randquad

        tracer = Tracer(randquad)
        owners = [randquad, *tracer.modules.values()]
        before = {m.__name__: dict(vars(m)) for m in owners}
        methods = {(layer, cls, name): getattr(tracer.modules[layer], cls).__dict__[name] for layer, cls, name in METHODS}
        tracer.install()
        assert tracer.modules["quadrature"].compensated_sum is not before["randquad.quadrature"]["compensated_sum"]
        assert tracer.modules["cli"].run_example1 is not before["randquad.cli"]["run_example1"]
        assert randquad.run_example1 is tracer.modules["experiments"].run_example1
        tracer.restore()
        for module in owners:
            changed = [k for k, v in before[module.__name__].items() if vars(module).get(k) is not v]
            assert changed == [], module.__name__
        for (layer, cls, name), fn in methods.items():
            assert getattr(tracer.modules[layer], cls).__dict__[name] is fn

    def test_self_times_add_up_and_counts_repeat(self, out_dir):
        import randquad
        import randquad.cli
        from worker import run_pass

        tracer = Tracer(randquad)
        workload = tiny("ex1_mc1000")
        first = run_pass(randquad.cli, workload, DEFAULT_SEED, str(out_dir), tracer)
        second = run_pass(randquad.cli, workload, DEFAULT_SEED, str(out_dir), tracer)
        for p in (first, second):
            s = p.summary
            assert sum(s["layer_self_ns"].values()) + s["unattributed_ns"] == s["wall_ns"]
            assert s["layer_calls"]["cli"] == 1
        assert first.summary["counts"] == second.summary["counts"]
        assert first.summary["layer_calls"] == second.summary["layer_calls"]
        # -M 3, one gamma, N = 8, 16, 32: (5 ctq + 3 mc + 5 rtq + 5 pathwise) sums per rung
        assert first.summary["counts"]["summation.elements"] == 18 * (8 + 16 + 32)
        assert first.records == records_of(workload, out_dir)


class TestWorkloads:
    def test_benchmark_json_matches_the_runner(self):
        spec = benchmark_spec()
        assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        layer_metrics = {m["name"] for m in spec["per_layer"]}
        assert {f"{layer}.{k}" for layer in LAYERS for k in ("calls", "self_s", "share")} <= layer_metrics

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_tiny_workload_yields_every_metric(self, name, out_dir):
        spec = benchmark_spec()
        workload = tiny(name)
        report = measure(workload, out_dir, trace=False)
        assert report["failed"] == 0
        assert set(report["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert all(v > 0 for v in report["metrics"].values())

        traced = measure(workload, out_dir, trace=True)
        assert traced["failed"] == 0
        assert traced["problems"] == []
        assert traced["missing_boundaries"] == []
        assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
        m = traced["metrics"]
        total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.unattributed_s"]
        assert total == pytest.approx(m["trace.traced_wall_s"], abs=1e-6)
        if name == "sobolev_1024":
            assert m["summation.elements"] == 0 and m["random_sources.streams"] == 0
        else:
            assert m["summation.elements"] > 0 and m["random_sources.streams"] > 0

    def test_refuses_to_run_without_sources(self, tmp_path):
        import shutil
        import subprocess

        shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ex1_mc1000", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
