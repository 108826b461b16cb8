"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert sorted(run.TRACE_ITEMS) == sorted(workloads.WORKLOADS)


def test_smoke_run_emits_every_end_to_end_metric():
    result = result_of(bench("--workload", "lagrangian-qq", "--seed", "1",
                             "--seconds", "0.2", "--trace", "0", "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_trace_emits_every_per_layer_metric():
    result = result_of(bench("--workload", "lagrangian-qq", "--seed", "1",
                             "--trace", "1", "--smoke"))
    assert result["correct"] and result["attempted"] == 2
    metrics = result["metrics"]
    assert list(metrics) == [n for n, _ in run.PER_LAYER]
    assert metrics["linalg.rref.calls.6x12"]["value"] > 0
    assert metrics["fields.rationals.ops"]["value"] > 0


def test_without_sources_the_runner_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "lagrangian-qq", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_item_matches_its_pinned_digest(name):
    w = workloads.WORKLOADS[name]
    reference = worker.reference_digests(name, 1)
    shared, items = w.make_inputs(1, 1)
    ctx = w.construct(shared)
    try:
        runner = worker.ItemRunner(w, ctx, items, reference)
        runner.run(0)
    finally:
        worker.cleanup(w, ctx)
    assert runner.failed == 0, runner.errors
    assert runner.digests == reference[:1]


def test_digest_gate_catches_a_corrupted_output(monkeypatch):
    w = workloads.LagrangianQQ
    shared, items = w.make_inputs(1, 1)
    ctx = w.construct(shared)
    original = w.run_item

    def corrupted(ctx, item):
        out = original(ctx, item)
        out["dual"]["sign"] = -out["dual"]["sign"]
        return out

    monkeypatch.setattr(w, "run_item", staticmethod(corrupted))
    runner = worker.ItemRunner(w, ctx, items, worker.reference_digests(w.name, 1))
    runner.run(0)
    assert runner.failed == 1
    assert "digest mismatch" in runner.errors[0]


def test_tracer_patches_imported_names_and_restores_them():
    from galecubics import gale, lagrangian, linalg, selftests
    eq = gale.NonSyzygeticEquation.random(workloads.QQ, workloads.random.Random(3))
    tracer = Tracer()
    tracer.install()
    try:
        assert gale.gale_dual is lagrangian.gale_dual is selftests.gale_dual
        assert hasattr(gale.gale_dual, "__wrapped__")
        assert hasattr(linalg.Matrix.rref, "__wrapped__")
        tracer.run_item(0, eq.cubic_polynomial)   # det_cofactor over a PolyRing
        tracer.run_item(1, lagrangian.lagrangian_from_gale, eq, 1)
    finally:
        tracer.uninstall()
    assert not hasattr(gale.gale_dual, "__wrapped__")
    assert not hasattr(lagrangian.gale_dual, "__wrapped__")
    assert not hasattr(linalg.Matrix.rref, "__wrapped__")
    report = tracer.report()
    assert "linalg.det" not in report["calls"]
    assert report["calls"]["gale.gale_dual"] == 1
    assert report["calls"]["item"] == 2
    # self time excludes children: the item spans cover everything below them
    total = sum(report["self_s"].values())
    items = report["total_s"]["item"]
    assert abs(total - items) < 1e-6


def test_tail_is_the_highest_percentile_with_ten_items_beyond():
    assert run.tail([5.0, 1.0, 3.0]) == (5.0, 100.0)
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def test_sampler_window_nets_out_readings_and_borrows_neighbours():
    sampler = calibrate.Sampler()
    sampler.at = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    sampler.took = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    spent, mean = sampler.window(2.5, 4.5)
    assert spent == pytest.approx(0.7)           # the readings at 3 and 4
    assert mean == pytest.approx(0.35)           # 2, 3, 4, 5: the nearest four
    spent, mean = sampler.window(0.5, 6.5)
    assert spent == pytest.approx(2.1) and mean == pytest.approx(0.35)


def test_sampler_reads_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.took) >= 3 and all(t > 0 for t in sampler.took)
