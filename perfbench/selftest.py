"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Runs every workload for one second, untraced and traced, and checks that
the result line has exactly the contract's keys, that every metric named
in ``BENCHMARK.json`` is present with its unit, and that no request or
check failed.  A second test removes an entry point from the traced run
and checks that its layer reports zero calls instead of crashing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, expected: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    metrics = result["metrics"]
    for metric in expected:
        assert metric["name"] in metrics, metric["name"]
        assert metrics[metric["name"]]["unit"] == metric["unit"], metric
    assert set(metrics) == {m["name"] for m in expected}


def test_every_metric_present_and_no_errors() -> None:
    for workload in SPEC["workloads"]:
        check(run(workload["name"], 0), SPEC["end_to_end"])
        check(run(workload["name"], 1), SPEC["per_layer"])


def test_missing_entry_point_reports_zero_calls() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers

    saved = layers.ENTRY_POINTS
    layers.ENTRY_POINTS = saved + (
        ("runtime.folded", "repro.runtime.launcher", "no_such_entry_point"),
        ("runtime.folded", "repro.no_such_module", "anything"),
    )
    tracer = layers.LayerTracer()
    try:
        tracer.install()
        from repro.apps import ALL_APPS
        from repro.runtime.session import GpuSession

        GpuSession().compile(ALL_APPS["sumRows"].build(), R=64, C=64)
    finally:
        tracer.uninstall()
        layers.ENTRY_POINTS = saved
    assert "repro.runtime.launcher.no_such_entry_point" in tracer.missing
    assert "repro.no_such_module.anything" in tracer.missing
    assert tracer.calls.get("runtime.folded", 0) == 0
    assert tracer.calls["analysis.search"] >= 1


if __name__ == "__main__":
    test_missing_entry_point_reports_zero_calls()
    test_every_metric_present_and_no_errors()
    print("perfbench self-test passed")
