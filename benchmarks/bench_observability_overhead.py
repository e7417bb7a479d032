"""Observability overhead benchmark: disabled backends must be ~free.

The whole pipeline is permanently instrumented — spans around every
stage, counters at every cache/search/cost decision point.  That is only
acceptable if the *disabled* backends (the default) cost nothing
measurable.  This benchmark asserts the zero-overhead claim two ways:

* **estimated overhead** — microbenchmark the no-op span and counter
  calls, count how many instrumentation points one compile actually
  crosses (by running the same compile with recording backends), and
  assert ``calls x per-call cost < 5%`` of the disabled compile's wall
  time;
* **measured comparison** — record disabled vs capture-enabled compile
  wall times as data rows, and assert the enabled path (tracing,
  metrics and eager provenance) stays under
  :data:`MAX_CAPTURE_RATIO` times the disabled one.  Provenance reads
  its ranking off the compile's own search, so turning capture on adds
  recording, not a second search.

Rows are written to ``BENCH_observability_overhead.json`` at the repo
root (same one-row-per-measurement layout as the other ``BENCH_*``
artifacts).  Run under pytest
(``pytest benchmarks/bench_observability_overhead.py -s``) or directly
(``PYTHONPATH=src python benchmarks/bench_observability_overhead.py``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

from repro.analysis import clear_caches
from repro.ir import Builder, F64
from repro.observability import capture, get_metrics, get_tracer
from repro.runtime.session import GpuSession

_OUT = Path(__file__).resolve().parents[1] / "BENCH_observability_overhead.json"

#: The acceptance bar: disabled observability adds less than this
#: fraction of compile wall time.
MAX_DISABLED_OVERHEAD = 0.05

#: The enabled-mode bar: a compile under ``capture()`` takes less than
#: this many times the disabled compile's wall time.
MAX_CAPTURE_RATIO = 1.5

_SIZES = dict(R=1024, C=1024)


def _make_sum_rows():
    b = Builder("sumRows")
    m = b.matrix("m", F64, rows="R", cols="C")
    return b.build(m.map_rows(lambda row: row.reduce("+")))


def _compile_once(program) -> None:
    clear_caches()
    compiled = GpuSession().compile(program, **_SIZES)
    compiled.estimate_cost()


def _time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _null_call_cost_us() -> Dict[str, float]:
    """Per-call cost of the disabled instrumentation primitives."""
    tracer = get_tracer()
    metrics = get_metrics()
    assert not tracer.enabled and not metrics.enabled
    n = 200_000

    start = time.perf_counter()
    for _ in range(n):
        with tracer.span("bench", key=1) as span:
            span.set(value=2)
    span_us = (time.perf_counter() - start) / n * 1e6

    counter = metrics.counter("bench")
    start = time.perf_counter()
    for _ in range(n):
        counter.inc()
    counter_us = (time.perf_counter() - start) / n * 1e6
    return {"span_us": span_us, "counter_us": counter_us}


def _instrumentation_calls(program) -> Dict[str, int]:
    """How many spans/metric ops one compile actually crosses."""
    with capture() as obs:
        _compile_once(program)
    snap = obs.metrics.to_dict()
    metric_ops = sum(
        1 for _ in snap["counters"]
    ) + sum(h["count"] for h in snap["histograms"].values())
    return {
        "spans": len(obs.tracer.events()),
        "metric_ops": metric_ops,
    }


def run_overhead() -> List[Dict]:
    program = _make_sum_rows()
    _compile_once(program)  # warm imports and code paths

    disabled_ms = _time_best(lambda: _compile_once(program), repeats=5)

    def _traced():
        with capture():
            _compile_once(program)

    enabled_ms = _time_best(_traced, repeats=5)

    null_costs = _null_call_cost_us()
    calls = _instrumentation_calls(program)
    estimated_overhead_ms = (
        calls["spans"] * null_costs["span_us"]
        + calls["metric_ops"] * null_costs["counter_us"]
    ) / 1e3
    ratio = estimated_overhead_ms / disabled_ms

    return [
        {"mode": "disabled", "wall_ms": disabled_ms},
        {
            "mode": "capture",
            "wall_ms": enabled_ms,
            "ratio": enabled_ms / disabled_ms,
            "ceiling": MAX_CAPTURE_RATIO,
        },
        {
            "mode": "disabled-estimate",
            "null_span_us": null_costs["span_us"],
            "null_counter_us": null_costs["counter_us"],
            "spans_per_compile": calls["spans"],
            "metric_ops_per_compile": calls["metric_ops"],
            "estimated_overhead_ms": estimated_overhead_ms,
            "overhead_ratio": ratio,
            "ceiling": MAX_DISABLED_OVERHEAD,
        },
    ]


def _fleet_workload(n_requests: int = 8):
    from repro.service import CompileRequest, FleetConfig, local_fleet

    def run() -> None:
        clear_caches()
        fleet = local_fleet(
            2, None, fleet_config=FleetConfig(lru_capacity=0), workers=2
        )
        try:
            tickets = fleet.submit_many([
                CompileRequest(
                    app="sumRows", sizes={"R": 64 + 32 * i, "C": 32}
                )
                for i in range(n_requests)
            ])
            outcomes = [t.wait(timeout=300) for t in tickets]
            assert all(o.ok for o in outcomes)
        finally:
            fleet.close()

    return run


def run_fleet_overhead() -> List[Dict]:
    """The same estimate for the fleet path: router + service spans,
    request histograms, trace-id plumbing.  The disabled fleet path must
    stay under the same <5% ceiling as the bare compile path."""
    workload = _fleet_workload()
    workload()  # warm imports, memo code paths

    disabled_ms = _time_best(workload, repeats=3)

    def _traced():
        with capture():
            workload()

    enabled_ms = _time_best(_traced, repeats=3)

    with capture() as obs:
        workload()
    snap = obs.metrics.to_dict()
    calls = {
        "spans": len(obs.tracer.events()),
        "metric_ops": sum(1 for _ in snap["counters"]) + sum(
            h["count"] for h in snap["histograms"].values()
        ),
    }
    null_costs = _null_call_cost_us()
    estimated_overhead_ms = (
        calls["spans"] * null_costs["span_us"]
        + calls["metric_ops"] * null_costs["counter_us"]
    ) / 1e3
    ratio = estimated_overhead_ms / disabled_ms

    return [
        {"mode": "fleet-disabled", "wall_ms": disabled_ms},
        {"mode": "fleet-capture", "wall_ms": enabled_ms},
        {
            "mode": "fleet-disabled-estimate",
            "null_span_us": null_costs["span_us"],
            "null_counter_us": null_costs["counter_us"],
            "spans_per_workload": calls["spans"],
            "metric_ops_per_workload": calls["metric_ops"],
            "estimated_overhead_ms": estimated_overhead_ms,
            "overhead_ratio": ratio,
            "ceiling": MAX_DISABLED_OVERHEAD,
        },
    ]


def _write(rows: List[Dict], key: str = "rows") -> None:
    # The compile-path and fleet-path tests each own one section of the
    # artifact; merge so running either alone never drops the other.
    document: Dict = {}
    if _OUT.exists():
        try:
            document = json.loads(_OUT.read_text())
        except (OSError, ValueError):
            document = {}
    document[key] = rows
    _OUT.write_text(json.dumps(document, indent=2) + "\n")


def test_bench_observability_overhead():
    rows = run_overhead()
    _write(rows)

    by_mode = {r["mode"]: r for r in rows}
    estimate = by_mode["disabled-estimate"]
    print()
    print(f"disabled compile: {by_mode['disabled']['wall_ms']:.3f} ms")
    capture_row = by_mode["capture"]
    print(
        f"capture compile:  {capture_row['wall_ms']:.3f} ms "
        f"({capture_row['ratio']:.2f}x disabled, "
        f"ceiling {MAX_CAPTURE_RATIO:.2f}x)"
    )
    print(
        f"no-op span {estimate['null_span_us']:.3f} us x "
        f"{estimate['spans_per_compile']} spans + "
        f"no-op counter {estimate['null_counter_us']:.3f} us x "
        f"{estimate['metric_ops_per_compile']} ops"
        f" = {estimate['estimated_overhead_ms']:.4f} ms"
    )
    print(
        f"disabled overhead: {estimate['overhead_ratio']:.2%} of compile "
        f"(ceiling {MAX_DISABLED_OVERHEAD:.0%})"
    )

    assert estimate["overhead_ratio"] < MAX_DISABLED_OVERHEAD
    assert capture_row["ratio"] < MAX_CAPTURE_RATIO


def test_bench_fleet_observability_overhead():
    rows = run_fleet_overhead()
    _write(rows, key="fleet_rows")

    by_mode = {r["mode"]: r for r in rows}
    estimate = by_mode["fleet-disabled-estimate"]
    print()
    print(
        f"fleet disabled workload: "
        f"{by_mode['fleet-disabled']['wall_ms']:.3f} ms"
    )
    print(
        f"fleet capture workload:  "
        f"{by_mode['fleet-capture']['wall_ms']:.3f} ms"
    )
    print(
        f"fleet-path disabled overhead: "
        f"{estimate['overhead_ratio']:.2%} of workload "
        f"(ceiling {MAX_DISABLED_OVERHEAD:.0%})"
    )

    assert estimate["overhead_ratio"] < MAX_DISABLED_OVERHEAD


if __name__ == "__main__":
    test_bench_observability_overhead()
    test_bench_fleet_observability_overhead()
    print(f"wrote {_OUT}")
