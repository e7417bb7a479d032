"""The repository benchmark: the compile service under four workloads.

One run::

    python3 perfbench/run.py --workload cold_apps --seed 1 --seconds 25 --trace 0

starts a fresh ``repro serve`` (or ``repro fleet serve``) subprocess with
a fresh store, drives it with a closed-loop client for ``--seconds``,
checks every reply, and prints each metric by name and unit.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced in-process replay
with ``--trace 1``.  The line before it stamps the run (git SHA, nproc,
Python and NumPy versions, seed, clients, run length, sample counts).

``--workload all`` runs every workload once, each in its own process.
``--repeat K`` runs each selected workload with K consecutive seeds and
prints each metric's median, quartiles and quartile spread against its
bound in ``BENCHMARK.json`` (the steadiness check).

Workloads, metrics and the layer table are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
#: Server set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Requests of a hit stream replayed by the traced run.
HIT_REPLAY_CAP = 1000
#: Width of the time windows a run is cut into; see :func:`load_metrics`.
WINDOW_S = 0.25
#: Runs with fewer requests are measured as one window.
MIN_WINDOWED_SAMPLES = 1000
#: Share of a run's windows, the least disturbed by other tenants of the
#: host, that its metrics are taken over (see :func:`load_metrics`).
QUIET_SHARE = 0.1
#: Distinct requests an untraced run compiles in-process to check the
#: served artifacts against (a seeded sample; the traced run checks all).
VERIFY_SAMPLE = 100


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def stamp(args: argparse.Namespace, clients: int) -> Dict[str, Any]:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "clients": clients,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def percentile(values: List[float], q: float, oversample: int = 16) -> float:
    """Harrell-Davis estimate of the ``q`` quantile of ``values``.

    A Beta-weighted mean of all order statistics: on the few dozen
    samples of a slow workload it moves far less from run to run than a
    single order statistic, and on large samples it equals the ordinary
    quantile.  The Beta weights are integrated numerically on a grid of
    ``oversample`` points per order statistic.
    """
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = (np.arange(n * oversample) + 0.5) / (n * oversample)
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    density = np.exp(log_pdf - log_pdf.max())
    weights = density.reshape(n, oversample).sum(axis=1)
    return float(weights @ ordered / weights.sum())


def load_metrics(
    load, seconds: float
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Throughput, latency and server CPU of the timed run, and how they
    were taken (for the stamp line).

    On the shared 2-core VM this was sized on, another tenant's load
    slowed a run about three times as much as the share of time the
    hypervisor stole from the VM, and that share swung between 0 and 15%
    within minutes.
    So a run with enough requests is cut into windows of ``WINDOW_S``
    (by completion time; the last one also takes the requests that
    finish the block), and the metrics are taken over its quiet windows:
    those whose steal share is no more than the run's lowest
    ``QUIET_SHARE`` of windows have.  On a quiet host that is most of the
    run.  Runs with fewer than ``MIN_WINDOWED_SAMPLES`` requests are
    measured as one window.
    """
    replies, marks = load.replies, load.marks
    if len(replies) < MIN_WINDOWED_SAMPLES:
        marks = [marks[0], marks[-1]]
    windows = len(marks) - 1
    width = seconds / windows
    edges = [k * width for k in range(windows)] + [load.elapsed_s]
    groups: List[List[Any]] = [[] for _ in range(windows)]
    for reply in replies:
        groups[min(int(reply.done_s // width), windows - 1)].append(reply)
    steal = {
        k: (after[1] - before[1]) / (after[2] - before[2])
        for k, (before, after) in enumerate(zip(marks, marks[1:]))
        if after[2] > before[2]
    }
    quiet_max = sorted(steal.values())[int((len(steal) - 1) * QUIET_SHARE)]
    quiet = [k for k in steal if steal[k] <= quiet_max]
    latencies = [r.latency_ms for k in quiet for r in groups[k]]
    p90 = percentile(latencies, 0.9)
    return {
        "req_per_s": len(latencies) / sum(edges[k + 1] - edges[k] for k in quiet),
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p90_ms": p90,
        "server_cpu_ms_per_req": sum(marks[k + 1][0] - marks[k][0] for k in quiet)
        * 1e3 / len(latencies),
    }, {
        "quiet_windows": f"{len(quiet)}/{windows}",
        "quiet_steal_max": quiet_max,
        "host_steal_frac": (marks[-1][1] - marks[0][1])
        / max(marks[-1][2] - marks[0][2], 1),
        "measured_samples": len(latencies),
        "samples_beyond_p90": sum(l > p90 for l in latencies),
    }


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    from checks import reference_mismatches
    from load import compile_many, run_closed_loop
    from replay import (
        layer_metrics, reference_fingerprints, request_key, traced_replay,
    )
    from server import ServerProcess, host_ticks
    from workloads import (
        FLEET_LRU_CAPACITY, WORKLOADS, request_stream, working_set,
    )

    workload = WORKLOADS[args.workload]
    fleet = workload.server == "fleet"
    hits = workload.expect == "hit"
    stream, block = request_stream(workload.name, args.seed)
    prefill = working_set(args.seed) if hits else []
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    errors: List[str] = []
    server: Optional[ServerProcess] = None
    try:
        setups = []
        for attempt in range(SETUPS):
            if server is not None:
                server.stop()
            server = ServerProcess(
                workload.server, SRC, work / f"server{attempt}",
                lru_capacity=FLEET_LRU_CAPACITY,
            )
            t0 = time.perf_counter()
            url = server.start()
            replies = compile_many(url, prefill, workload.clients)
            setups.append(time.perf_counter() - t0)
        # A fresh store must miss on every prefill request.
        errors += [
            f"prefill {r.get('digest', '')[:12]}: status {r.get('status')!r}"
            for r in replies if r.get("status") != "miss"
        ]
        load = run_closed_loop(
            url, stream, workload.clients, args.seconds, workload.expect,
            block, round(args.seconds / WINDOW_S),
            lambda: (server.cpu_s(), *host_ticks()),
        )
        peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    # -- checks outside the timed path ---------------------------------
    served = [stream[r.index] for r in load.replies]
    if args.trace:
        replay = traced_replay(
            served[:HIT_REPLAY_CAP] if hits else served, prefill, fleet,
            work / "replay-store",
        )
        expected = replay.fingerprints
    else:
        distinct = list({request_key(r): r for r in prefill or served}.values())
        sample = random.Random(args.seed).sample(
            distinct, min(VERIFY_SAMPLE, len(distinct))
        )
        expected = reference_fingerprints(sample)
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()  # only once no other run is using it
    for reply in load.replies:
        identity = expected.get(request_key(stream[reply.index]))
        if identity is None or reply.error:
            continue
        if identity != (reply.digest, reply.fingerprint):
            reply.error = (
                "digest or artifact fingerprint differs from the in-process "
                f"compile ({identity[1][:40]})"
            )
    failed = load.failed
    errors += [f"request {r.index}: {r.error}" for r in failed]
    mismatches = reference_mismatches(args.seed)
    errors += mismatches
    from repro.apps import ALL_APPS

    attempted = len(prefill) + len(load.replies) + len(ALL_APPS)
    failures = len(errors)

    latencies = [r.latency_ms for r in load.replies]
    costs = {r.digest: r.cost_us for r in load.replies if not r.error}
    timed, windowing = load_metrics(load, args.seconds)
    e2e = {
        "setup_s": statistics.median(setups),
        **timed,
        "server_peak_rss_mb": peak_rss_mb,
        "modeled_gpu_us_geomean": math.exp(
            statistics.fmean(math.log(c) for c in costs.values())
        ) if costs else math.nan,
    }
    info = {
        **stamp(args, workload.clients),
        "elapsed_s": load.elapsed_s,
        "setups_s": setups,
        "samples": len(load.replies),
        **windowing,
        "distinct_programs": len(costs),
        "error_rate": failures / attempted,
        "errors": errors[:10],
    }
    if args.trace:
        metrics = layer_metrics(replay, statistics.fmean(latencies))
        declared = load_spec()["per_layer"]
        info["replayed"] = replay.requests
        info["missing_entry_points"] = replay.tracer.missing
    else:
        metrics = e2e
        declared = load_spec()["end_to_end"]
    return {
        "info": info,
        "result": {
            "correct": failures == 0,
            "attempted": attempted,
            "failed": failures,
            "metrics": {
                m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in declared
            },
        },
    }


# -- several runs ---------------------------------------------------------


def run_child(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    """One run in a fresh process; returns its result line and prints
    the errors its stamp line lists."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} failed ({proc.returncode}):\n"
            + proc.stdout[-2000:] + proc.stderr[-2000:]
        )
    for error in json.loads(lines[-2]).get("errors", []):
        print(f"  seed {seed}: {error}")
    return json.loads(lines[-1])


def run_many(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    limits = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    summary: Dict[str, Any] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        runs = [
            run_child(name, args.seed + k, args.seconds, args.trace)
            for k in range(args.repeat)
        ]
        attempted += sum(r["attempted"] for r in runs)
        failed += sum(r["failed"] for r in runs)
        correct &= all(r["correct"] for r in runs)
        errors = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        print(f"== {name}: {args.repeat} run(s), seeds {args.seed}.."
              f"{args.seed + args.repeat - 1}, error_rate {errors:.4f}")
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            summary[f"{name}.{metric}"] = {"value": median, "unit": first["unit"]}
            line = f"  {metric:34s} {median:14.4f} {first['unit']:6s}"
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else math.nan
                bound = limits.get(metric)
                verdict = ""
                if bound is not None:
                    verdict = "ok" if spread <= bound / 3 else (
                        "within bound" if spread <= bound else "TOO WIDE")
                line += (f" q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.4f}"
                         + (f" bound {bound:.3f} {verdict}" if bound else "")
                         + "\n      runs: " + " ".join(f"{v:.4g}" for v in values))
            print(line, flush=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="cold_apps, warm_hits, fleet_hits "
                        "or all (default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, with consecutive seeds")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.workload == "all" or args.repeat > 1:
        return run_many(args)
    outcome = run_workload(args)
    for name, metric in outcome["result"]["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(outcome["info"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
