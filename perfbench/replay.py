"""In-process replays of a served stream.

:func:`reference_fingerprints` compiles each distinct request once through
an in-process :class:`~repro.service.service.CompileService` (no store, no
provenance, which the fingerprint leaves out anyway), so every artifact
the server sent can be checked against an independent compile.

:func:`traced_replay` is the per-layer run: it rebuilds the workload's
serving stack in this process exactly as the server configures it
(provenance on, a fresh store, prefill untimed), installs the
:class:`~layers.LayerTracer` and sends the same requests through it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from layers import LayerTracer, layer_names, time_metric, wrapper_overhead_s
from repro.service.store import artifact_fingerprint
from server import FLEET_BACKENDS, FLEET_WORKERS, WORKERS
from workloads import FLEET_LRU_CAPACITY


def request_key(request: Dict[str, Any]) -> str:
    return json.dumps(request, sort_keys=True)


def _identity(outcome) -> Tuple[str, str]:
    """``(digest, artifact fingerprint)`` of one in-process outcome."""
    if not outcome.ok:
        return outcome.digest, f"error: {outcome.error.message}"
    return outcome.digest, artifact_fingerprint(outcome.artifact)


def reference_fingerprints(
    requests: List[Dict[str, Any]]
) -> Dict[str, Tuple[str, str]]:
    """``request key -> (digest, fingerprint)`` from an in-process compile
    of each distinct request."""
    from repro.service.api import CompileRequest
    from repro.service.service import CompileService, ServiceConfig

    distinct = {request_key(r): r for r in requests}
    service = CompileService(ServiceConfig(workers=1, provenance=False))
    try:
        return {
            key: _identity(service.compile(CompileRequest.from_dict(request)))
            for key, request in distinct.items()
        }
    finally:
        service.close(save=False)


@dataclass
class Replay:
    tracer: LayerTracer
    requests: int
    wall_s: float
    response_bytes: int = 0
    #: Decoded outcomes of the traced requests that ran the pipeline.
    misses: List[Dict[str, Any]] = field(default_factory=list)
    #: ``request key -> (digest, fingerprint)`` of every request this
    #: replay compiled or served, prefill included.
    fingerprints: Dict[str, Tuple[str, str]] = field(default_factory=dict)


def _serving_stack(fleet: bool, store: Path):
    from repro.service import FleetConfig, local_fleet
    from repro.service.service import CompileService, ServiceConfig

    if fleet:
        return local_fleet(
            FLEET_BACKENDS,
            str(store),
            fleet_config=FleetConfig(lru_capacity=FLEET_LRU_CAPACITY),
            workers=FLEET_WORKERS,
        )
    return CompileService(ServiceConfig(workers=WORKERS, cache_dir=str(store)))


def traced_replay(
    requests: List[Dict[str, Any]],
    prefill: List[Dict[str, Any]],
    fleet: bool,
    store: Path,
) -> Replay:
    from repro.service.api import CompileRequest

    stack = _serving_stack(fleet, store)
    tracer = LayerTracer()
    fingerprints: Dict[str, Tuple[str, str]] = {}
    misses: List[Dict[str, Any]] = []
    response_bytes = 0
    try:
        for request in prefill:
            outcome = stack.compile(CompileRequest.from_dict(request))
            fingerprints[request_key(request)] = _identity(outcome)
        tracer.install()
        start = time.perf_counter()
        for request in requests:
            # The HTTP handler decodes the body and encodes the reply;
            # encoding is timed here as the handler does it.
            outcome = stack.compile(
                CompileRequest.from_dict(json.loads(json.dumps(request)))
            )
            with tracer.span("service.encode"):
                body = json.dumps(outcome.to_dict()).encode("utf-8")
            response_bytes += len(body)
            if outcome.status == "miss":
                misses.append(outcome.to_dict())
            fingerprints.setdefault(request_key(request), _identity(outcome))
        wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
        stack.close()
    return Replay(tracer, len(requests), wall_s, response_bytes, misses,
                  fingerprints)


def layer_metrics(replay: Replay, e2e_mean_latency_ms: float) -> Dict[str, float]:
    """Per-request layer metrics from a traced replay.

    Times are self times.  ``unattributed_ms`` is the untraced run's mean
    client latency minus the sum of layer times: HTTP, queueing and any
    code outside a wrapped entry point.  ``trace_overhead_frac`` is the
    calibrated cost of the wrappers over the replay's wall time.
    """
    tracer, n = replay.tracer, max(replay.requests, 1)
    metrics: Dict[str, float] = {}
    for layer in layer_names():
        metrics[time_metric(layer)] = tracer.self_s.get(layer, 0.0) * 1e3 / n
    layered_ms = sum(metrics.values())
    metrics["analysis.search_calls"] = tracer.calls.get("analysis.search", 0) / n
    metrics["analysis.candidates_scored"] = (
        tracer.counts.get("analysis.candidates_scored", 0) / n
    )
    metrics["runtime.launch_retune_calls"] = (
        tracer.calls.get("runtime.launch_retune", 0) / n
    )
    metrics["service.store_reads"] = tracer.calls.get("service.store_get", 0) / n
    metrics["service.store_writes"] = tracer.calls.get("service.store_put", 0) / n
    lookups = tracer.counts.get("service.lru_lookups", 0)
    metrics["service.lru_hit_frac"] = (
        tracer.counts.get("service.lru_hits", 0) / lookups if lookups else 0.0
    )
    metrics["service.response_bytes"] = replay.response_bytes / n
    artifact_bytes = cuda_bytes = provenance_bytes = 0
    for outcome in replay.misses:
        artifact = outcome["artifact"]
        # The store writes ``json.dump(indent=2)`` plus a newline.
        artifact_bytes += len(json.dumps(artifact, indent=2)) + 1
        cuda_bytes += len(artifact.get("cuda_source", "").encode("utf-8"))
        if artifact.get("provenance") is not None:
            provenance_bytes += len(json.dumps(artifact["provenance"]))
    metrics["service.artifact_bytes"] = artifact_bytes / n
    metrics["codegen.cuda_bytes"] = cuda_bytes / n
    metrics["observability.provenance_bytes"] = provenance_bytes / n
    metrics["unattributed_ms"] = e2e_mean_latency_ms - layered_ms
    wrapped_calls = sum(tracer.calls.values())
    metrics["trace_overhead_frac"] = (
        wrapper_overhead_s() * wrapped_calls / replay.wall_s
        if replay.wall_s > 0 else 0.0
    )
    return metrics
