"""Closed-loop load: each client sends its next request only after the
previous reply arrived, as ``repro submit`` and build tools do.

Clients share one request stream and stop taking new requests when the
run's time is up and the stream is at a block boundary; requests already
sent are completed and counted.  Each
reply is checked as it arrives (HTTP status, outcome status, finite
cost); the artifact fingerprint of every reply is kept for the
cross-check against the in-process compile.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.service.store import artifact_fingerprint

REQUEST_TIMEOUT_S = 120.0


@dataclass
class Reply:
    """What the benchmark keeps of one reply."""

    index: int
    latency_ms: float
    #: Completion time, seconds after the run started.
    done_s: float = 0.0
    digest: str = ""
    fingerprint: str = ""
    cost_us: float = math.nan
    error: str = ""


@dataclass
class LoadResult:
    replies: List[Reply] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: ``probe()`` at each window edge (``k * seconds / windows``) and at
    #: the end of the run.
    marks: List[Any] = field(default_factory=list)

    @property
    def failed(self) -> List[Reply]:
        return [r for r in self.replies if r.error]


def check_outcome(data: Dict[str, Any], expect: str) -> Tuple[str, str, float, str]:
    """``(digest, fingerprint, cost_us, error)`` for one decoded reply."""
    digest = data.get("digest", "")
    status = data.get("status")
    if status != expect:
        detail = (data.get("error") or {}).get("message", "")
        return digest, "", math.nan, f"status {status!r}, expected {expect!r} {detail}"
    artifact = data.get("artifact") or {}
    cost = (artifact.get("cost") or {}).get("total_us")
    if not isinstance(cost, (int, float)) or not math.isfinite(cost):
        return digest, "", math.nan, f"non-finite cost {cost!r}"
    kernel_costs = [k.get("total_us") for k in artifact["cost"].get("kernels", [])]
    if not all(isinstance(c, (int, float)) and math.isfinite(c) for c in kernel_costs):
        return digest, "", math.nan, "non-finite kernel cost"
    return digest, artifact_fingerprint(artifact), float(cost), ""


class _Client:
    """One keep-alive HTTP connection, as ``ServiceClient(keep_alive=True)``
    keeps per thread."""

    def __init__(self, url: str) -> None:
        parts = urllib.parse.urlsplit(url)
        self._conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=REQUEST_TIMEOUT_S
        )

    def post(self, body: bytes) -> Tuple[int, bytes]:
        self._conn.request(
            "POST", "/v1/compile", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = self._conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._conn.close()


def compile_many(
    url: str, requests: List[Dict[str, Any]], clients: int
) -> List[Dict[str, Any]]:
    """Send every request (``clients`` at a time) and return the decoded
    replies in order; used for the hit workloads' prefill."""
    bodies = [json.dumps(r).encode("utf-8") for r in requests]
    replies: List[Optional[Dict[str, Any]]] = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()

    def work() -> None:
        client = _Client(url)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                status, raw = client.post(bodies[index])
                replies[index] = json.loads(raw)
                if status != 200:
                    raise RuntimeError(f"prefill request failed: {raw[:200]!r}")
        finally:
            client.close()

    _run_threads(work, clients)
    return replies  # type: ignore[return-value]


def run_closed_loop(
    url: str,
    requests: List[Dict[str, Any]],
    clients: int,
    seconds: float,
    expect: str,
    block: int,
    windows: int,
    probe: Callable[[], Any],
) -> LoadResult:
    """Drive the server for ``seconds`` with ``clients`` closed loops,
    then up to the next multiple of ``block`` requests, reading
    ``probe()`` (the server's CPU time and the host's steal) at each of
    ``windows`` edges."""
    result = LoadResult()
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    finished = threading.Event()
    start = time.perf_counter()
    stop_at = start + seconds
    result.marks.append(probe())

    def sample() -> None:
        for k in range(1, windows):
            if finished.wait(start + k * seconds / windows - time.perf_counter()):
                return
            result.marks.append(probe())

    def work() -> None:
        client = _Client(url)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                    if index is None or (
                        index % block == 0 and time.perf_counter() >= stop_at
                    ):
                        return
                body = json.dumps(requests[index]).encode("utf-8")
                t0 = time.perf_counter()
                try:
                    status, raw = client.post(body)
                except (OSError, http.client.HTTPException) as exc:
                    reply = Reply(index, (time.perf_counter() - t0) * 1e3,
                                  error=f"transport: {exc}")
                else:
                    latency_ms = (time.perf_counter() - t0) * 1e3
                    reply = _check(index, latency_ms, status, raw, expect)
                reply.done_s = time.perf_counter() - start
                with lock:
                    result.replies.append(reply)
        finally:
            client.close()

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        _run_threads(work, clients)
    finally:
        finished.set()
        sampler.join()
    result.elapsed_s = time.perf_counter() - start
    result.marks += [result.marks[-1]] * (windows - len(result.marks))
    result.marks.append(probe())
    result.replies.sort(key=lambda r: r.index)
    return result


def _check(
    index: int, latency_ms: float, status: int, raw: bytes, expect: str
) -> Reply:
    try:
        data = json.loads(raw)
    except ValueError:
        return Reply(index, latency_ms, error=f"HTTP {status}: undecodable body")
    if status != 200:
        return Reply(index, latency_ms, digest=data.get("digest", ""),
                     error=f"HTTP {status}: {data.get('message', '')}")
    digest, fp, cost, error = check_outcome(data, expect)
    return Reply(index, latency_ms, digest=digest, fingerprint=fp,
                 cost_us=cost, error=error)


def _run_threads(target, count: int) -> None:
    errors: List[BaseException] = []

    def guarded() -> None:
        try:
            target()
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
