"""Start, probe and stop one compile-server subprocess.

The server runs exactly as shipped (``python -m repro serve`` or
``python -m repro fleet serve``), from the checkout's ``src`` tree, with
its working directory and store inside the benchmark's scratch area.
Resource use is read from ``/proc/<pid>``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from typing import List, Optional, Tuple

#: Worker threads per server; matches the 2-core hosts this was sized on.
WORKERS = 2
#: Backends and workers per backend for ``fleet_hits``.
FLEET_BACKENDS = 2
FLEET_WORKERS = 1
READY_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on (http://\S+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def host_ticks() -> Tuple[int, int]:
    """``(steal, total)`` clock ticks of the whole machine from
    ``/proc/stat``: steal is time the hypervisor ran another tenant while
    this machine's CPUs had work."""
    with open("/proc/stat") as handle:
        fields = [int(f) for f in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


class ServerProcess:
    """One server subprocess: ``start()`` blocks until it serves."""

    def __init__(
        self, kind: str, src: Path, workdir: Path, lru_capacity: int = 0
    ) -> None:
        self.kind = kind
        self.src = src
        self.workdir = workdir
        self.lru_capacity = lru_capacity
        self.url: Optional[str] = None
        self.proc: Optional[subprocess.Popen] = None
        self._drain: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._head: List[str] = []

    def command(self) -> List[str]:
        store = str(self.workdir / "store")
        common = ["--host", "127.0.0.1", "--port", "0", "--cache-dir", store]
        if self.kind == "fleet":
            return [
                sys.executable, "-m", "repro", "fleet", "serve", *common,
                "--backends", str(FLEET_BACKENDS),
                "--workers", str(FLEET_WORKERS),
                "--lru-capacity", str(self.lru_capacity),
            ]
        return [
            sys.executable, "-m", "repro", "serve", *common,
            "--workers", str(WORKERS),
        ]

    def start(self) -> str:
        self.workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            self.command(),
            cwd=str(self.workdir),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self._drain = threading.Thread(target=self._read_output, daemon=True)
        self._drain.start()
        if not self._ready.wait(READY_TIMEOUT_S) or self.url is None:
            self.stop()
            raise RuntimeError(
                "server did not start:\n" + "".join(self._head)
            )
        return self.url

    def _read_output(self) -> None:
        """Find the ``listening on`` line, then keep draining so a chatty
        server never blocks on a full pipe."""
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            if self.url is None:
                self._head.append(line)
                match = _LISTENING.search(line)
                if match:
                    self.url = match.group(1)
                    self._ready.set()
        self._ready.set()

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """Peak resident set size (``VmHWM``) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Kill the server and wait for it to exit.

        Its graceful shutdown (``SIGTERM``) snapshots the sweep memo to
        the store, which takes seconds after large compiles and measures
        nothing the benchmark reports; the store is discarded anyway.
        """
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=5)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
