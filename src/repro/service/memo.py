"""Persistence adapter between the in-memory sweep memo and the cache dir.

The PR-1 :class:`~repro.analysis.cache.SearchCache` memoizes mapping
searches *within* a process; this adapter carries it *across* process
restarts by pickling :meth:`~repro.analysis.cache.SearchCache.snapshot`
into ``<cache_dir>/memo.pkl`` on shutdown and
:meth:`~repro.analysis.cache.SearchCache.load`\\ ing it on startup.

Snapshot/load is deliberately the only interface used, so both layers
share one invalidation path: whatever ``invalidate``/``evict_where``
dropped from the in-memory cache is absent from the next snapshot, and a
pipeline-version bump discards the whole file (the keys fingerprint
constraint *values*, not pipeline behavior, so a behavior change must
invalidate wholesale).

Load is defensive — a corrupt, truncated, or version-skewed file is
deleted and ignored; the cost is re-searching, never an error.

Trust boundary: ``--cache-dir`` is written by the service itself and
must not be pointed at untrusted data (e.g. a directory checked out
from someone else's repository).  The memo is a pickle because the
cached values are arbitrary search-result objects, and unpickling can
normally be made to call arbitrary callables — so loading goes through
a restricted unpickler that resolves only classes inside the ``repro``
package, never functions or anything from other modules.  A planted
``memo.pkl`` therefore cannot reach ``os.system`` and friends; at worst
it is discarded as corrupt and the searches re-run.
"""

from __future__ import annotations

import io
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict

from ..analysis.cache import get_autotune_cache, get_search_cache
from ..ir.serialize import PIPELINE_VERSION

#: Bumped on any incompatible memo-file change; the loader checks it.
#: Version 2: search results carry their top-k ranking
#: (``SearchResult.ranked``); version-1 files hold results without one
#: and the keep-all lists provenance used to memoize.  Version 3: search
#: results no longer carry the retired branch-and-bound walk's two work
#: counters (skipped candidates, pruned subtrees).
MEMO_VERSION = 3

MEMO_FILENAME = "memo.pkl"


def memo_path(cache_dir: str) -> Path:
    return Path(cache_dir) / MEMO_FILENAME


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that refuses every global except ``repro.*`` classes.

    Memo payloads are built from primitives (handled by native pickle
    opcodes, no global lookup) and this package's result dataclasses.
    Restricting :meth:`find_class` to classes under the ``repro``
    package removes the unpickling code-execution primitive: a crafted
    file cannot resolve ``os.system``, ``builtins.eval``, or any other
    callable outside the package.
    """

    def find_class(self, module: str, name: str) -> Any:
        if module == "repro" or module.startswith("repro."):
            obj = super().find_class(module, name)
            if isinstance(obj, type):
                return obj
        raise pickle.UnpicklingError(
            f"memo file references forbidden global {module}.{name}"
        )


def _restricted_load(handle: io.BufferedReader) -> Any:
    return _RestrictedUnpickler(handle).load()


def save_memo(cache_dir: str) -> Path:
    """Persist both sweep caches' snapshots; returns the file path."""
    path = memo_path(cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": MEMO_VERSION,
        "pipeline_version": PIPELINE_VERSION,
        "search": get_search_cache().snapshot(),
        "autotune": get_autotune_cache().snapshot(),
    }
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=".tmp-memo-", suffix=".pkl"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_memo(cache_dir: str) -> Dict[str, int]:
    """Restore both sweep caches from ``memo.pkl`` when present.

    Returns ``{"search": n, "autotune": n}`` entry counts (zeros when
    there was nothing usable to load).
    """
    counts = {"search": 0, "autotune": 0}
    path = memo_path(cache_dir)
    try:
        with open(path, "rb") as handle:
            payload = _restricted_load(handle)
        if (
            not isinstance(payload, dict)
            or payload.get("version") != MEMO_VERSION
            or payload.get("pipeline_version") != PIPELINE_VERSION
        ):
            _discard(path)
            return counts
        counts["search"] = get_search_cache().load(
            payload.get("search") or []
        )
        counts["autotune"] = get_autotune_cache().load(
            payload.get("autotune") or []
        )
    except FileNotFoundError:
        return counts
    except Exception:  # noqa: BLE001 - any corrupt byte stream is a miss
        # Covers unpickling errors *and* malformed payload shapes that
        # surface later (TypeError/ValueError while installing entries).
        _discard(path)
        return {"search": 0, "autotune": 0}
    return counts


def _discard(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
