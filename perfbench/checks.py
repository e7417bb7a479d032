"""Output checks that do not depend on the server.

:func:`reference_mismatches` runs every registered app through the
interpreter on small seeded inputs and compares the result with the
app's own NumPy ``App.reference``.  The reference is independent of the
compiler, so this catches a pipeline change that breaks the IR's
meaning even when the served artifacts still agree with each other.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List

import numpy as np

#: Small sizes per app, the shapes the app correctness tests use.
SMALL_SIZES: Dict[str, Dict[str, int]] = {
    "sumRows": {"R": 40, "C": 30},
    "sumCols": {"R": 40, "C": 30},
    "sumWeightedRows": {"R": 24, "C": 16},
    "sumWeightedCols": {"R": 24, "C": 16},
    "pagerank": {"N": 150, "avg_degree": 6},
    "nearestNeighbor": {"N": 200},
    "gaussian": {"N": 15, "T": 3},
    "hotspot": {"R": 18, "C": 22},
    "mandelbrot": {"H": 12, "W": 16},
    "srad": {"R": 14, "C": 17},
    "pathfinder": {"R": 5, "C": 60},
    "lud": {"N": 14, "T": 4},
    "bfs": {"N": 80, "avg_degree": 4},
    "qpscd": {"S": 15, "N": 40, "C": 12},
    "msmbuilder": {"P": 9, "K": 7, "D": 5},
    "naiveBayes": {"DOCS": 25, "WORDS": 18},
    "outlierFilter": {"N": 300},
    "histogram": {"N": 300},
}
#: Interpreter seed for apps that draw random numbers (qpscd).
INTERP_SEED = 11


def _state(*keys: str) -> Callable:
    """Apps that update arrays in place: compare those arrays."""

    def observe(out: Any, state: Dict[str, Any], ref: Any) -> bool:
        if isinstance(ref, dict):
            return all(np.allclose(state[k], ref[k]) for k in keys)
        return np.allclose(state[keys[0]], ref)

    return observe


def _naive_bayes(out: Any, state: Dict[str, Any], ref: Any) -> bool:
    # The program combines both kernels into one scalar.
    return np.isclose(out, ref["words_per_doc"][0] + ref["spam_counts"][0])


def _histogram(out: Any, state: Dict[str, Any], ref: Any) -> bool:
    got = {int(k): np.asarray(v) for k, v in dict(out).items()}
    return sorted(got) == sorted(ref) and all(
        np.allclose(np.sort(got[k]), np.sort(ref[k])) for k in ref
    )


def _value(out: Any, state: Dict[str, Any], ref: Any) -> bool:
    return np.allclose(np.asarray(out), np.asarray(ref))


OBSERVERS: Dict[str, Callable[[Any, Dict[str, Any], Any], bool]] = {
    "gaussian": _state("a", "mult"),
    "lud": _state("a"),
    "bfs": _state("cost", "next_frontier"),
    "naiveBayes": _naive_bayes,
    "histogram": _histogram,
}


def reference_mismatches(seed: int) -> List[str]:
    """Names (with reasons) of apps whose interpreter output differs from
    ``App.reference`` on seeded small inputs; empty when all agree."""
    from repro.apps import ALL_APPS
    from repro.interp import run_program

    failures = []
    for index, (name, app) in enumerate(sorted(ALL_APPS.items())):
        sizes = SMALL_SIZES.get(name)
        if sizes is None:
            failures.append(f"{name}: no small sizes known to the benchmark")
            continue
        rng = np.random.default_rng([seed, index])
        inputs = app.workload(rng, **sizes)
        state = copy.deepcopy(inputs)
        kwargs = {"seed": INTERP_SEED} if name == "qpscd" else {}
        try:
            out = run_program(app.build(), **kwargs, **state)
            ref = app.reference(inputs, **kwargs)
            ok = OBSERVERS.get(name, _value)(out, state, ref)
        except Exception as exc:  # report, never crash the benchmark
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        if not ok:
            failures.append(f"{name}: interpreter output != App.reference")
    return failures
