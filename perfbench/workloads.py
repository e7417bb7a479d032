"""Seeded request streams for the benchmark workloads.

Every stream is a list of compile-request dicts in the wire format of
``POST /v1/compile``.  The seed decides sizes, devices and order; the
*shape* of each stream is fixed so that runs with different seeds measure
the same mix:

* the hit workloads' popularity follows the app registry order, and
  their working set keeps near-default sizes;
* the cold stream sends rounds: every round holds each app once, in a
  seeded order, so a run of any length sees the same composition;
* app sizes come in antithetic pairs (scaled by ``2**e`` and then by
  ``2**-e``), on alternating devices, which keeps the geometric mean of
  the modeled GPU time close from seed to seed;
* a run ends on a block boundary (whole rounds), so it always measures
  the full mix;
* every size variant is used at most once, so each cold request misses.

When a faster program exhausts a cold stream before the run's time is
up, the run simply ends early and reports over the time it took.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

#: Parameters that are step indices or iteration counts, not sizes.
FIXED_PARAMS = ("T",)
#: Each program offers at least this many distinct variants, which bounds
#: the number of rounds a cold stream holds (about twice what a run
#: reaches today).
MIN_VARIANTS = 48
#: App requests alternate between the paper's two devices, which doubles
#: the distinct variants of apps that have a single size parameter.
DEVICES = ("Tesla K20c", "Tesla C2050")
#: No scaled size drops below this.
MIN_SIZE = 8
#: Zipf exponent of the hit workloads' popularity skew.
ZIPF_S = 1.0
#: Hot-tier capacity for ``fleet_hits``: a third of the working set, so
#: part of the hits come from the LRU and the rest from the shared store.
FLEET_LRU_CAPACITY = 12
#: Upper bound on generated hit requests; no run gets near it.
HIT_STREAM_LEN = 200_000


@dataclass(frozen=True)
class Workload:
    """How one workload is served; why each exists is recorded in
    ``BENCHMARK.json`` and ``perfbench/README.md``."""

    name: str
    #: Closed-loop clients, each waiting for its reply before sending.
    clients: int
    #: The status every response must carry.
    expect: str
    #: ``serve`` (one ``repro serve``) or ``fleet`` (``repro fleet serve``).
    server: str = "serve"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cold_apps", clients=1, expect="miss"),
        Workload("warm_hits", clients=1, expect="hit"),
        Workload("fleet_hits", clients=1, expect="hit", server="fleet"),
    )
}


def scale(value: int, exponent: int) -> int:
    """``value * 2**exponent``, at least 1."""
    if exponent >= 0:
        return value << exponent
    return max(1, value >> -exponent)


def size_variants(
    params: Dict[str, int], count: int, rng: random.Random
) -> List[Dict[str, int]]:
    """At least ``count`` distinct power-of-two scalings of ``params``,
    in antithetic pairs.

    Every non-fixed parameter ``k`` is scaled by ``2**(c_k + e)`` with
    ``e`` in ``[-r, r]``: ``r`` is the smallest radius giving ``count``
    non-zero exponent vectors, and ``c_k`` shifts the window up just
    enough to keep sizes at ``MIN_SIZE`` or more.  The order is seeded;
    each exponent vector ``e`` is followed by ``-e``.
    """
    keys = sorted(k for k in params if k not in FIXED_PARAMS)
    radius = 1
    while (2 * radius + 1) ** len(keys) - 1 < count:
        radius += 1
    floor = MIN_SIZE.bit_length() - 1
    center = {k: max(0, radius + floor - (params[k].bit_length() - 1)) for k in keys}
    zero = (0,) * len(keys)
    positive = [
        e
        for e in itertools.product(range(-radius, radius + 1), repeat=len(keys))
        if e > zero
    ]
    rng.shuffle(positive)
    vectors: List[Tuple[int, ...]] = []
    for e in positive:
        vectors += [e, tuple(-x for x in e)]
    return [
        {**params, **{k: scale(params[k], center[k] + x) for k, x in zip(keys, e)}}
        for e in vectors
    ]


def app_variants(
    params: Dict[str, int], index: int, rng: random.Random
) -> List[Dict[str, Any]]:
    """``{"sizes", "device"}`` variants of the ``index``-th app: every
    size variant once per device.  Each antithetic pair stays on one
    device, and devices alternate between pairs and between apps, so any
    round sends half the apps to each device."""
    sizes = size_variants(params, MIN_VARIANTS // len(DEVICES), rng)
    return [
        {"sizes": s, "device": DEVICES[(j // 2 + index + swap) % len(DEVICES)]}
        for swap in range(len(DEVICES))
        for j, s in enumerate(sizes)
    ]


def offset_variants(
    params: Dict[str, int], count: int, rng: random.Random
) -> List[Dict[str, Any]]:
    """``count`` distinct ``{"sizes"}`` variants, each size raised by a
    seeded offset below an eighth of it (at least 2 choices), so every
    variant keeps the cost of the base sizes."""
    variants: Dict[Tuple[int, ...], Dict[str, int]] = {}
    keys = sorted(k for k in params if k not in FIXED_PARAMS)
    while len(variants) < count:
        sizes = {**params, **{
            k: params[k] + rng.randrange(max(2, params[k] // 8)) for k in keys
        }}
        variants.setdefault(tuple(sizes[k] for k in keys), sizes)
    return [{"sizes": sizes} for sizes in variants.values()]


def _rounds(
    programs: List[Tuple[Dict[str, Any], List[Dict[str, Any]]]],
    rng: random.Random,
) -> List[Dict[str, Any]]:
    """Round-robin over ``(request base, variants)`` pairs: round ``r``
    sends every program once, in a seeded order, with its ``r``-th
    variant's fields."""
    rounds = min(len(variants) for _, variants in programs)
    stream: List[Dict[str, Any]] = []
    for r in range(rounds):
        for base, variants in rng.sample(programs, len(programs)):
            stream.append({**base, **variants[r]})
    return stream


def _app_programs(rng: random.Random):
    from repro.apps import ALL_APPS

    return [
        ({"app": name}, app_variants(app.default_params, index, rng))
        for index, (name, app) in enumerate(sorted(ALL_APPS.items()))
    ]


def cold_stream(seed: int) -> Tuple[List[Dict[str, Any]], int]:
    """The request stream of ``cold_apps`` and its block: two rounds of
    all apps, so antithetic size pairs complete within a block."""
    rng = random.Random(f"cold_apps:{seed}")
    programs = _app_programs(rng)
    return _rounds(programs, rng), 2 * len(programs)


def working_set(seed: int) -> List[Dict[str, Any]]:
    """The distinct app requests the hit workloads prefill: every app, in
    registry order, at two seeded near-default sizes, one per device.
    The list order is the popularity rank of :func:`hit_stream`, fixed so
    that each seed puts the same apps under the same load."""
    from repro.apps import ALL_APPS

    rng = random.Random(f"working_set:{seed}")
    return [
        {"app": name, **variant, "device": device}
        for name, app in ALL_APPS.items()
        for variant, device in zip(
            offset_variants(app.default_params, len(DEVICES), rng), DEVICES
        )
    ]


def hit_stream(seed: int, length: int = HIT_STREAM_LEN) -> List[int]:
    """Zipf-skewed indices into :func:`working_set`: index ``k`` is drawn
    with weight ``1 / (k + 1) ** ZIPF_S``."""
    rng = random.Random(f"hit_stream:{seed}")
    size = len(working_set(seed))
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(size)]
    return rng.choices(range(size), weights=weights, k=length)


def request_stream(name: str, seed: int) -> Tuple[List[Dict[str, Any]], int]:
    """The full request stream for one workload and its block (see
    :func:`cold_stream`; 1 for the hit streams, which share the request
    dicts of the working set)."""
    if name == "cold_apps":
        return cold_stream(seed)
    requests = working_set(seed)
    return [requests[i] for i in hit_stream(seed)], 1
