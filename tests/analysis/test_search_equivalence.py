"""Equivalence of the staged search against the exhaustive reference.

Engine selection, the vectorized batch engine and the memo are pure
performance work: for any constraint set they must select the
*byte-identical* winner — same mapping, same score, same DOP, same
candidate counts — because the figure experiments and codegen snapshots
depend on the exact choice (including the seeded tie-breaks).  These
tests compare the staged search with the reference across randomized
constraint sets at depths 1-4, at analysis sizes whose DOP products
overflow int64, and over every bundled application kernel.
"""

import random

import pytest

from repro.analysis import analyze_program, clear_caches
from repro.analysis.constraints import (
    AvoidDivergence,
    BlockSizeFloor,
    CoalesceDimX,
    ConstraintSet,
    NoWastedThreads,
    SpanAllRequired,
)
from repro.analysis.search import search_mapping, search_mapping_reference
from repro.analysis.vectorized import _mapping_for_row, materialize_candidates
from repro.apps import ALL_APPS, merge_params
from repro.config import WARP_SIZE
from repro.errors import SearchError

#: Smaller grids keep the exhaustive oracle fast at depth >= 3.
GRID_BY_DEPTH = {
    1: (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
    2: (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
    3: (1, 8, 64, 512),
    4: (1, 32, 256),
}

#: Per-level analysis size whose depth-fold product overflows int64, so
#: the batch engine must compare DOP as exact Python ints.
OVERFLOW_SIZE_BY_DEPTH = {2: 2**32, 3: 2**22, 4: 2**17}


def with_overflow_sizes(sizes, rng: random.Random, depth: int):
    """Yield ``(sizes, False)``, then — at depths with an overflow size —
    ``(overflow_sizes, True)``: odd multiples of that size, drawn from
    ``rng``, so the DOP products overflow int64 and still differ."""
    yield sizes, False
    base = OVERFLOW_SIZE_BY_DEPTH.get(depth)
    if base is not None:
        yield [rng.choice([base, 3 * base, 7 * base])
               for _ in range(depth)], True


def random_cset(rng: random.Random, depth: int) -> ConstraintSet:
    """A constraint set drawn from every supported constraint family.

    Levels are sampled from ``depth + 1`` so out-of-range levels (which
    make SpanAllRequired unsatisfiable and the others trivially pass or
    fail) are covered too.
    """
    cset = ConstraintSet()
    for level in range(depth + 1):
        if rng.random() < 0.3:
            cset.add(SpanAllRequired(
                True, "local", f"L{level} sync", level=level,
                reason=rng.choice(["sync", "dynamic"]),
            ))
        if rng.random() < 0.5:
            cset.add(CoalesceDimX(
                False, "local", f"L{level} coalesce", level=level,
                weight=rng.uniform(0.1, 1e6),
            ))
        if rng.random() < 0.4:
            cset.add(NoWastedThreads(
                False, "local", f"L{level} fit", level=level,
                weight=rng.uniform(0.1, 1e4),
            ))
    if rng.random() < 0.5:
        cset.add(BlockSizeFloor(
            False, "global", "floor", weight=rng.uniform(0.1, 1e5),
        ))
    if rng.random() < 0.5:
        deps = tuple(sorted(rng.sample(
            range(depth), k=rng.randint(1, depth),
        )))
        cset.add(AvoidDivergence(
            False, "global", "divergence", levels=deps,
            weight=rng.uniform(0.1, 1e5),
        ))
    return cset


def assert_equivalent(ref, new, context=""):
    assert new.mapping == ref.mapping, context
    assert new.score == ref.score, context
    assert new.dop == ref.dop, context
    assert new.candidates_total == ref.candidates_total, context
    assert new.candidates_feasible == ref.candidates_feasible, context


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("trial_seed", [0, 1, 2])
def test_randomized_equivalence(depth, trial_seed):
    rng = random.Random(1000 * depth + trial_seed)
    overflow_rng = random.Random(-1000 * depth - trial_seed)
    grid = GRID_BY_DEPTH[depth]
    trials = 8 if depth <= 2 else 4
    for trial in range(trials):
        cset = random_cset(rng, depth)
        drawn = [rng.choice([1, 7, 32, 100, 4096]) for _ in range(depth)]
        tie_seed = rng.randint(0, 10_000)
        for sizes, overflow in with_overflow_sizes(drawn, overflow_rng, depth):
            context = f"depth={depth} trial={trial} sizes={sizes}"
            try:
                ref = search_mapping_reference(
                    depth, cset, sizes, block_sizes=grid, seed=tie_seed,
                )
            except SearchError:
                with pytest.raises(SearchError):
                    search_mapping(
                        depth, cset, sizes, block_sizes=grid,
                        seed=tie_seed, use_cache=False,
                    )
                continue
            new = search_mapping(
                depth, cset, sizes, block_sizes=grid, seed=tie_seed,
                use_cache=False,
            )
            assert_equivalent(ref, new, context)
            if overflow:
                # The batch engine serves overflowing DOPs itself.
                assert new.strategy == "vectorized", context


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_keep_all_equivalence(depth):
    """keep_all must retain every feasible candidate in reference order."""
    rng = random.Random(depth)
    overflow_rng = random.Random(-depth)
    grid = GRID_BY_DEPTH[max(depth, 3)]
    for trial in range(3):
        cset = random_cset(rng, depth)
        drawn = [rng.choice([1, 32, 4096]) for _ in range(depth)]
        for sizes, overflow in with_overflow_sizes(drawn, overflow_rng, depth):
            context = f"depth={depth} trial={trial} sizes={sizes}"
            try:
                ref = search_mapping_reference(
                    depth, cset, sizes, block_sizes=grid, keep_all=True,
                )
            except SearchError:
                continue
            new = search_mapping(
                depth, cset, sizes, block_sizes=grid, keep_all=True,
                use_cache=False,
            )
            assert_equivalent(ref, new, context)
            assert new.all_scored == ref.all_scored, context
            assert new.ranked == ref.ranked, context
            if overflow:
                assert new.strategy == "vectorized", context


def test_all_apps_equivalence():
    """Byte-identical winners for every bundled application kernel."""
    checked = 0
    for name, app in sorted(ALL_APPS.items()):
        pa = analyze_program(app.build(), **merge_params(app, {}))
        for index, ka in enumerate(pa.kernels):
            args = (ka.depth, ka.constraints, ka.level_sizes())
            ref = search_mapping_reference(*args)
            new = search_mapping(*args, use_cache=False)
            assert_equivalent(ref, new, f"{name} kernel {index}")
            checked += 1
    assert checked >= len(ALL_APPS)


def test_cached_result_identical():
    """A memo hit returns the same result (flagged as a hit)."""
    app = ALL_APPS["msmbuilder"]
    ka = analyze_program(app.build(), **merge_params(app, {})).kernel(0)
    clear_caches()
    first = ka.select_mapping()
    second = ka.select_mapping()
    assert not first.cache_hit and second.cache_hit
    assert second.mapping == first.mapping
    assert second.score == first.score
    assert second.candidates_total == first.candidates_total


def test_warp_eval_matches_mapping():
    """The batch engine's warp model must agree with
    Mapping.varies_within_warp on every candidate."""
    depth = 3
    cset = ConstraintSet()
    grid = (1, 2, 8, 32, 256)
    batch, span_combos = materialize_candidates(
        depth, cset, grid, sizes=(64, 64, 64)
    )
    assert len(batch) > 0
    columns = [batch.warp_varies(level) for level in range(depth)]
    for row in range(len(batch)):
        mapping = _mapping_for_row(row, batch, span_combos)
        for level in range(depth):
            assert bool(columns[level][row]) == mapping.varies_within_warp(
                level, WARP_SIZE
            ), (str(mapping), level)
