"""The search's own top-k ranking (``SearchResult.ranked``).

Provenance reads its candidate ranking off the compile's search instead
of re-running it with ``keep_all``.  The ranking must equal what the
keep-all path computed: every feasible candidate sorted by score, then
DOP, then block sizes (all descending; exact ties in enumeration order),
cut at k — except that the candidate the search actually picked leads
its exact-tie group, so rank 1 is always the mapping that runs.
"""

import random

import numpy as np
import pytest

from repro.analysis.dop import control_dop
from repro.analysis.search import (
    _Incumbent,
    search_mapping,
    search_mapping_reference,
)
from repro.analysis.vectorized import _top_positions, search_mapping_vectorized
from repro.apps import ALL_APPS, merge_params
from repro.config import SEARCH_RANKED_TOP_K, TIE_BREAK_SEED
from repro.errors import SearchError
from repro.gpusim.device import DEVICES
from repro.runtime.session import GpuSession

from .test_search_equivalence import GRID_BY_DEPTH, random_cset

GRIDS = {**GRID_BY_DEPTH, 5: (1, 16, 256)}


def _rank_key(scored):
    """The keep-all path's sort key: score, DOP, block sizes, descending."""
    bsizes = tuple(lm.block_size for lm in scored.mapping.levels)
    return (-scored.score, -scored.dop, tuple(-b for b in bsizes))


def _reservoir_pick(all_scored, seed):
    """Replay the reservoir over the keep-all list (enumeration order)."""
    inc = _Incumbent(random.Random(seed))
    pick = None
    for sm in all_scored:
        bsizes = tuple(lm.block_size for lm in sm.mapping.levels)
        if inc.decide(sm.score, sm.dop, bsizes):
            pick = sm
    return pick


def oracle_ranking(all_scored, seed, k=SEARCH_RANKED_TOP_K):
    """``sorted(all_scored, key)[:k]`` with the pick moved to the front
    of its exact-tie group."""
    pick = _reservoir_pick(all_scored, seed)
    order = sorted(all_scored, key=_rank_key)
    order.remove(pick)
    group = next(
        (i for i, sm in enumerate(order) if _rank_key(sm) >= _rank_key(pick)),
        len(order),
    )
    order.insert(group, pick)
    return order[:k]


def _assert_ranked(result, expected, context):
    assert result.ranked is not None, context
    assert [str(sm.mapping) for sm in result.ranked] == [
        str(sm.mapping) for sm in expected
    ], context
    assert [(sm.score, sm.dop) for sm in result.ranked] == [
        (sm.score, sm.dop) for sm in expected
    ], context


ENGINES = {
    "exhaustive": lambda *a, **kw: search_mapping(
        *a, use_cache=False, engine="exhaustive", **kw
    ),
    "vectorized": search_mapping_vectorized,
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_ranked_matches_keep_all_oracle(engine, depth):
    rng = random.Random(31 * depth + len(engine))
    grid = GRIDS[depth]
    trials = {1: 8, 2: 6, 3: 4, 4: 3, 5: 1}[depth]
    for trial in range(trials):
        cset = random_cset(rng, depth)
        sizes = [rng.choice([1, 7, 32, 100, 4096]) for _ in range(depth)]
        seed = rng.randint(0, 10_000)
        context = f"{engine} depth={depth} trial={trial} sizes={sizes}"
        try:
            full = search_mapping_reference(
                depth, cset, sizes, block_sizes=grid, seed=seed,
                keep_all=True,
            )
        except SearchError:
            continue
        result = ENGINES[engine](depth, cset, sizes, block_sizes=grid,
                                 seed=seed)
        _assert_ranked(result, oracle_ranking(full.all_scored, seed), context)
        # keep_all does not change the ranking.
        kept = ENGINES[engine](depth, cset, sizes, block_sizes=grid,
                               seed=seed, keep_all=True)
        _assert_ranked(kept, result.ranked, context + " keep_all")


def test_exact_ties_put_the_pick_first():
    """An all-zero-weight space is one huge tie group; the seeded pick
    must still lead, whichever seed chose it."""
    from repro.analysis.constraints import ConstraintSet

    for seed in range(6):
        for engine, run in sorted(ENGINES.items()):
            result = run(2, ConstraintSet(), (64, 64), seed=seed)
            full = search_mapping_reference(2, ConstraintSet(), (64, 64),
                                            seed=seed, keep_all=True)
            _assert_ranked(result, oracle_ranking(full.all_scored, seed),
                           f"{engine} seed={seed}")


def test_top_positions_is_a_stable_descending_cut():
    gen = np.random.default_rng(7)
    for n in (1, 3, 5, 6, 50, 1000):
        keys = gen.integers(0, 4, size=n).astype(np.int64)
        for k in (1, 5, 10):
            expected = np.argsort(-keys, kind="stable")[:k]
            assert list(_top_positions(keys, k)) == list(expected), (n, k)


#: Sizes whose top exact-tie group holds several candidates and the
#: seeded reservoir picks one that enumerates after the group's head.
TIE_CASES = (
    ("lud", {"N": 32}, "Tesla C2050"),
    ("gaussian", {"N": 32}, "Tesla K20c"),
    ("msmbuilder", {"D": 200, "K": 50, "P": 1024}, "Tesla K20c"),
    ("nearestNeighbor", {"N": 1024}, "Tesla K20c"),
)


def _compile_all_apps():
    cases = [
        (name, {}, device)
        for device in sorted(DEVICES)
        for name in sorted(ALL_APPS)
    ]
    for name, sizes, device_name in cases + list(TIE_CASES):
        app, device = ALL_APPS[name], DEVICES[device_name]
        compiled = GpuSession(device=device).compile(
            app.build(), **merge_params(app, sizes)
        )
        yield f"{name} {sizes} on {device_name}", device, compiled


def test_every_app_ranks_like_the_oracle_and_runs_rank_one():
    checked = 0
    for context, device, compiled in _compile_all_apps():
        provenance = compiled.provenance()
        for index, decision in enumerate(compiled.decisions):
            search = decision.search
            ka = decision.analysis
            where = f"{context} kernel {index}"
            full = ka.select_mapping(window=device.dop_window(),
                                     keep_all=True, use_cache=False)
            _assert_ranked(
                search, oracle_ranking(full.all_scored, TIE_BREAK_SEED),
                where,
            )
            # Rank 1 is the candidate that runs: ControlDOP of it is the
            # searched mapping.
            top = search.ranked[0]
            assert control_dop(
                top.mapping, tuple(ka.level_sizes()), device.dop_window(),
                ka.constraints.span_all_levels(),
            ) == decision.mapping, where
            candidates = provenance.kernels[index].candidates
            assert candidates[0].mapping == str(top.mapping), where
            checked += 1
    assert checked >= 2 * len(ALL_APPS)

