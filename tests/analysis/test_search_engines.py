"""Cross-engine byte-identity and engine-selection contract.

The two search engines — the exhaustive reference and the vectorized
batch engine — must pick the *byte-identical* winner for any input: same
mapping, same exact score, same DOP, same candidate counts, and (under
``keep_all``) the same ranked candidate list in the same order.  These
tests replay the checked-in difftest corpus plus a fresh generator
sample through both engines, then pin the
auto-selection rules (small space -> plain loop, batch-capable -> the
candidate matrix, opaque constraints -> reference fallback) and the
``REPRO_SEARCH_ENGINE`` / ``engine=`` overrides.
"""

import os
import random

import pytest

from repro.analysis import analyze_program, clear_caches
from repro.analysis.constraints import Constraint, ConstraintSet, CoalesceDimX
from repro.analysis.search import (
    count_candidates,
    resolve_engine,
    search_mapping,
    search_mapping_reference,
)
from repro.analysis.vectorized import (
    BatchUnsupported,
    search_mapping_vectorized,
)
from repro.config import SEARCH_ENGINE_ENV, SEARCH_SMALL_SPACE_CANDIDATES
from repro.difftest import ProgramGenerator, load_corpus
from repro.difftest.generator import build_program
from repro.errors import SearchError

from .test_search_equivalence import GRID_BY_DEPTH, random_cset

CORPUS_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "integration", "corpus",
    "seed_corpus.json",
)


def _assert_byte_identical(ref, other, context=""):
    """Everything the result contract pins, including keep_all ordering."""
    assert str(other.mapping) == str(ref.mapping), context
    assert other.score == ref.score, context
    assert other.dop == ref.dop, context
    assert other.candidates_total == ref.candidates_total, context
    assert other.candidates_feasible == ref.candidates_feasible, context
    assert other.candidates_scored == ref.candidates_scored, context
    assert len(other.all_scored) == len(ref.all_scored), context
    for a, b in zip(ref.all_scored, other.all_scored):
        assert str(b.mapping) == str(a.mapping), context
        assert b.score == a.score, context
        assert b.dop == a.dop, context


def _check_kernel_across_engines(ka, context):
    args = (ka.depth, ka.constraints, ka.level_sizes())
    ref = search_mapping_reference(*args, keep_all=True)
    # Every generated constraint family carries a batch predicate; the
    # vectorized engine must accept the whole corpus, not quietly
    # degrade.
    vec = search_mapping_vectorized(*args, keep_all=True)
    _assert_byte_identical(ref, vec, f"{context} [vectorized]")


def test_difftest_corpus_byte_identity():
    """Both engines agree on every checked-in corpus kernel."""
    specs = load_corpus(CORPUS_PATH)
    assert len(specs) >= 20
    checked = 0
    for spec in specs:
        pa = analyze_program(build_program(spec))
        for index, ka in enumerate(pa.kernels):
            _check_kernel_across_engines(
                ka, f"corpus {spec.describe()} kernel {index}"
            )
            checked += 1
    assert checked >= len(specs)


def test_generator_sample_byte_identity():
    """A fresh generator sample agrees across engines too."""
    generator = ProgramGenerator(seed=20260808)
    checked = 0
    while checked < 8:
        spec = generator.random_spec()
        try:
            pa = analyze_program(build_program(spec))
        except Exception:
            continue  # unbuildable specs are the oracle's concern
        for index, ka in enumerate(pa.kernels):
            _check_kernel_across_engines(
                ka, f"generated {spec.describe()} kernel {index}"
            )
            checked += 1


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_randomized_vectorized_equivalence(depth):
    """Randomized constraint sets: vectorized == reference, bit for bit."""
    rng = random.Random(97 * depth)
    grid = GRID_BY_DEPTH[depth]
    for trial in range(6 if depth <= 2 else 3):
        cset = random_cset(rng, depth)
        sizes = [rng.choice([1, 7, 32, 100, 4096]) for _ in range(depth)]
        tie_seed = rng.randint(0, 10_000)
        keep = trial % 2 == 0
        context = f"depth={depth} trial={trial} sizes={sizes}"
        try:
            ref = search_mapping_reference(
                depth, cset, sizes, block_sizes=grid, seed=tie_seed,
                keep_all=keep,
            )
        except SearchError:
            with pytest.raises(SearchError):
                search_mapping_vectorized(
                    depth, cset, sizes, block_sizes=grid, seed=tie_seed,
                    keep_all=keep,
                )
            continue
        vec = search_mapping_vectorized(
            depth, cset, sizes, block_sizes=grid, seed=tie_seed,
            keep_all=keep,
        )
        _assert_byte_identical(ref, vec, context)


def test_depth5_coarse_grid_equivalence():
    """Depth-5 spaces (intractable before) still match the oracle."""
    from repro.analysis.constraints import AvoidDivergence

    cset = ConstraintSet()
    cset.add(CoalesceDimX(False, "local", "c", level=4, weight=5.0))
    cset.add(AvoidDivergence(False, "global", "d", levels=(0, 1), weight=1.0))
    sizes = (4, 8, 16, 64, 256)
    grid = (1, 16, 256)
    ref = search_mapping_reference(5, cset, sizes, block_sizes=grid,
                                   keep_all=True)
    vec = search_mapping_vectorized(5, cset, sizes, block_sizes=grid,
                                    keep_all=True)
    _assert_byte_identical(ref, vec, "depth-5 coarse grid")


# -- engine selection ------------------------------------------------------


def _small_space_inputs():
    cset = ConstraintSet()
    cset.add(CoalesceDimX(False, "local", "c", level=0, weight=5.0))
    return 1, cset, (1000,)


def _large_space_inputs():
    cset = ConstraintSet()
    cset.add(CoalesceDimX(False, "local", "c", level=2, weight=5.0))
    return 3, cset, (64, 64, 4096)


def test_auto_selects_exhaustive_for_small_spaces():
    depth, cset, sizes = _small_space_inputs()
    assert count_candidates(depth, cset) <= SEARCH_SMALL_SPACE_CANDIDATES
    result = search_mapping(depth, cset, sizes, use_cache=False)
    assert result.strategy == "exhaustive"
    assert result.batch_shape is None


def test_auto_selects_vectorized_for_large_spaces():
    depth, cset, sizes = _large_space_inputs()
    assert count_candidates(depth, cset) > SEARCH_SMALL_SPACE_CANDIDATES
    result = search_mapping(depth, cset, sizes, use_cache=False)
    assert result.strategy == "vectorized"
    assert result.batch_shape == (result.candidates_total, depth)


def test_env_var_overrides_auto(monkeypatch):
    depth, cset, sizes = _large_space_inputs()
    monkeypatch.setenv(SEARCH_ENGINE_ENV, "exhaustive")
    result = search_mapping(depth, cset, sizes, use_cache=False)
    assert result.strategy == "exhaustive"
    # An explicit engine= beats the environment.
    result = search_mapping(
        depth, cset, sizes, use_cache=False, engine="vectorized"
    )
    assert result.strategy == "vectorized"


def test_unknown_engine_rejected(monkeypatch):
    depth, cset, sizes = _small_space_inputs()
    # "pruned" names a retired engine: a stale override must fail loudly.
    for name in ("quantum", "pruned"):
        with pytest.raises(SearchError, match="engine"):
            resolve_engine(name)
        with pytest.raises(SearchError, match="engine"):
            search_mapping(depth, cset, sizes, engine=name)
        monkeypatch.setenv(SEARCH_ENGINE_ENV, name)
        with pytest.raises(SearchError, match="engine"):
            search_mapping(depth, cset, sizes)
        monkeypatch.delenv(SEARCH_ENGINE_ENV)


def test_opaque_constraint_falls_back():
    """A constraint without a batch predicate degrades, never errors."""

    class Opaque(Constraint):
        def satisfied_by(self, mapping, level_sizes):
            return True

    depth, cset, sizes = _large_space_inputs()
    cset.add(Opaque(False, "global", "opaque"))
    with pytest.raises(BatchUnsupported):
        search_mapping_vectorized(depth, cset, sizes)
    # Forcing the batch engine falls through to the exhaustive loop
    # (opaque constraints need per-candidate evaluation).
    result = search_mapping(
        depth, cset, sizes, use_cache=False, engine="vectorized"
    )
    assert result.strategy == "reference-fallback"
    result = search_mapping(depth, cset, sizes, use_cache=False)
    assert result.strategy == "reference-fallback"


def test_engine_is_part_of_cache_key():
    depth, cset, sizes = _large_space_inputs()
    clear_caches()
    vec = search_mapping(depth, cset, sizes, engine="vectorized")
    loop = search_mapping(depth, cset, sizes, engine="exhaustive")
    # Same winner, distinct memo entries: the exhaustive request must not
    # be served the vectorized result's telemetry.
    assert not loop.cache_hit
    assert loop.strategy == "exhaustive"
    again = search_mapping(depth, cset, sizes, engine="vectorized")
    assert again.cache_hit and again.strategy == "vectorized"
    assert str(vec.mapping) == str(loop.mapping)


def test_batch_telemetry_recorded():
    """batch_shape flows into telemetry and the metrics registry."""
    from repro.observability import capture

    depth, cset, sizes = _large_space_inputs()
    with capture() as obs:
        result = search_mapping(depth, cset, sizes, use_cache=False,
                                engine="vectorized")
    data = result.telemetry()
    assert data["strategy"] == "vectorized"
    assert data["batch_shape"] == [result.candidates_total, depth]
    histograms = obs.metrics.to_dict()["histograms"]
    assert histograms["search.batch.candidates"]["count"] >= 1
