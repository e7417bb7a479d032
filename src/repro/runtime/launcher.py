"""Dynamic launch-parameter adjustment (Section IV-D, last paragraph).

The compile-time decision fixes what determines code structure — dimension
assignment and span *kinds* — while block sizes and span/split *factors*
are re-derived at launch from the actual sizes.  This is why Figure 17's
skewed Mandelbrot still lands in the best-performance region: the static
mapping was chosen at representative sizes, but the launch adapts.

The re-tune runs only for runtime sizes that differ from the compile's,
which callers pass to ``CompiledProgram.estimate_cost(**sizes)``; at the
compile's own sizes (``estimate_cost()``) each kernel is priced exactly
as decided.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from ..analysis.constraints import ConstraintSet
from ..analysis.dop import DopWindow
from ..analysis.mapping import (
    DIM_MAX_THREADS,
    LevelMapping,
    Mapping,
    Span,
    SpanAll,
    Split,
)
from ..analysis.scoring import score_mapping
from ..config import BLOCK_SIZE_CANDIDATES, MAX_BLOCK_SIZE
from ..errors import LaunchError


def adjust_at_launch(
    mapping: Mapping,
    cset: ConstraintSet,
    sizes: Sequence[int],
    window: Optional[DopWindow] = None,
) -> Mapping:
    """Re-tune block sizes and span/split factors for the runtime sizes.

    Dimensions and span kinds are preserved (the generated code depends on
    them); every block-size combination is rescored under the actual sizes
    and ControlDOP reapplies the span(n)/split(k) factors.
    """
    if window is None:
        window = DopWindow()
    # Hoisted once: score_mapping expects a tuple and would otherwise
    # convert per candidate inside the combination loop below.
    sizes = tuple(sizes)
    if len(sizes) != mapping.num_levels:
        raise LaunchError(
            f"launch got {len(sizes)} runtime sizes for a "
            f"{mapping.num_levels}-level mapping"
        )
    if any(size < 0 for size in sizes):
        raise LaunchError(f"negative runtime size in {sizes}")
    # Empty domains still launch one degenerate block.
    sizes = tuple(max(1, size) for size in sizes)

    parallel_levels = [i for i, lm in enumerate(mapping.levels) if lm.parallel]
    if not parallel_levels:
        return mapping

    best: Optional[Mapping] = None
    best_score = -1.0
    best_dop = -1
    best_tpb = -1
    for combo in itertools.product(
        BLOCK_SIZE_CANDIDATES, repeat=len(parallel_levels)
    ):
        levels: List[LevelMapping] = list(mapping.levels)
        product = 1
        valid = True
        for level, size in zip(parallel_levels, combo):
            lm = mapping.level(level)
            if size > DIM_MAX_THREADS[lm.dim]:
                valid = False
                break
            product *= size
            # Reset span factors to their kind's base; ControlDOP retunes.
            span = lm.span
            if isinstance(span, Span):
                span = Span(1)
            elif isinstance(span, Split):
                span = SpanAll()
            levels[level] = LevelMapping(lm.dim, size, span)
        if not valid or product > MAX_BLOCK_SIZE:
            continue
        candidate = Mapping(tuple(levels))
        score = score_mapping(candidate, cset, sizes)
        if score is None:
            continue
        dop = candidate.dop(sizes)
        tpb = candidate.threads_per_block()
        # Tie-break chain: score, then DOP, then larger blocks (fewer
        # blocks means less scheduling overhead at equal parallelism).
        key = (score, dop, tpb)
        if key > (best_score, best_dop, best_tpb):
            best, best_score, best_dop, best_tpb = candidate, score, dop, tpb

    if best is None:
        # Silently launching with the compile-time geometry would execute
        # a mapping that violates a hard constraint at these sizes.
        raise LaunchError(
            f"no feasible launch geometry for {mapping} at runtime sizes "
            f"{sizes}"
        )
    from ..optim.passes.library import ControlDopPass

    retune = ControlDopPass(min_dop=window.min_dop, max_dop=window.max_dop)
    return retune.adjust(best, sizes, cset.span_all_levels())
