"""Candidate-space helpers shared by the search engines.

:func:`span_options_for_levels` fixes the per-level span choices both
engines enumerate, and :func:`batch_supported` decides whether a
constraint set can be evaluated by the vectorized batch engine.
"""

from __future__ import annotations

from typing import List, Tuple

from .constraints import ConstraintSet, has_batch_predicate
from .mapping import Span, SpanAll, SpanType


def batch_supported(cset: ConstraintSet) -> bool:
    """Can every constraint be evaluated as a vectorized batch predicate?

    Each built-in constraint declares how it can be evaluated over a
    whole candidate matrix (:meth:`Constraint.batch_satisfied`).  The
    vectorized engine is only eligible when every constraint — hard and
    soft — has a batch path; one opaque constraint sends the search to
    the per-candidate exhaustive loop.
    """
    return all(has_batch_predicate(c) for c in cset.constraints)


def span_options_for_levels(
    cset: ConstraintSet, num_levels: int
) -> Tuple[Tuple[SpanType, ...], ...]:
    """Per-level span options, in the search's enumeration order.

    Levels under a hard Span(all) requirement get ``(SpanAll(),)``; the
    rest get ``(Span(1), SpanAll())``.  Both the reference enumeration and
    the vectorized engine read this so their candidate spaces stay
    identical.
    """
    span_all = cset.span_all_levels()
    options: List[Tuple[SpanType, ...]] = []
    for level in range(num_levels):
        if level in span_all:
            options.append((SpanAll(),))
        else:
            options.append((Span(1), SpanAll()))
    return tuple(options)
