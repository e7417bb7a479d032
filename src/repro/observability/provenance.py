"""Mapping-provenance records: *why this mapping won*, as an artifact.

A :class:`CompileProvenance` captures, for every kernel of a compile, the
chosen mapping, the search telemetry, and the ranked top-k candidates
with per-constraint verdicts and score deltas.  Serialized to JSON it
lets ``repro explain <artifact>`` render the full rationale from a saved
file instead of re-running the search.

The candidate ranking comes from the compile's own search: both engines
keep the best :data:`~repro.config.SEARCH_RANKED_TOP_K` as they score
(:attr:`~repro.analysis.search.SearchResult.ranked`), so building the
record runs no search.  A kernel whose search left no ranking (a session
fallback whose search raised) carries a "candidate ranking unavailable"
note instead, and a ``top_k`` above the kept ranking is rejected with
:class:`ValueError`.  The record is built on demand — lazily
through :meth:`~repro.runtime.session.CompiledProgram.provenance`, or
eagerly per compile when ``REPRO_PROVENANCE`` /
``configure(provenance=True)`` is set — under a ``provenance`` span.

This module is imported lazily by the session and the CLI (never from
``repro.observability.__init__``) so the tracer/metrics hot path stays
free of analysis-layer imports.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..config import SEARCH_RANKED_TOP_K
from ..errors import ReproError
from .state import get_tracer

#: Bumped on any incompatible artifact change; the loader checks it.
PROVENANCE_VERSION = 1


@dataclass
class VerdictRecord:
    """One constraint's outcome under one candidate mapping."""

    description: str
    hard: bool
    scope: str
    satisfied: bool
    weight: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "description": self.description,
            "hard": self.hard,
            "scope": self.scope,
            "satisfied": self.satisfied,
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VerdictRecord":
        return cls(
            description=data["description"],
            hard=bool(data["hard"]),
            scope=data.get("scope", "local"),
            satisfied=bool(data["satisfied"]),
            weight=float(data.get("weight", 0.0)),
        )

    def render(self) -> str:
        mark = "ok " if self.satisfied else ("VIOLATED" if self.hard else "MISS")
        kind = "hard" if self.hard else "soft"
        weight = "" if self.hard else f" (w={self.weight:.3g})"
        return f"[{mark:>4}] [{kind}/{self.scope}] {self.description}{weight}"


@dataclass
class CandidateRecord:
    """One ranked candidate from the search space."""

    rank: int
    mapping: str
    score: float
    dop: int
    #: Winning score minus this candidate's score (0 for the leader).
    score_delta: float
    verdicts: List[VerdictRecord] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank,
            "mapping": self.mapping,
            "score": self.score,
            "dop": self.dop,
            "score_delta": self.score_delta,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CandidateRecord":
        return cls(
            rank=int(data["rank"]),
            mapping=data["mapping"],
            score=float(data["score"]),
            dop=int(data["dop"]),
            score_delta=float(data["score_delta"]),
            verdicts=[
                VerdictRecord.from_dict(v) for v in data.get("verdicts", [])
            ],
        )


@dataclass
class KernelProvenance:
    """The full mapping rationale for one kernel."""

    index: int
    depth: int
    level_sizes: List[int]
    mapping: str
    score: Optional[float]
    max_score: float
    dop: Optional[int] = None
    #: :meth:`SearchResult.telemetry` of the search that decided, if any.
    search: Optional[Dict[str, Any]] = None
    #: Verdicts of the *chosen* (post-ControlDOP) mapping.
    verdicts: List[VerdictRecord] = field(default_factory=list)
    #: Ranked top-k candidates from the search space.
    candidates: List[CandidateRecord] = field(default_factory=list)
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "depth": self.depth,
            "level_sizes": list(self.level_sizes),
            "mapping": self.mapping,
            "score": self.score,
            "max_score": self.max_score,
            "dop": self.dop,
            "search": self.search,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "candidates": [c.to_dict() for c in self.candidates],
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "KernelProvenance":
        return cls(
            index=int(data["index"]),
            depth=int(data["depth"]),
            level_sizes=[int(s) for s in data.get("level_sizes", [])],
            mapping=data["mapping"],
            score=data.get("score"),
            max_score=float(data.get("max_score", 0.0)),
            dop=data.get("dop"),
            search=data.get("search"),
            verdicts=[
                VerdictRecord.from_dict(v) for v in data.get("verdicts", [])
            ],
            candidates=[
                CandidateRecord.from_dict(c)
                for c in data.get("candidates", [])
            ],
            note=data.get("note", ""),
        )

    def render(self) -> str:
        lines = [
            f"## Kernel {self.index} (depth {self.depth}, "
            f"sizes {self.level_sizes})",
            f"winner: {self.mapping}",
        ]
        if self.score is not None:
            pct = 100.0 * self.score / self.max_score if self.max_score else 0.0
            lines.append(
                f"score: {self.score:.4g} of {self.max_score:.4g} "
                f"({pct:.0f}% of attainable weight)"
                + (f", dop {self.dop}" if self.dop is not None else "")
            )
        if self.note:
            lines.append(f"note: {self.note}")
        if self.search:
            pairs = ", ".join(
                f"{key}={value}" for key, value in self.search.items()
            )
            lines.append(f"search: {pairs}")
        if self.verdicts:
            lines.append("constraints under the winner:")
            for verdict in sorted(
                self.verdicts, key=lambda v: (-v.hard, -v.weight)
            ):
                lines.append("  " + verdict.render())
        if self.candidates:
            lines.append(f"top {len(self.candidates)} candidates:")
            for cand in self.candidates:
                lines.append(
                    f"  #{cand.rank} score {cand.score:.4g} "
                    f"(delta {cand.score_delta:.4g}) dop {cand.dop}  "
                    f"{cand.mapping}"
                )
                missed = [
                    v for v in cand.verdicts if not v.satisfied and not v.hard
                ]
                if missed:
                    lines.append(
                        "      sacrifices: "
                        + "; ".join(
                            f"{v.description} (w={v.weight:.3g})"
                            for v in missed
                        )
                    )
        return "\n".join(lines)


@dataclass
class CompileProvenance:
    """Provenance of one whole compile, serializable as a JSON artifact."""

    program: str
    device: str
    strategy: str
    sizes: Dict[str, int] = field(default_factory=dict)
    degradations: List[str] = field(default_factory=list)
    kernels: List[KernelProvenance] = field(default_factory=list)
    #: Content digest of the transformation recipe that built the plans
    #: (``None`` when no pipeline ran — fully degraded compiles).
    recipe_digest: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": PROVENANCE_VERSION,
            "program": self.program,
            "device": self.device,
            "strategy": self.strategy,
            "sizes": dict(self.sizes),
            "degradations": list(self.degradations),
            "kernels": [k.to_dict() for k in self.kernels],
            "recipe_digest": self.recipe_digest,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompileProvenance":
        version = data.get("version")
        if version != PROVENANCE_VERSION:
            raise ReproError(
                f"provenance artifact version {version!r} is not supported "
                f"(expected {PROVENANCE_VERSION})"
            )
        return cls(
            program=data["program"],
            device=data.get("device", ""),
            strategy=data.get("strategy", ""),
            sizes={k: int(v) for k, v in (data.get("sizes") or {}).items()},
            degradations=list(data.get("degradations") or []),
            kernels=[
                KernelProvenance.from_dict(k) for k in data.get("kernels", [])
            ],
            recipe_digest=data.get("recipe_digest"),
        )

    def write(self, path: str) -> str:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")
        return path

    def render(self) -> str:
        lines = [
            f"# Mapping provenance: {self.program}",
            f"device: {self.device}   strategy: {self.strategy}",
        ]
        if self.sizes:
            bindings = ", ".join(
                f"{k}={v}" for k, v in sorted(self.sizes.items())
            )
            lines.append(f"sizes: {bindings}")
        if self.recipe_digest:
            lines.append(f"recipe: {self.recipe_digest}")
        for note in self.degradations:
            lines.append(f"degraded: {note}")
        for kernel in self.kernels:
            lines.append("")
            lines.append(kernel.render())
        return "\n".join(lines)


def load_provenance(path: str) -> CompileProvenance:
    with open(path) as handle:
        return CompileProvenance.from_dict(json.load(handle))


# -- construction ----------------------------------------------------------


def _verdicts(cset, mapping, sizes_t: Tuple[int, ...]) -> List[VerdictRecord]:
    return [
        VerdictRecord(
            description=c.description,
            hard=c.hard,
            scope=c.scope,
            satisfied=c.satisfied_by(mapping, sizes_t),
            weight=getattr(c, "weight", 0.0),
        )
        for c in cset.constraints
    ]


def kernel_provenance(
    decision,
    index: int,
    strategy,
    top_k: int = SEARCH_RANKED_TOP_K,
) -> KernelProvenance:
    """Build the provenance record for one kernel decision.

    Reads the ranking the kernel's own search kept; ``top_k`` may not
    exceed :data:`~repro.config.SEARCH_RANKED_TOP_K`.
    """
    from ..analysis.scoring import score_mapping

    if top_k > SEARCH_RANKED_TOP_K:
        raise ValueError(
            f"top_k={top_k} exceeds the {SEARCH_RANKED_TOP_K} candidates "
            "a search ranks (SEARCH_RANKED_TOP_K)"
        )

    ka = decision.analysis
    cset = ka.constraints
    sizes_t = tuple(ka.level_sizes())
    score = decision.score
    if score is None:
        score = score_mapping(decision.mapping, cset, sizes_t)

    record = KernelProvenance(
        index=index,
        depth=ka.depth,
        level_sizes=list(ka.level_sizes()),
        mapping=str(decision.mapping),
        score=score,
        max_score=cset.max_score(),
        dop=decision.mapping.dop(sizes_t),
        search=(
            decision.search.telemetry() if decision.search is not None
            else None
        ),
        verdicts=_verdicts(cset, decision.mapping, sizes_t),
    )

    if decision.search is not None and decision.search.degraded:
        record.note = (
            "search degraded to the conservative fallback mapping; "
            "candidate ranking unavailable "
            f"({decision.search.degraded_reason})"
        )
        return record
    if strategy != "multidim":
        record.note = (
            f"fixed strategy {strategy!r}: mapping chosen structurally, "
            "no candidate search ran"
        )
        return record

    ranked = decision.search.ranked if decision.search is not None else None
    if ranked is None:
        # A session fallback: the search raised, so nothing was ranked.
        record.note = (
            "candidate ranking unavailable (the mapping search failed; "
            "conservative fallback mapping substituted)"
        )
        return record
    ranked = ranked[:top_k]
    best = ranked[0].score if ranked else (score or 0.0)
    record.candidates = [
        CandidateRecord(
            rank=rank,
            mapping=str(sm.mapping),
            score=sm.score,
            dop=sm.dop,
            score_delta=best - sm.score,
            verdicts=_verdicts(cset, sm.mapping, sizes_t),
        )
        for rank, sm in enumerate(ranked, 1)
    ]
    return record


def build_provenance(
    compiled, top_k: int = SEARCH_RANKED_TOP_K
) -> CompileProvenance:
    """Assemble the provenance record for a compiled program."""
    with get_tracer().span("provenance", program=compiled.program.name):
        recipe_digest = None
        try:
            recipe = compiled.recipe()
        except Exception:
            recipe = None  # provenance is best-effort diagnostics
        if recipe is not None:
            recipe_digest = recipe.content_digest()
        return CompileProvenance(
            program=compiled.program.name,
            device=compiled.device.name,
            strategy=str(compiled.strategy),
            sizes=dict(compiled.size_hints),
            degradations=list(compiled.degradations),
            kernels=[
                kernel_provenance(
                    decision, index, compiled.strategy, top_k=top_k,
                )
                for index, decision in enumerate(compiled.decisions)
            ],
            recipe_digest=recipe_digest,
        )
