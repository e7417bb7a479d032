"""The built-in transformation passes.

Each of the paper's mapping-coupled rewrites, reified:

* :class:`PreallocPass` — Section V-A preallocation with canonical
  row-major layouts;
* :class:`LayoutPass` — the mapping-directed physical layout refinement
  of Figure 11 (requires prealloc: layouts only exist for preallocated
  buffers);
* :class:`SharedMemoryPass` — Section V-B shared-memory prefetching;
* :class:`ControlDopPass` — procedure ControlDOP of Algorithm 1.

The default :func:`repro.optim.pipeline.build_plan` pipeline runs
prealloc -> layout -> shared_memory (exactly the legacy fused sequence,
byte-for-byte); ControlDOP stays a launch-time rewrite for runtime
sizes that differ from the compile's
(:func:`repro.runtime.launcher.adjust_at_launch`) but participates in
the pass-ordering search, where pulling it into the plan pipeline is a
legitimate — and costed — alternative.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, Optional, Tuple

from ...analysis.analyzer import KernelAnalysis
from ...analysis.dop import DopWindow, control_dop
from ...analysis.mapping import Mapping
from ...gpusim.device import GpuDevice
from ..prealloc import plan_preallocations
from ..shared_memory import plan_shared_memory
from .base import PlanState, Transformation, register_pass


@register_pass
class PreallocPass(Transformation):
    """Preallocate flexible inner allocations (canonical row-major).

    Always applicable: when the kernel has no flexible arrays the pass
    still marks the plan preallocated with an empty stride table, which
    is the legacy pipeline's exact behavior under ``flags.prealloc``.
    """

    name: ClassVar[str] = "prealloc"

    def can_be_applied(
        self, analysis: KernelAnalysis, mapping: Mapping, device: GpuDevice
    ) -> bool:
        return True

    def apply(self, state: PlanState) -> PlanState:
        decisions = plan_preallocations(
            state.analysis, state.mapping, optimize_layout=False
        )
        return state.evolve(
            prealloc=True,
            layout_strides=tuple(
                (d.array_key, d.layout.strides) for d in decisions
            ),
        )


@register_pass
class LayoutPass(Transformation):
    """Refine preallocated buffers to the coalescing-optimal axis order.

    Layout is a property of a preallocated buffer, so the pass requires
    prealloc to have run earlier; the decision depends only on the
    access shapes and the *current* mapping, so re-deriving the full
    stride table from scratch is equivalent to the legacy fused
    ``plan_preallocations(optimize_layout=True)`` call.
    """

    name: ClassVar[str] = "layout"
    requires: ClassVar[Tuple[str, ...]] = ("prealloc",)

    def can_be_applied(
        self, analysis: KernelAnalysis, mapping: Mapping, device: GpuDevice
    ) -> bool:
        return bool(analysis.accesses.flexible_arrays())

    def apply(self, state: PlanState) -> PlanState:
        decisions = plan_preallocations(
            state.analysis, state.mapping, optimize_layout=True
        )
        return state.evolve(
            layout_strides=tuple(
                (d.array_key, d.layout.strides) for d in decisions
            ),
        )


@register_pass
class SharedMemoryPass(Transformation):
    """Stage outer-level reads through shared memory (Section V-B).

    Inapplicable to depth-1 nests — with no outer level there is nothing
    to stage, and the legacy planner provably selected nothing there.
    """

    name: ClassVar[str] = "shared_memory"

    def can_be_applied(
        self, analysis: KernelAnalysis, mapping: Mapping, device: GpuDevice
    ) -> bool:
        return analysis.nest.depth >= 2

    def apply(self, state: PlanState) -> PlanState:
        prefetch = plan_shared_memory(
            state.analysis,
            state.mapping,
            shared_budget_bytes=state.device.shared_mem_per_sm_bytes,
        )
        return state.evolve(
            smem_prefetch=prefetch.array_keys,
            extra_shared_bytes=prefetch.shared_bytes_per_block,
        )


@register_pass
class ControlDopPass(Transformation):
    """Clamp the mapping's DOP into the device window (Algorithm 1).

    Unlike the plan-shaping passes this one rewrites the *mapping*
    (Span(all) -> Split(k) below the window, Span(1) -> Span(n) above),
    so its position in a pipeline matters: layout and shared-memory
    decisions taken before it see the unclamped mapping.  An explicit
    window overrides the device-derived one (serialized in ``params`` so
    a recipe replays against the same window it recorded).
    """

    name: ClassVar[str] = "control_dop"

    def __init__(
        self,
        min_dop: Optional[int] = None,
        max_dop: Optional[int] = None,
    ) -> None:
        if (min_dop is None) != (max_dop is None):
            from ...errors import RecipeError

            raise RecipeError(
                "control_dop takes both min_dop and max_dop, or neither"
            )
        self.min_dop = None if min_dop is None else int(min_dop)
        self.max_dop = None if max_dop is None else int(max_dop)

    @property
    def params(self) -> Dict[str, Any]:
        if self.min_dop is None:
            return {}
        return {"min_dop": self.min_dop, "max_dop": self.max_dop}

    def window(self, device: Optional[GpuDevice]) -> DopWindow:
        if self.min_dop is not None:
            return DopWindow(min_dop=self.min_dop, max_dop=self.max_dop)
        if device is None:
            from ...errors import RecipeError

            raise RecipeError(
                "control_dop needs a device (or explicit min_dop/max_dop) "
                "to derive its DOP window"
            )
        return device.dop_window()

    def can_be_applied(
        self, analysis: KernelAnalysis, mapping: Mapping, device: GpuDevice
    ) -> bool:
        return any(lm.parallel for lm in mapping.levels)

    def adjust(
        self,
        mapping: Mapping,
        sizes,
        splittable_levels,
        device: Optional[GpuDevice] = None,
    ) -> Mapping:
        """The raw DOP rewrite, usable outside a plan pipeline.

        :func:`repro.runtime.launcher.adjust_at_launch` re-tunes against
        runtime sizes that differ from the compile's through this same
        entry point, so compile-time and launch-time ControlDOP cannot
        drift apart.
        """
        return control_dop(
            mapping, sizes, self.window(device), splittable_levels
        )

    def apply(self, state: PlanState) -> PlanState:
        analysis = state.analysis
        adjusted = self.adjust(
            state.mapping,
            analysis.level_sizes(),
            analysis.constraints.span_all_levels(),
            state.device,
        )
        return state.evolve(mapping=adjusted)
