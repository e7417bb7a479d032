"""Program-level compiler: the session's kernel decisions -> a CUDA module.

One kernel is generated per outermost pattern (the paper's one-to-one
mapping), each from its :class:`~repro.gpusim.simulator.KernelDecision`:
the decision's analysis and mapping are the ones the session searched,
planned and prices, so nothing here re-analyzes or re-decides.  The
module also carries the device-function preamble and, for ``Split(k)``
mappings, combiner kernels.  Standalone callers compile through
``GpuSession(strategy=..., flags=...).compile(program, **sizes).module``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..ir.patterns import Program
from .kernels import CompiledKernel, KernelGenerator, device_function_preamble

if TYPE_CHECKING:
    from ..gpusim.simulator import KernelDecision


@dataclass
class CompiledModule:
    """All generated kernels for one program."""

    program: Program
    kernels: List[CompiledKernel] = field(default_factory=list)
    preamble: str = ""

    @property
    def source(self) -> str:
        """The complete CUDA translation unit."""
        parts = ["#include <cfloat>", ""]
        if self.preamble:
            parts.append(self.preamble)
        for kernel in self.kernels:
            parts.append(kernel.full_source)
        return "\n".join(parts)


def compile_program(
    program: Program,
    decisions: Sequence["KernelDecision"],
    prealloc: bool = True,
    layout_strides: Optional[Dict[str, Tuple[str, ...]]] = None,
) -> CompiledModule:
    """Generate CUDA for every kernel of a program, one per decision."""
    from ..observability import get_tracer, instrumented_stage

    tracer = get_tracer()
    with instrumented_stage("codegen", program=program.name) as scope:
        module = CompiledModule(program=program)
        preambles = []
        for index, decision in enumerate(decisions):
            ka = decision.analysis
            name = f"{_sanitize(program.name)}_kernel{index}"
            with tracer.span("codegen.kernel", kernel=name):
                generator = KernelGenerator(
                    ka,
                    decision.mapping,
                    program,
                    kernel_name=name,
                    prealloc=prealloc,
                    layout_strides=layout_strides,
                )
                module.kernels.append(generator.generate())
            preamble = device_function_preamble(ka.root)
            if preamble and preamble not in preambles:
                preambles.append(preamble)
        module.preamble = "\n".join(preambles)
        scope.span.set(kernels=len(module.kernels))
        return module


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)
