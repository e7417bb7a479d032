"""Tests for the runtime layer: buffers, dynamic launch, sessions."""

import sys

import numpy as np
import pytest

from repro.errors import RuntimeConfigError
from repro.analysis.analyzer import analyze_program
from repro.analysis.mapping import Dim, Span, SpanAll, Split
from repro.gpusim.device import TESLA_K20C
from repro.optim import OptimizationFlags
from repro.runtime import BufferManager, GpuSession, adjust_at_launch


class TestBufferManager:
    def test_alloc_free_tracking(self):
        mgr = BufferManager()
        mgr.alloc("a", 1000)
        mgr.alloc("b", 500)
        assert mgr.current_bytes == 1500
        mgr.free("a")
        assert mgr.current_bytes == 500
        assert mgr.peak_bytes == 1500

    def test_double_alloc_rejected(self):
        mgr = BufferManager()
        mgr.alloc("a", 10)
        with pytest.raises(RuntimeConfigError):
            mgr.alloc("a", 10)

    def test_free_unknown(self):
        with pytest.raises(RuntimeConfigError):
            BufferManager().free("nope")

    def test_negative_size(self):
        with pytest.raises(RuntimeConfigError):
            BufferManager().alloc("a", -1)

    def test_transfer_time_has_latency_floor(self):
        mgr = BufferManager(TESLA_K20C)
        tiny = mgr.transfer_time_us(8)
        assert tiny >= TESLA_K20C.pcie_latency_us
        big = mgr.transfer_time_us(6e9)
        assert big == pytest.approx(TESLA_K20C.pcie_latency_us + 1e6, rel=0.01)


class TestDynamicLaunch:
    def test_preserves_dims_and_span_kinds(self, sum_rows_program):
        pa = analyze_program(sum_rows_program, R=1024, C=1024)
        ka = pa.kernel(0)
        static = ka.select_mapping().mapping
        adjusted = adjust_at_launch(
            static, ka.constraints, [50, 20000], TESLA_K20C.dop_window()
        )
        for before, after in zip(static.levels, adjusted.levels):
            assert before.dim == after.dim
            # span *kind* preserved (factors may change)
            assert isinstance(after.span, type(before.span)) or (
                isinstance(before.span, (Span, Split))
                and isinstance(after.span, (Span, Split, SpanAll))
            )

    def test_retunes_block_sizes_for_skewed_runtime_size(
        self, sum_rows_program
    ):
        """Figure 17's dynamic adjustment: a static decision at square
        sizes still performs well on skewed runtime sizes."""
        pa = analyze_program(sum_rows_program, R=4096, C=4096)
        ka = pa.kernel(0)
        static = ka.select_mapping().mapping
        adjusted = adjust_at_launch(
            static, ka.constraints, [50, 200000], TESLA_K20C.dop_window()
        )
        # the adjusted mapping must still satisfy hard constraints
        from repro.analysis.scoring import hard_feasible

        assert hard_feasible(adjusted, ka.constraints, (50, 200000))

    def test_respects_dop_window(self, sum_rows_program):
        pa = analyze_program(sum_rows_program, R=4096, C=4096)
        ka = pa.kernel(0)
        static = ka.select_mapping().mapping
        adjusted = adjust_at_launch(
            static, ka.constraints, [40, 128], TESLA_K20C.dop_window()
        )
        dop = adjusted.dop([40, 128])
        # low-size case: ControlDOP pushes DOP up via Split when possible
        assert dop >= static.with_level(0, static.level(0)).dop([40, 128])


class TestGpuSession:
    def test_compile_run_estimate(self, sum_rows_program, rng):
        session = GpuSession()
        compiled = session.compile(sum_rows_program, R=64, C=32)
        data = rng.random((64, 32))
        out = compiled.run(m=data, R=64, C=32)
        assert np.allclose(out, data.sum(axis=1))
        assert compiled.estimate_time_us() > 0
        assert "__global__" in compiled.cuda_source

    def test_estimate_at_other_sizes(self, sum_rows_program):
        session = GpuSession()
        compiled = session.compile(sum_rows_program, R=1024, C=1024)
        small = compiled.estimate_time_us(R=256, C=256)
        large = compiled.estimate_time_us(R=8192, C=8192)
        assert large > small

    def test_strategy_selection(self, sum_cols_program):
        multidim = GpuSession(strategy="multidim").compile(
            sum_cols_program, R=65536, C=1024
        )
        oned = GpuSession(strategy="1d").compile(
            sum_cols_program, R=65536, C=1024
        )
        assert oned.estimate_time_us() > multidim.estimate_time_us()

    def test_flags_disable_prealloc(self, sum_weighted_cols_program):
        session = GpuSession(
            flags=OptimizationFlags(prealloc=False, layout_opt=False,
                                    shared_memory=False)
        )
        compiled = session.compile(sum_weighted_cols_program, R=512, C=512)
        cost = compiled.estimate_cost()
        assert cost.kernels[0].malloc_us > 0

    def test_describe_lists_kernels(self, sum_rows_program):
        compiled = GpuSession().compile(sum_rows_program, R=64, C=64)
        text = compiled.describe()
        assert "kernel 0" in text

    def test_transfer_accounting(self, sum_rows_program):
        compiled = GpuSession().compile(sum_rows_program, R=64, C=64)
        cost = compiled.estimate_cost(
            include_transfer=True, input_bytes=1e6
        )
        assert cost.transfer_us > 0

    def test_one_analysis_per_compile(self, monkeypatch):
        """Codegen and the cost estimate read the session's decisions:
        a compile analyzes the program exactly once."""
        from repro.apps.naive_bayes import build_naive_bayes

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].name)
            return analyze_program(*args, **kwargs)

        # Every ``from ... import analyze_program`` binding in the package.
        bindings = [
            module for module in list(sys.modules.values())
            if getattr(module, "__name__", "").startswith("repro")
            and getattr(module, "analyze_program", None) is analyze_program
        ]
        for module in bindings:
            monkeypatch.setattr(module, "analyze_program", counting)
        compiled = GpuSession().compile(
            build_naive_bayes(), DOCS=512, WORDS=256
        )
        compiled.estimate_cost()
        assert calls == ["naiveBayes"]

    def test_multi_kernel_session(self):
        from repro.apps.naive_bayes import build_naive_bayes

        compiled = GpuSession().compile(
            build_naive_bayes(), DOCS=4096, WORDS=2048
        )
        assert len(compiled.decisions) == 2
        mappings = compiled.mappings()
        assert mappings[0].level(1).dim == Dim.X
        assert mappings[1].level(0).dim == Dim.X


class TestErrorPaths:
    def test_unknown_strategy_raises(self, sum_rows_program):
        from repro.errors import MappingError

        with pytest.raises(MappingError, match="unknown strategy"):
            GpuSession(strategy="magic").compile(
                sum_rows_program, R=64, C=64
            )

    def test_every_error_subclasses_repro_error(self):
        import repro.errors as errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or (
                    obj is errors.ReproError
                )


class TestCrossDeviceRegistry:
    def test_fig3_runs_on_c2050(self):
        from repro.figures import run_experiment
        from repro.gpusim import TESLA_C2050

        result = run_experiment("fig3", device=TESLA_C2050)
        rows = {(r["kernel"], r["shape"]): r for r in result.rows}
        assert rows[("sumCols", "[64K,1K]")]["1d"] > 3
