"""Tests for host-driver generation (complete .cu files)."""

import pytest

from repro.codegen import generate_host_driver
from repro.runtime import GpuSession


def compile_module(program, strategy="multidim", **sizes):
    """The CUDA module a session compile emits for ``program``."""
    return GpuSession(strategy=strategy).compile(program, **sizes).module


def driver_for(program, sizes):
    return generate_host_driver(compile_module(program, **sizes), sizes)


class TestHostDriver:
    def test_complete_translation_unit(self, sum_rows_program):
        src = driver_for(sum_rows_program, {"R": 1024, "C": 4096})
        assert "#include <cuda_runtime.h>" in src
        assert "int main()" in src
        assert "__global__" in src
        assert src.index("__global__") < src.index("int main()")

    def test_buffer_sizes_from_shapes(self, sum_rows_program):
        src = driver_for(sum_rows_program, {"R": 1024, "C": 4096})
        assert "cudaMalloc(&d_m, 4194304 * sizeof(double))" in src
        assert "cudaMalloc(&d_out_sumRows_kernel0, 1024 * sizeof(double))" in src

    def test_launch_geometry_from_mapping(self, sum_rows_program):
        src = driver_for(sum_rows_program, {"R": 1024, "C": 4096})
        assert "dim3 grid_sumRows_kernel0(" in src
        assert "<<<grid_sumRows_kernel0, block_sumRows_kernel0>>>" in src

    def test_memcpy_round_trip(self, sum_rows_program):
        src = driver_for(sum_rows_program, {"R": 64, "C": 64})
        assert "cudaMemcpyHostToDevice" in src
        assert "cudaMemcpyDeviceToHost" in src
        assert "cudaDeviceSynchronize()" in src

    def test_error_checking_everywhere(self, sum_rows_program):
        src = driver_for(sum_rows_program, {"R": 64, "C": 64})
        assert "CUDA_CHECK" in src
        assert "cudaGetLastError()" in src

    def test_combiner_launch_for_split(self):
        from repro.analysis.mapping import (
            Dim, LevelMapping, Mapping, Span, Split,
        )
        from tests.conftest import make_sum_rows

        program = make_sum_rows()
        split_mapping = Mapping(
            (
                LevelMapping(Dim.Y, 1, Span(1)),
                LevelMapping(Dim.X, 256, Split(4)),
            )
        )
        module = compile_module(program, split_mapping, R=64, C=100000)
        src = generate_host_driver(module, {"R": 64, "C": 100000})
        assert "d_partials_" in src
        assert "_combine<<<" in src

    def test_struct_fields_flattened(self):
        from repro.apps.pagerank import build_pagerank

        module = compile_module(build_pagerank(), N=1024, E=16384)
        src = generate_host_driver(module, {"N": 1024, "E": 16384})
        assert "d_graph_offsets" in src
        assert "d_graph_nbrs" in src
        # offsets sized N+1
        assert "cudaMalloc(&d_graph_offsets, 1025 * sizeof(long long))" in src

    def test_prealloc_buffer_allocated(self, sum_weighted_cols_program):
        src = driver_for(
            sum_weighted_cols_program, {"R": 256, "C": 256},
        )
        assert "_buf" in src
        assert "cudaMalloc(&d_" in src

    def test_filter_counter_initialized(self):
        from repro.apps.outlier_histogram import build_outlier_filter

        module = compile_module(build_outlier_filter(), N=4096)
        src = generate_host_driver(module, {"N": 4096})
        assert "cudaMemset(d_count_" in src

    def test_multi_kernel_program(self):
        from repro.apps.naive_bayes import build_naive_bayes

        module = compile_module(build_naive_bayes(), DOCS=512, WORDS=256)
        src = generate_host_driver(module, {"DOCS": 512, "WORDS": 256})
        assert src.count("<<<grid_") == 2 + src.count("_combine<<<") * 0
