"""Tests for the benchmark harness, metric post-processing and reporting."""

import pytest

import repro.api as api
from repro.bench.harness import compare_workload, capture_workload, run_original
from repro.bench.metrics import (
    kernel_counters_by_name,
    normalize_to,
    operator_gpu_time_breakdown,
    top_kernel_names,
)
from repro.bench.reporting import MLPERF_TRAINING_BENCHMARKS, format_series, format_table
from repro.core.registry import ReplaySupport
from repro.hardware.specs import A100
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
from tests.conftest import make_small_rm


def small_linear():
    return ParamLinearWorkload(
        ParamLinearConfig(batch_size=64, num_layers=3, hidden_size=256, input_size=256)
    )


class TestHarness:
    def test_run_original_multiple_iterations(self):
        result = run_original(small_linear(), iterations=3, warmup_iterations=1)
        assert len(result.iteration_times_us) == 3
        assert result.mean_iteration_time_ms > 0
        assert result.kernel_launches

    def test_capture_contains_all_artifacts(self):
        capture = capture_workload(small_linear(), warmup_iterations=1)
        assert len(capture.execution_trace) > 10
        assert capture.profiler_trace.kernels()
        assert capture.iteration_time_us > 0
        assert capture.system_metrics.gpu_power_w > 0

    def test_capture_excludes_warmup_kernels(self):
        with_warmup = capture_workload(small_linear(), warmup_iterations=2)
        without = capture_workload(small_linear(), warmup_iterations=0)
        assert len(with_warmup.kernel_launches) == len(without.kernel_launches)

    def test_replay_capture_roundtrip(self):
        capture = capture_workload(small_linear(), warmup_iterations=0)
        replay = api.replay(capture).run()
        assert replay.mean_iteration_time_us == pytest.approx(capture.iteration_time_us, rel=0.10)

    def test_compare_workload_full_coverage(self):
        comparison = compare_workload(small_linear())
        assert comparison.coverage_count == pytest.approx(1.0)
        assert comparison.original_time_excl_unsupported_us == pytest.approx(comparison.original_time_us)
        assert comparison.replay_error < 0.10

    def test_compare_workload_with_unsupported_ops(self):
        comparison = compare_workload(make_small_rm())
        assert comparison.coverage_count < 1.0
        assert comparison.original_time_excl_unsupported_us < comparison.original_time_us
        assert comparison.replay_error < 0.20

    def test_compare_workload_with_extended_support(self, small_asr):
        support = ReplaySupport()
        support.register_library("fairseq")
        capture = capture_workload(small_asr, warmup_iterations=0)
        default = compare_workload(small_asr, capture=capture)
        extended = compare_workload(small_asr, capture=capture, support=support)
        assert extended.coverage_time > default.coverage_time


class TestMetricPostprocessing:
    def test_kernel_counters_by_name(self):
        capture = capture_workload(small_linear(), warmup_iterations=0)
        counters = kernel_counters_by_name(capture.kernel_launches, A100)
        assert counters
        gemm_names = [name for name in counters if "sgemm" in name]
        assert gemm_names
        for counter in counters.values():
            assert 0 <= counter.l1_hit_rate <= 1
            assert counter.duration_us > 0

    def test_top_kernel_names_ordering(self):
        capture = capture_workload(small_linear(), warmup_iterations=0)
        top = top_kernel_names(capture.kernel_launches, top_k=3)
        counters = kernel_counters_by_name(capture.kernel_launches, A100)
        durations = [counters[name].duration_us for name in top]
        assert durations == sorted(durations, reverse=True)
        assert len(top) <= 3

    def test_operator_gpu_time_breakdown(self):
        capture = capture_workload(small_linear(), warmup_iterations=0)
        breakdown = operator_gpu_time_breakdown(capture.kernel_launches)
        assert "aten::addmm" in breakdown or "aten::linear" in breakdown
        assert all(value > 0 for value in breakdown.values())

    def test_normalize_to(self):
        normalized = normalize_to({"a": 10.0, "b": 0.0}, {"a": 9.0, "b": 0.0})
        assert normalized["a"] == pytest.approx(0.9)
        assert normalized["b"] == 0.0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["model", "time"], [["resnet", 64.4], ["rm", 65.9]], title="Table 4")
        lines = text.splitlines()
        assert lines[0] == "Table 4"
        assert "model" in lines[1]
        assert "resnet" in lines[3]
        assert "64.400" in text

    def test_format_series(self):
        text = format_series(
            {"Original": {100: 0.5, 200: 0.8}, "Replay": {100: 0.52, 200: 0.79}},
            x_label="power limit",
        )
        assert "power limit" in text
        assert "Original" in text and "Replay" in text
        assert "0.520" in text

    def test_mlperf_table_contents(self):
        models = {entry["model"] for entry in MLPERF_TRAINING_BENCHMARKS}
        assert {"ResNet-50", "BERT-large", "DLRM"} <= models
        assert len(MLPERF_TRAINING_BENCHMARKS) == 7
        assert all("last_updated" in entry for entry in MLPERF_TRAINING_BENCHMARKS)
