"""Benchmark harness utilities.

This subpackage contains the glue the evaluation (tests/ and benchmarks/)
uses to regenerate every table and figure of the paper:

* :mod:`~repro.bench.harness` — capture a workload's traces, run the
  original, replay the generated benchmark, and compare the two,
* :mod:`~repro.bench.metrics` — per-kernel counter aggregation (Figure 6)
  and operator-time breakdowns (Figure 4),
* :mod:`~repro.bench.reporting` — plain-text table/series formatting plus
  the static reference data of Table 1,
* :mod:`~repro.bench.aggregate` — roll-ups over batch replay results
  (per-job tables, per-device aggregates, cache accounting) used by the
  ``repro.service`` sweep layer and CLI,
* :mod:`~repro.bench.throughput` — the replay *engine's* own throughput
  (scalar vs vectorized ops/sec, profiler overhead), written to the
  versioned ``BENCH_replay_throughput.json`` trajectory file.
"""

from repro.bench.harness import (
    CaptureResult,
    ComparisonResult,
    OriginalRunResult,
    capture_workload,
    compare_workload,
    run_original,
)
from repro.bench.metrics import kernel_counters_by_name, top_kernel_names, operator_gpu_time_breakdown
from repro.bench.reporting import format_table, format_series, MLPERF_TRAINING_BENCHMARKS
from repro.bench.aggregate import (
    aggregate_by_device,
    cache_summary_line,
    format_batch_report,
    format_device_aggregate,
)
from repro.bench.throughput import (
    BENCH_FILENAME,
    BENCH_SCHEMA_VERSION,
    format_report as format_throughput_report,
    measure_execute_throughput,
    measure_hook_overhead,
    run_benchmark as run_throughput_benchmark,
    write_report as write_throughput_report,
)

__all__ = [
    "aggregate_by_device",
    "cache_summary_line",
    "format_batch_report",
    "format_device_aggregate",
    "CaptureResult",
    "ComparisonResult",
    "OriginalRunResult",
    "capture_workload",
    "compare_workload",
    "run_original",
    "kernel_counters_by_name",
    "top_kernel_names",
    "operator_gpu_time_breakdown",
    "format_table",
    "format_series",
    "MLPERF_TRAINING_BENCHMARKS",
    "BENCH_FILENAME",
    "BENCH_SCHEMA_VERSION",
    "format_throughput_report",
    "measure_execute_throughput",
    "measure_hook_overhead",
    "run_throughput_benchmark",
    "write_throughput_report",
]
