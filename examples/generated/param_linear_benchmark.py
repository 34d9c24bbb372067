#!/usr/bin/env python3
"""Auto-generated benchmark (Mystique-style ET replay).

Workload : param_linear
Captured : A100
Generated by repro.core.generator.BenchmarkGenerator; edit the CONFIG block
to change the target platform, iteration count or replay filters.
"""

import sys
from pathlib import Path

import repro.api as api
from repro.core import ReplayConfig
from repro.et.trace import ExecutionTrace
from repro.torchsim.profiler import ProfilerTrace

HERE = Path(__file__).resolve().parent

CONFIG = ReplayConfig(
    device='A100',
    iterations=5,
    warmup_iterations=0,
)


def main() -> None:
    trace = ExecutionTrace.load(HERE / 'param_linear_et.json')
    profiler_path = HERE / 'param_linear_profiler.json'
    profiler_trace = ProfilerTrace.load(profiler_path) if profiler_path.exists() else None

    result = api.replay(trace).with_profiler(profiler_trace).using(CONFIG).run()

    lines = [
        f"workload              : param_linear",
        f"replayed operators    : {result.replayed_ops}",
        f"skipped operators     : {result.skipped_ops}",
        f"iteration time (ms)   : {result.mean_iteration_time_ms:.3f}",
        f"SM utilization (%)    : {result.system_metrics.sm_utilization_pct:.1f}",
        f"HBM bandwidth (GB/s)  : {result.system_metrics.hbm_bandwidth_gbps:.1f}",
        f"GPU power (W)         : {result.system_metrics.gpu_power_w:.1f}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
