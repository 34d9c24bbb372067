"""Standalone benchmark generation (Section 5).

The end product of Mystique is "a single PyTorch program" that contains the
replayed operators with a hardcoded execution order, input arguments and
data dependencies, and runs on any platform like a normal application.  The
:class:`BenchmarkGenerator` emits that program: a self-contained Python
script that loads the execution (and profiler) trace and drives a replay
through the :mod:`repro.api` facade, plus the trace files it needs next to
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.replayer import ReplayConfig
from repro.et.trace import ExecutionTrace
from repro.torchsim.profiler import ProfilerTrace

_TEMPLATE = '''#!/usr/bin/env python3
"""Auto-generated benchmark (Mystique-style ET replay).

Workload : {workload}
Captured : {capture_platform}
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
    device={device!r},
    iterations={iterations},
    warmup_iterations={warmup_iterations},
)


def main() -> None:
    trace = ExecutionTrace.load(HERE / {et_filename!r})
    profiler_path = HERE / {profiler_filename!r}
    profiler_trace = ProfilerTrace.load(profiler_path) if profiler_path.exists() else None

    result = api.replay(trace).with_profiler(profiler_trace).using(CONFIG).run()

    lines = [
        f"workload              : {workload}",
        f"replayed operators    : {{result.replayed_ops}}",
        f"skipped operators     : {{result.skipped_ops}}",
        f"iteration time (ms)   : {{result.mean_iteration_time_ms:.3f}}",
        f"SM utilization (%)    : {{result.system_metrics.sm_utilization_pct:.1f}}",
        f"HBM bandwidth (GB/s)  : {{result.system_metrics.hbm_bandwidth_gbps:.1f}}",
        f"GPU power (W)         : {{result.system_metrics.gpu_power_w:.1f}}",
    ]
    sys.stdout.write("\\n".join(lines) + "\\n")


if __name__ == "__main__":
    main()
'''


@dataclass
class GeneratedBenchmark:
    """Paths of the emitted benchmark artifacts."""

    script_path: Path
    et_path: Path
    profiler_path: Optional[Path]


class BenchmarkGenerator:
    """Emits a standalone, runnable benchmark program for a captured trace."""

    def __init__(self, config: Optional[ReplayConfig] = None):
        self.config = config if config is not None else ReplayConfig()

    def generate_source(
        self,
        workload_name: str,
        et_filename: str,
        profiler_filename: str,
        capture_platform: str = "A100",
    ) -> str:
        """Render the benchmark script source code."""
        return _TEMPLATE.format(
            workload=workload_name,
            capture_platform=capture_platform,
            device=self.config.device,
            iterations=self.config.iterations,
            warmup_iterations=self.config.warmup_iterations,
            et_filename=et_filename,
            profiler_filename=profiler_filename,
        )

    def write(
        self,
        output_dir: "str | Path",
        workload_name: str,
        trace: ExecutionTrace,
        profiler_trace: Optional[ProfilerTrace] = None,
    ) -> GeneratedBenchmark:
        """Write the benchmark script and its trace inputs to ``output_dir``."""
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        et_filename = f"{workload_name}_et.json"
        profiler_filename = f"{workload_name}_profiler.json"

        et_path = trace.save(output_dir / et_filename)
        profiler_path: Optional[Path] = None
        if profiler_trace is not None:
            profiler_path = profiler_trace.save(output_dir / profiler_filename)

        source = self.generate_source(
            workload_name=workload_name,
            et_filename=et_filename,
            profiler_filename=profiler_filename,
            capture_platform=str(trace.metadata.get("device", "A100")),
        )
        script_path = output_dir / f"{workload_name}_benchmark.py"
        script_path.write_text(source)
        return GeneratedBenchmark(script_path=script_path, et_path=et_path, profiler_path=profiler_path)
