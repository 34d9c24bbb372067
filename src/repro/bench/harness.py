"""Capture / run / replay / compare harness.

This is the workflow of Figure 3 wired end to end for a single process:

1. run the workload with the ExecutionGraphObserver and profiler attached
   and capture one iteration (:func:`capture_workload`),
2. measure the original workload (:func:`run_original`),
3. replay the captured traces as a generated benchmark (through
   :func:`repro.api.replay`, or :func:`~repro.core.pipeline.run_replay`
   directly),
4. compare the two (:func:`compare_workload`), producing the Table 4 /
   Figure 5 quantities: original time, original time excluding unsupported
   operators, replay time, and the macro system metrics of both runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.pipeline import run_replay
from repro.core.registry import ReplaySupport
from repro.core.replayer import ReplayConfig, ReplayResult
from repro.core.selection import OperatorSelector
from repro.et.trace import ExecutionTrace
from repro.hardware.counters import SystemMetrics, compute_system_metrics
from repro.hardware.gpu import TimelineStats
from repro.torchsim.kernel import KernelLaunch
from repro.torchsim.observer import ExecutionGraphObserver
from repro.torchsim.profiler import Profiler, ProfilerTrace
from repro.torchsim.runtime import Runtime
from repro.workloads.base import Workload


@dataclass
class CaptureResult:
    """Traces and measurements captured from one original iteration."""

    workload_name: str
    device: str
    execution_trace: ExecutionTrace
    profiler_trace: ProfilerTrace
    iteration_time_us: float
    timeline_stats: TimelineStats
    system_metrics: SystemMetrics
    kernel_launches: List[KernelLaunch] = field(default_factory=list)


@dataclass
class OriginalRunResult:
    """Measurements of the original workload over several iterations."""

    workload_name: str
    device: str
    iteration_times_us: List[float]
    timeline_stats: TimelineStats
    system_metrics: SystemMetrics
    kernel_launches: List[KernelLaunch] = field(default_factory=list)

    @property
    def mean_iteration_time_us(self) -> float:
        if not self.iteration_times_us:
            return 0.0
        return sum(self.iteration_times_us) / len(self.iteration_times_us)

    @property
    def mean_iteration_time_ms(self) -> float:
        return self.mean_iteration_time_us / 1e3


@dataclass
class ComparisonResult:
    """Original-vs-replay comparison for one workload (one Table 4 row)."""

    workload_name: str
    device: str
    original_time_us: float
    original_time_excl_unsupported_us: float
    replay_time_us: float
    original_metrics: SystemMetrics
    replay_metrics: SystemMetrics
    coverage_count: float
    coverage_time: float
    capture: Optional[CaptureResult] = None
    replay: Optional[ReplayResult] = None

    @property
    def replay_error(self) -> float:
        """Relative error of the replay vs the calibrated original time."""
        reference = self.original_time_excl_unsupported_us
        if reference <= 0:
            return 0.0
        return abs(self.replay_time_us - reference) / reference


# ----------------------------------------------------------------------
def capture_workload(
    workload: Workload,
    device: str = "A100",
    warmup_iterations: int = 1,
    power_limit_w: Optional[float] = None,
    runtime: Optional[Runtime] = None,
) -> CaptureResult:
    """Capture the execution trace and profiler trace of one iteration.

    Mirrors the hook placement of Section 4.1: warm-up iterations run
    without instrumentation, then exactly one iteration is captured.
    """
    runtime = runtime if runtime is not None else Runtime(device=device, power_limit_w=power_limit_w)
    observer = runtime.attach_observer(ExecutionGraphObserver())
    observer.register_callback(None)
    profiler = runtime.attach_profiler(Profiler())

    for _ in range(warmup_iterations):
        workload.run_iteration(runtime)
        runtime.synchronize()

    observer.start()
    profiler.start()
    start = runtime.synchronize()
    workload.run_iteration(runtime)
    end = runtime.synchronize()
    observer.stop()
    profiler.stop()

    stats = runtime.timeline_stats(window_start=start, window_end=end)
    metrics = compute_system_metrics(stats, runtime.spec, power_limit_w)
    trace = observer.trace
    assert trace is not None
    trace.metadata.update({"workload": workload.name, "device": device, "world_size": 1})
    launches = [k for k in runtime.gpu.launches if k.start is not None and k.start >= start]
    return CaptureResult(
        workload_name=workload.name,
        device=device,
        execution_trace=trace,
        profiler_trace=profiler.trace,
        iteration_time_us=end - start,
        timeline_stats=stats,
        system_metrics=metrics,
        kernel_launches=launches,
    )


def run_original(
    workload: Workload,
    device: str = "A100",
    iterations: int = 1,
    warmup_iterations: int = 1,
    power_limit_w: Optional[float] = None,
) -> OriginalRunResult:
    """Measure the original workload without trace capture."""
    runtime = Runtime(device=device, power_limit_w=power_limit_w)
    for _ in range(warmup_iterations):
        workload.run_iteration(runtime)
        runtime.synchronize()
    start = runtime.synchronize()
    times = workload.run_training(runtime, iterations)
    end = runtime.synchronize()
    stats = runtime.timeline_stats(window_start=start, window_end=end)
    metrics = compute_system_metrics(stats, runtime.spec, power_limit_w)
    launches = [k for k in runtime.gpu.launches if k.start is not None and k.start >= start]
    return OriginalRunResult(
        workload_name=workload.name,
        device=device,
        iteration_times_us=times,
        timeline_stats=stats,
        system_metrics=metrics,
        kernel_launches=launches,
    )


def unsupported_gpu_time_us(capture: CaptureResult, support: Optional[ReplaySupport] = None) -> float:
    """GPU time of the operators the replay policy cannot reproduce."""
    selector = OperatorSelector(support if support is not None else ReplaySupport())
    selection = selector.select(capture.execution_trace, capture.profiler_trace)
    coverage = selection.coverage()
    return coverage.total_gpu_time_us - coverage.supported_gpu_time_us


@dataclass
class DistributedComparisonResult:
    """Original-vs-replay comparison for a distributed fleet (Table 5)."""

    workload_name: str
    device: str
    world_size: int
    ranks_simulated: int
    #: Per-GPU averages of the original run (``DistributedRunner.aggregate_metrics``).
    original: Dict[str, float]
    #: The same per-GPU averages measured from the cluster co-replay.
    replay: Dict[str, float]
    #: The full cluster report (per-rank timelines, skew, critical path).
    report: "ClusterReport"  # noqa: F821 - imported lazily in compare_distributed

    @property
    def replay_error(self) -> Dict[str, float]:
        """Relative error of the replay per metric."""
        errors: Dict[str, float] = {}
        for key, value in self.original.items():
            if value:
                errors[key] = abs(self.replay.get(key, 0.0) - value) / abs(value)
        return errors


def compare_distributed(
    workload_factory,
    world_size: int,
    device: str = "A100",
    ranks_to_simulate: Optional[int] = None,
    config: Optional[ReplayConfig] = None,
    warmup_iterations: int = 1,
) -> DistributedComparisonResult:
    """One Table-5 row through the multi-rank replay engine.

    Runs the workload across ``world_size`` simulated ranks (optionally
    capturing only ``ranks_to_simulate`` of them — data-parallel ranks are
    symmetric), co-replays the captured fleet through
    :class:`~repro.cluster.engine.ClusterReplayer`, and compares the
    per-GPU averages of both runs.
    """
    from repro.cluster.engine import ClusterReplayer
    from repro.workloads.ddp import DistributedRunner

    if config is None:
        config = ReplayConfig(device=device)
    runner = DistributedRunner(
        workload_factory,
        world_size=world_size,
        device=device,
        interconnect=config.interconnect,
        warmup_iterations=warmup_iterations,
        power_limit_w=config.power_limit_w,
    )
    captures = runner.run(ranks_to_simulate=ranks_to_simulate)
    original = DistributedRunner.aggregate_metrics(captures)

    report = ClusterReplayer(config).replay(captures)
    count = float(report.num_replicas) or 1.0
    replay = {
        "execution_time_ms": sum(r.mean_iteration_time_us for r in report.ranks) / count / 1e3,
        "sm_utilization_pct": sum(r.summary.sm_utilization_pct for r in report.ranks) / count,
        "hbm_bandwidth_gbps": sum(r.summary.hbm_bandwidth_gbps for r in report.ranks) / count,
        "gpu_power_w": sum(r.summary.gpu_power_w for r in report.ranks) / count,
    }
    return DistributedComparisonResult(
        workload_name=captures[0].execution_trace.metadata.get("workload", ""),
        device=device,
        world_size=world_size,
        ranks_simulated=len(captures),
        original=original,
        replay=replay,
        report=report,
    )


def compare_workload(
    workload: Workload,
    device: str = "A100",
    replay_iterations: int = 1,
    power_limit_w: Optional[float] = None,
    support: Optional[ReplaySupport] = None,
    config: Optional[ReplayConfig] = None,
    capture: Optional[CaptureResult] = None,
) -> ComparisonResult:
    """Produce one Table 4 row: original, calibrated original and replay time."""
    if capture is None:
        capture = capture_workload(workload, device=device, power_limit_w=power_limit_w)
    if config is None:
        config = ReplayConfig(device=device, iterations=replay_iterations, power_limit_w=power_limit_w)
    replay = run_replay(
        capture.execution_trace,
        config=config,
        profiler_trace=capture.profiler_trace,
        support=support,
    )

    missing = unsupported_gpu_time_us(capture, support)
    calibrated = max(0.0, capture.iteration_time_us - missing)
    return ComparisonResult(
        workload_name=capture.workload_name,
        device=device,
        original_time_us=capture.iteration_time_us,
        original_time_excl_unsupported_us=calibrated,
        replay_time_us=replay.mean_iteration_time_us,
        original_metrics=capture.system_metrics,
        replay_metrics=replay.system_metrics,
        coverage_count=replay.coverage.count_coverage,
        coverage_time=replay.coverage.time_coverage,
        capture=capture,
        replay=replay,
    )
