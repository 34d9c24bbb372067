"""Distributed execution of workloads (one simulated process per rank).

The paper's distributed evaluation (Table 5) trains RM on 8 nodes x 8 GPUs
and collects one execution trace per rank, from the same iteration, so that
the communication operators can be matched during replay.  The
:class:`DistributedRunner` reproduces that collection flow: it instantiates
one runtime (with a distributed context) per rank, runs warm-up iterations,
then captures the execution trace and profiler trace of a single iteration
from every rank.

Because data-parallel ranks are symmetric, the runner can optionally
simulate only a subset of ranks (``ranks_to_simulate``) while the
distributed context still prices collectives at the full world size — this
keeps the simulation cost of the 64-GPU experiment manageable without
changing any measured per-rank quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.hardware.counters import SystemMetrics, compute_system_metrics
from repro.hardware.gpu import TimelineStats
from repro.hardware.network import CollectiveCostModel, InterconnectSpec
from repro.torchsim.distributed import DistributedContext
from repro.torchsim.observer import ExecutionGraphObserver
from repro.torchsim.profiler import Profiler, ProfilerTrace
from repro.torchsim.runtime import Runtime
from repro.et.trace import ExecutionTrace
from repro.workloads.base import Workload

#: Builds the workload instance for one rank.
WorkloadFactory = Callable[[int, int], Workload]


@dataclass
class RankCapture:
    """Everything captured from one rank's measured iteration."""

    rank: int
    execution_trace: ExecutionTrace
    profiler_trace: ProfilerTrace
    iteration_time_us: float
    timeline_stats: TimelineStats
    system_metrics: SystemMetrics


class DistributedRunner:
    """Runs a workload across ``world_size`` simulated ranks and captures traces."""

    def __init__(
        self,
        workload_factory: WorkloadFactory,
        world_size: int,
        device: str = "A100",
        interconnect: Optional[InterconnectSpec] = None,
        warmup_iterations: int = 1,
        power_limit_w: Optional[float] = None,
    ) -> None:
        if world_size < 1:
            raise ValueError("world_size must be at least 1")
        self.workload_factory = workload_factory
        self.world_size = world_size
        self.device = device
        self.interconnect = interconnect or InterconnectSpec()
        self.warmup_iterations = warmup_iterations
        self.power_limit_w = power_limit_w

    # ------------------------------------------------------------------
    def run_rank(self, rank: int) -> RankCapture:
        """Run warm-up plus one captured iteration on a single rank."""
        dist = DistributedContext(
            rank=rank,
            world_size=self.world_size,
            collective_model=CollectiveCostModel(self.interconnect),
        )
        runtime = Runtime(
            device=self.device,
            power_limit_w=self.power_limit_w,
            rank=rank,
            dist=dist,
        )
        workload = self.workload_factory(rank, self.world_size)

        observer = runtime.attach_observer(ExecutionGraphObserver())
        observer.register_callback(None)
        profiler = runtime.attach_profiler(Profiler())

        for _ in range(self.warmup_iterations):
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
        metrics = compute_system_metrics(stats, runtime.spec, self.power_limit_w)
        trace = observer.trace
        assert trace is not None
        trace.metadata.update(
            {
                "workload": workload.name,
                "rank": rank,
                "world_size": self.world_size,
                "device": self.device,
            }
        )
        profiler.trace.metadata.update({"rank": rank, "world_size": self.world_size})
        return RankCapture(
            rank=rank,
            execution_trace=trace,
            profiler_trace=profiler.trace,
            iteration_time_us=end - start,
            timeline_stats=stats,
            system_metrics=metrics,
        )

    # ------------------------------------------------------------------
    def run(self, ranks_to_simulate: Optional[int] = None) -> List[RankCapture]:
        """Capture traces from ``ranks_to_simulate`` ranks (default: all)."""
        count = self.world_size if ranks_to_simulate is None else min(ranks_to_simulate, self.world_size)
        return [self.run_rank(rank) for rank in range(count)]

    # ------------------------------------------------------------------
    @staticmethod
    def save_captures(
        captures: List[RankCapture], directory: Union[str, Path]
    ) -> List[Path]:
        """Serialise each rank's execution trace into ``directory``.

        One ``rank<NNN>_et.json`` file per rank — the on-disk fleet format
        ``python -m repro replay-dist`` and
        :meth:`repro.cluster.ClusterReplayer.load_fleet` consume.
        """
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        paths: List[Path] = []
        for capture in captures:
            path = root / f"rank{capture.rank:03d}_et.json"
            capture.execution_trace.save(path)
            paths.append(path)
        return paths

    # ------------------------------------------------------------------
    @staticmethod
    def aggregate_metrics(captures: List[RankCapture]) -> Dict[str, float]:
        """Average the per-rank metrics (the per-GPU averages of Table 5)."""
        if not captures:
            return {}
        count = float(len(captures))
        return {
            "execution_time_ms": sum(c.iteration_time_us for c in captures) / count / 1e3,
            "sm_utilization_pct": sum(c.system_metrics.sm_utilization_pct for c in captures) / count,
            "hbm_bandwidth_gbps": sum(c.system_metrics.hbm_bandwidth_gbps for c in captures) / count,
            "gpu_power_w": sum(c.system_metrics.gpu_power_w for c in captures) / count,
        }
