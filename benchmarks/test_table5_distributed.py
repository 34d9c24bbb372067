"""Table 5 — scalability evaluation on 8 nodes with 64 GPUs (RM).

The RM workload is trained data-parallel across 64 ranks (8-GPU NVLink
nodes, 200 Gb/s NIC per GPU); per-GPU execution time, SM utilisation, HBM
bandwidth and power are compared between the original run and the replayed
benchmark.  The paper reports a close match with the replay slightly
underestimating utilisation/bandwidth because of small communication-replay
inaccuracies.

Because data-parallel ranks are symmetric, the simulation captures and
replays a subset of ranks while the collective cost model still prices the
full 64-rank topology.
"""

import repro.api as api
from repro.bench.reporting import format_table
from repro.core.replayer import ReplayConfig
from repro.workloads.ddp import DistributedRunner
from repro.workloads.rm import RMConfig, RMWorkload

from benchmarks.conftest import save_report

WORLD_SIZE = 64
RANKS_TO_SIMULATE = 2

#: "To enable large-scale execution, we adjust RM's parameters" (Section 6.6):
#: a larger global batch and heavier pooling than the single-GPU run.
LARGE_SCALE_CONFIG = dict(batch_size=2048, pooling_factor=64)


def run_table5():
    runner = DistributedRunner(
        lambda rank, world: RMWorkload(RMConfig(**LARGE_SCALE_CONFIG), rank=rank, world_size=world),
        world_size=WORLD_SIZE,
    )
    captures = runner.run(ranks_to_simulate=RANKS_TO_SIMULATE)
    original = DistributedRunner.aggregate_metrics(captures)

    replay_metrics = []
    for capture in captures:
        result = api.replay(
            capture.execution_trace, capture.profiler_trace,
            config=ReplayConfig(device="A100", rank=capture.rank),
        ).run()
        replay_metrics.append({
            "execution_time_ms": result.mean_iteration_time_ms,
            "sm_utilization_pct": result.system_metrics.sm_utilization_pct,
            "hbm_bandwidth_gbps": result.system_metrics.hbm_bandwidth_gbps,
            "gpu_power_w": result.system_metrics.gpu_power_w,
        })
    replay = {
        key: sum(metrics[key] for metrics in replay_metrics) / len(replay_metrics)
        for key in replay_metrics[0]
    }
    return original, replay


def test_table5_distributed_scalability(benchmark):
    original, replay = benchmark.pedantic(run_table5, rounds=1, iterations=1)

    rows = [
        ["Execution time (ms)", original["execution_time_ms"], replay["execution_time_ms"]],
        ["SM utilization (%)", original["sm_utilization_pct"], replay["sm_utilization_pct"]],
        ["HBM bandwidth (GB/s)", original["hbm_bandwidth_gbps"], replay["hbm_bandwidth_gbps"]],
        ["GPU power (W)", original["gpu_power_w"], replay["gpu_power_w"]],
    ]
    text = format_table(
        ["Metric", "Original", "Replay"],
        rows,
        title=f"Table 5: RM on {WORLD_SIZE} GPUs (per-GPU averages, {RANKS_TO_SIMULATE} ranks simulated)",
    )
    save_report("table5_distributed", text)
    print("\n" + text)

    # Replay matches the original within 15% on every metric.
    for key in original:
        error = abs(replay[key] - original[key]) / original[key]
        assert error < 0.15, key
    # Communication exposure pushes per-GPU utilisation below the
    # single-GPU operating point (paper: 49.6% at 64 GPUs vs the near-100%
    # single-GPU run; the simulated workload is less communication-bound, so
    # the drop is smaller but in the same direction).
    assert original["sm_utilization_pct"] < 99.0
    assert original["execution_time_ms"] > 0.0
