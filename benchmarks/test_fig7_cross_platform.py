"""Figure 7 — cross-platform validation (CPU, V100, A100).

Benchmarks are generated once, from traces collected on the A100, and then
run unchanged on every platform.  The figure normalises the replay's
execution time to the original's on each platform; values near 1.0 mean the
generated benchmark is portable without regeneration.  As in the paper, the
production workloads (ASR, RM) are only evaluated on the two GPU platforms.
"""

import repro.api as api
from repro.bench.harness import capture_workload, unsupported_gpu_time_us
from repro.bench.reporting import format_series
from repro.core.replayer import ReplayConfig
from repro.workloads import build_workload

from benchmarks.conftest import PAPER_WORKLOADS, save_report

PLATFORMS = ("CPU", "V100", "A100")
#: The production workloads cannot run on the CPU-only platform (paper §6.7).
GPU_ONLY_WORKLOADS = ("asr", "rm")


def run_fig7(paper_captures):
    """Replay (generated from the A100 trace) vs original on each platform.

    As in Table 4, the original time is calibrated by removing the GPU time
    of the operators the replayer does not support, so the ratio isolates
    portability rather than coverage.
    """
    ratios = {}
    for name in PAPER_WORKLOADS:
        capture = paper_captures[name]
        platforms = [p for p in PLATFORMS if not (name in GPU_ONLY_WORKLOADS and p == "CPU")]
        ratios[name] = {}
        for platform in platforms:
            original = capture_workload(
                build_workload(name), device=platform, warmup_iterations=0
            )
            calibrated = original.iteration_time_us - unsupported_gpu_time_us(original)
            replay = api.replay(
                capture.execution_trace, capture.profiler_trace, config=ReplayConfig(device=platform)
            ).run()
            ratios[name][platform] = replay.mean_iteration_time_us / calibrated
    return ratios


def test_fig7_cross_platform_portability(benchmark, paper_captures):
    ratios = benchmark.pedantic(run_fig7, args=(paper_captures,), rounds=1, iterations=1)

    text = format_series(
        {name: ratios[name] for name in PAPER_WORKLOADS},
        x_label="platform",
        title="Figure 7: replay time normalised to original, per platform (trace captured on A100)",
    )
    save_report("fig7_cross_platform", text)
    print("\n" + text)

    for name, per_platform in ratios.items():
        for platform, ratio in per_platform.items():
            # Portability: the A100-captured benchmark tracks the original
            # within 15% on every platform, without regeneration.
            assert 0.85 < ratio < 1.15, (name, platform)
    # GPU-only workloads skip the CPU platform, as in the paper.
    assert "CPU" not in ratios["rm"]
    assert "CPU" in ratios["param_linear"]
