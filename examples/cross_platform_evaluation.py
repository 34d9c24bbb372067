#!/usr/bin/env python3
"""Early-stage platform evaluation with a generated benchmark.

The scenario of Sections 6.7 and 7.2 of the paper: traces are collected
*once*, on the production platform (A100), and the generated benchmark is
then used to evaluate other platforms — including a new experimental
accelerator on which the full production software stack cannot run yet.

The example prints, for the ResNet workload:

* the original-vs-replay time on each established platform (portability,
  Figure 7), and
* the predicted speedup of the hypothetical "NewPlatform" over CPU/A100
  (early-stage evaluation, Figure 10).

Run with:  python examples/cross_platform_evaluation.py
"""

import repro.api as api
from repro.bench.harness import capture_workload, run_original
from repro.bench.reporting import format_table
from repro.core.replayer import ReplayConfig
from repro.workloads.resnet import ResNetConfig, ResNetWorkload


def build_workload() -> ResNetWorkload:
    # Reduced batch keeps the example snappy; the benchmark harness uses the
    # paper-scale configuration.
    return ResNetWorkload(ResNetConfig(batch_size=32))


def main() -> None:
    print("capturing ResNet traces on the A100 ...")
    capture = capture_workload(build_workload(), device="A100", warmup_iterations=1)

    rows = []
    replay_times = {}
    for platform in ("CPU", "V100", "A100", "NewPlatform"):
        replay = api.replay(
            capture.execution_trace, capture.profiler_trace, config=ReplayConfig(device=platform)
        ).run()
        replay_times[platform] = replay.mean_iteration_time_us
        if platform == "NewPlatform":
            # The experimental platform cannot run the original workload yet:
            # only the generated benchmark produces a number here.
            rows.append([platform, "n/a", replay.mean_iteration_time_ms])
        else:
            original = run_original(build_workload(), device=platform, iterations=1)
            rows.append([platform, original.mean_iteration_time_ms, replay.mean_iteration_time_ms])

    print(format_table(
        ["Platform", "Original (ms)", "Generated benchmark (ms)"],
        rows,
        title="ResNet iteration time per platform (benchmark generated from the A100 trace)",
    ))

    speedup_rows = [
        [platform, replay_times["CPU"] / replay_times[platform]]
        for platform in ("CPU", "V100", "A100", "NewPlatform")
    ]
    print()
    print(format_table(
        ["Platform", "Predicted speedup over CPU"],
        speedup_rows,
        title="Early-stage platform evaluation (Figure 10 use case)",
    ))


if __name__ == "__main__":
    main()
