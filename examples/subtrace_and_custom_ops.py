#!/usr/bin/env python3
"""Subtrace replay and the custom-operator registration interface.

Two of the fine-grained use cases enabled by the composability of the
execution trace (Sections 6.3 and 7.1 of the paper):

* **Subtrace replay** — a ``record_function`` label ("## forward ##") marks
  the RM forward pass; the replayer then reproduces only that segment,
  repeatedly, without touching the rest of the iteration.
* **Operator-type filtering** — replaying only the communication operators,
  which the paper uses to localise network problems in production.
* **Custom-operator registration** — the ASR workload uses fused LSTM
  kernels from a custom library; out of the box the replayer skips them
  (lower execution-time coverage), and registering the library through the
  interface closes the gap.

Run with:  python examples/subtrace_and_custom_ops.py
"""

import repro.api as api
from repro.bench.harness import capture_workload
from repro.bench.reporting import format_table
from repro.core.registry import ReplaySupport
from repro.core.replayer import ReplayConfig
from repro.torchsim.distributed import DistributedContext
from repro.torchsim.runtime import Runtime
from repro.workloads.asr import ASRConfig, ASRWorkload
from repro.workloads.rm import RMConfig, RMWorkload


def subtrace_replay_demo() -> None:
    print("capturing a distributed RM iteration (4 ranks) ...")
    dist = DistributedContext(rank=0, world_size=4)
    runtime = Runtime("A100", dist=dist)
    workload = RMWorkload(RMConfig(batch_size=512), rank=0, world_size=4)
    capture = capture_workload(workload, warmup_iterations=0, runtime=runtime)
    capture.execution_trace.metadata["world_size"] = 4

    full = api.replay(capture.execution_trace, capture.profiler_trace, config=ReplayConfig()).run()
    forward_only = api.replay(
        capture.execution_trace, capture.profiler_trace,
        config=ReplayConfig(subtrace_label="## forward ##"),
    ).run()
    comms_only = api.replay(
        capture.execution_trace, capture.profiler_trace,
        config=ReplayConfig(categories=["comms"]),
    ).run()

    print(format_table(
        ["Replay scope", "Operators", "Time (ms)"],
        [
            ["full iteration", full.replayed_ops, full.mean_iteration_time_ms],
            ["forward subtrace only", forward_only.replayed_ops, forward_only.mean_iteration_time_ms],
            ["communication operators only", comms_only.replayed_ops, comms_only.mean_iteration_time_ms],
        ],
        title="Subtrace replay and operator-type filtering (RM, 4 ranks)",
    ))


def custom_op_registration_demo() -> None:
    print("\ncapturing an ASR iteration ...")
    workload = ASRWorkload(ASRConfig(batch_size=8, num_frames=200, num_ffn_blocks=3))
    capture = capture_workload(workload, warmup_iterations=0)

    default_replay = api.replay(
        capture.execution_trace, capture.profiler_trace, config=ReplayConfig()
    ).run()

    support = ReplaySupport()
    support.register_library("fairseq")  # user-provided implementations
    extended_replay = api.replay(
        capture.execution_trace, capture.profiler_trace, config=ReplayConfig(), support=support
    ).run()

    print(format_table(
        ["Replay policy", "Count coverage", "Time coverage", "Replay time (ms)"],
        [
            [
                "default (ATen + c10d + FBGEMM)",
                f"{default_replay.coverage.count_coverage * 100:.1f}%",
                f"{default_replay.coverage.time_coverage * 100:.1f}%",
                default_replay.mean_iteration_time_ms,
            ],
            [
                "with fairseq custom ops registered",
                f"{extended_replay.coverage.count_coverage * 100:.1f}%",
                f"{extended_replay.coverage.time_coverage * 100:.1f}%",
                extended_replay.mean_iteration_time_ms,
            ],
        ],
        title="Custom-operator registration raises ASR coverage (Table 3 use case)",
    ))
    print(f"\noriginal ASR iteration time: {capture.iteration_time_us / 1e3:.2f} ms")


def main() -> None:
    subtrace_replay_demo()
    custom_op_registration_demo()


if __name__ == "__main__":
    main()
