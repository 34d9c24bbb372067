"""Figure 4 — single-iteration runtime traces of PARAM linear vs its replay.

The paper shows the original and the replayed benchmark side by side in the
trace viewer: same end-to-end time (14.9 ms vs 14.2 ms), same per-operator
durations and interleaving, two CPU threads (main + autograd), with only the
framework wrapper nodes missing from the replay.  This benchmark reproduces
the comparable quantities: end-to-end time, per-operator GPU time for the
top operators, thread structure and kernel counts.
"""

import repro.api as api
from repro.bench.metrics import operator_gpu_time_breakdown
from repro.bench.reporting import format_table
from repro.et.comparator import TraceComparator

from benchmarks.conftest import save_report


def run_fig4(capture):
    replay = api.replay(capture).run()
    original_ops = operator_gpu_time_breakdown(capture.kernel_launches)
    replay_ops = operator_gpu_time_breakdown(replay.kernel_launches)
    return replay, original_ops, replay_ops


def test_fig4_param_linear_timeline(benchmark, paper_captures):
    capture = paper_captures["param_linear"]
    replay, original_ops, replay_ops = benchmark.pedantic(
        run_fig4, args=(capture,), rounds=1, iterations=1
    )

    rows = [["end-to-end (ms)", capture.iteration_time_us / 1e3, replay.mean_iteration_time_us / 1e3]]
    for op_name in sorted(original_ops, key=original_ops.get, reverse=True)[:6]:
        rows.append([
            f"GPU time {op_name} (ms)",
            original_ops[op_name] / 1e3,
            replay_ops.get(op_name, 0.0) / 1e3,
        ])
    rows.append(["CPU threads", len(capture.profiler_trace.threads()),
                 len(replay.profiler_trace.threads())])
    rows.append(["GPU kernels", len(capture.profiler_trace.kernels()),
                 len(replay.profiler_trace.kernels())])
    text = format_table(["Quantity", "Original", "Replay"], rows,
                        title="Figure 4: PARAM linear, one training iteration")
    save_report("fig4_param_linear_timeline", text)
    print("\n" + text)

    # End-to-end time matches within a few percent (paper: 14.9 vs 14.2 ms).
    error = abs(replay.mean_iteration_time_us - capture.iteration_time_us) / capture.iteration_time_us
    assert error < 0.06
    # The original has the autograd thread; the replay issues everything
    # from the main thread (wrappers are not replayed).
    assert "autograd" in capture.profiler_trace.threads()
    # Per-operator GPU time matches for the dominant operators.
    report = TraceComparator().compare_operator_times(original_ops, replay_ops, top_k=5)
    assert report.mean_operator_error < 0.05
    # The replay launches the same number of GPU kernels.
    assert len(replay.profiler_trace.kernels()) == len(capture.profiler_trace.kernels())
