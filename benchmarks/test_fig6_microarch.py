"""Figure 6 — per-kernel micro-architectural similarity for ResNet.

The paper compares the top-10 CUDA kernels (by runtime) of ResNet and its
replay on IPC, L1 hit rate, L2 hit rate and SM throughput, normalised to the
original, and reports the overall deviation across all kernels within 2%.
"""

import repro.api as api
from repro.bench.metrics import kernel_counters_by_name, top_kernel_names
from repro.bench.reporting import format_table
from repro.hardware.counters import aggregate_kernel_counters
from repro.hardware.specs import A100

from benchmarks.conftest import save_report


def run_fig6(capture):
    replay = api.replay(capture).run()
    original_counters = kernel_counters_by_name(capture.kernel_launches, A100)
    replay_counters = kernel_counters_by_name(replay.kernel_launches, A100)
    top = top_kernel_names(capture.kernel_launches, top_k=10)
    return original_counters, replay_counters, top


def test_fig6_microarchitectural_similarity(benchmark, paper_captures):
    capture = paper_captures["resnet"]
    original_counters, replay_counters, top = benchmark.pedantic(
        run_fig6, args=(capture,), rounds=1, iterations=1
    )

    rows = []
    for name in top:
        original = original_counters[name]
        replay = replay_counters.get(name)
        assert replay is not None, f"kernel {name} missing from the replay"
        rows.append([
            name,
            replay.ipc / original.ipc if original.ipc else 1.0,
            replay.l1_hit_rate / original.l1_hit_rate if original.l1_hit_rate else 1.0,
            replay.l2_hit_rate / original.l2_hit_rate if original.l2_hit_rate else 1.0,
            replay.sm_throughput / original.sm_throughput if original.sm_throughput else 1.0,
        ])
    overall_original = aggregate_kernel_counters(original_counters.values())
    overall_replay = aggregate_kernel_counters(replay_counters.values())
    rows.append([
        "overall",
        overall_replay.ipc / overall_original.ipc,
        overall_replay.l1_hit_rate / overall_original.l1_hit_rate,
        overall_replay.l2_hit_rate / overall_original.l2_hit_rate,
        overall_replay.sm_throughput / overall_original.sm_throughput,
    ])
    text = format_table(
        ["Kernel", "IPC (norm)", "L1 hit rate (norm)", "L2 hit rate (norm)", "SM throughput (norm)"],
        rows,
        title="Figure 6: per-kernel similarity, ResNet replay normalised to original",
    )
    save_report("fig6_microarch", text)
    print("\n" + text)

    # The top-10 kernels account for a large share of total GPU time.
    total = sum(c.duration_us for c in original_counters.values())
    top_share = sum(original_counters[name].duration_us for name in top) / total
    assert top_share > 0.40

    # Per-kernel ratios stay near 1 and the overall deviation is within 2%.
    for row in rows[:-1]:
        for ratio in row[1:]:
            assert 0.9 < ratio < 1.1
    for ratio in rows[-1][1:]:
        assert abs(ratio - 1.0) < 0.02
