"""Figure 5 — SM utilisation, HBM bandwidth and GPU power, original vs replay.

Single-A100 runs of all four workloads.  Paper findings: the workloads span
very different operating points (RM has the highest utilisation and power),
and the replayed benchmarks track the originals closely, with ASR showing
the largest HBM-bandwidth gap because of its unsupported custom operators.
"""

import repro.api as api
from repro.bench.reporting import format_table
from repro.et.comparator import TraceComparator

from benchmarks.conftest import PAPER_WORKLOADS, save_report


def run_fig5(paper_captures):
    results = {}
    for name in PAPER_WORKLOADS:
        capture = paper_captures[name]
        replay = api.replay(capture).run()
        results[name] = (capture.system_metrics, replay.system_metrics)
    return results


def test_fig5_system_level_metrics(benchmark, paper_captures):
    results = benchmark.pedantic(run_fig5, args=(paper_captures,), rounds=1, iterations=1)

    rows = []
    for name in PAPER_WORKLOADS:
        original, replay = results[name]
        rows.append([
            name,
            original.sm_utilization_pct, replay.sm_utilization_pct,
            original.hbm_bandwidth_gbps, replay.hbm_bandwidth_gbps,
            original.gpu_power_w, replay.gpu_power_w,
        ])
    text = format_table(
        ["Model", "SM util orig (%)", "SM util replay (%)",
         "HBM orig (GB/s)", "HBM replay (GB/s)", "Power orig (W)", "Power replay (W)"],
        rows,
        title="Figure 5: system-level metrics, original vs replay (A100)",
    )
    save_report("fig5_system_metrics", text)
    print("\n" + text)

    comparator = TraceComparator()
    hbm_errors = {}
    for name in PAPER_WORKLOADS:
        original, replay = results[name]
        report = comparator.compare_metrics(original.as_dict(), replay.as_dict())
        hbm_errors[name] = abs(replay.hbm_bandwidth_gbps - original.hbm_bandwidth_gbps) / original.hbm_bandwidth_gbps
        # SM utilisation and power match within 15% for every workload.
        assert report.metric_errors["sm_utilization_pct"] < 0.15, name
        assert report.metric_errors["gpu_power_w"] < 0.15, name
    # The fully-covered workloads also match on HBM bandwidth.
    assert hbm_errors["param_linear"] < 0.10
    assert hbm_errors["resnet"] < 0.10
    # ASR shows the largest HBM-bandwidth gap (paper: "a little larger than
    # the others, due to the custom operators we do not yet support").
    assert hbm_errors["asr"] == max(hbm_errors.values())
    # RM is the most resource-hungry workload of the four (highest HBM use).
    assert results["rm"][0].hbm_bandwidth_gbps == max(results[n][0].hbm_bandwidth_gbps for n in PAPER_WORKLOADS)
