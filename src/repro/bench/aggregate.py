"""Aggregate reporting over batch replay results.

The single-trace reporting in :mod:`repro.bench.reporting` renders one
table or figure at a time; this module rolls the per-job results of a
:class:`~repro.service.batch.BatchResult` up into the summaries a sweep
prints: one row per job, per-device aggregates, and cache statistics.
It deliberately depends only on the job-result shape (label, config,
summary, cached flag), not on the service layer itself, so ``bench``
stays importable without ``service`` and vice versa.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.bench.reporting import format_table

#: Columns of the per-job report, in display order.
BATCH_REPORT_HEADERS: Sequence[str] = (
    "job",
    "device",
    "status",
    "time_ms",
    "sm_util_%",
    "hbm_gbps",
    "power_w",
    "ops",
)


def batch_report_rows(results: Iterable) -> List[List[object]]:
    """One display row per :class:`~repro.service.batch.ReplayJobResult`."""
    rows: List[List[object]] = []
    for result in results:
        if result.ok:
            summary = result.summary
            rows.append(
                [
                    result.job.label,
                    result.job.config.device,
                    "cached" if result.cached else "replayed",
                    summary.mean_iteration_time_ms,
                    summary.sm_utilization_pct,
                    summary.hbm_bandwidth_gbps,
                    summary.gpu_power_w,
                    summary.replayed_ops,
                ]
            )
        else:
            rows.append(
                [result.job.label, result.job.config.device, f"error: {result.error}",
                 "-", "-", "-", "-", "-"]
            )
    return rows


def format_batch_report(results: Iterable, title: str = "Batch replay results") -> str:
    """Fixed-width text table over all job results."""
    return format_table(BATCH_REPORT_HEADERS, batch_report_rows(results), title=title)


def aggregate_by_device(results: Iterable) -> Dict[str, Dict[str, float]]:
    """Mean measurements per device across all successful jobs.

    Returns ``device -> {jobs, mean_time_ms, mean_sm_util_pct,
    mean_power_w}``, the cross-platform comparison a sweep is usually after
    (Figure 7 / Figure 10 style).
    """
    grouped: Dict[str, List] = {}
    for result in results:
        if result.ok:
            grouped.setdefault(result.job.config.device, []).append(result.summary)
    aggregated: Dict[str, Dict[str, float]] = {}
    for device, summaries in grouped.items():
        count = float(len(summaries))
        aggregated[device] = {
            "jobs": count,
            "mean_time_ms": sum(s.mean_iteration_time_ms for s in summaries) / count,
            "mean_sm_util_pct": sum(s.sm_utilization_pct for s in summaries) / count,
            "mean_power_w": sum(s.gpu_power_w for s in summaries) / count,
        }
    return aggregated


def format_device_aggregate(results: Iterable, title: str = "Per-device aggregate") -> str:
    """Text table of :func:`aggregate_by_device`."""
    aggregated = aggregate_by_device(results)
    headers = ["device", "jobs", "mean_time_ms", "mean_sm_util_%", "mean_power_w"]
    rows = [
        [device, int(stats["jobs"]), stats["mean_time_ms"], stats["mean_sm_util_pct"],
         stats["mean_power_w"]]
        for device, stats in sorted(aggregated.items())
    ]
    return format_table(headers, rows, title=title)


def cache_summary_line(batch) -> str:
    """One-line cache/replay accounting for a finished batch."""
    return (
        f"{len(batch)} jobs: {batch.replayed_count} replayed, "
        f"{batch.cached_count} from cache, {batch.error_count} failed"
    )


#: Columns of the per-rank cluster report, in display order.
CLUSTER_REPORT_HEADERS: Sequence[str] = (
    "rank",
    "time_ms",
    "comm_ms",
    "exposed_comm_ms",
    "stall_ms",
    "sm_util_%",
    "power_w",
)


def format_cluster_report(report, title: str = "") -> str:
    """Text rendering of a :class:`~repro.cluster.engine.ClusterReport`:
    one row per rank plus the fleet-level critical-path summary."""
    if not title:
        title = (
            f"Cluster replay on {report.device}: {report.num_replicas} replica(s), "
            f"world size {report.world_size}"
        )
    rows = [
        [
            rank.rank,
            rank.mean_iteration_time_us / 1e3,
            rank.comm_time_us / 1e3,
            rank.exposed_comm_us / 1e3,
            rank.stall_us / 1e3,
            rank.summary.sm_utilization_pct,
            rank.summary.gpu_power_w,
        ]
        for rank in report.ranks
    ]
    table = format_table(CLUSTER_REPORT_HEADERS, rows, title=title)
    summary = (
        f"critical path {report.critical_path_us / 1e3:.3f} ms "
        f"(straggler: rank {report.straggler_rank}); "
        f"mean iteration {report.mean_iteration_time_us / 1e3:.3f} ms; "
        f"{report.matched_collectives} collectives matched, "
        f"{report.unmatched_collectives} unmatched; "
        f"skew max {report.max_skew_us:.1f} us / mean {report.mean_skew_us:.1f} us"
    )
    return f"{table}\n{summary}"
