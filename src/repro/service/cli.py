"""``python -m repro`` — the batch orchestration command line.

Seven subcommands drive the service layer:

``list-traces``
    Discover and validate the traces in a repository directory.
``replay``
    Replay one or more traces under a single configuration, through the
    worker pool and the result cache (``--memory`` adds the simulated
    device-memory footprint per trace).
``replay-dist``
    Co-replay a directory of per-rank traces as one fleet through the
    multi-rank cluster engine (virtual-time collective scheduler) and
    print the per-rank / critical-path report (``--memory`` adds
    per-rank footprints and the max-rank summary).
``memory-report``
    Simulate the device-memory footprint of traces *without replaying
    them*: peak/average allocated and reserved bytes, per-role and
    per-category attribution, and OOM what-ifs against ``--budget-gb``
    or a smaller ``--device``.
``sweep``
    Cross product of traces x devices x config axes (power limits,
    communication-delay scales, iterations ...), batched and cached.
``profile``
    Profile the replay *engine itself* per trace (host wall time per
    operator, replay throughput in ops/sec) — the
    :class:`~repro.telemetry.ProfileHook` hot-first summary; ``--scalar`` profiles the scalar execute path for
    comparison against the vectorized default.  Also reachable as
    ``replay --profile`` (which replays sequentially through the session
    API, bypassing the worker pool and the result cache).
``version``
    Print the package version (also ``repro --version``), so batch logs
    are attributable to a build.
``analyze``
    The :mod:`repro.insights` family: ``critical-path`` co-replays a
    fleet and attributes what bounds end-to-end time (straggler rank,
    dominant ops/collectives, comm/compute overlap per rank); ``diff``
    attributes the delta between two saved runs per stage / op class /
    rank; ``regressions`` checks the BENCH trajectory against its
    recorded history and exits 1 on a perf drop.

A second family of subcommands drives the replay daemon
(:mod:`repro.daemon`, see ``docs/daemon.md``): ``serve`` runs the
long-lived multi-tenant service, and ``submit`` / ``status`` /
``result`` / ``cancel`` / ``pause`` / ``resume`` / ``snapshot`` are the
client verbs talking to it over its REST/JSON API (``--url``,
identifying themselves with ``--client``).  Client verbs always print
JSON — they are thin mirrors of the API payloads.

Replays are executed through the :mod:`repro.api` facade (and therefore
the stage pipeline); ``--iterations``/``--warmup`` pass straight through
to the :class:`~repro.core.replayer.ReplayConfig` every job runs under.
Every subcommand supports ``--json`` for machine-readable output; all
payloads are built by the shared :mod:`repro.service.serialize` module.

Examples
--------
::

    python -m repro list-traces --repo traces/
    python -m repro replay --repo traces/ --trace rm_et --device A100 -n 3 --memory
    python -m repro replay-dist traces/rm_4rank/ --device A100 -n 2 --memory
    python -m repro memory-report --repo traces/ --device V100 --budget-gb 8 --json
    python -m repro sweep --repo traces/ --device A100 --device NewPlatform \\
        --power-limit 250 --power-limit 400 --cache .repro-cache \\
        --backend process --workers 4
    python -m repro profile --repo traces/ --trace rm_et -n 5 --top 10
    python -m repro version
    python -m repro serve --state-dir .repro-daemon --port 8642
    python -m repro submit sweep --repo traces/ --device A100 --power-limit 250 \\
        --client alice --wait
    python -m repro pause JOB_ID --client alice && python -m repro snapshot JOB_ID \\
        --client alice

Every command exits 0 on success, 1 when any job failed (or, for
``memory-report``, any trace did not fit), and 2 on usage errors
(argparse's convention).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, Optional, Sequence, Tuple

import repro.api as api
from repro.bench.aggregate import cache_summary_line, format_batch_report, format_device_aggregate
from repro.bench.reporting import format_table
from repro.core.replayer import ReplayConfig
from repro.memory import MemoryReport, format_bytes, format_memory_report, simulate_memory
from repro.service import serialize
from repro.service.batch import BACKENDS, pool_size_error
from repro.service.repository import TraceRecord, TraceRepository
from repro.service.sweep import SweepSpec
from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Batch replay orchestration for Mystique execution traces.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list-traces", help="discover and validate traces in a repository directory"
    )
    _add_repo_argument(list_parser)
    list_parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    replay_parser = subparsers.add_parser(
        "replay", help="replay traces under one configuration"
    )
    _add_repo_argument(replay_parser)
    _add_pool_arguments(replay_parser)
    replay_parser.add_argument(
        "--trace", action="append", default=None, metavar="NAME",
        help="trace name to replay (repeatable; default: every trace in the repo)",
    )
    replay_parser.add_argument("--device", default="A100", help="device spec name (default: A100)")
    _add_config_arguments(replay_parser)
    _add_memory_arguments(replay_parser)
    replay_parser.add_argument(
        "--profile", action="store_true",
        help="profile the replay engine per trace (replays sequentially through "
             "the session API; incompatible with --cache/--workers)",
    )
    replay_parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    dist_parser = subparsers.add_parser(
        "replay-dist",
        help="co-replay a directory of per-rank traces as one fleet (cluster engine)",
    )
    dist_parser.add_argument(
        "trace_dir", metavar="TRACE_DIR",
        help="directory holding one serialised execution trace per rank "
             "(e.g. written by DistributedRunner.save_captures)",
    )
    dist_parser.add_argument("--device", default="A100", help="device spec name (default: A100)")
    dist_parser.add_argument(
        "--world-size", "--world", type=int, default=None, metavar="N", dest="world",
        help="world size collectives are priced at (default: the traces' recorded world size)",
    )
    dist_parser.add_argument(
        "--topology", default=None, metavar="NAME",
        choices=("flat", "nvlink-island", "rail-spine"),
        help="hierarchical fabric preset pricing the collectives "
             "(flat | nvlink-island | rail-spine; default: flat)",
    )
    dist_parser.add_argument(
        "--trace-out", default=None, metavar="PATH", dest="trace_out",
        help="write the co-replay's telemetry timeline (per-rank compute/comms/"
             "stall Gantt on the virtual clock) as Chrome-trace JSON to PATH "
             "(open at chrome://tracing or ui.perfetto.dev)",
    )
    _add_config_arguments(dist_parser)
    _add_memory_arguments(dist_parser)
    dist_parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    memory_parser = subparsers.add_parser(
        "memory-report",
        help="simulate traces' device-memory footprints (no replay)",
    )
    _add_repo_argument(memory_parser)
    memory_parser.add_argument(
        "--trace", action="append", default=None, metavar="NAME",
        help="trace name to analyse (repeatable; default: every trace in the repo)",
    )
    memory_parser.add_argument("--device", default="A100", help="device spec name (default: A100)")
    memory_parser.add_argument(
        "--budget-gb", type=float, default=None, metavar="GIB",
        help="what-if pool size in GiB (default: the device's capacity)",
    )
    memory_parser.add_argument(
        "--timeline", action="store_true",
        help="include the per-op footprint timeline in --json output",
    )
    memory_parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    sweep_parser = subparsers.add_parser(
        "sweep", help="cross-device / cross-config sweep over a trace repository"
    )
    _add_repo_argument(sweep_parser)
    _add_pool_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--trace", action="append", default=None, metavar="NAME",
        help="trace name to include (repeatable; default: every trace in the repo)",
    )
    sweep_parser.add_argument(
        "--device", action="append", default=None, metavar="NAME",
        help="device to sweep over (repeatable; default: A100)",
    )
    sweep_parser.add_argument(
        "--power-limit", action="append", default=None, type=float, metavar="WATTS",
        help="power-limit axis value (repeatable)",
    )
    sweep_parser.add_argument(
        "--comm-delay-scale", action="append", default=None, type=float, metavar="FACTOR",
        help="communication-delay scale axis value (repeatable; scale-down emulation)",
    )
    _add_config_arguments(sweep_parser)
    sweep_parser.add_argument("--json", action="store_true", help="emit JSON instead of tables")

    profile_parser = subparsers.add_parser(
        "profile",
        help="profile the replay engine's own per-op wall time and throughput",
    )
    _add_repo_argument(profile_parser)
    profile_parser.add_argument(
        "--trace", action="append", default=None, metavar="NAME",
        help="trace name to profile (repeatable; default: every trace in the repo)",
    )
    profile_parser.add_argument("--device", default="A100", help="device spec name (default: A100)")
    _add_config_arguments(profile_parser)
    profile_parser.add_argument(
        "--scalar", action="store_true",
        help="profile the scalar execute path instead of the vectorized default",
    )
    profile_parser.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="operator rows per hot-first table (default: 20)",
    )
    profile_parser.add_argument("--json", action="store_true", help="emit JSON instead of tables")

    version_parser = subparsers.add_parser("version", help="print the package version")
    version_parser.add_argument("--json", action="store_true", help="emit JSON")

    _add_analyze_parsers(subparsers)
    _add_daemon_parsers(subparsers)

    return parser


def _add_analyze_parsers(subparsers) -> None:
    """The insights family: critical-path, diff, regressions."""
    analyze_parser = subparsers.add_parser(
        "analyze",
        help="structured diagnoses: critical-path attribution, run diffs, "
             "perf-regression watchdog (repro.insights)",
    )
    analyze_sub = analyze_parser.add_subparsers(dest="analyze_command", required=True)

    cp_parser = analyze_sub.add_parser(
        "critical-path",
        help="co-replay a fleet and attribute its critical path "
             "(straggler rank, dominant ops/collectives, overlap per rank)",
    )
    cp_parser.add_argument(
        "trace_dir", metavar="TRACE_DIR",
        help="directory holding one serialised execution trace per rank",
    )
    cp_parser.add_argument("--device", default="A100", help="device spec name (default: A100)")
    cp_parser.add_argument(
        "--world-size", "--world", type=int, default=None, metavar="N", dest="world",
        help="world size collectives are priced at (default: the traces' recorded world size)",
    )
    cp_parser.add_argument(
        "--topology", default=None, metavar="NAME",
        choices=("flat", "nvlink-island", "rail-spine"),
        help="hierarchical fabric preset pricing the collectives",
    )
    _add_config_arguments(cp_parser)
    cp_parser.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="dominant-op rows to report (default: 5)",
    )
    cp_parser.add_argument(
        "--straggler-threshold", type=float, default=5.0, metavar="PCT",
        help="flag ranks slower than the fleet mean by more than PCT%% (default: 5)",
    )
    cp_parser.add_argument("--json", action="store_true", help="emit JSON instead of tables")

    diff_parser = analyze_sub.add_parser(
        "diff",
        help="attribute the end-to-end delta between two runs "
             "(per stage / op class / rank)",
    )
    diff_parser.add_argument(
        "baseline", metavar="BASELINE",
        help="JSON artifact of the baseline run: a telemetry trace payload, "
             "a replay-dist --json report, or a daemon cluster result body",
    )
    diff_parser.add_argument(
        "current", metavar="CURRENT", help="JSON artifact of the run to compare",
    )
    diff_parser.add_argument(
        "--threshold", type=float, default=2.0, metavar="PCT",
        help="end-to-end growth below PCT%% counts as noise (default: 2)",
    )
    diff_parser.add_argument(
        "--top", type=int, default=8, metavar="N",
        help="rows per attribution table (default: 8)",
    )
    diff_parser.add_argument("--json", action="store_true", help="emit JSON instead of tables")

    reg_parser = analyze_sub.add_parser(
        "regressions",
        help="check the BENCH trajectory for perf drops (exits 1 on regression)",
    )
    reg_parser.add_argument(
        "--bench", default=None, metavar="PATH",
        help="bench payload to check (default: the repo's BENCH_replay_throughput.json)",
    )
    reg_parser.add_argument(
        "--history", default=None, metavar="PATH",
        help="append-only JSON-lines trajectory store "
             "(default: BENCH_history.jsonl next to the bench file)",
    )
    reg_parser.add_argument(
        "--threshold", type=float, default=None, metavar="PCT",
        help="relative drop vs the history median that fails (default: 30)",
    )
    reg_parser.add_argument(
        "--record", action="store_true",
        help="append this bench payload to the history after checking",
    )
    reg_parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")


def _add_daemon_parsers(subparsers) -> None:
    """The daemon family: ``serve`` plus the client verbs."""
    serve_parser = subparsers.add_parser(
        "serve", help="run the persistent multi-tenant replay daemon"
    )
    serve_parser.add_argument(
        "--state-dir", default=".repro-daemon", metavar="DIR",
        help="job records, snapshots and (by default) the result cache live "
             "here; the daemon recovers from it on restart (default: .repro-daemon)",
    )
    serve_parser.add_argument("--host", default=None, help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=None, help="bind port (default: 8642)")
    serve_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent jobs (each job replays its points serially so it "
             "stays pausable; default: 2)",
    )
    serve_parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="result-cache directory (default: <state-dir>/cache)",
    )
    serve_parser.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="LRU bound on cached results (default: unbounded)",
    )
    serve_parser.add_argument(
        "--cache-ttl", type=float, default=None, metavar="SECONDS",
        help="expire cached results older than this (default: never)",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )

    submit_parser = subparsers.add_parser(
        "submit", help="submit a job to the replay daemon"
    )
    kind_parsers = submit_parser.add_subparsers(dest="job_kind", required=True)

    sweep_job = kind_parsers.add_parser(
        "sweep", help="a sweep job (same grid as the inline `repro sweep`)"
    )
    _add_submit_arguments(sweep_job)
    _add_repo_argument(sweep_job)
    sweep_job.add_argument(
        "--trace", action="append", default=None, metavar="NAME",
        help="trace name to include (repeatable; default: every trace in the repo)",
    )
    sweep_job.add_argument(
        "--device", action="append", default=None, metavar="NAME",
        help="device to sweep over (repeatable; default: A100)",
    )
    sweep_job.add_argument(
        "--power-limit", action="append", default=None, type=float, metavar="WATTS",
        help="power-limit axis value (repeatable)",
    )
    sweep_job.add_argument(
        "--comm-delay-scale", action="append", default=None, type=float, metavar="FACTOR",
        help="communication-delay scale axis value (repeatable)",
    )
    _add_config_arguments(sweep_job)

    cluster_job = kind_parsers.add_parser(
        "cluster", help="a fleet co-replay job (same engine as `repro replay-dist`)"
    )
    _add_submit_arguments(cluster_job)
    cluster_job.add_argument(
        "trace_dir", metavar="TRACE_DIR",
        help="directory holding one serialised execution trace per rank",
    )
    cluster_job.add_argument("--device", default="A100", help="device spec name (default: A100)")
    _add_config_arguments(cluster_job)

    status_parser = subparsers.add_parser(
        "status", help="show one job, or list your jobs on the daemon"
    )
    _add_client_arguments(status_parser)
    status_parser.add_argument(
        "job_id", nargs="?", default=None, metavar="JOB_ID",
        help="job to show (default: list your jobs)",
    )
    status_parser.add_argument(
        "--all", action="store_true", help="when listing, include every client's jobs"
    )

    for verb, help_text in (
        ("result", "fetch a completed job's result"),
        ("snapshot", "fetch a paused job's resume snapshot"),
        ("pause", "pause a job at its next checkpoint boundary"),
        ("resume", "requeue a paused job (completed work is not repriced)"),
        ("cancel", "cancel a job (cooperative when running)"),
    ):
        verb_parser = subparsers.add_parser(verb, help=help_text)
        _add_client_arguments(verb_parser)
        verb_parser.add_argument("job_id", metavar="JOB_ID")


def _add_submit_arguments(parser: argparse.ArgumentParser) -> None:
    """Client identity plus submit-only flags, on each job-kind parser."""
    _add_client_arguments(parser)
    parser.add_argument(
        "--priority", type=int, default=0,
        help="dispatch priority; higher runs first (default: 0)",
    )
    parser.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches a resting state, then print it",
    )


def _add_client_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.daemon.client import DEFAULT_URL

    parser.add_argument(
        "--url", default=DEFAULT_URL, metavar="URL",
        help=f"daemon base URL (default: {DEFAULT_URL})",
    )
    parser.add_argument(
        "--client", default=os.environ.get("REPRO_CLIENT", "anonymous"), metavar="ID",
        help="client identity jobs are owned by ($REPRO_CLIENT or 'anonymous')",
    )


def _add_repo_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--repo", required=True, metavar="DIR",
        help="trace repository directory (searched recursively for *.json traces)",
    )


def _add_pool_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="result-cache directory; repeated invocations skip completed replays",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size under --backend process (default: min(8, cpu count))",
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default="serial",
        help="replay in this process or in a process pool (default: serial)",
    )


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-n", "--iterations", type=int, default=1, help="replay iterations (default: 1)"
    )
    parser.add_argument(
        "--warmup", type=int, default=0, help="unmeasured warm-up iterations (default: 0)"
    )


def _add_memory_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memory", action="store_true",
        help="also report the simulated device-memory footprint",
    )
    parser.add_argument(
        "--memory-budget-gb", type=float, default=None, metavar="GIB",
        help="what-if memory pool in GiB for --memory (default: device capacity)",
    )


def _budget_bytes(budget_gb: Optional[float]) -> Optional[int]:
    return int(budget_gb * (1 << 30)) if budget_gb is not None else None


def _reject_orphan_flag(args: argparse.Namespace) -> Optional[str]:
    """Catch dependent flags whose enabling flag is absent — they would
    otherwise be silently ignored (usage error, exit 2)."""
    if getattr(args, "memory_budget_gb", None) is not None and not getattr(args, "memory", False):
        return "--memory-budget-gb requires --memory"
    if getattr(args, "timeline", False) and not getattr(args, "json", False):
        return "--timeline only affects --json output; pass --json too"
    if getattr(args, "profile", False):
        if getattr(args, "cache", None) is not None:
            return "--profile replays sequentially through the session API; drop --cache"
        if getattr(args, "workers", None) is not None:
            return "--profile replays sequentially through the session API; drop --workers"
    if getattr(args, "workers", None) is not None and getattr(args, "backend", None) == "serial":
        return pool_size_error("--")
    return None


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_list_traces(args: argparse.Namespace) -> int:
    repository = TraceRepository(args.repo)
    records = repository.discover()
    if args.json:
        print(serialize.dumps(serialize.trace_list_payload(repository)))
        return 0
    headers = ["name", "workload", "nodes", "operators", "world_size", "digest"]
    rows = [
        [record.name, record.workload or "-", record.num_nodes, record.num_operators,
         record.world_size, record.digest[:12]]
        for record in records
    ]
    print(format_table(headers, rows, title=f"Traces in {repository.root}"))
    if repository.invalid:
        print(f"\nskipped {len(repository.invalid)} non-trace file(s):")
        for path, reason in sorted(repository.invalid.items()):
            print(f"  {path}: {reason}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    if args.profile:
        # Profiling hooks attach per session, so profiled replays run
        # sequentially through the api facade — same flow as `profile`.
        return _cmd_profile(args)
    spec = SweepSpec(
        traces=args.trace,
        devices=[args.device],
        base=ReplayConfig(iterations=args.iterations, warmup_iterations=args.warmup),
    )
    return _run_sweep(args, spec)


def _cmd_replay_dist(args: argparse.Namespace) -> int:
    from repro.bench.aggregate import format_cluster_report
    from repro.cluster.engine import ClusterMatchError, ClusterReplayError

    session = (
        api.replay_cluster(args.trace_dir)
        .on(args.device)
        .iterations(args.iterations, warmup=args.warmup)
    )
    if args.world is not None:
        session.world(args.world)
    if args.topology is not None:
        session.topology(args.topology)
    if args.memory:
        session.with_memory(budget=_budget_bytes(args.memory_budget_gb))
    if args.trace_out:
        session.with_telemetry()
    try:
        report = session.run()
    except (ClusterMatchError, ClusterReplayError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.trace_out:
        path = session.export_trace(args.trace_out)
        print(f"telemetry timeline written to {path}", file=sys.stderr)
    if args.json:
        print(serialize.dumps(report))
    else:
        print(format_cluster_report(report))
        if report.has_memory:
            print()
            print(_format_cluster_memory(report))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.analyze_command == "critical-path":
        return _cmd_analyze_critical_path(args)
    if args.analyze_command == "diff":
        return _cmd_analyze_diff(args)
    return _cmd_analyze_regressions(args)


def _cmd_analyze_critical_path(args: argparse.Namespace) -> int:
    from repro.cluster.engine import ClusterMatchError, ClusterReplayError
    from repro.insights import format_critical_path

    session = (
        api.replay_cluster(args.trace_dir)
        .on(args.device)
        .iterations(args.iterations, warmup=args.warmup)
        .with_telemetry()
    )
    if args.world is not None:
        session.world(args.world)
    if args.topology is not None:
        session.topology(args.topology)
    try:
        session.run()
    except (ClusterMatchError, ClusterReplayError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    insights = session.analyze(
        top=args.top, straggler_threshold_pct=args.straggler_threshold
    )
    if args.json:
        print(serialize.dumps(insights))
    else:
        print(format_critical_path(insights, top=args.top))
    return 0


def _cmd_analyze_diff(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.insights import RunProfile, diff_runs, format_diff

    profiles = []
    for path_arg in (args.baseline, args.current):
        path = Path(path_arg)
        try:
            payload = _json.loads(path.read_text())
            profiles.append(RunProfile.from_any(payload, label=path.name))
        except (OSError, ValueError) as error:
            print(f"error: {path_arg}: {error}", file=sys.stderr)
            return 1
    report = diff_runs(profiles[0], profiles[1], threshold_pct=args.threshold)
    if args.json:
        print(serialize.dumps(report))
    else:
        print(format_diff(report, top=args.top))
    return 0


def _cmd_analyze_regressions(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.insights import (
        DEFAULT_DROP_THRESHOLD_PCT,
        TrajectoryStore,
        check_regressions,
        default_bench_path,
        default_history_path,
        format_regressions,
    )

    bench_path = Path(args.bench) if args.bench else default_bench_path()
    try:
        bench = _json.loads(bench_path.read_text())
    except (OSError, ValueError) as error:
        print(f"error: {bench_path}: {error}", file=sys.stderr)
        return 1
    history_path = Path(args.history) if args.history else default_history_path()
    store = TrajectoryStore(history_path)
    threshold = (
        DEFAULT_DROP_THRESHOLD_PCT if args.threshold is None else args.threshold
    )
    report = check_regressions(
        bench, history=store.history(), drop_threshold_pct=threshold
    )
    if args.record:
        store.append(bench, meta={"bench_path": str(bench_path)})
    if args.json:
        print(serialize.dumps(report))
    else:
        print(format_regressions(report))
    return 0 if report.ok else 1


def _cmd_memory_report(args: argparse.Namespace) -> int:
    try:
        reports = _memory_reports(
            args.repo, args.trace, args.device, _budget_bytes(args.budget_gb)
        )
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(serialize.dumps(serialize.memory_payload(reports, include_timeline=args.timeline)))
    else:
        print(_format_memory_summary(reports, args.device))
        for report in reports.values():
            print()
            print(format_memory_report(report))
    return 1 if any(not report.fits for report in reports.values()) else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    try:
        reports = _profile_traces(
            args.repo,
            args.trace,
            args.device,
            iterations=args.iterations,
            warmup=args.warmup,
            vectorized=not getattr(args, "scalar", False),
        )
    except (ValueError, KeyError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(serialize.dumps(serialize.profile_payload(reports)))
    else:
        top = getattr(args, "top", 20)
        for index, report in enumerate(reports.values()):
            if index:
                print()
            print(report.format_table(top=top))
    return 0


def _resolve_traces(
    repo: str, trace_names: Optional[Sequence[str]]
) -> Tuple[TraceRepository, Dict[str, TraceRecord]]:
    """The repository and, from one discovery, the records of the named
    traces in the order named (every trace, by name, when none are)."""
    repository = TraceRepository(repo)
    if trace_names:
        records = repository.select(trace_names)
    else:
        records = sorted(repository.discover(), key=lambda record: record.name)
    return repository, {record.name: record for record in records}


def _profile_traces(
    repo: str,
    trace_names: Optional[Sequence[str]],
    device: str,
    iterations: int,
    warmup: int,
    vectorized: bool,
):
    """Replay the named repository traces with a profiling hook attached."""
    repository, records = _resolve_traces(repo, trace_names)
    config = ReplayConfig(
        device=device,
        iterations=iterations,
        warmup_iterations=warmup,
        vectorized=vectorized,
    )
    reports = {}
    for name, record in records.items():
        result = api.replay(repository.load(record)).using(config).with_profiling().run()
        report = result.profile_report
        if not report.trace_name:
            report.trace_name = name
        reports[name] = report
    return reports


def _cmd_version(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        print(serialize.dumps(serialize.version_payload(__version__)))
    else:
        print(f"repro {__version__}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    axes = {}
    if args.power_limit:
        axes["power_limit_w"] = list(args.power_limit)
    if args.comm_delay_scale:
        axes["comm_delay_scale"] = list(args.comm_delay_scale)
    spec = SweepSpec(
        traces=args.trace,
        devices=args.device or ["A100"],
        axes=axes,
        base=ReplayConfig(iterations=args.iterations, warmup_iterations=args.warmup),
    )
    return _run_sweep(args, spec)


def _run_sweep(args: argparse.Namespace, spec: SweepSpec) -> int:
    """Execute a sweep spec through the :mod:`repro.api` facade."""
    try:
        result = api.sweep(
            args.repo,
            spec=spec,
            cache_dir=args.cache,
            workers=args.workers,
            backend=args.backend,
        )
        memory_reports: Optional[Dict[str, MemoryReport]] = None
        if getattr(args, "memory", False):
            replayed = sorted({job_result.job.trace_name for job_result in result.batch})
            memory_reports = _memory_reports(
                args.repo, replayed or None, args.device,
                _budget_bytes(args.memory_budget_gb),
            )
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    batch = result.batch
    if args.json:
        print(serialize.dumps(serialize.batch_payload(batch, memory_reports)))
    else:
        print(format_batch_report(batch))
        if len({job_result.job.config.device for job_result in batch}) > 1:
            print()
            print(format_device_aggregate(batch))
        print()
        print(cache_summary_line(batch))
        if memory_reports is not None:
            print()
            print(_format_memory_summary(memory_reports, args.device))
    return 1 if batch.error_count else 0


# ----------------------------------------------------------------------
# Memory helpers
# ----------------------------------------------------------------------
def _memory_reports(
    repo: str,
    trace_names: Optional[Sequence[str]],
    device: str,
    budget_bytes: Optional[int],
) -> Dict[str, MemoryReport]:
    """Simulate the memory footprint of the named repository traces."""
    repository, records = _resolve_traces(repo, trace_names)
    reports: Dict[str, MemoryReport] = {}
    for name, record in records.items():
        trace = repository.load(record)
        reports[name] = simulate_memory(
            trace, device=device, budget=budget_bytes, trace_name=name
        )
    return reports


def _format_memory_summary(reports: Dict[str, MemoryReport], device: str) -> str:
    """One compact row per trace (full per-trace tables follow separately)."""
    rows = [
        [
            name,
            format_bytes(report.peak_allocated_bytes),
            format_bytes(report.peak_reserved_bytes),
            format_bytes(report.budget_bytes),
            "OK" if report.fits else f"OOM at {report.oom.op_name}",
        ]
        for name, report in reports.items()
    ]
    return format_table(
        ["trace", "peak_alloc", "peak_reserved", "budget", "status"],
        rows,
        title=f"Simulated device memory on {device}",
    )


def _format_cluster_memory(report) -> str:
    """Per-rank memory rows plus the max-rank summary for replay-dist."""
    rows = [
        [
            rank.rank,
            format_bytes(rank.memory.peak_allocated_bytes),
            format_bytes(rank.memory.peak_reserved_bytes),
            "OK" if rank.memory.fits else f"OOM at {rank.memory.oom.op_name}",
        ]
        for rank in report.ranks
        if rank.memory is not None
    ]
    table = format_table(
        ["rank", "peak_alloc", "peak_reserved", "status"],
        rows,
        title="Per-rank simulated device memory",
    )
    summary = (
        f"fleet peak {format_bytes(report.peak_allocated_bytes)} "
        f"on rank {report.max_memory_rank}"
    )
    if report.oom_ranks:
        summary += f"; OOM rank(s): {report.oom_ranks}"
    return f"{table}\n{summary}"


# ----------------------------------------------------------------------
# Daemon subcommands
# ----------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.daemon.daemon import ReplayDaemon
    from repro.daemon.server import DEFAULT_HOST, DEFAULT_PORT, DaemonServer

    daemon = ReplayDaemon(
        args.state_dir,
        cache_dir=args.cache,
        cache_max_entries=args.cache_max_entries,
        cache_ttl_s=args.cache_ttl,
        workers=args.workers,
    )
    server = DaemonServer(
        daemon,
        host=args.host if args.host is not None else DEFAULT_HOST,
        port=args.port if args.port is not None else DEFAULT_PORT,
        verbose=args.verbose,
    )
    host, port = server.address
    print(f"repro daemon listening on http://{host}:{port} "
          f"(state: {daemon.state_dir}, workers: {args.workers})", file=sys.stderr)
    server.serve_forever()
    return 0


def _daemon_client(args: argparse.Namespace):
    from repro.daemon.client import DaemonClient

    return DaemonClient(url=args.url, client_id=args.client)


def _submit_payload(args: argparse.Namespace) -> dict:
    """Build the JobSpec payload from the submit sub-subcommand's flags —
    the same shapes the inline ``sweep`` / ``replay-dist`` paths use."""
    base = {"iterations": args.iterations, "warmup_iterations": args.warmup}
    if args.job_kind == "sweep":
        axes = {}
        if args.power_limit:
            axes["power_limit_w"] = list(args.power_limit)
        if args.comm_delay_scale:
            axes["comm_delay_scale"] = list(args.comm_delay_scale)
        return {
            "repo": args.repo,
            "traces": args.trace,
            "devices": args.device or ["A100"],
            "axes": axes,
            "base": base,
        }
    return {
        "trace_dir": args.trace_dir,
        "config": dict(base, device=args.device),
    }


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.daemon.client import DaemonClientError

    client = _daemon_client(args)
    try:
        status = client.submit(args.job_kind, _submit_payload(args), priority=args.priority)
        if args.wait:
            status = client.wait(status["id"])
        print(serialize.dumps(status))
    except (DaemonClientError, TimeoutError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 1 if status.get("state") == "failed" else 0


def _cmd_daemon_verb(args: argparse.Namespace) -> int:
    """status/result/snapshot/pause/resume/cancel — thin API mirrors."""
    from repro.daemon.client import DaemonClientError

    client = _daemon_client(args)
    try:
        if args.command == "status":
            if args.job_id is None:
                payload = client.list_jobs(all_owners=args.all)
            else:
                payload = client.status(args.job_id)
        else:
            payload = getattr(client, args.command)(args.job_id)
    except DaemonClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(serialize.dumps(payload))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    usage_error = _reject_orphan_flag(args)
    if usage_error is not None:
        print(f"error: {usage_error}", file=sys.stderr)
        return 2
    handlers = {
        "list-traces": _cmd_list_traces,
        "replay": _cmd_replay,
        "replay-dist": _cmd_replay_dist,
        "memory-report": _cmd_memory_report,
        "sweep": _cmd_sweep,
        "profile": _cmd_profile,
        "version": _cmd_version,
        "analyze": _cmd_analyze,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_daemon_verb,
        "result": _cmd_daemon_verb,
        "snapshot": _cmd_daemon_verb,
        "pause": _cmd_daemon_verb,
        "resume": _cmd_daemon_verb,
        "cancel": _cmd_daemon_verb,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
