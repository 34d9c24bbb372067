#!/usr/bin/env python3
"""Batch sweep: replay a fleet of traces across devices through the service layer.

The production workflow Mystique targets is not "replay one trace once" but
"keep a repository of captured traces and continuously evaluate them across
candidate platforms and configurations".  This example drives that workflow
through :mod:`repro.service`:

1. capture three workloads (PARAM linear, ResNet, RM) and store their
   execution traces in a :class:`TraceRepository` directory,
2. sweep every trace across two devices and two power limits over a
   pool of 2 worker processes, caching each result,
3. run the same sweep again — every job is now a cache hit — and print the
   aggregate report.

The same sweep is available from the command line::

    python -m repro sweep --repo examples/trace_repo --cache examples/trace_repo/.cache \\
        --device A100 --device NewPlatform --power-limit 250 --power-limit 400

Run with:  python examples/batch_sweep.py
"""

from pathlib import Path

from repro.bench.aggregate import cache_summary_line, format_batch_report, format_device_aggregate
from repro.bench.harness import capture_workload
from repro.core.replayer import ReplayConfig
from repro.service import ResultCache, SweepRunner, SweepSpec, TraceRepository
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
from repro.workloads.resnet import ResNetConfig, ResNetWorkload
from repro.workloads.rm import RMConfig, RMWorkload


def build_workloads():
    # Reduced configurations keep the example snappy; see the benchmarks/
    # directory for the paper-scale versions.
    return [
        ParamLinearWorkload(
            ParamLinearConfig(batch_size=64, num_layers=4, hidden_size=256, input_size=256)
        ),
        ResNetWorkload(ResNetConfig(batch_size=4, image_size=64, num_classes=100, blocks_per_stage=1)),
        RMWorkload(
            RMConfig(
                batch_size=32,
                num_tables=8,
                rows_per_table=10_000,
                embedding_dim=32,
                pooling_factor=4,
                bottom_mlp=(64, 32),
                top_mlp=(128, 64),
            )
        ),
    ]


def main() -> None:
    root = Path(__file__).resolve().parent / "trace_repo"
    repository = TraceRepository(root)

    print("== 1. capture three workloads into the trace repository ==")
    for workload in build_workloads():
        record = repository.add(workload.name, capture_workload(workload).execution_trace)
        print(f"   {record.name:14s} {record.num_nodes:4d} nodes  digest {record.digest[:12]}")

    print("== 2. sweep: traces x (A100, NewPlatform) x (250 W, 400 W), 2 processes ==")
    cache = ResultCache(root / ".cache")
    cache.clear()  # start cold, so step 2 replays through the pool on every run
    runner = SweepRunner(repository, cache=cache, max_workers=2, backend="process")
    spec = SweepSpec(
        devices=("A100", "NewPlatform"),
        axes={"power_limit_w": [250.0, 400.0]},
        base=ReplayConfig(iterations=2),
    )
    result = runner.run(spec)
    print(f"   {cache_summary_line(result.batch)}")

    print("== 3. run the identical sweep again: served from the cache ==")
    rerun = runner.run(spec)
    print(f"   {cache_summary_line(rerun.batch)}")
    print()
    print(format_batch_report(rerun.batch))
    print()
    print(format_device_aggregate(rerun.batch))


if __name__ == "__main__":
    main()
