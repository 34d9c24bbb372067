"""``fleet``: one client, back-to-back co-replays of a synthetic DDP-RM fleet.

Each job is ``repro.api.replay_cluster(fleet).world(8).iterations(1,
warmup=0).run()`` over the 8 per-rank traces of ``synthesize_fleet``, as
loaded back from disk.  Jobs run in blocks of three.  The seed only
permutes the order in which the per-rank traces are handed over (the
engine orders them by rank), so every seed carries the same work.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List

import common

#: 8 ranks (one node) keeps a co-replay near 0.1 s, so a run holds the
#: 100+ jobs its p90 needs.  Reconstruct takes about a third of the wall
#: time at every size measured from 2 to 128 ranks; it only overtakes the
#: execute work near 1024 ranks, where one co-replay takes tens of seconds.
WORLD = 8
BLOCK = 3
WARMUP_JOBS = 3


def setup(work) -> List[Any]:
    """Synthesize the fleet, write one trace file per rank, and load the
    directory back the way ``replay_cluster("dir/")`` does."""
    from repro.bench.throughput import synthesize_fleet
    from repro.cluster.engine import ClusterReplayer

    directory = work / "fleet"
    for trace in synthesize_fleet(WORLD, device=common.DEVICE):
        trace.save(directory / f"rank{trace.metadata['rank']:04d}.json")
    return ClusterReplayer.load_fleet(directory)


def reference_us(fleet) -> float:
    """Captured rank-0 iteration time minus unsupported ops (Table 4),
    from a capture of the same model ``synthesize_fleet`` clones."""
    from repro.bench.harness import unsupported_gpu_time_us
    from repro.workloads.ddp import DistributedRunner
    from repro.workloads.rm import RMConfig, RMWorkload

    config = RMConfig(
        batch_size=16,
        num_tables=4,
        rows_per_table=512,
        embedding_dim=16,
        pooling_factor=2,
        bottom_mlp=(32, 16),
        top_mlp=(32, 16),
    )
    capture = DistributedRunner(
        lambda rank, world: RMWorkload(config, rank=rank, world_size=world),
        world_size=WORLD,
        device=common.DEVICE,
    ).run_rank(0)
    # Tensor ids count up across captures in a process, so compare ops.
    if sorted(node.name for node in capture.execution_trace.nodes) != sorted(
        node.name for node in fleet[0].nodes
    ):
        raise RuntimeError("reference capture differs from the fleet's rank-0 trace")
    return capture.iteration_time_us - unsupported_gpu_time_us(capture)


def replay(fleet):
    import repro.api as api

    return api.replay_cluster(fleet).world(WORLD).iterations(1, warmup=0).run()


def time_match(fleet) -> float:
    """Wall time of the pre-flight match ``ClusterReplayer.replay`` runs
    first, timed on its own call."""
    from repro.cluster.engine import match_collectives

    start = time.perf_counter()
    match_collectives(fleet)
    return time.perf_counter() - start


def replay_traced(fleet, layers: Dict[str, float]):
    """The same co-replay through ``ClusterReplayer`` with one benchmark
    hook per rank."""
    from repro.cluster.engine import ClusterReplayer
    from repro.core.replayer import ReplayConfig

    config = ReplayConfig(world_size=WORLD, iterations=1, warmup_iterations=0)
    replayer = ClusterReplayer(config, profile_hook_factory=lambda rank: common.StageHook(layers))
    return replayer.replay(fleet)


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    work = common.new_work_dir()
    try:
        fleet, setup_s = common.timed_setup(lambda: setup(work), lambda _: None)
        reference = reference_us(fleet)
        expected = common.digest(replay(fleet).to_dict())
        rng = random.Random(seed)
        for _ in range(WARMUP_JOBS):
            replay(rng.sample(fleet, len(fleet)))

        blocks = common.Blocks()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            traced = trace and blocks.index % 2 == 1
            for _ in range(BLOCK):
                order = rng.sample(fleet, len(fleet))
                layers: Dict[str, float] = {}
                if traced:
                    layers["cluster.engine.match_s"] = time_match(order)
                start = time.perf_counter()
                report = replay_traced(order, layers) if traced else replay(order)
                end = time.perf_counter()
                if traced:
                    # A rank's execute span under the scheduler also covers
                    # every rank that ran while it was parked, so execute
                    # time is what is left of the fleet wall once the exact
                    # spans (match, build stages, measure) are taken out.
                    del layers["core.execute.self_s"]
                    exact = sum(
                        value for name, value in layers.items()
                        if common.PER_LAYER_UNITS[name] == "s"
                    )
                    layers["cluster.scheduler.exec_s"] = end - start - exact
                    layers["cluster.rendezvous.matched"] = report.matched_collectives
                blocks.jobs.append(
                    common.Job(
                        block=blocks.index,
                        start=start,
                        end=end,
                        ops=sum(rank.summary.replayed_ops for rank in report.ranks),
                        ok=report.unmatched_collectives == 0
                        and common.digest(report.to_dict()) == expected,
                        error=abs(report.mean_iteration_time_us - reference) / reference,
                        traced=traced,
                        layers=layers,
                    )
                )
            blocks.close()

        jobs = blocks.jobs
        changed = common.check_across_runs("fleet", seed, {"fleet": expected})
        failed = sum(not job.ok for job in jobs) + len(changed)
        if not trace:
            metrics = common.end_to_end_metrics(jobs, setup_s)
            return common.result_payload(metrics, common.END_TO_END_UNITS, len(jobs), failed)
        extra = {"et.load_s": common.median_load_s(sorted((work / "fleet").glob("*.json")))}
        metrics = common.per_layer_metrics(jobs, extra)
        return common.result_payload(metrics, common.PER_LAYER_UNITS, len(jobs), failed)
    finally:
        common.remove_dir(work)
