"""``replay-steady``: one client, back-to-back single-rank replay sessions.

Each job is ``repro.api.replay(trace).iterations(10, warmup=2).run()`` over
one of three captured models.  Jobs run in blocks of three, one per model,
in a seeded order, so every block — and every seed — carries the same work.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List

import common

ITERATIONS = 10
WARMUP = 2
WARMUP_BLOCKS = 3


class Input:
    """One model as the client replays it: loaded traces plus the
    expected summary digest and the Table-4 reference time."""

    def __init__(self, model: common.Model, trace, profiler_trace, et_path) -> None:
        self.name = model.name
        self.trace = trace
        self.profiler_trace = profiler_trace
        self.reference_us = model.reference_us
        self.et_path = et_path
        self.digest = ""


def setup(work) -> List[Input]:
    """Capture, serialise and load back every model (what a user pays
    before the first replay)."""
    from repro.et.trace import ExecutionTrace
    from repro.torchsim.profiler import ProfilerTrace

    inputs = []
    for model in common.capture_models():
        et_path = model.trace.save(work / f"{model.name}.et.json")
        pt_path = model.profiler_trace.save(work / f"{model.name}.profiler.json")
        inputs.append(
            Input(model, ExecutionTrace.load(et_path), ProfilerTrace.load(pt_path), et_path)
        )
    return inputs


def replay(inp: Input, hook=None):
    """One job; returns (summary, replayed ops including warm-up)."""
    import repro.api as api

    session = api.replay(inp.trace, profiler_trace=inp.profiler_trace).iterations(
        ITERATIONS, warmup=WARMUP
    )
    if hook is not None:
        session.hook(hook)
    summary = session.run().summarize()
    return summary, summary.replayed_ops * (ITERATIONS + WARMUP) // ITERATIONS


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    work = common.new_work_dir()
    try:
        inputs, setup_s = common.timed_setup(lambda: setup(work), lambda _: None)
        for inp in inputs:
            inp.digest = common.digest(replay(inp)[0].to_dict())
        rng = random.Random(seed)
        # The first sessions of a process pay one-off costs (imports,
        # first-call code paths); time none of them.
        for _ in range(WARMUP_BLOCKS):
            for inp in rng.sample(inputs, len(inputs)):
                replay(inp)

        blocks = common.Blocks()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            traced = trace and blocks.index % 2 == 1
            for inp in rng.sample(inputs, len(inputs)):
                layers: Dict[str, float] = {}
                start = time.perf_counter()
                summary, ops = replay(inp, common.StageHook(layers) if traced else None)
                end = time.perf_counter()
                if traced:
                    # The session's self time: building it, the pipeline
                    # between stages, and summarizing.
                    layers["api.session.self_s"] = end - start - sum(
                        value for name, value in layers.items()
                        if name in common.STAGE_METRICS.values()
                    )
                blocks.jobs.append(
                    common.Job(
                        block=blocks.index,
                        start=start,
                        end=end,
                        ops=ops,
                        ok=common.digest(summary.to_dict()) == inp.digest,
                        error=abs(summary.mean_iteration_time_us - inp.reference_us)
                        / inp.reference_us,
                        traced=traced,
                        layers=layers,
                    )
                )
            blocks.close()

        jobs = blocks.jobs
        changed = common.check_across_runs(
            "replay-steady", seed, {inp.name: inp.digest for inp in inputs}
        )
        failed = sum(not job.ok for job in jobs) + len(changed)
        if not trace:
            metrics = common.end_to_end_metrics(jobs, setup_s)
            return common.result_payload(metrics, common.END_TO_END_UNITS, len(jobs), failed)
        extra = {"et.load_s": common.median_load_s(inp.et_path for inp in inputs)}
        metrics = common.per_layer_metrics(jobs, extra)
        return common.result_payload(metrics, common.PER_LAYER_UNITS, len(jobs), failed)
    finally:
        common.remove_dir(work)
