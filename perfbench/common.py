"""Shared pieces of the benchmark: inputs, timing, statistics, checks.

Every workload module builds its inputs with :func:`capture_models` (or
its own capture), records one :class:`Job` per closed-loop request, and
hands the job list to :func:`end_to_end_metrics`.  Nothing here imports
``repro`` at module load: ``run.py`` puts the repository's ``src/`` on the
path first.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
#: Work space inside the repository (gitignored): per-run work
#: directories and the cross-run result digests.
BENCH_DIR = ROOT / ".perfbench"

DEVICE = "A100"
#: Set-up runs this many times per run; ``setup_s`` is the median.  One
#: set-up takes about 60 ms, and single ones scatter by 15% on a shared
#: host, so it takes this many for the median to repeat within 5%.
SETUP_REPEATS = 15

#: Time :func:`calibration_s` takes on the nominal host.  Every wall time
#: the benchmark reports is scaled to that host (see :func:`host_scale`).
CALIBRATION_NOMINAL_S = 0.002

#: Pipeline stage name -> per-layer metric (self time per job, seconds).
#: Cluster replicas run ``sync-collectives`` in place of ``init-comms``.
STAGE_METRICS = {
    "select": "core.select.self_s",
    "reconstruct": "core.reconstruct.self_s",
    "materialize-tensors": "core.tensors.self_s",
    "assign-streams": "core.streams.self_s",
    "init-comms": "core.pipeline.init_comms_s",
    "sync-collectives": "core.pipeline.init_comms_s",
    "execute": "core.execute.self_s",
    "measure": "core.pipeline.measure_s",
}

#: Metric name -> unit, in report order, as ``BENCHMARK.json`` declares
#: them.  A traced run prints every per-layer metric; a layer its workload
#: does not exercise reads 0.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Model:
    """One captured model: its traces and the Table-4 reference time."""

    name: str
    trace: Any
    profiler_trace: Any
    #: Captured iteration time minus the GPU time of unsupported ops.
    reference_us: float


def capture_models() -> List[Model]:
    """Single-rank captures of the ``capture_bench_workload`` models
    (param_linear, rm, ddp_rm rank 0), each with its capture time.

    ``capture_bench_workload`` drops the capture's iteration time, so the
    same model configs are captured here through the public API.
    """
    import repro.api as api
    from repro.bench.harness import unsupported_gpu_time_us
    from repro.workloads.ddp import DistributedRunner
    from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
    from repro.workloads.rm import RMWorkload

    captures = [
        api.capture(
            ParamLinearWorkload(
                ParamLinearConfig(batch_size=64, num_layers=8, hidden_size=128, input_size=128)
            ),
            device=DEVICE,
        ),
        api.capture(RMWorkload(bench_rm_config()), device=DEVICE),
        DistributedRunner(
            lambda rank, world: RMWorkload(bench_rm_config(), rank=rank, world_size=world),
            world_size=2,
            device=DEVICE,
        ).run_rank(0),
    ]
    return [
        Model(
            name=name,
            trace=capture.execution_trace,
            profiler_trace=capture.profiler_trace,
            reference_us=capture.iteration_time_us - unsupported_gpu_time_us(capture),
        )
        for name, capture in zip(("param_linear", "rm", "ddp_rm"), captures)
    ]


def bench_rm_config():
    """The RM config of ``repro.bench.throughput.capture_bench_workload``."""
    from repro.workloads.rm import RMConfig

    return RMConfig(
        batch_size=128,
        num_tables=16,
        rows_per_table=2000,
        embedding_dim=32,
        pooling_factor=8,
        bottom_mlp=(64, 32, 32),
        top_mlp=(128, 64),
    )


def new_work_dir() -> Path:
    """A fresh work directory under :data:`BENCH_DIR`."""
    BENCH_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="work-", dir=BENCH_DIR))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
def calibration_s() -> float:
    """Wall time of a fixed allocate-and-free loop: a probe of how fast
    this host runs interpreter-bound, allocation-heavy code right now.

    On a shared host that speed moves by 15% and more between processes
    and from one second to the next, and the replay's own speed moves with
    it.  The probe runs no code of the program, and the cyclic collector is
    off while it runs, so the size of the program's heap does not move it.
    It allocates because the replay does: a pure arithmetic loop missed
    much of the slowdown neighbours cause (see ``README.md``).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for index in range(6000):
            table[index] = [index, str(index), (index, index)]
        del table
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_scale(before_s: float, after_s: float) -> float:
    """How much slower than nominal the host ran between two probes;
    a wall time divided by this is the time on the nominal host."""
    return (before_s + after_s) / 2.0 / CALIBRATION_NOMINAL_S


def timed_setup(make: Callable[[], Any], teardown: Callable[[Any], None]) -> Tuple[Any, float]:
    """Run ``make`` :data:`SETUP_REPEATS` times; returns the last product
    (earlier ones are torn down) and the median host-scaled set-up time."""
    times = []
    product = None
    for _ in range(SETUP_REPEATS):
        if product is not None:
            teardown(product)
        # Each set-up starts from a collected heap, as a user's first does.
        gc.collect()
        before = calibration_s()
        start = time.perf_counter()
        product = make()
        elapsed = time.perf_counter() - start
        times.append(elapsed / host_scale(before, calibration_s()))
    return product, statistics.median(times)


def median_load_s(paths: Iterable[Path]) -> float:
    """Mean over ``paths`` of the median of 5 ``ExecutionTrace.load`` times."""
    from repro.et.trace import ExecutionTrace

    medians = []
    for path in paths:
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            ExecutionTrace.load(path)
            samples.append(time.perf_counter() - start)
        medians.append(statistics.median(samples))
    return statistics.fmean(medians)


# ----------------------------------------------------------------------
# Stage spans
# ----------------------------------------------------------------------
class StageHook:
    """Benchmark-owned ``ReplayHook``: stage spans, reconstructed-op and
    vectorize counts, and scheduler resumes, summed into ``totals``.

    Build stages never yield under the cluster scheduler, so their spans
    are exact there too; the execute span is not (it also covers other
    ranks' work) and the fleet workload does not use it.
    """

    def __init__(self, totals: Dict[str, float]) -> None:
        self.totals = totals
        self._started: Dict[str, float] = {}

    def _add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + value

    def on_stage_start(self, context, stage) -> None:
        self._started[stage.name] = time.perf_counter()

    def on_stage_end(self, context, stage) -> None:
        metric = STAGE_METRICS.get(stage.name)
        if metric is not None:
            self._add(metric, time.perf_counter() - self._started.pop(stage.name))
        if stage.name == "reconstruct":
            self._add("core.reconstruct.ops", len(context.reconstructed))
        elif stage.name == "execute":
            from repro.core import vectorize

            executor = context.extras.get(vectorize.EXTRAS_KEY)
            if executor is not None:
                for key in ("fast_ops", "scalar_ops", "programs_dead"):
                    self._add(f"core.vectorize.{key}", executor.stats[key])

    def on_op_replayed(self, context, entry, output) -> None:
        pass

    def on_error(self, context, stage, error) -> None:
        pass

    def on_resume(self, context) -> None:
        self._add("cluster.scheduler.resumes", 1)

    def report(self, **_: Any) -> None:
        """``ClusterReplayer`` asks its per-rank hooks for a profile
        report; this hook has none to give."""
        return None


# ----------------------------------------------------------------------
# Jobs and metrics
# ----------------------------------------------------------------------
@dataclass
class Job:
    """One closed-loop request as the client saw it."""

    block: int
    start: float
    end: float
    ops: int
    ok: bool
    #: |replayed - reference| / reference iteration time; ``None`` for a
    #: job that re-serves a result another job already counted.
    error: Optional[float]
    traced: bool = False
    #: Per-layer values of a traced job (times raw, not host-scaled); on
    #: every workload they account for the job's whole wall time.
    layers: Optional[Dict[str, float]] = None
    #: Host slowness over the job's block (:func:`host_scale`).
    scale: float = 1.0

    @property
    def wall_s(self) -> float:
        """Wall time on the nominal host."""
        return (self.end - self.start) / self.scale


class Blocks:
    """Runs jobs in blocks with a host-speed probe between blocks.

    Each block holds the same job mix, so one block's rate is comparable
    with any other's; a probe on each side of a block gives its host
    scale.
    """

    def __init__(self) -> None:
        self.jobs: List[Job] = []
        self.index = 0
        self._probe = calibration_s()
        self._first = 0

    def close(self) -> None:
        """End the current block: probe the host and scale its jobs."""
        probe = calibration_s()
        scale = host_scale(self._probe, probe)
        for job in self.jobs[self._first:]:
            job.scale = scale
        self._probe = probe
        self._first = len(self.jobs)
        self.index += 1


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already-sorted values."""
    index = max(0, min(len(sorted_values) - 1, int(round(q * len(sorted_values) + 0.5)) - 1))
    return sorted_values[index]


def block_walls(jobs: Iterable[Job]) -> List[Tuple[float, int, int]]:
    """Per block: (host-scaled wall seconds, jobs, ops)."""
    groups: Dict[int, List[Job]] = {}
    for job in jobs:
        groups.setdefault(job.block, []).append(job)
    return [
        (
            (max(job.end for job in group) - min(job.start for job in group)) / group[0].scale,
            len(group),
            sum(job.ops for job in group),
        )
        for group in groups.values()
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(jobs: List[Job], setup_s: float) -> Dict[str, float]:
    """The eight end-to-end metrics of one untraced run.

    Throughput is the median block rate, which a burst of outside load
    on a shared host moves far less than a whole-run total would.
    """
    blocks = block_walls(jobs)
    latencies = sorted(job.wall_s * 1e3 for job in jobs)
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(ops / wall for wall, _, ops in blocks),
        "jobs_per_s": statistics.median(count / wall for wall, count, _ in blocks),
        "job_p50_ms": percentile(latencies, 0.50),
        "job_p90_ms": percentile(latencies, 0.90),
        "success_rate": sum(job.ok for job in jobs) / len(jobs),
        "peak_rss_mb": peak_rss_mb(),
        "replay_error_pct": 100.0
        * statistics.fmean(job.error for job in jobs if job.error is not None),
    }


def per_layer_metrics(jobs: List[Job], extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of a traced run (layers a workload does not
    exercise read 0).

    Layer times are means per traced job, host-scaled like the walls;
    counts are means per traced job.  ``bench.trace_overhead_pct``
    compares the mean traced and untraced job walls (the run alternates
    traced and untraced blocks).
    """
    traced = [job for job in jobs if job.traced]
    totals: Dict[str, float] = {}
    for job in traced:
        for name, value in (job.layers or {}).items():
            if PER_LAYER_UNITS[name] in ("s", "ms"):
                value /= job.scale
            totals[name] = totals.get(name, 0.0) + value
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    out.update({name: value / len(traced) for name, value in totals.items()})
    out.update(extra)
    fast, scalar = out["core.vectorize.fast_ops"], out["core.vectorize.scalar_ops"]
    out["core.vectorize.fast_ratio"] = fast / (fast + scalar) if fast + scalar else 0.0
    untraced_s = statistics.fmean(job.wall_s for job in jobs if not job.traced)
    traced_s = statistics.fmean(job.wall_s for job in traced)
    out["bench.trace_overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    out["bench.job_samples"] = float(len(traced))
    return out


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def digest(payload: Any) -> str:
    """SHA-256 of a JSON payload in canonical form."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def code_id() -> str:
    """Digest of the program's and the benchmark's sources: result digests
    recorded by one version of either are only ever compared with the
    same version."""
    sha = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        sha.update(str(path.relative_to(ROOT)).encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def check_across_runs(workload: str, seed: int, digests: Dict[str, str]) -> List[str]:
    """Compare this run's per-input result digests with those an earlier
    run of the same code, workload and seed recorded; record the union.

    Returns the inputs whose digest changed (empty when all agree).
    """
    path = BENCH_DIR / "digests" / code_id() / f"{workload}-{seed}.json"
    known: Dict[str, str] = {}
    if path.is_file():
        try:
            known = json.loads(path.read_text())
        except ValueError:
            known = {}
    changed = sorted(key for key, value in digests.items() if known.get(key, value) != value)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({**digests, **known}, sort_keys=True))
    tmp.replace(path)
    return changed


def result_payload(
    metrics: Dict[str, float], units: Dict[str, str], attempted: int, failed: int
) -> Dict[str, Any]:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }
