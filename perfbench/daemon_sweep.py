"""``daemon-sweep``: two clients submit one-point sweep jobs over HTTP to an
in-process ``ReplayDaemon`` with two workers.

The daemon serves a ``TraceRepository`` of the three captured models.
Every job names one trace and one power cap; the daemon re-discovers,
parses and digests the whole repository for each.  The clients run in
rounds: each takes one block of four jobs — one fresh point per trace, in
a seeded order, and one repeat of a point it finished earlier, at a seeded
position — and a round ends when both blocks are done.  A repeat is a
cache hit (HTTP, queue, discovery, store); a fresh point also loads and
digests its trace, replays it and writes the cache.

Fresh points sweep power caps a milliwatt apart just under the device's
TDP: each is a new cache key, while the replay runs at the clock it was
captured at, so every job's result is also a fidelity measurement.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

import common

CLIENTS = 2
WORKERS = 2
POWER_STEP_W = 0.001
TERMINAL = ("completed", "failed", "cancelled")


class Service:
    """The running service and what the clients need to talk to it."""

    def __init__(self, models, repo_dir, daemon, server) -> None:
        self.models = {model.name: model for model in models}
        self.repo_dir = repo_dir
        self.daemon = daemon
        self.server = server


def setup(work) -> Service:
    """Capture the models into a trace repository, discover it, and start
    the daemon (which recovers its job store) behind its HTTP server."""
    from repro.daemon.daemon import ReplayDaemon
    from repro.daemon.server import DaemonServer
    from repro.service.repository import TraceRepository

    models = common.capture_models()
    repo_dir = work / "repo"
    repository = TraceRepository(repo_dir)
    for model in models:
        repository.add(model.name, model.trace)
    TraceRepository(repo_dir).discover()
    daemon = ReplayDaemon(work / "state", workers=WORKERS)
    server = DaemonServer(daemon, port=0)
    server.start()
    return Service(models, repo_dir, daemon, server)


class TimedStore:
    """Stands in for ``daemon.store``: stamps each ``save`` of a traced
    owner's job with the state it persisted (queued -> running is the
    queue wait, running -> completed is the run)."""

    def __init__(self, store, traced_owners) -> None:
        self._store = store
        self._lock = threading.Lock()
        self.traced_owners = set(traced_owners)
        #: job id -> [(state, start, end)]
        self.stamps: Dict[str, List[Tuple[str, float, float]]] = {}

    def save(self, record):
        start = time.perf_counter()
        path = self._store.save(record)
        end = time.perf_counter()
        if record.owner in self.traced_owners:
            with self._lock:
                self.stamps.setdefault(record.id, []).append((record.state, start, end))
        return path

    def __getattr__(self, name):
        return getattr(self._store, name)


def payload(service: Service, point: Tuple[str, float]) -> Dict[str, Any]:
    name, power = point
    return {
        "repo": str(service.repo_dir),
        "traces": [name],
        "devices": [common.DEVICE],
        "axes": {"power_limit_w": [power]},
        "base": {"iterations": 1},
    }


class Client:
    """One closed-loop client: its seeded job order and its fresh powers."""

    def __init__(self, index: int, seed: int, service: Service, tdp_w: float) -> None:
        from repro.daemon.client import DaemonClient

        self.index = index
        self.rng = random.Random(seed * 1000 + index)
        self.service = service
        self.tdp_w = tdp_w
        self.fresh = 0
        self.done: List[Tuple[str, float]] = []
        url = service.server.url
        self.plain = DaemonClient(url, client_id=f"client-{index}")
        self.traced = DaemonClient(url, client_id=f"client-{index}-traced")

    def next_fresh(self, name: str) -> Tuple[str, float]:
        self.fresh += 1
        return name, self.tdp_w - POWER_STEP_W * (self.index + CLIENTS * self.fresh)

    def block(self, traced: bool) -> List[Dict[str, Any]]:
        names = self.rng.sample(sorted(self.service.models), len(self.service.models))
        points = [self.next_fresh(name) for name in names]
        repeat_at = self.rng.randrange(1, len(points) + 1)
        client = self.traced if traced else self.plain
        requests = []
        for position in range(len(points) + 1):
            if position == repeat_at:
                point, hit = self.rng.choice(self.done), True
            else:
                point, hit = points.pop(0), False
            start = time.perf_counter()
            job_id = client.submit("sweep", payload(self.service, point))["id"]
            submitted = time.perf_counter()
            record = self.service.daemon.wait(job_id, timeout=30.0, until=TERMINAL)
            end = time.perf_counter()
            row = record.result["points"][0] if record.state == "completed" else None
            if not hit:
                self.done.append(point)
            requests.append(
                {
                    "id": job_id, "point": point, "hit": hit, "row": row, "traced": traced,
                    "start": start, "submitted": submitted, "end": end,
                }
            )
        return requests


def reference_summaries(service: Service, points) -> Tuple[Dict[Any, str], float]:
    """Digest of the direct serial ``BatchReplayer`` result of each point,
    and the mean wall time of one such replay."""
    from repro.daemon.executor import expand_sweep_points
    from repro.service.batch import BatchReplayer

    digests: Dict[Any, str] = {}
    walls = []
    for point in sorted(points):
        jobs = expand_sweep_points(payload(service, point))
        start = time.perf_counter()
        (result,) = list(BatchReplayer(backend="serial").run(jobs))
        walls.append(time.perf_counter() - start)
        digests[point] = common.digest(result.summary.to_dict()) if result.ok else ""
    return digests, statistics.fmean(walls)


def job_layers(request: Dict[str, Any], stamps) -> Dict[str, float]:
    """Per-layer values of one traced job."""
    saves = {state: (start, end) for state, start, end in stamps}
    queued, running, completed = saves["queued"], saves["running"], saves["completed"]
    durations = [end - start for _, start, end in stamps]
    layers = {
        "daemon.server.submit_ms": (request["submitted"] - request["start"]) * 1e3,
        "daemon.queue.wait_ms": (running[0] - queued[1]) * 1e3,
        "daemon.executor.run_ms": (completed[0] - running[1]) * 1e3,
        "daemon.store.save_ms": statistics.fmean(durations) * 1e3,
        "daemon.store.saves": len(stamps),
    }
    # The queued save runs inside the submit call, and a worker may start
    # the job before the client has its reply; the wake-up of
    # ``ReplayDaemon.wait`` starts when both are done.
    layers["daemon.wait.wake_ms"] = (
        request["end"] - max(request["submitted"], completed[1])
    ) * 1e3
    return layers


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from repro.service.repository import TraceRepository
    from repro.torchsim.runtime import Runtime

    work = common.new_work_dir()
    service: Optional[Service] = None
    try:
        service, setup_s = common.timed_setup(
            lambda: setup(work), lambda previous: previous.server.stop()
        )
        store = TimedStore(
            service.daemon.store, (f"client-{index}-traced" for index in range(CLIENTS))
        )
        if trace:
            service.daemon.store = store
        tdp_w = Runtime(device=common.DEVICE).spec.tdp_w
        clients = [Client(index, seed, service, tdp_w) for index in range(CLIENTS)]
        cache = service.daemon.cache
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:

            def round_(traced: bool) -> List[Dict[str, Any]]:
                futures = [pool.submit(client.block, traced) for client in clients]
                return [request for future in futures for request in future.result()]

            round_(False)  # warm-up, untimed
            hits_before, misses_before = cache.hits, cache.misses
            blocks = common.Blocks()
            requests: List[Dict[str, Any]] = []
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                traced = trace and blocks.index % 2 == 1
                for request in round_(traced):
                    requests.append(request)
                    blocks.jobs.append(
                        common.Job(
                            block=blocks.index, start=request["start"], end=request["end"],
                            ops=0, ok=False, error=None, traced=traced,
                        )
                    )
                # Blocks.close probes the host, so it must run while no job
                # is in flight: the rounds give it that gap.
                blocks.close()
            window_jobs = len(requests)
            hits = cache.hits - hits_before
            misses = cache.misses - misses_before

        references, point_s = reference_summaries(
            service, {request["point"] for request in requests}
        )
        for job, request in zip(blocks.jobs, requests):
            row = request["row"]
            if row is None:
                continue
            model = service.models[request["point"][0]]
            summary = row["summary"]
            job.ok = (
                row["cached"] == request["hit"]
                and common.digest(summary) == references[request["point"]]
            )
            job.ops = 0 if row["cached"] else summary["replayed_ops"]
            if not request["hit"]:
                job.error = (
                    abs(summary["mean_iteration_time_us"] - model.reference_us)
                    / model.reference_us
                )
            if request["traced"]:
                job.layers = job_layers(request, store.stamps[request["id"]])

        changed = common.check_across_runs(
            "daemon-sweep", seed, {f"{name}@{power!r}": d for (name, power), d in references.items()}
        )
        jobs = blocks.jobs
        failed = sum(not job.ok for job in jobs) + len(changed)
        if not trace:
            metrics = common.end_to_end_metrics(jobs, setup_s)
            return common.result_payload(metrics, common.END_TO_END_UNITS, len(jobs), failed)

        discover_s = []
        for _ in range(10):
            start = time.perf_counter()
            TraceRepository(service.repo_dir).discover()
            discover_s.append(time.perf_counter() - start)
        extra = {
            "service.cache.hits": hits / window_jobs,
            "service.cache.misses": misses / window_jobs,
            "service.cache.hit_ratio": hits / (hits + misses),
            "service.repository.discover_ms": statistics.median(discover_s) * 1e3,
            "service.batch.point_ms": point_s * 1e3,
            "et.load_s": common.median_load_s(sorted(service.repo_dir.glob("*.json"))),
        }
        metrics = common.per_layer_metrics(jobs, extra)
        return common.result_payload(metrics, common.PER_LAYER_UNITS, len(jobs), failed)
    finally:
        if service is not None:
            service.server.stop()
        common.remove_dir(work)
