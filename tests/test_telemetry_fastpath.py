"""The zero-overhead-when-disabled contract, pinned byte-for-byte.

Telemetry is purely observational: with the hooks absent OR present but
disabled, every replay's summary ``to_dict()`` payload and its cache
digests must be byte-identical (``json.dumps(..., sort_keys=True)``
equality) — for the single-rank PARAM-linear and RM sessions and the
4-rank DDP-RM cluster replay.  A failure here means instrumentation
leaked into results or cache keys, which would silently invalidate every
cached sweep point.
"""

from __future__ import annotations

import json

import pytest

import repro.api as api
from repro.core import vectorize
from repro.service.cache import cache_key
from repro.telemetry import Tracer
from repro.workloads.ddp import DistributedRunner
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
from tests.conftest import make_small_rm


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def make_param_linear():
    return ParamLinearWorkload(
        ParamLinearConfig(batch_size=8, num_layers=2, hidden_size=32, input_size=32)
    )


@pytest.fixture(scope="module", params=["param_linear", "rm"])
def capture(request):
    workload = make_param_linear() if request.param == "param_linear" else make_small_rm()
    return api.capture(workload, warmup_iterations=0)


class TestSingleRankByteIdentity:
    def _run(self, capture, telemetry: str):
        vectorize.clear()  # every run learns its programs cold
        session = api.replay(capture).iterations(2)
        if telemetry == "disabled":
            session.with_telemetry(enabled=False)
        result = session.run()
        digest = cache_key(capture.execution_trace.digest(), session.config)
        return canonical(result.summarize().to_dict()), digest, session

    def test_absent_vs_disabled(self, capture):
        absent_summary, absent_digest, _ = self._run(capture, "absent")
        disabled_summary, disabled_digest, session = self._run(capture, "disabled")
        assert absent_summary == disabled_summary
        assert absent_digest == disabled_digest
        # The disabled tracer must not have recorded anything either.
        assert session.tracer.spans == () and session.tracer.events == ()


class TestClusterByteIdentity:
    @pytest.fixture(scope="class")
    def fleet(self):
        runner = DistributedRunner(
            lambda rank, world: make_small_rm(rank=rank, world_size=world),
            world_size=4,
        )
        return runner.run()

    def _run(self, fleet, telemetry: str):
        vectorize.clear()  # every run learns its programs cold
        session = api.replay_cluster(fleet).on("A100").iterations(2)
        if telemetry == "disabled":
            session.with_telemetry(enabled=False)
        report = session.run()
        digests = {
            rank.rank: cache_key(
                fleet[rank.rank].execution_trace.digest(), session.config
            )
            for rank in report.ranks
        }
        return canonical(report.to_dict()), digests, session

    def test_absent_vs_disabled(self, fleet):
        absent_report, absent_digests, _ = self._run(fleet, "absent")
        disabled_report, disabled_digests, session = self._run(fleet, "disabled")
        assert absent_report == disabled_report
        assert absent_digests == disabled_digests
        assert session.tracer.spans == () and session.tracer.events == ()

    def test_enabled_telemetry_leaves_report_identical_too(self, fleet):
        """Stronger than the ISSUE asks: even *enabled* telemetry must not
        perturb the virtual-clock results (it only observes)."""
        baseline, _, _ = self._run(fleet, "absent")
        vectorize.clear()
        session = (
            api.replay_cluster(fleet).on("A100").iterations(2)
            .with_telemetry(Tracer())
        )
        report = session.run()
        assert canonical(report.to_dict()) == baseline
        assert session.tracer.spans  # and it actually recorded
