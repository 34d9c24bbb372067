"""Tests for the ``python -m repro`` CLI (repro.service.cli).

Includes the acceptance scenario: a sweep over >= 3 traces x >= 2 device
configs runs through the worker pool, and a second identical invocation is
served entirely from the result cache (no re-replay).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import capture_workload
from repro.service import TraceRepository
from repro.service.cli import main
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
from repro.workloads.resnet import ResNetConfig, ResNetWorkload
from repro.workloads.rm import RMConfig, RMWorkload


@pytest.fixture(scope="module")
def cli_repo_dir(tmp_path_factory) -> Path:
    """Repository of three different small workload traces."""
    root = tmp_path_factory.mktemp("cli_traces")
    repo = TraceRepository(root)
    workloads = [
        ParamLinearWorkload(
            ParamLinearConfig(batch_size=16, num_layers=2, hidden_size=64, input_size=64)
        ),
        ResNetWorkload(ResNetConfig(batch_size=2, image_size=32, num_classes=10, blocks_per_stage=1)),
        RMWorkload(
            RMConfig(
                batch_size=8,
                num_tables=2,
                rows_per_table=1000,
                embedding_dim=8,
                pooling_factor=2,
                bottom_mlp=(16, 8),
                top_mlp=(16, 8),
            )
        ),
    ]
    for workload in workloads:
        capture = capture_workload(workload, warmup_iterations=0)
        repo.add(workload.name, capture.execution_trace)
    return root


class TestListTraces:
    def test_table_output(self, cli_repo_dir, capsys):
        assert main(["list-traces", "--repo", str(cli_repo_dir)]) == 0
        out = capsys.readouterr().out
        for name in ("param_linear", "resnet", "rm"):
            assert name in out

    def test_json_output(self, cli_repo_dir, capsys):
        assert main(["list-traces", "--repo", str(cli_repo_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        traces = payload["traces"]
        assert len(traces) == 3
        assert {entry["workload"] for entry in traces} == {"param_linear", "resnet", "rm"}
        assert all(len(entry["digest"]) == 64 for entry in traces)
        assert payload["invalid"] == {}

    def test_json_output_reports_invalid_files(self, cli_repo_dir, capsys):
        junk = cli_repo_dir / "junk.json"
        junk.write_text("{ not json")
        try:
            assert main(["list-traces", "--repo", str(cli_repo_dir), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert len(payload["traces"]) == 3
            assert str(junk) in payload["invalid"]
        finally:
            junk.unlink()


class TestReplayCommand:
    def test_replay_single_trace(self, cli_repo_dir, capsys):
        code = main(
            ["replay", "--repo", str(cli_repo_dir), "--trace", "param_linear", "--device", "V100"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "param_linear@V100" in out
        assert "replayed" in out

    def test_replay_unknown_trace_fails(self, cli_repo_dir, capsys):
        code = main(["replay", "--repo", str(cli_repo_dir), "--trace", "nope"])
        assert code == 1
        assert "no trace named" in capsys.readouterr().err


class TestSweepAcceptance:
    def test_sweep_then_cached_sweep(self, cli_repo_dir, tmp_path, capsys, monkeypatch):
        cache_dir = tmp_path / "cache"
        argv = [
            "sweep",
            "--repo", str(cli_repo_dir),
            "--cache", str(cache_dir),
            "--device", "A100",
            "--device", "NewPlatform",
            "--backend", "process",
            "--workers", "2",
            "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        # >= 3 traces x >= 2 device configs, all through the worker pool.
        assert payload["replayed"] == 6
        assert payload["cached"] == 0
        assert payload["failed"] == 0
        assert len(payload["jobs"]) == 6
        assert {job["device"] for job in payload["jobs"]} == {"A100", "NewPlatform"}

        # Second invocation: must complete via cache hits with no re-replay.
        import repro.service.batch as batch_module

        def _no_replay(*args, **kwargs):
            raise AssertionError("replay executed despite warm cache")

        monkeypatch.setattr(batch_module, "replay_job", _no_replay)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["replayed"] == 0
        assert second["cached"] == 6
        assert second["failed"] == 0
        # Cached summaries carry the same measurements as the fresh run.
        first_times = {job["label"]: job["summary"]["mean_iteration_time_us"] for job in payload["jobs"]}
        second_times = {job["label"]: job["summary"]["mean_iteration_time_us"] for job in second["jobs"]}
        assert first_times == second_times

    def test_sweep_with_axes(self, cli_repo_dir, capsys):
        code = main(
            [
                "sweep",
                "--repo", str(cli_repo_dir),
                "--trace", "param_linear",
                "--device", "A100",
                "--power-limit", "250",
                "--power-limit", "400",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "power_limit_w=250.0" in out
        assert "power_limit_w=400.0" in out

    @pytest.mark.parametrize("command", ["sweep", "replay"])
    def test_workers_without_process_backend_is_a_usage_error(self, cli_repo_dir, command, capsys):
        # The serial backend has no pool to size, so --workers alone would
        # be silently ignored.
        assert main([command, "--repo", str(cli_repo_dir), "--workers", "2"]) == 2
        assert "pass --backend process" in capsys.readouterr().err
        assert main(
            [command, "--repo", str(cli_repo_dir), "--backend", "serial", "--workers", "2"]
        ) == 2

    def test_empty_repo_fails_cleanly(self, tmp_path, capsys):
        code = main(["sweep", "--repo", str(tmp_path / "empty")])
        assert code == 1
        assert "no traces to sweep" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self, cli_repo_dir):
        """``python -m repro`` works as an actual subprocess."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list-traces", "--repo", str(cli_repo_dir)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "param_linear" in proc.stdout
