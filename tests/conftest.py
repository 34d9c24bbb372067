"""Shared fixtures for the test suite.

Workload fixtures use deliberately small configurations so the full suite
stays fast; the benchmark harness (benchmarks/) uses the paper-scale
defaults instead.
"""

from __future__ import annotations

import pytest

from repro.core import vectorize
from repro.core.tensors import clear_index_table
from repro.service.repository import clear_trace_table
from repro.torchsim import Runtime, Tensor, ExecutionGraphObserver, Profiler
from repro.torchsim import nn
from repro.torchsim.autograd import GradientTape
from repro.workloads.asr import ASRConfig, ASRWorkload
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
from repro.workloads.resnet import ResNetConfig, ResNetWorkload
from repro.workloads.rm import RMConfig, RMWorkload
from repro.bench.harness import capture_workload


# ----------------------------------------------------------------------
# Process-wide state
# ----------------------------------------------------------------------
def _clear_process_tables() -> None:
    vectorize.clear()
    clear_trace_table()
    clear_index_table()


@pytest.fixture(autouse=True)
def cold_program_store():
    """Start every test with no operator programs, parsed traces or
    generated index payloads, so what a test learns or reads never depends
    on which tests ran before it in the process.  A test that replays more
    than once and pins the learning path of a later replay clears the
    program table (:func:`~repro.core.vectorize.clear`) before it too."""
    _clear_process_tables()
    yield
    _clear_process_tables()


# ----------------------------------------------------------------------
# Small workload configurations
# ----------------------------------------------------------------------
@pytest.fixture
def small_param_linear() -> ParamLinearWorkload:
    return ParamLinearWorkload(
        ParamLinearConfig(batch_size=64, num_layers=4, hidden_size=256, input_size=256)
    )


@pytest.fixture
def small_resnet() -> ResNetWorkload:
    return ResNetWorkload(
        ResNetConfig(batch_size=4, image_size=64, num_classes=100, blocks_per_stage=1)
    )


@pytest.fixture
def small_asr() -> ASRWorkload:
    return ASRWorkload(
        ASRConfig(
            batch_size=4,
            num_frames=80,
            feature_dim=40,
            hidden_size=128,
            ffn_size=256,
            num_ffn_blocks=2,
            num_lstm_layers=2,
            vocab_size=512,
        )
    )


def make_small_rm(rank: int = 0, world_size: int = 1) -> RMWorkload:
    return RMWorkload(
        RMConfig(
            batch_size=32,
            num_tables=8,
            rows_per_table=10_000,
            embedding_dim=32,
            pooling_factor=4,
            bottom_mlp=(64, 32),
            top_mlp=(128, 64),
        ),
        rank=rank,
        world_size=world_size,
    )


@pytest.fixture
def small_rm() -> RMWorkload:
    return make_small_rm()


# ----------------------------------------------------------------------
# Runtime / capture helpers
# ----------------------------------------------------------------------
@pytest.fixture
def runtime() -> Runtime:
    return Runtime("A100")


@pytest.fixture
def small_linear_capture(small_param_linear):
    """Capture of one iteration of the small PARAM-linear workload."""
    return capture_workload(small_param_linear, device="A100", warmup_iterations=0)


@pytest.fixture
def captured_runtime_pieces():
    """A tiny manually-built model capture, handy for ET/profiler tests."""
    runtime = Runtime("A100")
    observer = runtime.attach_observer(ExecutionGraphObserver())
    observer.register_callback(None)
    profiler = runtime.attach_profiler(Profiler())
    model = nn.Sequential(nn.Linear(64, 64), nn.ReLU(), nn.Linear(64, 32))
    tape = GradientTape()
    x = Tensor.empty((16, 64))

    observer.start()
    profiler.start()
    start = runtime.synchronize()
    with runtime.record_function("## forward ##"):
        out = model(runtime, x, tape)
    loss = runtime.call("aten::mse_loss", out, Tensor.empty(out.shape))
    tape.backward(runtime)
    nn.SGD(model.parameters(), 0.01).step(runtime)
    end = runtime.synchronize()
    observer.stop()
    profiler.stop()

    return {
        "runtime": runtime,
        "trace": observer.trace,
        "profiler_trace": profiler.trace,
        "iteration_time_us": end - start,
        "model": model,
    }
