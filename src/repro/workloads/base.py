"""Workload base class.

A workload is a model plus its training loop, written against the simulated
framework: calling :meth:`Workload.run_iteration` issues one full training
iteration's operators through a runtime.  Everything the paper captures —
execution traces, profiler traces, system metrics — is produced by wrapping
those calls, exactly like the hook-based collection of Section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.torchsim.autograd import GradientTape
from repro.torchsim.dtypes import DType
from repro.torchsim.nn import DistributedDataParallel, SGD
from repro.torchsim.runtime import Runtime
from repro.torchsim.tensor import Tensor


@dataclass
class WorkloadConfig:
    """Common configuration shared by all workloads."""

    batch_size: int = 32
    dtype: DType = DType.FLOAT32
    learning_rate: float = 0.01
    #: When true, wrap the densely-replicated part of the model in DDP and
    #: all-reduce its gradients each iteration.
    distributed: bool = False
    #: Label the forward pass with a ``record_function`` annotation, so the
    #: subtrace-replay use case (Section 7.1) has something to anchor on.
    forward_label: str = "## forward ##"


class Workload:
    """Base class: owns the model, tape, optimizer and (optional) DDP state."""

    name: str = "workload"

    def __init__(self, config: Optional[WorkloadConfig] = None):
        self.config = config if config is not None else WorkloadConfig()
        self.tape = GradientTape()
        self.optimizer: Optional[SGD] = None
        self.ddp: Optional[DistributedDataParallel] = None

    # ------------------------------------------------------------------
    # To be provided by subclasses
    # ------------------------------------------------------------------
    def forward_and_loss(self, runtime: Runtime) -> Tensor:
        """Issue the forward pass and return the loss tensor."""
        raise NotImplementedError

    def parameters(self) -> List[Tensor]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared training-iteration skeleton
    # ------------------------------------------------------------------
    def _ensure_optimizer(self) -> SGD:
        if self.optimizer is None:
            self.optimizer = SGD(self.parameters(), lr=self.config.learning_rate)
        return self.optimizer

    def run_iteration(self, runtime: Runtime) -> None:
        """One training iteration: forward, loss, backward, (DDP), optimizer."""
        optimizer = self._ensure_optimizer()
        optimizer.zero_grad()
        self.tape.clear_grad_hooks()
        if self.ddp is not None and runtime.dist is not None:
            self.ddp.attach(runtime, self.tape)

        with runtime.record_function(self.config.forward_label):
            self.forward_and_loss(runtime)
        self.tape.backward(runtime)
        if self.ddp is not None and runtime.dist is not None:
            self.ddp.finalize(runtime)
        optimizer.step(runtime)

    def run_training(self, runtime: Runtime, iterations: int) -> List[float]:
        """Run several iterations, returning the per-iteration wall time (us)."""
        times: List[float] = []
        for _ in range(iterations):
            start = runtime.synchronize()
            self.run_iteration(runtime)
            end = runtime.synchronize()
            times.append(end - start)
        return times
