"""PARAM linear workload.

PARAM is Meta's open benchmark suite of compute and communication
microbenchmarks plus full workloads; the paper uses its representative
linear model with 20 linear layers, batch size 512 and float32 data
(Section 6.2).  Every layer is a plain ``aten::linear`` (which internally
calls ``aten::t`` and ``aten::addmm``), making this the cleanest workload
for validating the replay pipeline — Table 3 reports 100% coverage on both
count and execution time for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.torchsim import nn
from repro.torchsim.runtime import Runtime
from repro.torchsim.tensor import Tensor
from repro.workloads.base import Workload, WorkloadConfig


@dataclass
class ParamLinearConfig(WorkloadConfig):
    """Configuration of the PARAM linear model."""

    batch_size: int = 512
    num_layers: int = 20
    hidden_size: int = 1728
    input_size: int = 1728


class ParamLinearWorkload(Workload):
    """A stack of ``num_layers`` linear layers trained with an MSE loss."""

    name = "param_linear"

    def __init__(self, config: Optional[ParamLinearConfig] = None, distributed: bool = False):
        super().__init__(config if config is not None else ParamLinearConfig())
        self.config: ParamLinearConfig
        if distributed:
            self.config.distributed = True

        layers: List[nn.Module] = []
        in_size = self.config.input_size
        for _ in range(self.config.num_layers):
            layers.append(nn.Linear(in_size, self.config.hidden_size, dtype=self.config.dtype))
            layers.append(nn.ReLU(inplace=True))
            in_size = self.config.hidden_size
        self.model = nn.Sequential(*layers)
        if self.config.distributed:
            self.ddp = nn.DistributedDataParallel(self.model)

        self.input = Tensor.empty(
            (self.config.batch_size, self.config.input_size), dtype=self.config.dtype
        )
        self.target = Tensor.empty(
            (self.config.batch_size, self.config.hidden_size), dtype=self.config.dtype
        )

    # ------------------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        return self.model.parameters()

    def forward_and_loss(self, runtime: Runtime) -> Tensor:
        output = self.model(runtime, self.input, self.tape)
        loss = runtime.call("aten::mse_loss", output, self.target)

        def loss_backward(rt, grad):
            return rt.call("aten::mse_loss_backward", loss, output, self.target, 1)

        self.tape.record("MseLossBackward0", loss_backward)
        return loss
