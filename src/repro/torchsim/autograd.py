"""Tape-based autograd.

In PyTorch the backward pass is executed by the autograd engine on a worker
thread, and every backward step shows up in the execution trace as an
``autograd::engine::evaluate_function: <Name>Backward0`` wrapper node whose
children are the actual ATen backward operators (these wrappers are visible
in Figure 4 of the paper and are exactly the nodes the replayer does *not*
replay — it replays their children instead).

``torchsim`` models this with an explicit gradient tape: layers record a
backward closure during the forward pass, and :meth:`GradientTape.backward`
replays the closures in reverse order on the autograd thread, wrapping each
in the evaluate_function annotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.torchsim.tensor import Tensor

#: Name of the simulated autograd worker thread.
AUTOGRAD_THREAD = "autograd"

#: Signature of a recorded backward closure: (runtime, upstream_grad) -> grad
BackwardFn = Callable[["object", Optional[Tensor]], Optional[Tensor]]
#: Signature of gradient-ready hooks (used by DDP for bucketing).
GradHook = Callable[[Tensor], None]


@dataclass
class _TapeEntry:
    name: str
    backward_fn: BackwardFn


class GradientTape:
    """Records backward closures during forward and replays them in reverse."""

    def __init__(self) -> None:
        self._entries: List[_TapeEntry] = []
        self._grad_hooks: List[GradHook] = []

    # ------------------------------------------------------------------
    # Recording (called by nn modules during forward)
    # ------------------------------------------------------------------
    def record(self, name: str, backward_fn: BackwardFn) -> None:
        """Record one backward step.

        ``name`` should be the PyTorch-style grad-fn name (``AddmmBackward0``,
        ``ConvolutionBackward0`` ...); it becomes part of the autograd
        wrapper annotation in the trace.
        """
        self._entries.append(_TapeEntry(name=name, backward_fn=backward_fn))

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Gradient hooks (used by DistributedDataParallel)
    # ------------------------------------------------------------------
    def add_grad_hook(self, hook: GradHook) -> None:
        self._grad_hooks.append(hook)

    def clear_grad_hooks(self) -> None:
        self._grad_hooks = []

    def grad_ready(self, parameter: Tensor) -> None:
        """Notify hooks that a parameter's gradient has been produced."""
        for hook in self._grad_hooks:
            hook(parameter)

    # ------------------------------------------------------------------
    # Backward execution
    # ------------------------------------------------------------------
    def backward(self, runtime, loss_grad: Optional[Tensor] = None) -> Optional[Tensor]:
        """Run the recorded backward steps in reverse on the autograd thread.

        Returns the gradient propagated out of the first recorded step (the
        gradient with respect to the model input), which is usually ignored.
        """
        grad = loss_grad
        with runtime.thread(AUTOGRAD_THREAD):
            for entry in reversed(self._entries):
                wrapper = f"autograd::engine::evaluate_function: {entry.name}"
                with runtime.record_function(wrapper):
                    grad = entry.backward_fn(runtime, grad)
        self._entries = []
        return grad

    def reset(self) -> None:
        """Drop any recorded-but-not-executed entries (e.g. eval-only runs)."""
        self._entries = []
