"""A small ``nn``-style module zoo, optimizer and DDP wrapper.

These modules exist so the workload definitions (PARAM linear, ResNet, ASR,
RM) read like ordinary PyTorch model code while issuing operators through a
:class:`~repro.torchsim.runtime.Runtime`.  Every module:

* owns its parameters as :class:`~repro.torchsim.tensor.Tensor` objects with
  ``requires_grad=True``,
* issues forward operators through ``runtime.call`` (which is what the
  execution-trace observer captures), and
* records a backward closure on a :class:`~repro.torchsim.autograd.GradientTape`
  that issues the corresponding ATen backward operators.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.torchsim.autograd import GradientTape
from repro.torchsim.dtypes import DType
from repro.torchsim.tensor import Tensor


def _grad_like(reference: Tensor, grad: Optional[Tensor]) -> Tensor:
    """Use the upstream gradient when it matches, else synthesise one.

    The tape threads gradients between layers purely for shape bookkeeping;
    when the upstream gradient has a different shape (e.g. coming out of a
    loss), the layer's backward cost is driven by its own output shape.
    """
    if grad is not None and tuple(grad.shape) == tuple(reference.shape):
        return grad
    return Tensor.empty(reference.shape, dtype=reference.dtype, device=reference.device)


class Module:
    """Base class for all simulated layers."""

    def __init__(self) -> None:
        self._parameters: List[Tensor] = []
        self._children: List["Module"] = []

    # ------------------------------------------------------------------
    def register_parameter(self, tensor: Tensor) -> Tensor:
        tensor.requires_grad = True
        self._parameters.append(tensor)
        return tensor

    def register_module(self, module: "Module") -> "Module":
        self._children.append(module)
        return module

    def parameters(self) -> List[Tensor]:
        params = list(self._parameters)
        for child in self._children:
            params.extend(child.parameters())
        return params

    def parameter_bytes(self) -> int:
        return sum(param.nbytes for param in self.parameters())

    # ------------------------------------------------------------------
    def forward(self, runtime, x: Tensor, tape: Optional[GradientTape] = None) -> Tensor:
        raise NotImplementedError

    def __call__(self, runtime, x: Tensor, tape: Optional[GradientTape] = None) -> Tensor:
        return self.forward(runtime, x, tape)


class Sequential(Module):
    """Chains child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = [self.register_module(module) for module in modules]

    def forward(self, runtime, x: Tensor, tape: Optional[GradientTape] = None) -> Tensor:
        out = x
        for layer in self.layers:
            out = layer(runtime, out, tape)
        return out


class Linear(Module):
    """Fully connected layer (``aten::linear`` forward, GEMM backward)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, dtype: DType = DType.FLOAT32):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(Tensor.empty((out_features, in_features), dtype=dtype))
        self.bias = self.register_parameter(Tensor.empty((out_features,), dtype=dtype)) if bias else None

    def forward(self, runtime, x: Tensor, tape: Optional[GradientTape] = None) -> Tensor:
        out = runtime.call("aten::linear", x, self.weight, self.bias)
        if tape is not None:
            weight, bias = self.weight, self.bias

            def backward(rt, grad):
                grad = _grad_like(out, grad)
                grad_input = rt.call("aten::mm", grad, weight)
                grad_t = rt.call("aten::t", grad)
                weight.grad = rt.call("aten::mm", grad_t, x)
                tape.grad_ready(weight)
                if bias is not None:
                    bias.grad = rt.call("aten::sum", grad)
                    tape.grad_ready(bias)
                return grad_input

            tape.record("AddmmBackward0", backward)
        return out


class ReLU(Module):
    def __init__(self, inplace: bool = False):
        super().__init__()
        self.inplace = inplace

    def forward(self, runtime, x: Tensor, tape: Optional[GradientTape] = None) -> Tensor:
        out = runtime.call("aten::relu_" if self.inplace else "aten::relu", x)
        if tape is not None:
            def backward(rt, grad):
                grad = _grad_like(out, grad)
                return rt.call("aten::threshold_backward", grad, x, 0)

            tape.record("ReluBackward0", backward)
        return out


class Dropout(Module):
    def __init__(self, p: float = 0.1):
        super().__init__()
        self.p = p

    def forward(self, runtime, x: Tensor, tape: Optional[GradientTape] = None) -> Tensor:
        out = runtime.call("aten::dropout", x, self.p, True)
        if tape is not None and self.p > 0:
            def backward(rt, grad):
                grad = _grad_like(out, grad)
                return rt.call("aten::mul", grad, grad)

            tape.record("MulBackward0", backward)
        return out


class Conv2d(Module):
    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = False,
        dtype: DType = DType.FLOAT32,
    ):
        super().__init__()
        self.stride = (stride, stride)
        self.padding = (padding, padding)
        self.weight = self.register_parameter(
            Tensor.empty((out_channels, in_channels, kernel_size, kernel_size), dtype=dtype)
        )
        self.bias = self.register_parameter(Tensor.empty((out_channels,), dtype=dtype)) if bias else None

    def forward(self, runtime, x: Tensor, tape: Optional[GradientTape] = None) -> Tensor:
        out = runtime.call(
            "aten::conv2d", x, self.weight, self.bias, list(self.stride), list(self.padding), [1, 1], 1
        )
        if tape is not None:
            weight, bias = self.weight, self.bias

            def backward(rt, grad):
                grad = _grad_like(out, grad)
                grad_input, grad_weight, grad_bias = rt.call(
                    "aten::convolution_backward", grad, x, weight, list(self.stride), list(self.padding), 1
                )
                weight.grad = grad_weight
                tape.grad_ready(weight)
                if bias is not None:
                    bias.grad = grad_bias
                    tape.grad_ready(bias)
                return grad_input

            tape.record("ConvolutionBackward0", backward)
        return out


class BatchNorm2d(Module):
    def __init__(self, num_features: int, dtype: DType = DType.FLOAT32):
        super().__init__()
        self.weight = self.register_parameter(Tensor.empty((num_features,), dtype=dtype))
        self.bias = self.register_parameter(Tensor.empty((num_features,), dtype=dtype))
        self.running_mean = Tensor.empty((num_features,), dtype=dtype)
        self.running_var = Tensor.empty((num_features,), dtype=dtype)

    def forward(self, runtime, x: Tensor, tape: Optional[GradientTape] = None) -> Tensor:
        out = runtime.call(
            "aten::batch_norm", x, self.weight, self.bias, self.running_mean, self.running_var,
            True, 0.1, 1e-5, True,
        )
        if tape is not None:
            weight, bias = self.weight, self.bias

            def backward(rt, grad):
                grad = _grad_like(out, grad)
                grad_input, grad_weight, grad_bias = rt.call(
                    "aten::native_batch_norm_backward", grad, x, weight, self.running_mean,
                    self.running_var, None, None, True, 1e-5,
                )
                weight.grad = grad_weight
                bias.grad = grad_bias
                tape.grad_ready(weight)
                tape.grad_ready(bias)
                return grad_input

            tape.record("NativeBatchNormBackward0", backward)
        return out


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: int, padding: int = 0):
        super().__init__()
        self.kernel_size = (kernel_size, kernel_size)
        self.stride = (stride, stride)
        self.padding = (padding, padding)

    def forward(self, runtime, x: Tensor, tape: Optional[GradientTape] = None) -> Tensor:
        out = runtime.call(
            "aten::max_pool2d", x, list(self.kernel_size), list(self.stride), list(self.padding), [1, 1], False
        )
        if tape is not None:
            def backward(rt, grad):
                grad = _grad_like(out, grad)
                return rt.call(
                    "aten::max_pool2d_with_indices_backward", grad, x,
                    list(self.kernel_size), list(self.stride), list(self.padding),
                )

            tape.record("MaxPool2DWithIndicesBackward0", backward)
        return out


class AdaptiveAvgPool2d(Module):
    def __init__(self, output_size: int = 1):
        super().__init__()
        self.output_size = (output_size, output_size)

    def forward(self, runtime, x: Tensor, tape: Optional[GradientTape] = None) -> Tensor:
        out = runtime.call("aten::adaptive_avg_pool2d", x, list(self.output_size))
        if tape is not None:
            def backward(rt, grad):
                grad = _grad_like(out, grad)
                return rt.call("aten::adaptive_avg_pool2d_backward", grad, x)

            tape.record("AdaptiveAvgPool2DBackward0", backward)
        return out


class EmbeddingBag(Module):
    """Pooled embedding lookup (``aten::embedding_bag``)."""

    def __init__(self, num_embeddings: int, embedding_dim: int, dtype: DType = DType.FLOAT32):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = self.register_parameter(Tensor.empty((num_embeddings, embedding_dim), dtype=dtype))

    def forward(self, runtime, indices: Tensor, offsets: Optional[Tensor] = None, tape: Optional[GradientTape] = None) -> Tensor:
        if offsets is None:
            offsets = Tensor.empty((indices.shape[0],), dtype=DType.INT64, device=indices.device)
        out = runtime.call("aten::embedding_bag", self.weight, indices, offsets, False, 0, False)
        if tape is not None:
            weight = self.weight

            def backward(rt, grad):
                grad = _grad_like(out, grad)
                weight.grad = rt.call(
                    "aten::_embedding_bag_dense_backward", grad, indices, offsets,
                    weight.shape[0], False, 0,
                )
                tape.grad_ready(weight)
                return None

            tape.record("EmbeddingBagBackward0", backward)
        return out


class MLP(Module):
    """A stack of Linear + ReLU layers (the bottom/top MLPs of RM)."""

    def __init__(self, layer_sizes: Sequence[int], dtype: DType = DType.FLOAT32):
        super().__init__()
        layers: List[Module] = []
        for in_size, out_size in zip(layer_sizes[:-1], layer_sizes[1:]):
            layers.append(Linear(in_size, out_size, dtype=dtype))
            layers.append(ReLU(inplace=True))
        self.net = self.register_module(Sequential(*layers))

    def forward(self, runtime, x: Tensor, tape: Optional[GradientTape] = None) -> Tensor:
        return self.net(runtime, x, tape)


# ----------------------------------------------------------------------
# Optimizer
# ----------------------------------------------------------------------
class SGD:
    """Fused (foreach-style) SGD, matching how production models step."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 0.01):
        self.parameters = list(parameters)
        self.lr = lr

    def step(self, runtime) -> None:
        params_with_grads = [param for param in self.parameters if param.grad is not None]
        if not params_with_grads:
            return
        grads = [param.grad for param in params_with_grads]
        with runtime.record_function("Optimizer.step#SGD.step"):
            runtime.call("aten::_foreach_mul_", grads, 1.0)
            runtime.call("aten::_foreach_add_", params_with_grads, grads, -self.lr)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None


# ----------------------------------------------------------------------
# Distributed data parallelism
# ----------------------------------------------------------------------
class DistributedDataParallel:
    """Gradient-bucketing DDP, issuing async ``c10d::all_reduce`` calls.

    Buckets fill as backward produces gradients (via gradient-tape hooks),
    and each full bucket launches an asynchronous all-reduce on the
    communication stream, overlapping communication with the remaining
    backward computation — the behaviour that produces "exposed" vs hidden
    communication time in Figure 2.
    """

    def __init__(self, module: Module, bucket_cap_mb: float = 25.0):
        self.module = module
        self.bucket_cap_bytes = bucket_cap_mb * 1024 * 1024
        # Only gradients of this module's own parameters are reduced; other
        # parameters (e.g. model-parallel embedding shards) have their own
        # synchronisation path and must not be bucketed here.
        self._owned_param_ids = {id(parameter) for parameter in module.parameters()}
        self._pending: List[Tensor] = []
        self._pending_bytes = 0.0
        self._works: list = []
        self._runtime = None

    # ------------------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        return self.module.parameters()

    def forward(self, runtime, x: Tensor, tape: Optional[GradientTape] = None) -> Tensor:
        return self.module(runtime, x, tape)

    __call__ = forward

    # ------------------------------------------------------------------
    def attach(self, runtime, tape: GradientTape) -> None:
        """Hook gradient-bucket reduction into the coming backward pass."""
        self._runtime = runtime
        self._pending = []
        self._pending_bytes = 0.0
        self._works = []
        tape.add_grad_hook(self._on_grad_ready)

    def _on_grad_ready(self, parameter: Tensor) -> None:
        if parameter.grad is None or self._runtime is None:
            return
        if id(parameter) not in self._owned_param_ids:
            return
        self._pending.append(parameter.grad)
        self._pending_bytes += parameter.grad.nbytes
        if self._pending_bytes >= self.bucket_cap_bytes:
            self._flush()

    def _flush(self) -> None:
        if not self._pending or self._runtime is None:
            return
        runtime = self._runtime
        pg = runtime.dist.default_group.describe() if runtime.dist is not None else None
        work = runtime.call("c10d::all_reduce", list(self._pending), "sum", pg, True)
        self._works.append(work)
        self._pending = []
        self._pending_bytes = 0.0

    def finalize(self, runtime) -> None:
        """Flush the last bucket and wait for all outstanding reductions."""
        self._flush()
        for work in self._works:
            if hasattr(work, "wait"):
                work.wait()
        self._works = []
