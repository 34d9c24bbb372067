"""ATen-style compute operators.

ATen is PyTorch's low-level tensor library and default compute backend; in
the paper's production traces ATen operators dominate count, CPU time and
GPU time (Figure 2).  This module registers the ATen operators used by the
four evaluated workloads (PARAM linear, ResNet, ASR, RM), both forward and
backward, plus the optimizer update operators.

Each operator either launches one or more simulated kernels (leaf operators)
or calls other operators (composite operators such as ``aten::linear``,
which calls ``aten::t`` and ``aten::addmm`` exactly as the real ATen does —
that nesting is what the operator-selection step of Mystique deduplicates).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.torchsim.dtypes import DType
from repro.torchsim.kernel import KernelDesc, KernelKind
from repro.torchsim.ops.registry import register_op
from repro.torchsim.tensor import Tensor


# ----------------------------------------------------------------------
# Kernel-descriptor helpers
# ----------------------------------------------------------------------
def _occupancy(ctx, parallel_work: float) -> float:
    """Fraction of SMs a kernel with ``parallel_work`` threads keeps busy."""
    capacity = ctx.spec.num_sms * 2048.0
    return max(0.05, min(1.0, parallel_work / capacity))


def _dtype_meta(tensor: Tensor) -> dict:
    return {"dtype": tensor.dtype.type_name}


def gemm_desc(ctx, name: str, m: int, n: int, k: int, dtype: DType) -> KernelDesc:
    """Descriptor for an (m x k) @ (k x n) GEMM."""
    itemsize = dtype.itemsize
    flops = 2.0 * m * n * k
    bytes_total = (m * k + k * n + m * n) * itemsize
    return KernelDesc(
        name=name,
        kind=KernelKind.GEMM,
        flops=flops,
        bytes_read=(m * k + k * n) * itemsize,
        bytes_written=m * n * itemsize,
        occupancy=_occupancy(ctx, m * n),
        locality=0.85,
        metadata={"m": m, "n": n, "k": k, "dtype": dtype.type_name},
    )


def elementwise_desc(
    ctx,
    name: str,
    numel: int,
    itemsize: int,
    flops_per_element: float = 1.0,
    tensors_read: int = 1,
    tensors_written: int = 1,
    locality: float = 0.75,
    kind: KernelKind = KernelKind.ELEMENTWISE,
    dtype_name: str = "float32",
) -> KernelDesc:
    return KernelDesc(
        name=name,
        kind=kind,
        flops=numel * flops_per_element,
        bytes_read=numel * itemsize * tensors_read,
        bytes_written=numel * itemsize * tensors_written,
        occupancy=_occupancy(ctx, numel),
        locality=locality,
        metadata={"numel": numel, "dtype": dtype_name},
    )


def conv_output_shape(
    in_shape: Sequence[int],
    out_channels: int,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[int, int, int, int]:
    batch, _, height, width = in_shape
    out_h = (height + 2 * padding[0] - kernel[0]) // stride[0] + 1
    out_w = (width + 2 * padding[1] - kernel[1]) // stride[1] + 1
    return (batch, out_channels, out_h, out_w)


def conv_desc(
    ctx,
    name: str,
    in_tensor: Tensor,
    weight: Tensor,
    out_shape: Sequence[int],
    groups: int = 1,
) -> KernelDesc:
    batch, out_channels, out_h, out_w = out_shape
    _, in_channels, k_h, k_w = weight.shape
    itemsize = in_tensor.dtype.itemsize
    flops = 2.0 * batch * out_channels * out_h * out_w * in_channels * k_h * k_w / max(1, groups)
    bytes_read = (in_tensor.numel + weight.numel) * itemsize
    bytes_written = batch * out_channels * out_h * out_w * itemsize
    return KernelDesc(
        name=name,
        kind=KernelKind.CONV,
        flops=flops,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        occupancy=_occupancy(ctx, batch * out_channels * out_h * out_w),
        locality=0.8,
        metadata={"dtype": in_tensor.dtype.type_name},
    )


def _like(tensor: Tensor, shape: Optional[Sequence[int]] = None) -> Tensor:
    return Tensor.empty(
        shape if shape is not None else tensor.shape,
        dtype=tensor.dtype,
        device=tensor.device,
    )


# ----------------------------------------------------------------------
# View / reshape operators (no kernels)
# ----------------------------------------------------------------------
@register_op("aten::t(Tensor self) -> Tensor")
def aten_t(ctx, self: Tensor) -> Tensor:
    # aten::t calls aten::transpose, which calls aten::as_strided — exactly
    # the nesting shown in Figure 1 of the paper.
    return ctx.call("aten::transpose", self, 0, 1)


@register_op("aten::transpose.int(Tensor self, int dim0, int dim1) -> Tensor")
def aten_transpose(ctx, self: Tensor, dim0: int, dim1: int) -> Tensor:
    return ctx.call("aten::as_strided", self, _transposed_shape(self.shape, dim0, dim1))


@register_op("aten::as_strided(Tensor self, int[] size) -> Tensor")
def aten_as_strided(ctx, self: Tensor, size: Sequence[int]) -> Tensor:
    out = self.view_as_new_tensor()
    out.shape = tuple(int(dim) for dim in size)
    return out


def _transposed_shape(shape: Sequence[int], dim0: int, dim1: int) -> List[int]:
    shape = list(shape)
    if len(shape) >= 2:
        shape[dim0], shape[dim1] = shape[dim1], shape[dim0]
    return shape


@register_op("aten::view(Tensor self, int[] size) -> Tensor")
def aten_view(ctx, self: Tensor, size: Sequence[int]) -> Tensor:
    resolved = _resolve_view_shape(self.numel, size)
    out = self.view_as_new_tensor()
    out.shape = resolved
    return out


@register_op("aten::reshape(Tensor self, int[] shape) -> Tensor")
def aten_reshape(ctx, self: Tensor, shape: Sequence[int]) -> Tensor:
    return ctx.call("aten::view", self, list(shape))


@register_op("aten::flatten.using_ints(Tensor self, int start_dim=0, int end_dim=-1) -> Tensor")
def aten_flatten(ctx, self: Tensor, start_dim: int = 0, end_dim: int = -1) -> Tensor:
    shape = list(self.shape)
    if end_dim < 0:
        end_dim = len(shape) + end_dim
    flattened = int(np.prod(shape[start_dim:end_dim + 1])) if shape else 1
    new_shape = shape[:start_dim] + [flattened] + shape[end_dim + 1:]
    return ctx.call("aten::view", self, new_shape)


def _resolve_view_shape(numel: int, size: Sequence[int]) -> Tuple[int, ...]:
    size = [int(dim) for dim in size]
    if -1 in size:
        known = int(np.prod([dim for dim in size if dim != -1])) or 1
        size[size.index(-1)] = numel // known
    return tuple(size)


# ----------------------------------------------------------------------
# Dense linear algebra
# ----------------------------------------------------------------------
@register_op("aten::addmm(Tensor self, Tensor mat1, Tensor mat2, *, Scalar beta=1, Scalar alpha=1) -> Tensor")
def aten_addmm(ctx, bias: Tensor, mat1: Tensor, mat2: Tensor, beta: float = 1, alpha: float = 1) -> Tensor:
    m, k = mat1.shape[-2], mat1.shape[-1]
    n = mat2.shape[-1]
    ctx.launch(gemm_desc(ctx, "ampere_sgemm_128x64_tn", m, n, k, mat1.dtype))
    return Tensor.empty((m, n), dtype=mat1.dtype, device=mat1.device)


@register_op("aten::mm(Tensor self, Tensor mat2) -> Tensor")
def aten_mm(ctx, self: Tensor, mat2: Tensor) -> Tensor:
    m, k = self.shape[-2], self.shape[-1]
    n = mat2.shape[-1]
    ctx.launch(gemm_desc(ctx, "ampere_sgemm_64x64_nn", m, n, k, self.dtype))
    return Tensor.empty((m, n), dtype=self.dtype, device=self.device)


@register_op("aten::bmm(Tensor self, Tensor mat2) -> Tensor")
def aten_bmm(ctx, self: Tensor, mat2: Tensor) -> Tensor:
    batch, m, k = self.shape
    n = mat2.shape[-1]
    desc = gemm_desc(ctx, "ampere_bmm_64x64_nn", m, n, k, self.dtype)
    desc.flops *= batch
    desc.bytes_read *= batch
    desc.bytes_written *= batch
    desc.occupancy = _occupancy(ctx, batch * m * n)
    ctx.launch(desc)
    return Tensor.empty((batch, m, n), dtype=self.dtype, device=self.device)


@register_op("aten::matmul(Tensor self, Tensor other) -> Tensor")
def aten_matmul(ctx, self: Tensor, other: Tensor) -> Tensor:
    if self.ndim == 2 and other.ndim == 2:
        return ctx.call("aten::mm", self, other)
    if self.ndim == 3 and other.ndim == 3:
        return ctx.call("aten::bmm", self, other)
    # Fall back to a flattened 2D product for other rank combinations.
    lead = int(np.prod(self.shape[:-1]))
    reshaped = ctx.call("aten::view", self, [lead, self.shape[-1]])
    out = ctx.call("aten::mm", reshaped, other)
    return ctx.call("aten::view", out, list(self.shape[:-1]) + [other.shape[-1]])


@register_op("aten::linear(Tensor input, Tensor weight, Tensor? bias=None) -> Tensor")
def aten_linear(ctx, input: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    # aten::linear includes aten::t and aten::addmm as children — the
    # redundancy example of Section 4.2.
    weight_t = ctx.call("aten::t", weight)
    if input.ndim > 2:
        lead = int(np.prod(input.shape[:-1]))
        flat = ctx.call("aten::view", input, [lead, input.shape[-1]])
        out = ctx.call("aten::addmm", bias if bias is not None else flat, flat, weight_t)
        return ctx.call("aten::view", out, list(input.shape[:-1]) + [weight.shape[0]])
    return ctx.call("aten::addmm", bias if bias is not None else input, input, weight_t)


# ----------------------------------------------------------------------
# Elementwise / activation operators
# ----------------------------------------------------------------------
def _binary_elementwise(ctx, name: str, self: Tensor, other) -> Tensor:
    numel = self.numel
    reads = 2 if isinstance(other, Tensor) else 1
    ctx.launch(
        elementwise_desc(
            ctx,
            f"vectorized_elementwise_{name}",
            numel,
            self.dtype.itemsize,
            flops_per_element=1.0,
            tensors_read=reads,
            dtype_name=self.dtype.type_name,
        )
    )
    return _like(self)


@register_op("aten::add.Tensor(Tensor self, Tensor other, *, Scalar alpha=1) -> Tensor")
def aten_add(ctx, self: Tensor, other, alpha: float = 1) -> Tensor:
    return _binary_elementwise(ctx, "add", self, other)


@register_op("aten::add_.Tensor(Tensor self, Tensor other, *, Scalar alpha=1) -> Tensor")
def aten_add_(ctx, self: Tensor, other, alpha: float = 1) -> Tensor:
    _binary_elementwise(ctx, "add_", self, other)
    return self


@register_op("aten::mul.Tensor(Tensor self, Tensor other) -> Tensor")
def aten_mul(ctx, self: Tensor, other) -> Tensor:
    return _binary_elementwise(ctx, "mul", self, other)


@register_op("aten::mul_.Tensor(Tensor self, Tensor other) -> Tensor")
def aten_mul_(ctx, self: Tensor, other) -> Tensor:
    _binary_elementwise(ctx, "mul_", self, other)
    return self


@register_op("aten::div.Tensor(Tensor self, Tensor other) -> Tensor")
def aten_div(ctx, self: Tensor, other) -> Tensor:
    return _binary_elementwise(ctx, "div", self, other)


@register_op("aten::relu(Tensor self) -> Tensor")
def aten_relu(ctx, self: Tensor) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "vectorized_elementwise_relu", self.numel, self.dtype.itemsize,
            dtype_name=self.dtype.type_name,
        )
    )
    return _like(self)


@register_op("aten::relu_(Tensor self) -> Tensor")
def aten_relu_(ctx, self: Tensor) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "vectorized_elementwise_relu_", self.numel, self.dtype.itemsize,
            dtype_name=self.dtype.type_name,
        )
    )
    return self


@register_op("aten::threshold_backward(Tensor grad_output, Tensor self, Scalar threshold) -> Tensor")
def aten_threshold_backward(ctx, grad_output: Tensor, self: Tensor, threshold: float = 0) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "vectorized_threshold_backward", self.numel, self.dtype.itemsize,
            tensors_read=2, dtype_name=self.dtype.type_name,
        )
    )
    return _like(grad_output)


@register_op("aten::sigmoid(Tensor self) -> Tensor")
def aten_sigmoid(ctx, self: Tensor) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "vectorized_sigmoid", self.numel, self.dtype.itemsize,
            flops_per_element=4.0, dtype_name=self.dtype.type_name,
        )
    )
    return _like(self)


@register_op("aten::tanh(Tensor self) -> Tensor")
def aten_tanh(ctx, self: Tensor) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "vectorized_tanh", self.numel, self.dtype.itemsize,
            flops_per_element=4.0, dtype_name=self.dtype.type_name,
        )
    )
    return _like(self)


@register_op("aten::dropout(Tensor input, float p, bool train) -> Tensor")
def aten_dropout(ctx, input: Tensor, p: float, train: bool) -> Tensor:
    if not train or p <= 0:
        return input
    ctx.launch(
        elementwise_desc(
            ctx, "fused_dropout", input.numel, input.dtype.itemsize,
            flops_per_element=2.0, tensors_written=2, dtype_name=input.dtype.type_name,
        )
    )
    return _like(input)


# ----------------------------------------------------------------------
# Reductions and losses
# ----------------------------------------------------------------------
@register_op("aten::sum(Tensor self) -> Tensor")
def aten_sum(ctx, self: Tensor) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "reduce_sum_kernel", self.numel, self.dtype.itemsize,
            tensors_written=0, kind=KernelKind.REDUCTION, dtype_name=self.dtype.type_name,
        )
    )
    return Tensor.empty((), dtype=self.dtype, device=self.device)


@register_op("aten::mean(Tensor self) -> Tensor")
def aten_mean(ctx, self: Tensor) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "reduce_mean_kernel", self.numel, self.dtype.itemsize,
            tensors_written=0, kind=KernelKind.REDUCTION, dtype_name=self.dtype.type_name,
        )
    )
    return Tensor.empty((), dtype=self.dtype, device=self.device)


@register_op("aten::_softmax(Tensor self, int dim, bool half_to_float) -> Tensor")
def aten_softmax(ctx, self: Tensor, dim: int, half_to_float: bool = False) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "softmax_warp_forward", self.numel, self.dtype.itemsize,
            flops_per_element=5.0, kind=KernelKind.NORMALIZATION,
            dtype_name=self.dtype.type_name,
        )
    )
    return _like(self)


@register_op("aten::_log_softmax(Tensor self, int dim, bool half_to_float) -> Tensor")
def aten_log_softmax(ctx, self: Tensor, dim: int, half_to_float: bool = False) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "log_softmax_warp_forward", self.numel, self.dtype.itemsize,
            flops_per_element=5.0, kind=KernelKind.NORMALIZATION,
            dtype_name=self.dtype.type_name,
        )
    )
    return _like(self)


@register_op("aten::_log_softmax_backward_data(Tensor grad_output, Tensor output, int dim, ScalarType input_dtype) -> Tensor")
def aten_log_softmax_backward(ctx, grad_output: Tensor, output: Tensor, dim: int, input_dtype: str = "float32") -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "log_softmax_backward", output.numel, output.dtype.itemsize,
            flops_per_element=3.0, tensors_read=2, kind=KernelKind.NORMALIZATION,
            dtype_name=output.dtype.type_name,
        )
    )
    return _like(output)


@register_op("aten::nll_loss(Tensor self, Tensor target, Tensor? weight=None, int reduction=1, int ignore_index=-100) -> Tensor")
def aten_nll_loss(ctx, self: Tensor, target: Tensor, weight=None, reduction: int = 1, ignore_index: int = -100) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "nll_loss_forward", self.shape[0], self.dtype.itemsize,
            tensors_written=0, kind=KernelKind.REDUCTION, locality=0.4,
            dtype_name=self.dtype.type_name,
        )
    )
    return Tensor.empty((), dtype=self.dtype, device=self.device)


@register_op("aten::nll_loss_backward(Tensor grad_output, Tensor self, Tensor target, Tensor? weight, int reduction, int ignore_index, Tensor total_weight) -> Tensor")
def aten_nll_loss_backward(ctx, grad_output: Tensor, self: Tensor, target: Tensor, weight, reduction: int, ignore_index: int, total_weight: Tensor) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "nll_loss_backward", self.numel, self.dtype.itemsize,
            locality=0.4, dtype_name=self.dtype.type_name,
        )
    )
    return _like(self)


@register_op("aten::cross_entropy_loss(Tensor self, Tensor target, Tensor? weight=None, int reduction=1, int ignore_index=-100, float label_smoothing=0.0) -> Tensor")
def aten_cross_entropy(ctx, self: Tensor, target: Tensor, weight=None, reduction: int = 1, ignore_index: int = -100, label_smoothing: float = 0.0) -> Tensor:
    log_probs = ctx.call("aten::_log_softmax", self, -1, False)
    return ctx.call("aten::nll_loss", log_probs, target, None, reduction, ignore_index)


@register_op("aten::mse_loss(Tensor self, Tensor target, int reduction=1) -> Tensor")
def aten_mse_loss(ctx, self: Tensor, target: Tensor, reduction: int = 1) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "mse_loss_forward", self.numel, self.dtype.itemsize,
            flops_per_element=3.0, tensors_read=2, tensors_written=0,
            kind=KernelKind.REDUCTION, dtype_name=self.dtype.type_name,
        )
    )
    return Tensor.empty((), dtype=self.dtype, device=self.device)


@register_op("aten::mse_loss_backward(Tensor grad_output, Tensor self, Tensor target, int reduction) -> Tensor")
def aten_mse_loss_backward(ctx, grad_output: Tensor, self: Tensor, target: Tensor, reduction: int = 1) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "mse_loss_backward", self.numel, self.dtype.itemsize,
            flops_per_element=2.0, tensors_read=2, dtype_name=self.dtype.type_name,
        )
    )
    return _like(self)


@register_op("aten::binary_cross_entropy_with_logits(Tensor self, Tensor target, Tensor? weight=None, Tensor? pos_weight=None, int reduction=1) -> Tensor")
def aten_bce_with_logits(ctx, self: Tensor, target: Tensor, weight=None, pos_weight=None, reduction: int = 1) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "bce_with_logits_forward", self.numel, self.dtype.itemsize,
            flops_per_element=6.0, tensors_read=2, tensors_written=0,
            kind=KernelKind.REDUCTION, dtype_name=self.dtype.type_name,
        )
    )
    return Tensor.empty((), dtype=self.dtype, device=self.device)


@register_op("aten::binary_cross_entropy_with_logits_backward(Tensor grad_output, Tensor self, Tensor target, Tensor? weight=None, Tensor? pos_weight=None, int reduction=1) -> Tensor")
def aten_bce_with_logits_backward(ctx, grad_output: Tensor, self: Tensor, target: Tensor, weight=None, pos_weight=None, reduction: int = 1) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "bce_with_logits_backward", self.numel, self.dtype.itemsize,
            flops_per_element=4.0, tensors_read=2, dtype_name=self.dtype.type_name,
        )
    )
    return _like(self)


# ----------------------------------------------------------------------
# Convolutions, pooling, normalisation
# ----------------------------------------------------------------------
@register_op("aten::conv2d(Tensor input, Tensor weight, Tensor? bias=None, int[2] stride=1, int[2] padding=0, int[2] dilation=1, int groups=1) -> Tensor")
def aten_conv2d(ctx, input: Tensor, weight: Tensor, bias=None, stride=(1, 1), padding=(0, 0), dilation=(1, 1), groups: int = 1) -> Tensor:
    return ctx.call("aten::convolution", input, weight, bias, list(stride), list(padding), list(dilation), groups)


@register_op("aten::convolution(Tensor input, Tensor weight, Tensor? bias, int[] stride, int[] padding, int[] dilation, int groups) -> Tensor")
def aten_convolution(ctx, input: Tensor, weight: Tensor, bias, stride, padding, dilation, groups: int = 1) -> Tensor:
    stride = _pair(stride)
    padding = _pair(padding)
    out_shape = conv_output_shape(input.shape, weight.shape[0], (weight.shape[2], weight.shape[3]), stride, padding)
    ctx.launch(conv_desc(ctx, "implicit_convolve_sgemm", input, weight, out_shape, groups))
    if bias is not None:
        ctx.launch(
            elementwise_desc(
                ctx, "conv_bias_add", int(np.prod(out_shape)), input.dtype.itemsize,
                dtype_name=input.dtype.type_name,
            )
        )
    return Tensor.empty(out_shape, dtype=input.dtype, device=input.device)


@register_op("aten::convolution_backward(Tensor grad_output, Tensor input, Tensor weight, int[] stride, int[] padding, int groups) -> (Tensor, Tensor, Tensor)")
def aten_convolution_backward(ctx, grad_output: Tensor, input: Tensor, weight: Tensor, stride, padding, groups: int = 1):
    # Backward data + backward filter are each roughly as expensive as the
    # forward convolution.
    forward_like = conv_desc(ctx, "convolve_backward_data", input, weight, grad_output.shape, groups)
    ctx.launch(forward_like)
    filter_desc = conv_desc(ctx, "convolve_backward_filter", input, weight, grad_output.shape, groups)
    ctx.launch(filter_desc)
    ctx.launch(
        elementwise_desc(
            ctx, "conv_backward_bias_reduce", grad_output.numel, grad_output.dtype.itemsize,
            tensors_written=0, kind=KernelKind.REDUCTION, dtype_name=grad_output.dtype.type_name,
        )
    )
    grad_input = _like(input)
    grad_weight = _like(weight)
    grad_bias = Tensor.empty((weight.shape[0],), dtype=weight.dtype, device=weight.device)
    return grad_input, grad_weight, grad_bias


@register_op("aten::batch_norm(Tensor input, Tensor? weight, Tensor? bias, Tensor? running_mean, Tensor? running_var, bool training, float momentum, float eps, bool cudnn_enabled) -> Tensor")
def aten_batch_norm(ctx, input: Tensor, weight, bias, running_mean, running_var, training: bool = True, momentum: float = 0.1, eps: float = 1e-5, cudnn_enabled: bool = True) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "batch_norm_collect_statistics", input.numel, input.dtype.itemsize,
            flops_per_element=4.0, tensors_read=1, tensors_written=1,
            kind=KernelKind.NORMALIZATION, dtype_name=input.dtype.type_name,
        )
    )
    return _like(input)


@register_op("aten::native_batch_norm_backward(Tensor grad_out, Tensor input, Tensor? weight, Tensor? running_mean, Tensor? running_var, Tensor? save_mean, Tensor? save_invstd, bool train, float eps) -> (Tensor, Tensor, Tensor)")
def aten_batch_norm_backward(ctx, grad_out: Tensor, input: Tensor, weight, running_mean, running_var, save_mean, save_invstd, train: bool = True, eps: float = 1e-5):
    ctx.launch(
        elementwise_desc(
            ctx, "batch_norm_backward_reduce", input.numel, input.dtype.itemsize,
            flops_per_element=6.0, tensors_read=2, tensors_written=1,
            kind=KernelKind.NORMALIZATION, dtype_name=input.dtype.type_name,
        )
    )
    grad_input = _like(input)
    channels = input.shape[1] if input.ndim > 1 else input.shape[0]
    grad_weight = Tensor.empty((channels,), dtype=input.dtype, device=input.device)
    grad_bias = Tensor.empty((channels,), dtype=input.dtype, device=input.device)
    return grad_input, grad_weight, grad_bias


@register_op("aten::layer_norm(Tensor input, int[] normalized_shape, Tensor? weight=None, Tensor? bias=None, float eps=1e-05) -> Tensor")
def aten_layer_norm(ctx, input: Tensor, normalized_shape, weight=None, bias=None, eps: float = 1e-5) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "layer_norm_forward", input.numel, input.dtype.itemsize,
            flops_per_element=5.0, kind=KernelKind.NORMALIZATION,
            dtype_name=input.dtype.type_name,
        )
    )
    return _like(input)


@register_op("aten::max_pool2d(Tensor self, int[2] kernel_size, int[2] stride=1, int[2] padding=0, int[2] dilation=1, bool ceil_mode=False) -> Tensor")
def aten_max_pool2d(ctx, self: Tensor, kernel_size, stride=(1, 1), padding=(0, 0), dilation=(1, 1), ceil_mode: bool = False) -> Tensor:
    kernel_size = _pair(kernel_size)
    stride = _pair(stride)
    padding = _pair(padding)
    out_shape = conv_output_shape(self.shape, self.shape[1], kernel_size, stride, padding)
    ctx.launch(
        elementwise_desc(
            ctx, "max_pool_forward_nchw", self.numel, self.dtype.itemsize,
            kind=KernelKind.POOLING, dtype_name=self.dtype.type_name,
        )
    )
    return Tensor.empty(out_shape, dtype=self.dtype, device=self.device)


@register_op("aten::max_pool2d_with_indices_backward(Tensor grad_output, Tensor self, int[2] kernel_size, int[2] stride, int[2] padding) -> Tensor")
def aten_max_pool2d_backward(ctx, grad_output: Tensor, self: Tensor, kernel_size, stride, padding) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "max_pool_backward_nchw", self.numel, self.dtype.itemsize,
            tensors_read=2, kind=KernelKind.POOLING, dtype_name=self.dtype.type_name,
        )
    )
    return _like(self)


@register_op("aten::adaptive_avg_pool2d(Tensor self, int[2] output_size) -> Tensor")
def aten_adaptive_avg_pool2d(ctx, self: Tensor, output_size) -> Tensor:
    output_size = _pair(output_size)
    out_shape = (self.shape[0], self.shape[1], output_size[0], output_size[1])
    ctx.launch(
        elementwise_desc(
            ctx, "adaptive_avg_pool2d_kernel", self.numel, self.dtype.itemsize,
            kind=KernelKind.POOLING, dtype_name=self.dtype.type_name,
        )
    )
    return Tensor.empty(out_shape, dtype=self.dtype, device=self.device)


@register_op("aten::adaptive_avg_pool2d_backward(Tensor grad_output, Tensor self) -> Tensor")
def aten_adaptive_avg_pool2d_backward(ctx, grad_output: Tensor, self: Tensor) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "adaptive_avg_pool2d_backward_kernel", self.numel, self.dtype.itemsize,
            kind=KernelKind.POOLING, dtype_name=self.dtype.type_name,
        )
    )
    return _like(self)


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (list, tuple)):
        if len(value) == 1:
            return (int(value[0]), int(value[0]))
        return (int(value[0]), int(value[1]))
    return (int(value), int(value))


# ----------------------------------------------------------------------
# Concatenation / splitting / copies
# ----------------------------------------------------------------------
@register_op("aten::cat(Tensor[] tensors, int dim=0) -> Tensor")
def aten_cat(ctx, tensors: Sequence[Tensor], dim: int = 0) -> Tensor:
    total = sum(t.numel for t in tensors)
    itemsize = tensors[0].dtype.itemsize
    ctx.launch(
        elementwise_desc(
            ctx, "cat_array_batched_copy", total, itemsize,
            flops_per_element=0.0, dtype_name=tensors[0].dtype.type_name,
        )
    )
    out_shape = list(tensors[0].shape)
    out_shape[dim] = sum(t.shape[dim] for t in tensors)
    return Tensor.empty(tuple(out_shape), dtype=tensors[0].dtype, device=tensors[0].device)


@register_op("aten::split.Tensor(Tensor self, int split_size, int dim=0) -> Tensor[]")
def aten_split(ctx, self: Tensor, split_size: int, dim: int = 0) -> List[Tensor]:
    ctx.launch(
        elementwise_desc(
            ctx, "split_copy_kernel", self.numel, self.dtype.itemsize,
            flops_per_element=0.0, dtype_name=self.dtype.type_name,
        )
    )
    count = max(1, self.shape[dim] // split_size)
    shape = list(self.shape)
    shape[dim] = split_size
    return [Tensor.empty(tuple(shape), dtype=self.dtype, device=self.device) for _ in range(count)]


@register_op("aten::copy_(Tensor self, Tensor src, bool non_blocking=False) -> Tensor")
def aten_copy_(ctx, self: Tensor, src: Tensor, non_blocking: bool = False) -> Tensor:
    ctx.launch(
        KernelDesc(
            name="Memcpy DtoD",
            kind=KernelKind.MEMCPY,
            bytes_read=src.nbytes,
            bytes_written=self.nbytes,
            occupancy=0.3,
            locality=0.9,
            metadata={"dtype": self.dtype.type_name},
        )
    )
    return self


@register_op("aten::to.device(Tensor self, Device device, ScalarType dtype, bool non_blocking=False, bool copy=False) -> Tensor")
def aten_to_device(ctx, self: Tensor, device, dtype, non_blocking: bool = False, copy: bool = False) -> Tensor:
    from repro.torchsim.device import Device as _Device
    from repro.torchsim.stream import MEMCPY_STREAM

    ctx.launch(
        KernelDesc(
            name="Memcpy HtoD",
            kind=KernelKind.MEMCPY,
            bytes_read=self.nbytes,
            bytes_written=self.nbytes,
            occupancy=0.2,
            locality=0.95,
            metadata={"dtype": self.dtype.type_name},
        ),
        stream_id=MEMCPY_STREAM,
    )
    target = _Device.parse(device) if isinstance(device, str) else device
    return Tensor.empty(self.shape, dtype=self.dtype, device=target)


# ----------------------------------------------------------------------
# Embedding lookups (the value-sensitive case of Section 4.4)
# ----------------------------------------------------------------------
def _embedding_locality(indices: Tensor, num_rows: int) -> float:
    """Estimate cache friendliness of an embedding lookup.

    When the indices payload is available (original run), locality is
    computed from how concentrated the accesses are; when it is not (replay
    with random values), a uniform-access default is used — this is exactly
    the approximation the paper calls out for embedding-table lookups.
    """
    if indices.data is None or indices.data.size == 0 or num_rows <= 0:
        return 0.35
    unique = len(np.unique(indices.data))
    reuse = 1.0 - unique / max(1, indices.data.size)
    coverage = 1.0 - min(1.0, unique / max(1, num_rows))
    return float(min(0.95, 0.25 + 0.5 * reuse + 0.2 * coverage))


@register_op("aten::embedding_bag(Tensor weight, Tensor indices, Tensor offsets, bool scale_grad_by_freq=False, int mode=0, bool sparse=False) -> Tensor")
def aten_embedding_bag(ctx, weight: Tensor, indices: Tensor, offsets: Tensor, scale_grad_by_freq: bool = False, mode: int = 0, sparse: bool = False) -> Tensor:
    num_bags = offsets.shape[0] if offsets.shape else 1
    dim = weight.shape[1]
    lookups = indices.shape[0] if indices.shape else 0
    locality = _embedding_locality(indices, weight.shape[0])
    ctx.launch(
        KernelDesc(
            name="embedding_bag_kernel",
            kind=KernelKind.EMBEDDING,
            flops=lookups * dim,
            bytes_read=lookups * dim * weight.dtype.itemsize + lookups * indices.dtype.itemsize,
            bytes_written=num_bags * dim * weight.dtype.itemsize,
            occupancy=_occupancy(ctx, num_bags * dim),
            locality=locality,
            metadata={"dtype": weight.dtype.type_name, "lookups": lookups},
        )
    )
    return Tensor.empty((num_bags, dim), dtype=weight.dtype, device=weight.device)


@register_op("aten::_embedding_bag_dense_backward(Tensor grad, Tensor indices, Tensor offsets, int num_weights, bool scale_grad_by_freq, int mode) -> Tensor")
def aten_embedding_bag_backward(ctx, grad: Tensor, indices: Tensor, offsets: Tensor, num_weights: int, scale_grad_by_freq: bool = False, mode: int = 0) -> Tensor:
    dim = grad.shape[-1]
    lookups = indices.shape[0] if indices.shape else 0
    locality = _embedding_locality(indices, num_weights)
    ctx.launch(
        KernelDesc(
            name="embedding_bag_backward_kernel",
            kind=KernelKind.EMBEDDING,
            flops=lookups * dim,
            bytes_read=grad.nbytes + lookups * indices.dtype.itemsize,
            bytes_written=lookups * dim * grad.dtype.itemsize,
            occupancy=_occupancy(ctx, lookups * dim),
            locality=locality,
            metadata={"dtype": grad.dtype.type_name},
        )
    )
    return Tensor.empty((num_weights, dim), dtype=grad.dtype, device=grad.device)


# ----------------------------------------------------------------------
# Optimizer update operators
# ----------------------------------------------------------------------
@register_op("aten::_foreach_add_(Tensor[] self, Tensor[] other, *, Scalar alpha=1) -> Tensor[]")
def aten_foreach_add_(ctx, self: Sequence[Tensor], other: Sequence[Tensor], alpha: float = 1) -> List[Tensor]:
    numel = sum(t.numel for t in self)
    itemsize = self[0].dtype.itemsize if self else 4
    ctx.launch(
        elementwise_desc(
            ctx, "multi_tensor_apply_add", numel, itemsize,
            tensors_read=2, dtype_name=self[0].dtype.type_name if self else "float32",
        )
    )
    return list(self)


@register_op("aten::_foreach_mul_(Tensor[] self, Scalar scalar) -> Tensor[]")
def aten_foreach_mul_(ctx, self: Sequence[Tensor], scalar: float) -> List[Tensor]:
    numel = sum(t.numel for t in self)
    itemsize = self[0].dtype.itemsize if self else 4
    ctx.launch(
        elementwise_desc(
            ctx, "multi_tensor_apply_mul", numel, itemsize,
            dtype_name=self[0].dtype.type_name if self else "float32",
        )
    )
    return list(self)


@register_op("aten::zero_(Tensor self) -> Tensor")
def aten_zero_(ctx, self: Tensor) -> Tensor:
    ctx.launch(
        elementwise_desc(
            ctx, "fill_zero_kernel", self.numel, self.dtype.itemsize,
            flops_per_element=0.0, tensors_read=0, dtype_name=self.dtype.type_name,
        )
    )
    return self
