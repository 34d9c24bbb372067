"""Custom (out-of-source) operators.

PyTorch's custom-extension mechanism lets users register operators outside
the default ATen backend; production models lean on libraries such as
FBGEMM and torchrec, and on model-specific kernels (Section 3.3).  Custom
operators are the main source of coverage gaps in Table 3: Mystique can only
replay the ones whose implementation has been registered with it.

The operators below model the custom libraries used by the evaluated
workloads:

* ``fbgemm::*`` — the batched/fused embedding lookups the RM workload uses
  (supported by Mystique out of the box, per Section 5),
* ``fairseq::*`` — LSTM-style acoustic-model kernels used by the ASR
  workload (not supported out of the box; they account for the execution
  time coverage gap of Table 3 unless the user registers them through the
  custom-operator interface).
"""

from __future__ import annotations

import numpy as np

from repro.torchsim.kernel import KernelDesc, KernelKind, OpCategory
from repro.torchsim.ops.registry import register_op
from repro.torchsim.tensor import Tensor


def _occupancy(ctx, parallel_work: float) -> float:
    return max(0.05, min(1.0, parallel_work / (ctx.spec.num_sms * 2048.0)))


# ----------------------------------------------------------------------
# FBGEMM-style fused embedding lookups (used by RM)
# ----------------------------------------------------------------------
def _pooled_embedding_locality(indices: Tensor, total_rows: int) -> float:
    """Locality estimate shared with ``aten::embedding_bag``."""
    if indices.data is None or indices.data.size == 0 or total_rows <= 0:
        return 0.35
    unique = len(np.unique(indices.data))
    reuse = 1.0 - unique / max(1, indices.data.size)
    coverage = 1.0 - min(1.0, unique / max(1, total_rows))
    return float(min(0.95, 0.25 + 0.5 * reuse + 0.2 * coverage))


@register_op(
    "fbgemm::split_embedding_codegen_lookup_function(Tensor weights, Tensor indices, Tensor offsets, int num_tables, int embedding_dim, int pooling_mode=0) -> Tensor",
    category=OpCategory.CUSTOM,
    library="fbgemm",
)
def fbgemm_split_embedding_lookup(ctx, weights: Tensor, indices: Tensor, offsets: Tensor, num_tables: int, embedding_dim: int, pooling_mode: int = 0) -> Tensor:
    """Batched lookup over ``num_tables`` embedding tables in one kernel."""
    lookups = indices.shape[0] if indices.shape else 0
    bags = max(1, (offsets.shape[0] - 1) if offsets.shape and offsets.shape[0] > 1 else offsets.shape[0])
    locality = _pooled_embedding_locality(indices, weights.shape[0])
    ctx.launch(
        KernelDesc(
            name="fbgemm_split_embedding_forward_kernel",
            kind=KernelKind.EMBEDDING,
            flops=lookups * embedding_dim,
            bytes_read=lookups * embedding_dim * weights.dtype.itemsize
            + lookups * indices.dtype.itemsize,
            bytes_written=bags * embedding_dim * weights.dtype.itemsize,
            occupancy=_occupancy(ctx, bags * embedding_dim),
            locality=locality,
            metadata={"num_tables": num_tables, "dtype": weights.dtype.type_name},
        )
    )
    batch = bags // max(1, num_tables)
    return Tensor.empty((batch, num_tables * embedding_dim), dtype=weights.dtype, device=weights.device)


@register_op(
    "fbgemm::split_embedding_backward_codegen(Tensor grad_output, Tensor weights, Tensor indices, Tensor offsets, int num_tables, int embedding_dim) -> Tensor",
    category=OpCategory.CUSTOM,
    library="fbgemm",
)
def fbgemm_split_embedding_backward(ctx, grad_output: Tensor, weights: Tensor, indices: Tensor, offsets: Tensor, num_tables: int, embedding_dim: int) -> Tensor:
    lookups = indices.shape[0] if indices.shape else 0
    locality = _pooled_embedding_locality(indices, weights.shape[0])
    ctx.launch(
        KernelDesc(
            name="fbgemm_split_embedding_backward_kernel",
            kind=KernelKind.EMBEDDING,
            flops=2.0 * lookups * embedding_dim,
            bytes_read=grad_output.nbytes + lookups * indices.dtype.itemsize,
            bytes_written=lookups * embedding_dim * weights.dtype.itemsize,
            occupancy=_occupancy(ctx, lookups * embedding_dim),
            locality=locality * 0.8,
            metadata={"num_tables": num_tables, "dtype": weights.dtype.type_name},
        )
    )
    return Tensor.empty(weights.shape, dtype=weights.dtype, device=weights.device)


@register_op(
    "fbgemm::dense_to_jagged(Tensor dense, Tensor lengths) -> Tensor",
    category=OpCategory.CUSTOM,
    library="fbgemm",
)
def fbgemm_dense_to_jagged(ctx, dense: Tensor, lengths: Tensor) -> Tensor:
    ctx.launch(
        KernelDesc(
            name="fbgemm_dense_to_jagged_kernel",
            kind=KernelKind.CUSTOM,
            flops=dense.numel,
            bytes_read=dense.nbytes,
            bytes_written=dense.nbytes,
            occupancy=_occupancy(ctx, dense.numel),
            locality=0.7,
            metadata={"dtype": dense.dtype.type_name},
        )
    )
    return Tensor.empty(dense.shape, dtype=dense.dtype, device=dense.device)


@register_op(
    "fbgemm::permute_pooled_embeddings(Tensor pooled, Tensor permute) -> Tensor",
    category=OpCategory.CUSTOM,
    library="fbgemm",
)
def fbgemm_permute_pooled_embeddings(ctx, pooled: Tensor, permute: Tensor) -> Tensor:
    ctx.launch(
        KernelDesc(
            name="fbgemm_permute_pooled_embs_kernel",
            kind=KernelKind.CUSTOM,
            flops=0.0,
            bytes_read=pooled.nbytes,
            bytes_written=pooled.nbytes,
            occupancy=_occupancy(ctx, pooled.numel),
            locality=0.6,
            metadata={"dtype": pooled.dtype.type_name},
        )
    )
    return Tensor.empty(pooled.shape, dtype=pooled.dtype, device=pooled.device)


# ----------------------------------------------------------------------
# Fairseq-style acoustic-model kernels (used by ASR)
# ----------------------------------------------------------------------
@register_op(
    "fairseq::lstm_layer(Tensor input, Tensor weight_ih, Tensor weight_hh, Tensor bias, int hidden_size) -> Tensor",
    category=OpCategory.CUSTOM,
    library="fairseq",
)
def fairseq_lstm_layer(ctx, input: Tensor, weight_ih: Tensor, weight_hh: Tensor, bias: Tensor, hidden_size: int) -> Tensor:
    """One LSTM layer over a (seq_len, batch, features) input.

    The recurrence is inherently sequential over time steps, which is why a
    dedicated fused kernel is used in production instead of a chain of ATen
    GEMMs; that also makes it expensive relative to its operator count —
    exactly the "custom operators dominate the execution-time coverage gap"
    effect of Table 3.
    """
    seq_len, batch, features = input.shape
    flops_per_step = 2.0 * batch * (features + hidden_size) * 4 * hidden_size
    total_flops = flops_per_step * seq_len
    bytes_read = (weight_ih.nbytes + weight_hh.nbytes) + input.nbytes
    bytes_written = seq_len * batch * hidden_size * input.dtype.itemsize
    ctx.launch(
        KernelDesc(
            name="fairseq_fused_lstm_kernel",
            kind=KernelKind.CUSTOM,
            flops=total_flops,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            # The time recurrence serialises steps, but within one step the
            # fused kernel parallelises over batch, hidden units and the
            # four gates.
            occupancy=_occupancy(ctx, batch * hidden_size * 8),
            locality=0.75,
            metadata={"hidden_size": hidden_size, "dtype": input.dtype.type_name},
        )
    )
    return Tensor.empty((seq_len, batch, hidden_size), dtype=input.dtype, device=input.device)


@register_op(
    "fairseq::lstm_layer_backward(Tensor grad_output, Tensor input, Tensor weight_ih, Tensor weight_hh, int hidden_size) -> Tensor",
    category=OpCategory.CUSTOM,
    library="fairseq",
)
def fairseq_lstm_layer_backward(ctx, grad_output: Tensor, input: Tensor, weight_ih: Tensor, weight_hh: Tensor, hidden_size: int) -> Tensor:
    seq_len, batch, features = input.shape
    flops_per_step = 4.0 * batch * (features + hidden_size) * 4 * hidden_size
    ctx.launch(
        KernelDesc(
            name="fairseq_fused_lstm_backward_kernel",
            kind=KernelKind.CUSTOM,
            flops=flops_per_step * seq_len,
            bytes_read=grad_output.nbytes + input.nbytes + weight_ih.nbytes + weight_hh.nbytes,
            bytes_written=input.nbytes + weight_ih.nbytes + weight_hh.nbytes,
            occupancy=_occupancy(ctx, batch * hidden_size * 8),
            locality=0.7,
            metadata={"hidden_size": hidden_size, "dtype": input.dtype.type_name},
        )
    )
    return Tensor.empty(input.shape, dtype=input.dtype, device=input.device)


@register_op(
    "fairseq::specaugment(Tensor features, int time_mask=20, int freq_mask=10) -> Tensor",
    category=OpCategory.CUSTOM,
    library="fairseq",
)
def fairseq_specaugment(ctx, features: Tensor, time_mask: int = 20, freq_mask: int = 10) -> Tensor:
    """Spectrogram augmentation applied to the acoustic features."""
    ctx.launch(
        KernelDesc(
            name="fairseq_specaugment_kernel",
            kind=KernelKind.CUSTOM,
            flops=features.numel,
            bytes_read=features.nbytes,
            bytes_written=features.nbytes,
            occupancy=_occupancy(ctx, features.numel),
            locality=0.8,
            metadata={"dtype": features.dtype.type_name},
        )
    )
    return Tensor.empty(features.shape, dtype=features.dtype, device=features.device)


@register_op(
    "internal::sparse_data_preproc(Tensor values, Tensor lengths, int num_features) -> Tensor",
    category=OpCategory.CUSTOM,
    library="internal",
)
def internal_sparse_data_preproc(ctx, values: Tensor, lengths: Tensor, num_features: int) -> Tensor:
    """Proprietary sparse-feature preprocessing used by the RM workload.

    Stands in for the in-house custom operators that Mystique does *not*
    support out of the box (they are outside ATen/c10d/FBGEMM); together
    with the fused operators they account for RM's coverage gap in Table 3.
    The kernel expands the jagged sparse batch into dense per-feature
    buffers, so its memory traffic is a multiple of the raw index payload.
    """
    ctx.launch(
        KernelDesc(
            name="internal_sparse_preproc_kernel",
            kind=KernelKind.CUSTOM,
            flops=32.0 * values.numel,
            bytes_read=40.0 * values.nbytes + lengths.nbytes,
            bytes_written=8.0 * values.nbytes,
            occupancy=_occupancy(ctx, values.numel),
            locality=0.5,
            metadata={"num_features": num_features},
        )
    )
    return Tensor.empty(values.shape, dtype=values.dtype, device=values.device)


@register_op(
    "internal::fused_scoring_head(Tensor logits, Tensor weights, int num_tasks) -> Tensor",
    category=OpCategory.CUSTOM,
    library="internal",
)
def internal_fused_scoring_head(ctx, logits: Tensor, weights: Tensor, num_tasks: int) -> Tensor:
    """Multi-task scoring head with an in-house fused implementation."""
    ctx.launch(
        KernelDesc(
            name="internal_fused_scoring_kernel",
            kind=KernelKind.CUSTOM,
            flops=2.0 * logits.numel * num_tasks,
            bytes_read=logits.nbytes + weights.nbytes,
            bytes_written=logits.nbytes,
            occupancy=_occupancy(ctx, logits.numel),
            locality=0.7,
            metadata={"num_tasks": num_tasks},
        )
    )
    return Tensor.empty(logits.shape, dtype=logits.dtype, device=logits.device)


@register_op(
    "torchrec::kjt_split(Tensor values, Tensor lengths, int num_features) -> Tensor",
    category=OpCategory.CUSTOM,
    library="torchrec",
)
def torchrec_kjt_split(ctx, values: Tensor, lengths: Tensor, num_features: int) -> Tensor:
    """KeyedJaggedTensor preprocessing used by recommendation models."""
    ctx.launch(
        KernelDesc(
            name="torchrec_kjt_split_kernel",
            kind=KernelKind.CUSTOM,
            flops=values.numel,
            bytes_read=values.nbytes + lengths.nbytes,
            bytes_written=values.nbytes,
            occupancy=_occupancy(ctx, values.numel),
            locality=0.6,
            metadata={"num_features": num_features},
        )
    )
    return Tensor.empty(values.shape, dtype=values.dtype, device=values.device)
