"""Communication operators (the c10d collective library).

Distributed training synchronises gradients and exchanges embeddings with
collective operators; the paper's replay needs their process group, message
size, dtype and blocking/async mode (Section 4.3.2).  Every collective here

* resolves its process group through the world's group table,
* computes its duration with the interconnect cost model,
* launches a NCCL-style kernel on the communication stream, and
* either blocks the issuing CPU thread (synchronous mode) or returns a
  :class:`~repro.torchsim.distributed.Work` handle (asynchronous mode).

Single-process runs (no distributed context) degrade gracefully: the
collective becomes a cheap local no-op kernel, which mirrors how c10d
behaves with a world size of one.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.torchsim.kernel import KernelDesc, KernelKind, OpCategory
from repro.torchsim.ops.registry import register_op
from repro.torchsim.stream import COMM_STREAM
from repro.torchsim.tensor import Tensor


def _run_collective(
    ctx, op_name: str, kernel_name: str, pg: Optional[dict], async_op: bool, *,
    nbytes: float = 0.0, stream_id: int = COMM_STREAM, start_not_before: Optional[float] = None,
    local_us: Optional[float] = None, metadata: Optional[dict] = None, **desc_fields,
):
    """Shared implementation of the communication operators: resolve the
    process group, price the collective (or match it with the other ranks
    of a co-replay) and launch its kernel.

    A run without peers (no distributed context, a world of one, or a group
    folded down to a single rank by the replay-side rank remapping) has
    nothing to exchange and takes ``local_us`` (``None`` lets the kernel
    model price a memcpy).
    """
    dist = ctx.dist
    world_size = 1
    duration = local_us
    if dist is not None and dist.world_size > 1:
        group = dist.groups.for_description(pg) if pg else dist.default_group
        world_size = group.size
    if world_size > 1:
        if dist.rendezvous is not None:
            # Multi-rank co-replay: match this collective with the other
            # participating ranks and let the shared virtual-time scheduler
            # pick one start time and one duration for all of them.
            ready = ctx.runtime.gpu.stream_ready_time(stream_id)
            if start_not_before is not None:
                ready = max(start_not_before, ready)
            arrival = max(ctx.runtime.now(), ready)
            start, duration = dist.rendezvous.sync(
                rank=dist.rank,
                op=op_name,
                group=group,
                bytes_per_rank=nbytes,
                arrival_us=arrival,
            )
            start_not_before = start if start_not_before is None else max(start_not_before, start)
        else:
            duration = dist.collective_model.collective_us(op_name, nbytes, world_size)

    desc = KernelDesc(
        name=kernel_name,
        kind=KernelKind.COLLECTIVE,
        metadata={"world_size": world_size, **(metadata or {})},
        **desc_fields,
    )
    launch = ctx.launch(
        desc,
        stream_id=stream_id,
        duration_us=duration,
        blocking=not async_op,
        start_not_before=start_not_before,
    )
    if async_op:
        return ctx.async_work(launch)
    return None


def _collective(ctx, op_name, kernel_name, tensors: Sequence[Tensor], pg, async_op):
    """A collective that moves ``tensors``."""
    nbytes = float(sum(t.nbytes for t in tensors))
    # NCCL kernels run on their own stream by default, but an explicit
    # stream scope (set by the replayer from the profiler trace) wins.
    stream_id = ctx.current_stream if ctx.runtime.stream_override_active else COMM_STREAM
    # The collective reads tensors produced by compute kernels, so it cannot
    # start before the compute stream has drained the work enqueued so far
    # (it still overlaps with compute enqueued *after* it — that is what
    # hides communication behind backward computation in DDP).
    start_not_before = ctx.compute_stream_ready()
    dtype = tensors[0].dtype.type_name if tensors else "float32"
    return _run_collective(
        ctx, op_name, kernel_name, pg, async_op, nbytes=nbytes, stream_id=stream_id,
        start_not_before=start_not_before, metadata={"dtype": dtype}, bytes_read=nbytes,
        bytes_written=nbytes, occupancy=0.15, locality=0.9, comm_bytes=nbytes,
    )


@register_op(
    "c10d::all_reduce(Tensor[] tensors, str reduce_op=\"sum\", Dict pg=None, bool async_op=False) -> Tensor[]",
    category=OpCategory.COMM,
    library="c10d",
)
def c10d_all_reduce(ctx, tensors: Sequence[Tensor], reduce_op: str = "sum", pg=None, async_op: bool = False):
    work = _collective(ctx, "all_reduce", "ncclKernel_AllReduce_RING_LL_Sum", tensors, pg, async_op)
    return work if async_op else list(tensors)


@register_op(
    "c10d::all_to_all(Tensor[] output_tensors, Tensor[] input_tensors, Dict pg=None, bool async_op=False) -> Tensor[]",
    category=OpCategory.COMM,
    library="c10d",
)
def c10d_all_to_all(ctx, output_tensors: Sequence[Tensor], input_tensors: Sequence[Tensor], pg=None, async_op: bool = False):
    work = _collective(ctx, "all_to_all", "ncclKernel_AllToAll_RING_LL", input_tensors, pg, async_op)
    return work if async_op else list(output_tensors)


@register_op(
    "c10d::all_gather(Tensor[] output_tensors, Tensor[] input_tensors, Dict pg=None, bool async_op=False) -> Tensor[]",
    category=OpCategory.COMM,
    library="c10d",
)
def c10d_all_gather(ctx, output_tensors: Sequence[Tensor], input_tensors: Sequence[Tensor], pg=None, async_op: bool = False):
    work = _collective(ctx, "all_gather", "ncclKernel_AllGather_RING_LL", input_tensors, pg, async_op)
    return work if async_op else list(output_tensors)


@register_op(
    "c10d::reduce_scatter(Tensor[] output_tensors, Tensor[] input_tensors, str reduce_op=\"sum\", Dict pg=None, bool async_op=False) -> Tensor[]",
    category=OpCategory.COMM,
    library="c10d",
)
def c10d_reduce_scatter(ctx, output_tensors: Sequence[Tensor], input_tensors: Sequence[Tensor], reduce_op: str = "sum", pg=None, async_op: bool = False):
    work = _collective(ctx, "reduce_scatter", "ncclKernel_ReduceScatter_RING_LL_Sum", input_tensors, pg, async_op)
    return work if async_op else list(output_tensors)


@register_op(
    "c10d::broadcast(Tensor[] tensors, int src=0, Dict pg=None, bool async_op=False) -> Tensor[]",
    category=OpCategory.COMM,
    library="c10d",
)
def c10d_broadcast(ctx, tensors: Sequence[Tensor], src: int = 0, pg=None, async_op: bool = False):
    work = _collective(ctx, "broadcast", "ncclKernel_Broadcast_RING_LL", tensors, pg, async_op)
    return work if async_op else list(tensors)


@register_op(
    "c10d::barrier(Dict pg=None, bool async_op=False) -> Tensor",
    category=OpCategory.COMM,
    library="c10d",
)
def c10d_barrier(ctx, pg=None, async_op: bool = False):
    return _run_collective(
        ctx, "barrier", "ncclKernel_Barrier", pg, async_op, local_us=2.0, occupancy=0.05
    )


@register_op(
    "c10d::send(Tensor[] tensors, int dst, Dict pg=None, bool async_op=False) -> Tensor[]",
    category=OpCategory.COMM,
    library="c10d",
)
def c10d_send(ctx, tensors: Sequence[Tensor], dst: int, pg=None, async_op: bool = False):
    work = _collective(ctx, "send", "ncclKernel_SendRecv", tensors, pg, async_op)
    return work if async_op else list(tensors)


@register_op(
    "c10d::recv(Tensor[] tensors, int src, Dict pg=None, bool async_op=False) -> Tensor[]",
    category=OpCategory.COMM,
    library="c10d",
)
def c10d_recv(ctx, tensors: Sequence[Tensor], src: int, pg=None, async_op: bool = False):
    work = _collective(ctx, "recv", "ncclKernel_SendRecv", tensors, pg, async_op)
    return work if async_op else list(tensors)
