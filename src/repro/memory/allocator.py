"""A CUDA-caching-allocator simulator.

PyTorch never returns device memory to the driver on ``free``: the caching
allocator carves ``cudaMalloc``-ed *segments* into *blocks*, keeps freed
blocks on per-stream free lists for reuse, splits oversized blocks, and
coalesces free neighbours.  The distinction it creates — ``reserved``
(memory taken from the device) vs ``allocated`` (memory live in tensors) —
is exactly what ``nvidia-smi`` and ``torch.cuda.memory_*`` report, and what
the paper's Figure 5 memory-usage fidelity is measured against.

This module reproduces that behaviour deterministically in simulation:

* sizes are rounded to 512-byte quanta,
* allocations ≤ 1 MiB are served from 2 MiB "small" segments, allocations
  up to 10 MiB from 20 MiB "large" segments, bigger ones from dedicated
  segments rounded to 2 MiB,
* free blocks are reused best-fit per (pool, stream) and split when the
  remainder is worth keeping,
* adjacent free blocks coalesce, and fully-free segments can be released
  back to the device (``empty_cache``), which the allocator also attempts
  automatically before declaring an OOM.

The allocator never touches real memory — blocks are bookkeeping records —
so footprint timelines over multi-GB traces cost kilobytes to simulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.hardware.specs import DeviceSpec, get_device_spec

#: All block sizes are multiples of this quantum (bytes).
MIN_BLOCK_BYTES = 512
#: Allocations at or below this size are "small" (served from 2 MiB segments).
SMALL_ALLOC_BYTES = 1 << 20
#: Segment size backing the small pool.
SMALL_SEGMENT_BYTES = 2 << 20
#: Segment size backing large allocations below :data:`MIN_LARGE_ALLOC_BYTES`.
LARGE_SEGMENT_BYTES = 20 << 20
#: Allocations at or above this get a dedicated, 2 MiB-rounded segment.
MIN_LARGE_ALLOC_BYTES = 10 << 20
#: Rounding quantum for dedicated large segments.
LARGE_ROUND_BYTES = 2 << 20

#: Pool labels.
POOL_SMALL = "small"
POOL_LARGE = "large"


class SimulatedOOM(RuntimeError):
    """The simulated device ran out of memory.

    Carries the request that failed and an allocator statistics snapshot so
    callers can build a structured OOM event.
    """

    def __init__(self, requested_bytes: int, stats: "AllocatorStats") -> None:
        self.requested_bytes = int(requested_bytes)
        self.stats = stats
        super().__init__(
            f"simulated device out of memory: tried to allocate "
            f"{format_bytes(requested_bytes)} "
            f"({format_bytes(stats.allocated_bytes)} allocated, "
            f"{format_bytes(stats.reserved_bytes)} reserved, "
            f"capacity {format_bytes(stats.capacity_bytes)})"
        )


def round_block_size(nbytes: int) -> int:
    """Round a request up to the allocator's 512-byte quantum (≥ 512)."""
    nbytes = max(int(nbytes), 1)
    return ((nbytes + MIN_BLOCK_BYTES - 1) // MIN_BLOCK_BYTES) * MIN_BLOCK_BYTES


def segment_size_for(rounded: int) -> int:
    """Size of the segment ``cudaMalloc``-ed to serve a rounded request."""
    if rounded <= SMALL_ALLOC_BYTES:
        return SMALL_SEGMENT_BYTES
    if rounded < MIN_LARGE_ALLOC_BYTES:
        return LARGE_SEGMENT_BYTES
    return ((rounded + LARGE_ROUND_BYTES - 1) // LARGE_ROUND_BYTES) * LARGE_ROUND_BYTES


def pool_for(rounded: int) -> str:
    return POOL_SMALL if rounded <= SMALL_ALLOC_BYTES else POOL_LARGE


def format_bytes(nbytes: float) -> str:
    """Human-readable byte count (``512 B``, ``20.00 MiB``, ``1.50 GiB``)."""
    nbytes = float(nbytes)
    for unit, scale in (("GiB", 1 << 30), ("MiB", 1 << 20), ("KiB", 1 << 10)):
        if abs(nbytes) >= scale:
            return f"{nbytes / scale:.2f} {unit}"
    return f"{int(nbytes)} B"


def parse_byte_size(value: "int | float | str") -> int:
    """Parse a byte budget: an int/float (bytes) or ``"4GB"``-style string.

    Accepts ``B``, ``KB``/``KiB``, ``MB``/``MiB``, ``GB``/``GiB`` suffixes
    (case-insensitive, binary scale throughout — PyTorch's memory counters
    are binary-scaled too).
    """
    if isinstance(value, (int, float)):
        return int(value)
    text = value.strip().lower().replace(" ", "")
    scales = {"gib": 1 << 30, "gb": 1 << 30, "mib": 1 << 20, "mb": 1 << 20,
              "kib": 1 << 10, "kb": 1 << 10, "b": 1}
    for suffix, scale in scales.items():
        if text.endswith(suffix):
            return int(float(text[: -len(suffix)]) * scale)
    return int(float(text))


def device_capacity_bytes(device: "str | DeviceSpec") -> int:
    """Usable device-memory pool of a platform, in bytes.

    ``DeviceSpec.mem_capacity_gb`` is a datasheet GB figure; HBM capacities
    are binary-scaled in practice (an "A100-40GB" exposes 40 GiB), so the
    pool is ``capacity_gb`` GiB.
    """
    spec = get_device_spec(device) if isinstance(device, str) else device
    return int(spec.mem_capacity_gb * (1 << 30))


# ----------------------------------------------------------------------
# Blocks and segments
# ----------------------------------------------------------------------
@dataclass
class Block:
    """One contiguous region of a segment (allocated or cached-free)."""

    segment: "Segment"
    offset: int
    size: int
    allocated: bool = False
    #: Raw (pre-rounding) request size; 0 while the block is free.
    requested: int = 0

    @property
    def stream(self) -> int:
        return self.segment.stream

    @property
    def pool(self) -> str:
        return self.segment.pool

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alloc" if self.allocated else "free"
        return f"<Block {state} {format_bytes(self.size)} @+{self.offset}>"


@dataclass
class Segment:
    """One simulated ``cudaMalloc`` region, carved into ordered blocks."""

    index: int
    size: int
    stream: int
    pool: str
    blocks: List[Block] = field(default_factory=list)

    def is_free(self) -> bool:
        return all(not block.allocated for block in self.blocks)

    def allocated_bytes(self) -> int:
        return sum(block.size for block in self.blocks if block.allocated)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "size": self.size,
            "stream": self.stream,
            "pool": self.pool,
            "blocks": [
                {"offset": b.offset, "size": b.size, "allocated": b.allocated}
                for b in self.blocks
            ],
        }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@dataclass
class AllocatorStats:
    """Point-in-time counters of a :class:`CachingAllocator`.

    Mirrors the ``torch.cuda.memory_stats`` vocabulary: ``allocated`` is
    memory live in blocks, ``reserved`` is memory taken from the device,
    and the gap between the two is cache + fragmentation.
    """

    capacity_bytes: int = 0
    allocated_bytes: int = 0
    reserved_bytes: int = 0
    requested_bytes: int = 0
    peak_allocated_bytes: int = 0
    peak_reserved_bytes: int = 0
    active_blocks: int = 0
    cached_blocks: int = 0
    segments: int = 0
    alloc_count: int = 0
    free_count: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    device_mallocs: int = 0
    device_frees: int = 0

    @property
    def fragmentation(self) -> float:
        """Share of reserved memory not live in tensors (0 when empty)."""
        if self.reserved_bytes <= 0:
            return 0.0
        return 1.0 - self.allocated_bytes / self.reserved_bytes

    def to_dict(self) -> Dict[str, Any]:
        data = {f: getattr(self, f) for f in self.__dataclass_fields__}
        data["fragmentation"] = self.fragmentation
        return data


# ----------------------------------------------------------------------
# The allocator
# ----------------------------------------------------------------------
class CachingAllocator:
    """Deterministic simulation of the PyTorch CUDA caching allocator.

    Parameters
    ----------
    capacity_bytes:
        Device pool size; ``malloc`` raises :class:`SimulatedOOM` when a
        segment allocation would exceed it (after retrying with the cache
        released).  Pass :func:`device_capacity_bytes` of a
        :class:`~repro.hardware.specs.DeviceSpec` — or a smaller budget for
        OOM what-if runs.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._segments: List[Segment] = []
        self._free_blocks: Dict[Tuple[str, int], List[Block]] = {}
        self._next_segment = 0
        self._allocated = 0
        self._requested = 0
        self._reserved = 0
        self._peak_allocated = 0
        self._peak_reserved = 0
        self._alloc_count = 0
        self._free_count = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._device_mallocs = 0
        self._device_frees = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        return self._allocated

    @property
    def reserved_bytes(self) -> int:
        return self._reserved

    def malloc(self, nbytes: int, stream: int = 0) -> Block:
        """Allocate ``nbytes`` on ``stream``; raises :class:`SimulatedOOM`."""
        rounded = round_block_size(nbytes)
        pool = pool_for(rounded)
        block = self._take_from_cache(pool, stream, rounded)
        if block is None:
            self._cache_misses += 1
            segment = self._new_segment(rounded, pool, stream)
            block = segment.blocks[0]
        else:
            self._cache_hits += 1
        block = self._maybe_split(block, rounded)
        block.allocated = True
        block.requested = int(nbytes)
        self._allocated += block.size
        self._requested += block.requested
        self._peak_allocated = max(self._peak_allocated, self._allocated)
        self._alloc_count += 1
        return block

    def free(self, block: Block) -> None:
        """Return a block to the cache (never to the device) and coalesce."""
        if not block.allocated:
            raise ValueError(f"double free of {block!r}")
        block.allocated = False
        self._allocated -= block.size
        self._requested -= block.requested
        block.requested = 0
        self._free_count += 1
        self._coalesce(block)

    def empty_cache(self) -> int:
        """Release every fully-free segment to the device; bytes released."""
        released = 0
        for segment in list(self._segments):
            if segment.is_free():
                released += self._release_segment(segment)
        return released

    def stats(self) -> AllocatorStats:
        cached = sum(len(blocks) for blocks in self._free_blocks.values())
        return AllocatorStats(
            capacity_bytes=self.capacity_bytes,
            allocated_bytes=self._allocated,
            reserved_bytes=self._reserved,
            requested_bytes=self._requested,
            peak_allocated_bytes=self._peak_allocated,
            peak_reserved_bytes=self._peak_reserved,
            active_blocks=sum(
                1 for s in self._segments for b in s.blocks if b.allocated
            ),
            cached_blocks=cached,
            segments=len(self._segments),
            alloc_count=self._alloc_count,
            free_count=self._free_count,
            cache_hits=self._cache_hits,
            cache_misses=self._cache_misses,
            device_mallocs=self._device_mallocs,
            device_frees=self._device_frees,
        )

    def snapshot(self) -> Dict[str, Any]:
        """Full allocator state (the OOM-report attachment): stats plus the
        per-segment block map, mirroring ``torch.cuda.memory_snapshot``."""
        return {
            "stats": self.stats().to_dict(),
            "segments": [segment.to_dict() for segment in self._segments],
        }

    def segments(self) -> List[Segment]:
        return list(self._segments)

    def check_consistency(self) -> None:
        """Assert the structural invariants (used by the property tests).

        Every segment's blocks must tile it exactly (ordered, contiguous,
        no overlap), every cached-free block must be registered in exactly
        one free list, and the byte counters must match the block map.
        """
        allocated = 0
        free_registered = {
            id(block) for blocks in self._free_blocks.values() for block in blocks
        }
        seen_free = set()
        for segment in self._segments:
            offset = 0
            for block in segment.blocks:
                if block.offset != offset:
                    raise AssertionError(
                        f"segment {segment.index}: block at +{block.offset}, expected +{offset}"
                    )
                offset += block.size
                if block.allocated:
                    allocated += block.size
                else:
                    if id(block) not in free_registered:
                        raise AssertionError(f"free block {block!r} missing from free lists")
                    seen_free.add(id(block))
            if offset != segment.size:
                raise AssertionError(
                    f"segment {segment.index}: blocks cover {offset} of {segment.size} bytes"
                )
        if seen_free != free_registered:
            raise AssertionError("free list holds blocks that are not in any segment")
        if allocated != self._allocated:
            raise AssertionError(
                f"allocated counter {self._allocated} != block map total {allocated}"
            )
        reserved = sum(segment.size for segment in self._segments)
        if reserved != self._reserved:
            raise AssertionError(
                f"reserved counter {self._reserved} != segment total {reserved}"
            )
        if self._allocated > self._reserved:
            raise AssertionError("allocated exceeds reserved")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _free_list(self, pool: str, stream: int) -> List[Block]:
        return self._free_blocks.setdefault((pool, stream), [])

    def _take_from_cache(self, pool: str, stream: int, rounded: int) -> Optional[Block]:
        """Best-fit search of the (pool, stream) free list."""
        candidates = self._free_list(pool, stream)
        best: Optional[Block] = None
        for block in candidates:
            if block.size >= rounded and (best is None or block.size < best.size):
                best = block
        if best is not None:
            candidates.remove(best)
        return best

    def _new_segment(self, rounded: int, pool: str, stream: int) -> Segment:
        size = segment_size_for(rounded)
        if self._reserved + size > self.capacity_bytes:
            # Same order as the real allocator: release cached segments,
            # then retry the device allocation before giving up.
            self.empty_cache()
        if self._reserved + size > self.capacity_bytes:
            raise SimulatedOOM(rounded, self.stats())
        segment = Segment(index=self._next_segment, size=size, stream=stream, pool=pool)
        self._next_segment += 1
        root = Block(segment=segment, offset=0, size=size)
        segment.blocks.append(root)
        self._segments.append(segment)
        self._reserved += size
        self._peak_reserved = max(self._peak_reserved, self._reserved)
        self._device_mallocs += 1
        return segment

    def _maybe_split(self, block: Block, rounded: int) -> Block:
        """Split the remainder off an oversized block when worth keeping.

        Small-pool remainders are kept from one quantum up; large-pool
        remainders only when they exceed the small-alloc threshold —
        matching the real allocator's anti-fragmentation policy.
        """
        remaining = block.size - rounded
        threshold = MIN_BLOCK_BYTES if block.pool == POOL_SMALL else SMALL_ALLOC_BYTES
        keep = remaining >= threshold if block.pool == POOL_SMALL else remaining > threshold
        if not keep:
            return block
        remainder = Block(
            segment=block.segment, offset=block.offset + rounded, size=remaining
        )
        block.size = rounded
        siblings = block.segment.blocks
        siblings.insert(siblings.index(block) + 1, remainder)
        self._free_list(block.pool, block.stream).append(remainder)
        return block

    def _coalesce(self, block: Block) -> None:
        """Merge a newly-freed block with free neighbours, then cache it."""
        siblings = block.segment.blocks
        index = siblings.index(block)
        free_list = self._free_list(block.pool, block.stream)
        # Absorb the right neighbour first so offsets stay stable.
        if index + 1 < len(siblings) and not siblings[index + 1].allocated:
            right = siblings.pop(index + 1)
            free_list.remove(right)
            block.size += right.size
        if index > 0 and not siblings[index - 1].allocated:
            left = siblings[index - 1]
            free_list.remove(left)
            left.size += block.size
            siblings.pop(index)
            block = left
        free_list.append(block)

    def _release_segment(self, segment: Segment) -> int:
        free_list = self._free_list(segment.pool, segment.stream)
        for block in segment.blocks:
            free_list.remove(block)
        self._segments.remove(segment)
        self._reserved -= segment.size
        self._device_frees += 1
        return segment.size
