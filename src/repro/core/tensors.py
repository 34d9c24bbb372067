"""Argument and tensor management (Section 4.4).

Operators take two kinds of tensor inputs:

* **intermediate tensors** — produced as the output of an earlier replayed
  operator; the replayer keeps them and passes them downstream according to
  the recorded data dependencies,
* **external tensors** — tensors whose producer was not captured (model
  parameters, the input batch); the replayer instantiates them up front
  with the recorded shape and dtype but *random values*, since operator
  performance does not depend on values for almost all operators.

The one notable exception the paper calls out is the embedding-table lookup,
whose indices values determine the access pattern.  The
:class:`EmbeddingValueConfig` lets users refine how those index tensors are
synthesised (table size, index distribution, pooling factor), mirroring the
interface Mystique exposes for this case.

Index values depend only on the config and the tensor's size, so the
process computes each payload once (:func:`index_values`): one bounded
table, shared by every replay in the process, holds each generated array,
read-only, with its content token (:func:`payload_token`) beside it.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import astuple, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.selection import ReplayPlanEntry
from repro.et.analyzer import dtype_from_type_string
from repro.et.schema import ETNode, decode_arg_refs, is_tensor_list_type, is_tensor_type
from repro.torchsim.device import Device
from repro.torchsim.dtypes import DType
from repro.torchsim.tensor import Tensor

#: A tensor's identity within the replay: (tensor_id, storage_id).
TensorKey = Tuple[int, int]


@dataclass
class EmbeddingValueConfig:
    """Value specification for embedding-lookup index tensors.

    When provided, external int64 index tensors are materialised with values
    drawn from the configured distribution so the replayed lookup reproduces
    the original access pattern; without it the default empirical values are
    used (uniform random over the table).
    """

    table_size: int = 1_000_000
    distribution: str = "zipf"      # "zipf" | "uniform"
    zipf_alpha: float = 1.05
    pooling_factor: int = 32
    seed: int = 0

    def generate(self, count: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        if self.distribution == "uniform":
            return rng.integers(0, self.table_size, size=count, dtype=np.int64)
        if self.distribution == "zipf":
            raw = rng.zipf(self.zipf_alpha, size=count).astype(np.int64)
            return np.clip(raw - 1, 0, self.table_size - 1)
        raise ValueError(f"unknown index distribution: {self.distribution!r}")


#: Most payload bytes the :func:`index_values` table keeps; the least
#: recently used array is dropped beyond it, and a larger one is never
#: kept.  The default ``RMConfig()`` replay needs two arrays, 16.5 MiB.
MAX_INDEX_TABLE_BYTES = 64 << 20


class _IndexPayload:
    """A generated index array and its content token, once computed."""

    __slots__ = ("array", "token")

    def __init__(self, array: np.ndarray) -> None:
        self.array = array
        self.token: Optional[str] = None


#: Guards the table; a hit reads :data:`_by_id` without it.
_index_lock = threading.Lock()
#: (config type, config fields, count, shape) → payload, least recently
#: used first.
_index_table: "OrderedDict[tuple, _IndexPayload]" = OrderedDict()
#: ``id(array)`` → payload of every array in the table (which keeps the
#: array alive, so its id cannot be reused while the entry lives).
_by_id: Dict[int, _IndexPayload] = {}
_index_bytes = 0


def index_values(config: EmbeddingValueConfig, count: int, shape: Tuple[int, ...]) -> np.ndarray:
    """``config.generate(count)`` shaped ``shape``, generated once per
    process: the table returns the same read-only array to every replay
    that asks for it, so an in-place write raises instead of changing
    later replays' inputs."""
    global _index_bytes
    key = (type(config), astuple(config), count, shape)
    with _index_lock:
        payload = _index_table.get(key)
        if payload is not None:
            _index_table.move_to_end(key)
            return payload.array
    array = config.generate(count).reshape(shape)
    array.flags.writeable = False
    if array.nbytes > MAX_INDEX_TABLE_BYTES:
        return array
    with _index_lock:
        payload = _index_table.get(key)
        if payload is None:  # else a concurrent replay generated it first
            payload = _index_table[key] = _by_id[id(array)] = _IndexPayload(array)
            _index_bytes += array.nbytes
            while _index_bytes > MAX_INDEX_TABLE_BYTES:
                evicted = _index_table.popitem(last=False)[1]
                del _by_id[id(evicted.array)]
                _index_bytes -= evicted.array.nbytes
        return payload.array


def payload_token(array: np.ndarray) -> str:
    """SHA1 of ``array``'s contents; computed once for an array the
    :func:`index_values` table holds, on every call for any other."""
    payload = _by_id.get(id(array))
    if payload is None or payload.array is not array:
        return _sha1(array)
    if payload.token is None:  # concurrent first calls store equal tokens
        payload.token = _sha1(array)
    return payload.token


def _sha1(array: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


def index_table_stats() -> Dict[str, int]:
    """Arrays the :func:`index_values` table holds, and their bytes."""
    with _index_lock:
        return {"arrays": len(_index_table), "bytes": _index_bytes}


def clear_index_table() -> None:
    """Forget every generated index array."""
    global _index_bytes
    with _index_lock:
        _index_table.clear()
        _by_id.clear()
        _index_bytes = 0


@dataclass
class TensorClassification:
    """Which recorded tensors are intermediate vs. external."""

    intermediate: List[TensorKey] = field(default_factory=list)
    external: List[TensorKey] = field(default_factory=list)


def classify_tensors(entries: Sequence[ReplayPlanEntry]) -> TensorClassification:
    """Classify every input tensor of the replay plan.

    A tensor is *intermediate* when an earlier plan entry lists it among
    its outputs; otherwise it is *external* and must be instantiated
    before execution.
    """
    produced: set = set()
    intermediate: List[TensorKey] = []
    external: List[TensorKey] = []
    seen: set = set()
    for entry in entries:
        for ref in entry.node.input_tensor_refs():
            key = (ref[0], ref[1])
            if key in seen:
                continue
            seen.add(key)
            if key in produced:
                intermediate.append(key)
            else:
                external.append(key)
        for ref in entry.node.output_tensor_refs():
            produced.add((ref[0], ref[1]))
    return TensorClassification(intermediate=intermediate, external=external)


class TensorManager:
    """Creates and tracks the tensors used during replay.

    ``classification`` is the replay plan's (:func:`classify_tensors`);
    the ranks of a co-replay that share one fleet plan share it, each with
    its own tensors.
    """

    def __init__(
        self,
        embedding_config: Optional[EmbeddingValueConfig] = None,
        device: Optional[Device] = None,
        materialize_values: bool = False,
        classification: Optional[TensorClassification] = None,
    ) -> None:
        self.embedding_config = embedding_config
        self.device = device if device is not None else Device.cuda()
        self.materialize_values = materialize_values
        self._registry: Dict[TensorKey, Tensor] = {}
        self._classification = (
            classification if classification is not None else TensorClassification()
        )

    # ------------------------------------------------------------------
    # Classification (Section 4.4)
    # ------------------------------------------------------------------
    @property
    def classification(self) -> TensorClassification:
        return self._classification

    # ------------------------------------------------------------------
    # Instantiation
    # ------------------------------------------------------------------
    def _materialize(self, ref, shape, type_str: str) -> Tensor:
        dtype = dtype_from_type_string(type_str)
        shape = tuple(int(dim) for dim in (shape or []))
        tensor = Tensor(shape=shape, dtype=dtype, device=self.device)
        numel = tensor.numel
        if dtype == DType.INT64 and self.embedding_config is not None and numel > 0:
            # Index tensors: honour the user-provided value specification.
            tensor.data = index_values(self.embedding_config, numel, shape or (numel,))
        elif self.materialize_values and numel > 0 and numel < 1_000_000:
            tensor.data = np.random.default_rng(ref[0] if ref else 0).standard_normal(shape).astype(np.float32)
        return tensor

    def get_input(self, value: Any, shape: Any, type_str: str) -> Any:
        """Resolve one recorded input argument into a replay tensor (or list)."""
        return self._resolve(value, decode_arg_refs(value, type_str), shape, type_str)

    def _resolve(self, value: Any, refs: Tuple, shape: Any, type_str: str) -> Any:
        """:meth:`get_input` with the argument's refs already decoded."""
        if is_tensor_type(type_str):
            ref = refs[0]
            key = (ref[0], ref[1]) if ref else None
            if key is not None and key in self._registry:
                return self._registry[key]
            tensor = self._materialize(ref, shape, type_str)
            if key is not None:
                self._registry[key] = tensor
            return tensor
        if is_tensor_list_type(type_str) and isinstance(value, (list, tuple)):
            inner_types = _split_generic_list(type_str)
            tensors = []
            for index, (item, ref) in enumerate(zip(value, refs)):
                item_type = inner_types[index] if index < len(inner_types) else "Tensor(float32)"
                item_shape = shape[index] if isinstance(shape, (list, tuple)) and index < len(shape) else []
                tensors.append(self._resolve(item, (ref,), item_shape, item_type))
            return tensors
        return value

    def gather_inputs(self, node: ETNode) -> List[Any]:
        """Tensor-typed inputs of a node, in recorded order (for the callable)."""
        tensors: List[Any] = []
        for value, refs, shape, type_str in zip(node.inputs, node.input_refs, node.input_shapes, node.input_types):
            if is_tensor_type(type_str) or is_tensor_list_type(type_str):
                tensors.append(self._resolve(value, refs, shape, type_str))
        return tensors

    # ------------------------------------------------------------------
    # Output registration (data dependencies)
    # ------------------------------------------------------------------
    def register_outputs(self, node: ETNode, result: Any) -> None:
        """Associate the replayed outputs with the recorded output tensors."""
        self.register_pairs(self.output_pairs(node, result))

    def output_pairs(self, node: ETNode, result: Any) -> List[Tuple[TensorKey, Tensor]]:
        """Precompute the registrations :meth:`register_outputs` would do.

        The vectorized replay path replays the same node with the same
        output objects every iteration; pairing them once and replaying
        the ``(key, tensor)`` pairs via :meth:`register_pairs` skips the
        per-iteration pairing.
        """
        outputs = _normalize_result(result)
        return [
            ((ref[0], ref[1]), tensor)
            for ref, tensor in zip(node.output_tensor_refs(), outputs)
            if isinstance(tensor, Tensor)
        ]

    def register_pairs(self, pairs: Sequence[Tuple[TensorKey, Tensor]]) -> None:
        """Apply precomputed output registrations (see :meth:`output_pairs`)."""
        registry = self._registry
        for key, tensor in pairs:
            registry[key] = tensor

    def lookup(self, key: TensorKey) -> Optional[Tensor]:
        return self._registry.get(key)

    def registered_count(self) -> int:
        return len(self._registry)

    def reset_intermediates(self) -> None:
        """Drop intermediates between iterations, keep external tensors."""
        external = set(self._classification.external)
        self._registry = {key: value for key, value in self._registry.items() if key in external}


# ----------------------------------------------------------------------
def _split_generic_list(type_str: str) -> List[str]:
    inner = type_str[len("GenericList["):-1] if type_str.endswith("]") else ""
    return [part for part in inner.split(",") if part]


def _normalize_result(result: Any) -> List[Any]:
    if result is None:
        return []
    if isinstance(result, (list, tuple)):
        return list(result)
    return [result]
