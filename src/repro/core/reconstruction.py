"""Operator reconstruction (Section 4.3).

For every selected operator the replayer needs a callable that reproduces
the original invocation.  Following the paper:

1. the operator schema captured in the trace is parsed with a string-based
   parser to recover the operator name and argument types,
2. a TorchScript-style IR string is built from the parsed information plus
   the recorded non-tensor argument values,
3. the IR is compiled into a callable function, which during replay invokes
   the operator through the runtime — i.e. through exactly the same dispatch
   path as the original workload.

Reconstruction happens during the initialisation phase of the replay, so it
adds no per-iteration overhead (Section 4.3.4).  It is also content-addressed:
the compiled function depends only on the operator schema, the recorded
argument types and the non-tensor argument values, so it is built once per
distinct operator content per process and shared by every node, rank, job and
worker thread that records the same call.  Only the tensor ids differ between
such nodes, and tensors are bound at call time.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, List, NamedTuple, Optional, Tuple

from repro.et.schema import ETNode, is_tensor_type
from repro.torchsim.jit import CompiledFunction, build_ir, parse_ir
from repro.torchsim.ops.registry import OperatorRegistry, global_registry
from repro.torchsim.ops.schema import OperatorSchema, parse_schema


class ReconstructionError(RuntimeError):
    """Raised when an operator node cannot be turned into a callable."""


@dataclass
class ReconstructedOp:
    """The callable for one trace node plus bookkeeping metadata.

    Every field but ``node_id`` is shared with all other nodes of the same
    operator content (see :func:`_content_key`)."""

    node_id: int
    op_name: str
    function: CompiledFunction
    tensor_arg_positions: Tuple[int, ...]
    ir_text: str


class _CompiledOp(NamedTuple):
    """One cache entry: everything of a :class:`ReconstructedOp` but the node."""

    op_name: str
    function: CompiledFunction
    tensor_arg_positions: Tuple[int, ...]
    ir_text: str


#: Most distinct operator contents the process-wide cache keeps; the least
#: recently used entry is evicted beyond it.  The benchmark models need
#: 10 to 21 each, so the bound only matters for long-lived daemons.
_CACHE_MAX_ENTRIES = 4096
_CACHE: "OrderedDict[Hashable, _CompiledOp]" = OrderedDict()
_CACHE_LOCK = threading.Lock()


def clear_cache() -> None:
    """Forget every compiled operator (the next reconstruction is cold)."""
    with _CACHE_LOCK:
        _CACHE.clear()


def cache_size() -> int:
    """Number of distinct operator contents currently compiled."""
    with _CACHE_LOCK:
        return len(_CACHE)


class OperatorReconstructor:
    """Builds callables for trace operators via schema → IR → compile."""

    def __init__(self, registry: Optional[OperatorRegistry] = None):
        self.registry = registry if registry is not None else global_registry

    def reconstruct(self, node: ETNode) -> ReconstructedOp:
        """Reconstruct the callable for one operator node.

        Raises :class:`ReconstructionError` when the node has no parseable
        schema or the operator is unknown to this reconstructor's registry —
        on every call, whether or not the operator was compiled before.
        """
        if not node.op_schema:
            raise ReconstructionError(f"node {node.id} ({node.name}) has no operator schema")
        key = _content_key(node)
        with _CACHE_LOCK:
            compiled = _CACHE.get(key)
            if compiled is not None:
                _CACHE.move_to_end(key)
        if compiled is None:
            try:
                schema = parse_schema(node.op_schema)
            except ValueError as error:
                raise ReconstructionError(str(error)) from error
            op_name = schema.qualified_name
        else:
            op_name = compiled.op_name
        if not self.registry.has(op_name):
            raise ReconstructionError(f"operator {op_name} is not registered")
        if compiled is None:
            compiled = _compile(node, schema)
            with _CACHE_LOCK:
                # A concurrent miss on the same content may have won the
                # race; keep its entry so every caller shares one function.
                compiled = _CACHE.setdefault(key, compiled)
                while len(_CACHE) > _CACHE_MAX_ENTRIES:
                    _CACHE.popitem(last=False)
        return ReconstructedOp(node.id, *compiled)


def _is_tensor_like(type_str: str) -> bool:
    return is_tensor_type(type_str) or type_str.startswith("GenericList[Tensor")


def _content_key(node: ETNode) -> Hashable:
    """Everything :func:`build_ir` consumes from ``node``.

    Constants are keyed by ``repr`` — the form the IR serialises them in —
    so ``1``, ``True`` and ``1.0`` stay distinct."""
    return (
        node.op_schema,
        tuple(node.input_types),
        tuple(
            repr(value)
            for value, type_str in zip(node.inputs, node.input_types)
            if not _is_tensor_like(type_str)
        ),
    )


def _compile(node: ETNode, schema: OperatorSchema) -> _CompiledOp:
    arg_specs, tensor_positions = _argument_specs(node, schema)
    return_type = schema.returns[0] if schema.returns else "Tensor"
    ir_text = build_ir(schema.qualified_name, arg_specs, return_type=return_type)
    name = f"{schema.name}_{hashlib.sha1(ir_text.encode('utf-8')).hexdigest()[:12]}"
    function = CompiledFunction(name, parse_ir(ir_text))
    return _CompiledOp(schema.qualified_name, function, tensor_positions, ir_text)


def _argument_specs(
    node: ETNode, schema: OperatorSchema
) -> Tuple[List[Tuple[str, str, Any]], Tuple[int, ...]]:
    """Build ``(name, type, value)`` triples for :func:`build_ir`.

    The recorded inputs are authoritative (the schema may declare more
    trailing arguments than the call site provided); schema argument
    names are used where available, purely for IR readability.
    """
    specs: List[Tuple[str, str, Any]] = []
    tensor_positions: List[int] = []
    for index, (value, type_str) in enumerate(zip(node.inputs, node.input_types)):
        if index < len(schema.args) and schema.args[index].name:
            arg_name = schema.args[index].name
        else:
            arg_name = f"arg{index}"
        if _is_tensor_like(type_str):
            tensor_positions.append(index)
            specs.append((arg_name, type_str, None))
        else:
            specs.append((arg_name, _constant_type(type_str), value))
    return specs, tuple(tensor_positions)


def _constant_type(type_str: str) -> str:
    """Map a recorded argument type string onto a TorchScript constant type."""
    mapping = {
        "Int": "int",
        "Double": "float",
        "Bool": "bool",
        "String": "str",
        "None": "NoneType",
        "Dict": "Dict[str, int]",
        "GenericList[Int]": "int[]",
        "GenericList": "int[]",
        "Unknown": "NoneType",
    }
    return mapping.get(type_str, type_str or "NoneType")
