"""A miniature TorchScript-style IR and compiler.

Mystique reconstructs each ATen operator by parsing its schema, emitting a
TorchScript IR string, and compiling that IR into a callable function
(Section 4.3.1):

.. code-block:: text

    graph(%x.1 : Tensor,
          %y.1 : Tensor):
      %4 : int = prim::Constant[value=1]()
      %5 : Tensor = aten::add(%x.1, %y.1, %4)
      return (%5)

This module provides the same three pieces: :func:`build_ir` (schema +
recorded argument values → IR text), :func:`parse_ir` (IR text → graph) and
:class:`CompiledFunction` (graph → callable).  The compiled callable invokes
the operator through a runtime, so replayed operators go through exactly the
same dispatch path as the original ones.
"""

from __future__ import annotations

import ast
import re
import threading
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class IRValue:
    """A named value in the IR graph (``%x.1 : Tensor``)."""

    name: str
    type: str


@dataclass(frozen=True)
class IRConstant:
    """A ``prim::Constant`` node carrying a recorded non-tensor argument."""

    name: str
    type: str
    value: Any


@dataclass(frozen=True)
class IRCall:
    """The operator-invocation node of the graph."""

    op_name: str
    output: str
    output_type: str
    operands: Tuple[str, ...]


@dataclass
class IRGraph:
    """A single-operator TorchScript-style graph."""

    inputs: List[IRValue] = field(default_factory=list)
    constants: List[IRConstant] = field(default_factory=list)
    call: Optional[IRCall] = None
    returns: List[str] = field(default_factory=list)

    def operand_plan(self) -> List[Tuple[str, Any]]:
        """How to build the operator's argument list at call time.

        Returns a list of ``("input", position)`` / ``("const", value)``
        entries, one per operand, in operator-argument order.
        """
        if self.call is None:
            raise ValueError("IR graph has no operator call")
        input_positions = {value.name: index for index, value in enumerate(self.inputs)}
        constant_values = {const.name: const.value for const in self.constants}
        plan: List[Tuple[str, Any]] = []
        for operand in self.call.operands:
            if operand in input_positions:
                plan.append(("input", input_positions[operand]))
            elif operand in constant_values:
                plan.append(("const", constant_values[operand]))
            else:
                raise ValueError(f"operand {operand} is neither an input nor a constant")
        return plan


# ----------------------------------------------------------------------
# IR building
# ----------------------------------------------------------------------
def _format_constant(value: Any) -> str:
    """Serialise a constant so that :func:`parse_ir` can read it back."""
    return repr(value)


def build_ir(
    op_name: str,
    arg_specs: Sequence[Tuple[str, str, Any]],
    return_type: str = "Tensor",
) -> str:
    """Build the textual IR for one operator invocation.

    Parameters
    ----------
    op_name:
        Qualified operator name (``aten::add``).
    arg_specs:
        One ``(arg_name, type, value)`` triple per operator argument, in
        schema order.  Tensor-typed arguments become graph inputs; all other
        arguments become ``prim::Constant`` nodes holding the recorded
        value.
    return_type:
        Type annotation of the single return value.
    """
    input_lines: List[str] = []
    body_lines: List[str] = []
    operands: List[str] = []
    next_id = 1

    for arg_name, arg_type, value in arg_specs:
        is_tensor_like = arg_type.startswith("Tensor") or arg_type.startswith("GenericList[Tensor")
        if is_tensor_like:
            # The IR does not need the dtype refinement recorded in the
            # trace ("Tensor(float32)"); normalise to plain TorchScript
            # types so the text stays parseable.
            ir_type = "Tensor[]" if arg_type.startswith("GenericList") else "Tensor"
            symbol = f"%{arg_name or 'arg'}.{next_id}"
            input_lines.append(f"{symbol} : {ir_type}")
            operands.append(symbol)
        else:
            symbol = f"%{next_id + len(input_lines) + 10}"
            body_lines.append(
                f"  {symbol} : {arg_type or 'NoneType'} = prim::Constant[value={_format_constant(value)}]()"
            )
            operands.append(symbol)
        next_id += 1

    output_symbol = "%out"
    call_line = f"  {output_symbol} : {return_type} = {op_name}({', '.join(operands)})"
    header = "graph(" + ",\n      ".join(input_lines) + "):" if input_lines else "graph():"
    return "\n".join([header, *body_lines, call_line, f"  return ({output_symbol})"])


# ----------------------------------------------------------------------
# IR parsing
# ----------------------------------------------------------------------
#: CPython's C ``_ast`` node constructor tracks its recursion depth in
#: interpreter-wide state (gh-105238 lineage; fixed in newer 3.12+), so
#: concurrent ``ast.literal_eval`` calls from replay worker threads can
#: raise a spurious ``SystemError: AST constructor recursion depth
#: mismatch``.  The parse is GIL-bound anyway, so serialising it costs
#: nothing and makes threaded batch replays deterministic.
_LITERAL_EVAL_LOCK = threading.Lock()


def _literal_eval(raw_value: str):
    with _LITERAL_EVAL_LOCK:
        return ast.literal_eval(raw_value)


_INPUT_RE = re.compile(r"(%[\w.]+)\s*:\s*([^,)]+)")
_CONST_RE = re.compile(r"^\s*(%[\w.]+)\s*:\s*(.+?)\s*=\s*prim::Constant\[value=(.*)\]\(\)\s*$")
_CALL_RE = re.compile(r"^\s*(%[\w.]+)\s*:\s*(.+?)\s*=\s*([\w]+::[\w]+)\((.*)\)\s*$")
_RETURN_RE = re.compile(r"^\s*return\s*\((.*)\)\s*$")


def parse_ir(text: str) -> IRGraph:
    """Parse the textual IR produced by :func:`build_ir`."""
    graph = IRGraph()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].lstrip().startswith("graph("):
        raise ValueError("IR text must start with a graph(...) header")

    # The header may span multiple lines; consume until the closing "):".
    header_lines = [lines[0]]
    index = 1
    while not header_lines[-1].rstrip().endswith("):") and index < len(lines):
        header_lines.append(lines[index])
        index += 1
    header = " ".join(header_lines)
    header_body = header[header.index("(") + 1: header.rindex(")")]
    for match in _INPUT_RE.finditer(header_body):
        graph.inputs.append(IRValue(name=match.group(1), type=match.group(2).strip()))

    for line in lines[index:]:
        const_match = _CONST_RE.match(line)
        if const_match:
            raw_value = const_match.group(3)
            try:
                value = _literal_eval(raw_value)
            except (ValueError, SyntaxError):
                value = raw_value
            graph.constants.append(
                IRConstant(name=const_match.group(1), type=const_match.group(2), value=value)
            )
            continue
        call_match = _CALL_RE.match(line)
        if call_match and "prim::Constant" not in line:
            operands = tuple(
                operand.strip()
                for operand in call_match.group(4).split(",")
                if operand.strip()
            )
            graph.call = IRCall(
                op_name=call_match.group(3),
                output=call_match.group(1),
                output_type=call_match.group(2),
                operands=operands,
            )
            continue
        return_match = _RETURN_RE.match(line)
        if return_match:
            graph.returns = [part.strip() for part in return_match.group(1).split(",") if part.strip()]
    if graph.call is None:
        raise ValueError("IR text contains no operator call")
    return graph


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
class CompiledFunction:
    """A callable built from an IR graph.

    Calling it with a runtime and the tensor inputs dispatches the operator
    through the runtime's registry, exactly like the original invocation.
    """

    def __init__(self, name: str, graph: IRGraph):
        self.name = name
        self.graph = graph
        self._plan = graph.operand_plan()
        self.op_name = graph.call.op_name if graph.call else name

    @property
    def num_inputs(self) -> int:
        return len(self.graph.inputs)

    def __call__(self, runtime, *inputs, stream: Optional[int] = None):
        if len(inputs) != self.num_inputs:
            raise TypeError(
                f"{self.name} expects {self.num_inputs} tensor inputs, got {len(inputs)}"
            )
        args: List[Any] = []
        for kind, payload in self._plan:
            if kind == "input":
                args.append(inputs[payload])
            else:
                args.append(payload)
        return runtime.call(self.op_name, *args, stream=stream)
