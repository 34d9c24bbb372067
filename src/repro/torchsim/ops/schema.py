"""Operator schemas and the string-based schema parser.

PyTorch describes every operator with a schema string such as::

    aten::add.Tensor(Tensor self, Tensor other, *, Scalar alpha=1) -> Tensor

Mystique's operator-reconstruction step (Section 4.3.1) parses these strings
to recover the operator name and the types of its arguments, builds a
TorchScript IR string from them, and compiles that IR into a callable.  This
module provides the schema data model and the parser; the IR-building and
"compilation" steps live in :mod:`repro.torchsim.jit` and
:mod:`repro.core.reconstruction`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class SchemaArg:
    """One argument in an operator schema."""

    name: str
    type: str
    default: Optional[str] = None
    kwarg_only: bool = False

    @property
    def is_tensor(self) -> bool:
        return self.type.startswith("Tensor")

    @property
    def is_tensor_list(self) -> bool:
        return self.type.replace(" ", "") in ("Tensor[]", "Tensor?[]")

    @property
    def is_optional(self) -> bool:
        return self.type.endswith("?")

    def to_string(self) -> str:
        text = f"{self.type} {self.name}"
        if self.default is not None:
            text += f"={self.default}"
        return text


@dataclass(frozen=True)
class OperatorSchema:
    """Parsed form of a PyTorch-style operator schema string."""

    namespace: str
    name: str
    overload: str
    args: Tuple[SchemaArg, ...]
    returns: Tuple[str, ...]

    @property
    def qualified_name(self) -> str:
        """``namespace::name`` — the key used by the operator registry."""
        return f"{self.namespace}::{self.name}"

    @property
    def full_name(self) -> str:
        """``namespace::name.overload`` (overload omitted when empty)."""
        if self.overload:
            return f"{self.namespace}::{self.name}.{self.overload}"
        return self.qualified_name

    @property
    def positional_args(self) -> Tuple[SchemaArg, ...]:
        return tuple(arg for arg in self.args if not arg.kwarg_only)

    @property
    def kwarg_only_args(self) -> Tuple[SchemaArg, ...]:
        return tuple(arg for arg in self.args if arg.kwarg_only)

    def to_string(self) -> str:
        """Re-serialise the schema to its canonical string form."""
        parts: List[str] = []
        emitted_star = False
        for arg in self.args:
            if arg.kwarg_only and not emitted_star:
                parts.append("*")
                emitted_star = True
            parts.append(arg.to_string())
        args_text = ", ".join(parts)
        if len(self.returns) == 0:
            ret_text = "()"
        elif len(self.returns) == 1:
            ret_text = self.returns[0]
        else:
            ret_text = "(" + ", ".join(self.returns) + ")"
        return f"{self.full_name}({args_text}) -> {ret_text}"


_HEADER_RE = re.compile(
    r"^\s*(?P<namespace>[A-Za-z_][\w]*)::(?P<name>[\w]+)"
    r"(?:\.(?P<overload>[\w]+))?\s*\("
)


def _split_top_level(text: str, separator: str = ",") -> List[str]:
    """Split on ``separator`` ignoring separators nested in brackets/parens."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in text:
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        if char == separator and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_arg(text: str, kwarg_only: bool) -> SchemaArg:
    """Parse one ``Type name=default`` argument declaration."""
    default: Optional[str] = None
    if "=" in text:
        decl, _, default = text.partition("=")
        decl = decl.strip()
        default = default.strip()
    else:
        decl = text.strip()
    # The type may itself contain spaces (e.g. "int[2]"), but the argument
    # name is always the last whitespace-separated token.
    if " " not in decl:
        # Schema fragments like "Tensor" with no name (rare, e.g. returns
        # reused as args) — synthesise a name.
        return SchemaArg(name="", type=decl, default=default, kwarg_only=kwarg_only)
    type_text, _, name = decl.rpartition(" ")
    return SchemaArg(name=name.strip(), type=type_text.strip(), default=default, kwarg_only=kwarg_only)


def parse_schema(schema_str: str) -> OperatorSchema:
    """Parse a PyTorch-style operator schema string.

    Raises ``ValueError`` when the string does not look like a schema, which
    is how Mystique's reconstruction step detects non-operator nodes (pure
    annotations, autograd wrappers) in the execution trace.
    """
    match = _HEADER_RE.match(schema_str)
    if not match:
        raise ValueError(f"not a valid operator schema: {schema_str!r}")
    namespace = match.group("namespace")
    name = match.group("name")
    overload = match.group("overload") or ""

    rest = schema_str[match.end():]
    # Find the closing parenthesis of the argument list at depth 0.
    depth = 1
    for index, char in enumerate(rest):
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth == 0:
                args_text = rest[:index]
                remainder = rest[index + 1:]
                break
    else:
        raise ValueError(f"unbalanced parentheses in schema: {schema_str!r}")

    if "->" not in remainder:
        raise ValueError(f"missing return annotation in schema: {schema_str!r}")
    returns_text = remainder.split("->", 1)[1].strip()
    if returns_text.startswith("(") and returns_text.endswith(")"):
        returns = tuple(
            part for part in _split_top_level(returns_text[1:-1]) if part
        )
    elif returns_text:
        returns = (returns_text,)
    else:
        returns = tuple()

    args: List[SchemaArg] = []
    kwarg_only = False
    for part in _split_top_level(args_text):
        if not part:
            continue
        if part == "*":
            kwarg_only = True
            continue
        args.append(_parse_arg(part, kwarg_only))

    return OperatorSchema(
        namespace=namespace,
        name=name,
        overload=overload,
        args=tuple(args),
        returns=returns,
    )
