#!/usr/bin/env python3
"""CI guard against deprecated / banned API usage inside ``src/``.

Seventeen rules, one pass:

* ``BatchReplayer`` must not be constructed outside ``src/repro/service/``
  — batch work flows through the facade (``repro.api.sweep``) or the
  service layer, so cache policy and error reporting stay in one place.
  The daemon prices its sweep points one at a time through the service
  layer's ``replay_job``, not through a one-job batch.
* ``time.time(`` is banned wherever the package measures *host* durations
  (``src/repro/bench/`` and ``src/repro/telemetry/``): it is not monotonic
  (NTP slews and clock steps corrupt measured windows), so all wall-time
  deltas use ``time.perf_counter()``.
* Bare ``print(`` is banned inside ``src/repro/`` outside the CLI and the
  daemon's HTTP front-end: library code reports through return values, the
  telemetry layer (``repro.telemetry``), or an explicit stream
  (``print(..., file=...)`` / ``sys.stderr.write``) — never by writing to
  whatever stdout happens to be attached (which corrupts ``--json`` output
  and daemon logs).
* Direct ``json.dump(s)`` of analysis/CLI payloads is banned inside
  ``src/repro/insights/`` and ``src/repro/service/`` outside
  ``service/serialize.py`` — every ``--json`` and daemon payload renders
  through the shared serializer (``serialize.dumps`` /
  ``serialize.dumps_compact``), so payload shape and encoding policy stay
  in one place.  (``json.loads`` is fine anywhere.)
* ``build_ir(`` / ``parse_ir(`` are called inside ``src/repro/`` only from
  ``core/reconstruction.py``, whose process-wide content-addressed cache
  builds each operator's IR once; any other caller would bypass it.
* There is one execute loop.  Inside ``src/repro/`` a reconstructed op is
  called (``.function(``) only from ``core/pipeline.py`` and
  ``core/vectorize.py``, and ``RankBlocked`` is caught only by the retry
  helper in ``torchsim/distributed.py``; anything else is a second copy of
  the loop or of its collective retry.
* Compute operators depend on neither the rank nor the clock.  Inside
  ``src/repro/torchsim/ops/`` and ``torchsim/nn.py``, only ``ops/comms.py``
  reads ``.rank``, names ``cost_model``, ``clock_scale`` or
  ``power_model``, or passes ``duration_us=``: the comms ops are never
  vectorized, and every other op's captured program is shared by all
  ranks of a co-replay, by later replays and by every power cap (the
  program table of ``repro.core.vectorize``, which prices a program's
  kernels per clock), which is sound only while its effect cannot differ
  from rank to rank and its kernels cost what the cost model prices.
* Traces are decoded at one boundary.  Inside ``src/repro/``,
  ``decode_tensor_ref(`` is called only from ``et/schema.py``: every
  ``ETNode`` decodes its tensor refs once, and everything else reads them
  from the node (``input_refs``/``output_refs``, ``input_tensor_refs()``).
* A rank joins the fleet in one place.  Inside ``src/repro/``, a
  distributed context's ``.rendezvous`` is assigned, and a runtime is
  built on the fleet's process-group tables (``group_tables=``), only in
  ``cluster/scheduler.py``, where each co-replay rank's runtime is created;
  every other rank-setup path would be a second per-rank replay object.
* The daemon keeps one trace repository per root.  Inside
  ``src/repro/daemon/``, ``TraceRepository(`` is constructed only in
  ``daemon.py``, by the map every sweep and cluster job gets its
  repository from; a repository built anywhere else would re-read and
  re-digest the whole root for each job.
* There is one pause signal.  Inside ``src/repro/``, a ``BaseException``
  subclass is defined only in ``core/pipeline.py``: ``ReplayPaused``,
  raised at an iteration boundary with a verified ``ReplayCheckpoint``,
  pauses single replays, sweep points and fleet ranks alike.  A second
  control-flow signal would be a second pause mechanism.
* Build products do not depend on the rank.  ``.rank`` is not read in the
  build-stage modules (``core/selection.py``, ``core/tensors.py``,
  ``core/streams.py``, ``core/reconstruction.py``,
  ``core/comms_replay.py``) or in ``cluster/plan.py``: the ranks of a
  co-replay with the same trace content share one ``FleetPlan`` of what
  those modules build, which is sound only while none of it can differ
  from rank to rank.
* There is one process-group table per world.  Inside ``src/repro/``,
  ``ProcessGroup(`` and ``GroupTable(`` are constructed only in
  ``torchsim/distributed.py``: a world's ``GroupTable`` interns one group
  per (sorted ranks, backend), and the rendezvous and the pre-flight match
  key on those interned groups by identity, so a group built anywhere
  else would never match its peers.
* There is one observer channel.  Inside ``src/repro/``, only
  ``core/pipeline.py`` iterates ``context.hooks`` / ``self.hooks``:
  observers live on the ``ReplayContext``, ``ReplayContext.notify``
  dispatches every lifecycle event (skipping a hook without the method)
  and ``emit_op_replayed`` the per-op one; a second loop would be a second
  dispatcher with its own rules.
* Index values are generated once per process.  Inside ``src/repro/``,
  ``.generate(`` is called only from ``core/tensors.py``, whose
  ``index_values`` keeps each generated embedding-index payload in one
  bounded table, read-only and hashed once; a caller that generated its
  own would redraw the values and rehash the payload on every replay.
* Daemon connections are kept alive.  Inside ``src/repro/``,
  ``urlopen(`` is never called: it opens a TCP connection per request, so
  the daemon would spawn a handler thread for each; the
  ``DaemonClient`` keeps one ``http.client`` connection per thread.
* No unused imports.  Inside ``src/repro/``, every module-level import
  binds a name the module reads: in code, in a string annotation or in
  ``__all__``.  An import kept for its side effect says so with
  ``# noqa`` on its line.  This rule reads the syntax tree, not lines.

Run from the repository root (``make lint`` does).  Exit code 0 when clean,
1 with a file:line listing otherwise.  ``tests/test_profiling.py`` drives
:func:`find_offenders` directly to keep the rules themselves honest.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple


@dataclass(frozen=True)
class Rule:
    """One banned-usage rule: a pattern, where it applies, and why."""

    name: str
    #: Matched against each line; ``None`` for a rule that ``scan``\s the
    #: whole source instead.
    pattern: Optional[re.Pattern]
    #: Directories or single files (relative to the repo root) the rule
    #: scans.
    roots: Tuple[str, ...]
    message: str
    #: Paths (relative to the repo root) exempt from the rule: exact files,
    #: or whole directories when the entry ends with ``/``.
    exempt: Tuple[str, ...] = field(default=())
    #: Source text -> offending line numbers, for a rule a line pattern
    #: cannot express.
    scan: Optional[Callable[[str], List[int]]] = None


def _module_imports(body: List[ast.stmt]) -> List[Tuple[ast.stmt, str]]:
    """(statement, bound name) for every import in a module body, including
    those under a module-level ``if`` or ``try``; ``__future__`` and star
    imports bind nothing to check."""
    bound: List[Tuple[ast.stmt, str]] = []
    for node in body:
        if isinstance(node, ast.Import):
            bound.extend((node, alias.asname or alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                bound.extend(
                    (node, alias.asname or alias.name) for alias in node.names if alias.name != "*"
                )
        elif isinstance(node, (ast.If, ast.Try)):
            blocks = [node.body, node.orelse, getattr(node, "finalbody", [])]
            blocks.extend(handler.body for handler in getattr(node, "handlers", []))
            for block in blocks:
                bound.extend(_module_imports(block))
    return bound


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, counting the names inside string
    constants that parse as expressions (string annotations, ``__all__``)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(sub.id for sub in ast.walk(expression) if isinstance(sub, ast.Name))
    return names


def unused_imports(source: str) -> List[int]:
    """Line numbers of the module-level imports in ``source`` that bind a
    name the module never reads (an import line with ``# noqa`` is kept)."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []  # make lint's compileall step reports it
    names = _read_names(tree)
    lines = source.splitlines()
    return sorted({
        node.lineno
        for node, name in _module_imports(tree.body)
        if name not in names and "# noqa" not in lines[node.lineno - 1]
    })


#: Shared by the two execute-loop-fork patterns, which report as one rule.
_EXECUTE_LOOP_FORK = (
    "replay loop forked: reconstructed ops are called only from "
    "core/pipeline.py and core/vectorize.py, and RankBlocked is caught only "
    "by torchsim.distributed.retry_collective (drive the pipeline's step "
    "generator instead of copying it)"
)

RULES = (
    Rule(
        name="direct-batch-replayer",
        # Batch execution policy (cache, error capture) lives in the
        # service layer; nothing else constructs the replayer directly.
        pattern=re.compile(r"\bBatchReplayer\("),
        roots=("src",),
        exempt=("src/repro/service/",),
        message=(
            "BatchReplayer constructed outside service/ (submit through "
            "repro.api.sweep or the service layer; a daemon sweep point "
            "replays through repro.service.batch.replay_job)"
        ),
    ),
    Rule(
        name="non-monotonic-clock",
        pattern=re.compile(r"\btime\.time\("),
        roots=("src/repro/bench", "src/repro/telemetry"),
        message=(
            "time.time() used where host durations are measured (it is not "
            "monotonic; use time.perf_counter())"
        ),
    ),
    Rule(
        name="bare-print",
        # A print( call with no file= argument on the same line.  The
        # lookbehind keeps method calls (self.print(), console.print()) and
        # string literals mentioning print( out of scope.
        pattern=re.compile(r"(?<![\w.\"'])print\((?!.*\bfile\s*=)"),
        roots=("src/repro",),
        exempt=(
            "src/repro/service/cli.py",
            "src/repro/daemon/server.py",
        ),
        message=(
            "bare print() in library code (route output through return "
            "values, repro.telemetry, or an explicit print(..., file=...))"
        ),
    ),
    Rule(
        name="serializer-bypass",
        # Matches json.dump( and json.dumps( but not json.loads(.
        pattern=re.compile(r"\bjson\.dumps?\("),
        roots=("src/repro/insights", "src/repro/service"),
        exempt=(
            "src/repro/service/serialize.py",
            # The result cache persists its own entries; not a payload
            # anything prints or serves.
            "src/repro/service/cache.py",
        ),
        message=(
            "json.dump(s) of an analysis/CLI payload outside "
            "service/serialize.py (render through serialize.dumps / "
            "serialize.dumps_compact so payload shapes stay in one place)"
        ),
    ),
    Rule(
        name="reconstruction-cache-bypass",
        # Calls only: the definitions in torchsim/jit.py and mentions in
        # prose (no opening parenthesis) are out of scope.
        pattern=re.compile(r"(?<!def )\b(?:build_ir|parse_ir)\("),
        roots=("src/repro",),
        exempt=("src/repro/core/reconstruction.py",),
        message=(
            "build_ir/parse_ir called outside core/reconstruction.py (go "
            "through OperatorReconstructor so the shared reconstruction "
            "cache is used)"
        ),
    ),
    Rule(
        name="execute-loop-fork",
        pattern=re.compile(r"\.function\("),
        roots=("src/repro",),
        exempt=("src/repro/core/pipeline.py", "src/repro/core/vectorize.py"),
        message=_EXECUTE_LOOP_FORK,
    ),
    Rule(
        name="execute-loop-fork",
        pattern=re.compile(r"\bexcept\b[^:]*\bRankBlocked\b"),
        roots=("src/repro",),
        exempt=("src/repro/torchsim/distributed.py",),
        message=_EXECUTE_LOOP_FORK,
    ),
    Rule(
        name="rank-dependent-op",
        pattern=re.compile(
            r"\.rank\b|\b(?:cost_model|clock_scale|power_model)\b|\bduration_us\s*="
        ),
        roots=("src/repro/torchsim/ops", "src/repro/torchsim/nn.py"),
        exempt=("src/repro/torchsim/ops/comms.py",),
        message=(
            "operator reads the rank or the clock, or sets a kernel's duration, "
            "outside ops/comms.py (vectorized programs are shared across the "
            "ranks of a co-replay and across power caps, so a compute op's "
            "effect must not depend on its rank and its kernels must cost what "
            "the cost model prices)"
        ),
    ),
    Rule(
        name="trace-boundary",
        pattern=re.compile(r"(?<!def )\bdecode_tensor_ref\("),
        roots=("src/repro",),
        exempt=("src/repro/et/schema.py",),
        message=(
            "decode_tensor_ref called outside et/schema.py (read the refs the "
            "ETNode decoded once: input_refs/output_refs or input_tensor_refs())"
        ),
    ),
    Rule(
        name="fleet-join",
        # An assignment (not a comparison) to a distributed context's
        # rendezvous, e.g. ``runtime.dist.rendezvous = ...``, or a runtime
        # built on a fleet's group tables (``group_tables=...``).
        pattern=re.compile(r"\bdist\.rendezvous\s*=(?!=)|\bgroup_tables="),
        roots=("src/repro",),
        exempt=("src/repro/cluster/scheduler.py",),
        message=(
            "a distributed context joins a rendezvous or a fleet's group tables "
            "outside cluster/scheduler.py (a co-replay rank is a ReplayContext "
            "driven by the scheduler; do not build a second per-rank replay object)"
        ),
    ),
    Rule(
        name="daemon-repository",
        pattern=re.compile(r"\bTraceRepository\("),
        roots=("src/repro/daemon",),
        exempt=("src/repro/daemon/daemon.py",),
        message=(
            "TraceRepository constructed in the daemon outside daemon.py (sweep "
            "and cluster jobs share the daemon's TraceRepositories map, one "
            "repository per root, so discovery re-reads only changed files)"
        ),
    ),
    Rule(
        name="pause-signal",
        # A class statement deriving from BaseException or from one of its
        # non-Exception subclasses (ReplayPaused included).
        pattern=re.compile(
            r"\bclass\s+\w+\s*\([^)]*\b(?:BaseException|KeyboardInterrupt|"
            r"SystemExit|GeneratorExit|ReplayPaused)\b"
        ),
        roots=("src/repro",),
        exempt=("src/repro/core/pipeline.py",),
        message=(
            "BaseException subclass defined outside core/pipeline.py (pause "
            "through the one signal, ReplayPaused with a ReplayCheckpoint, "
            "via a context's pause_check)"
        ),
    ),
    Rule(
        name="plan-rank-blind",
        pattern=re.compile(r"\.rank\b"),
        roots=(
            "src/repro/core/selection.py",
            "src/repro/core/tensors.py",
            "src/repro/core/streams.py",
            "src/repro/core/reconstruction.py",
            "src/repro/core/comms_replay.py",
            "src/repro/cluster/plan.py",
        ),
        message=(
            "a build stage or the fleet plan reads the rank (the ranks of a "
            "co-replay with the same trace content share one FleetPlan of build "
            "products, so nothing that builds them may depend on the rank)"
        ),
    ),
    Rule(
        name="one-group-table",
        # A call, not the class statement or a mention in prose.
        pattern=re.compile(r"(?<!class )\b(?:ProcessGroup|GroupTable)\("),
        roots=("src/repro",),
        exempt=("src/repro/torchsim/distributed.py",),
        message=(
            "ProcessGroup or GroupTable constructed outside torchsim/distributed.py "
            "(resolve groups through a world's table, dist.groups; a co-replay's "
            "tables are its rendezvous's group_tables)"
        ),
    ),
    Rule(
        name="one-hook-dispatch",
        pattern=re.compile(r"\bfor\b.*\bin\s+(?:context|self)\.hooks\b"),
        roots=("src/repro",),
        exempt=("src/repro/core/pipeline.py",),
        message=(
            "replay hooks iterated outside core/pipeline.py (dispatch lifecycle "
            "events through ReplayContext.notify and per-op events through "
            "ReplayContext.emit_op_replayed)"
        ),
    ),
    Rule(
        name="index-values-bypass",
        pattern=re.compile(r"\.generate\("),
        roots=("src/repro",),
        exempt=("src/repro/core/tensors.py",),
        message=(
            "index values generated outside core/tensors.py (materialize them "
            "through repro.core.tensors.index_values, whose process-wide table "
            "generates each payload once, read-only, and hashes it once)"
        ),
    ),
    Rule(
        name="daemon-urlopen",
        pattern=re.compile(r"\burlopen\("),
        roots=("src/repro",),
        message=(
            "urlopen() called in the package (it opens a connection per request; "
            "talk to the daemon through DaemonClient, which keeps one HTTP/1.1 "
            "connection per thread alive)"
        ),
    ),
    Rule(
        name="no-unused-imports",
        pattern=None,
        roots=("src/repro",),
        scan=unused_imports,
        message=(
            "module-level import binds a name the module never reads (delete it, "
            "or mark an import kept for its side effect with # noqa)"
        ),
    ),
)


def find_offenders(root: Path = Path(".")) -> Dict[str, List[str]]:
    """Scan the tree under ``root``; rule name -> ``file:line: text`` hits."""
    offenders: Dict[str, List[str]] = {}
    for rule in RULES:
        exempt_files = {root / path for path in rule.exempt if not path.endswith("/")}
        exempt_dirs = [root / path for path in rule.exempt if path.endswith("/")]
        for scan_root in rule.roots:
            base = root / scan_root
            if base.is_file():
                paths = [base]
            elif base.is_dir():
                paths = sorted(base.rglob("*.py"))
            else:
                continue
            for path in paths:
                if path in exempt_files:
                    continue
                if any(directory in path.parents for directory in exempt_dirs):
                    continue
                text = path.read_text()
                lines = text.splitlines()
                if rule.scan is not None:
                    hits = rule.scan(text)
                else:
                    hits = [
                        lineno
                        for lineno, line in enumerate(lines, start=1)
                        if rule.pattern.search(line)
                    ]
                for lineno in hits:
                    offenders.setdefault(rule.name, []).append(
                        f"{path}:{lineno}: {lines[lineno - 1].strip()}"
                    )
    return offenders


def main() -> int:
    if not Path("src").is_dir():
        print("check_deprecated_usage: run from the repository root", file=sys.stderr)
        return 2
    offenders = find_offenders()
    if offenders:
        messages = {rule.name: rule.message for rule in RULES}
        for name, hits in sorted(offenders.items()):
            print(f"{messages[name]}:", file=sys.stderr)
            for hit in hits:
                print(f"  {hit}", file=sys.stderr)
        return 1
    rule_count = len({rule.name for rule in RULES})
    print(f"check_deprecated_usage: OK ({rule_count} rules, no offenders)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
