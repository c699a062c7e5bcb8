"""Workload model generation: static interpretation of (kernel) sources.

The paper compiles the generated I/O kernel and runs it on the real
machine.  In this reproduction the "machine" is the stack simulator, so
"compiling" a source means statically interpreting it into a
:class:`~repro.workloads.base.Workload`: loop trip counts and dataset
sizes are resolved through the ``#define`` table, HDF5 calls become
request/metadata streams, plain C loops become a compute-time estimate,
and ``fprintf``/``fwrite`` chatter becomes the non-collective logging
stream.  Both the original application source and every kernel variant
go through this same interpreter, so their simulated behaviours differ
exactly where their sources differ -- which is what the Figure 8
fidelity experiments measure.

Static analysis cannot know run-layout facts that are not in the source
(process count, file-access interleaving, chunking); those come in as
:class:`ModelHints`, mirroring the "options" argument of the paper's
``discover_io`` API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
import numpy as np

from repro.iostack.phase import IOPhase
from repro.iostack.requests import MAX_SAMPLE, MetadataStream, RequestStream
from repro.iostack.units import MiB

from repro.workloads.base import Workload

from .constants import ConstantEnv
from .formatter import format_source
from .parser import CallInfo, LineKind, ParsedSource, SourceLine, parse_source

__all__ = ["ModelHints", "workload_from_source", "ModelGenError"]


class ModelGenError(ValueError):
    """The source cannot be interpreted into a workload."""


#: HDF5 native type name -> element size in bytes.
_H5_TYPE_SIZES = {
    "H5T_NATIVE_CHAR": 1,
    "H5T_NATIVE_SCHAR": 1,
    "H5T_NATIVE_UCHAR": 1,
    "H5T_NATIVE_SHORT": 2,
    "H5T_NATIVE_USHORT": 2,
    "H5T_NATIVE_INT": 4,
    "H5T_NATIVE_UINT": 4,
    "H5T_NATIVE_LONG": 8,
    "H5T_NATIVE_ULONG": 8,
    "H5T_NATIVE_LLONG": 8,
    "H5T_NATIVE_FLOAT": 4,
    "H5T_NATIVE_DOUBLE": 8,
    "H5T_NATIVE_INT32": 4,
    "H5T_NATIVE_INT64": 8,
    "H5T_NATIVE_UINT16": 2,
}

#: HDF5 calls that are metadata operations (object management).
_H5_METADATA_CALLS = frozenset(
    """
    H5Fcreate H5Fopen H5Fclose H5Dcreate2 H5Dcreate H5Dopen2 H5Dopen H5Dclose
    H5Gcreate2 H5Gopen2 H5Gclose H5Acreate2 H5Awrite H5Aread H5Aclose
    H5Screate_simple H5Sclose H5Pcreate H5Pclose H5Dset_extent
    """.split()
)


@dataclass(frozen=True)
class ModelHints:
    """Run-layout facts the source alone cannot provide."""

    n_procs: int = 128
    n_nodes: int = 4
    #: File-access character of the HDF5 data writes/reads.
    interleave: float = 0.3
    contiguity: float = 0.8
    shared_file: bool = True
    chunked: bool = True
    chunk_size: int = MiB
    working_set_per_proc: int = 64 * MiB
    #: Seconds per executed compute-statement (the static cost model).
    statement_cost: float = 2e-9
    #: Paths under these prefixes are served by the memory tier.
    memory_prefixes: tuple[str, ...] = ("/dev/shm", "/tmp/shm")

    def __post_init__(self) -> None:
        if self.n_procs < 1 or self.n_nodes < 1 or self.n_procs < self.n_nodes:
            raise ValueError("invalid job shape")
        if self.statement_cost < 0:
            raise ValueError("statement_cost must be >= 0")


@dataclass
class _Event:
    """One interpreted I/O or compute contribution, per loop iteration."""

    kind: str  # "write" | "read" | "meta" | "log" | "compute"
    #: Bytes per operation (data/log) or seconds (compute).
    size: float
    #: Operations per iteration per process (data/meta/log).
    count: float
    #: Executed only on the loop's first iteration.
    first_only: bool = False
    #: Executed by a single rank (rank-guarded) rather than all.
    single_proc: bool = False


@dataclass
class _LoopModel:
    header_index: int
    iterations: int
    events: list[_Event] = field(default_factory=list)


@dataclass
class _Interp:
    """Interpreter state."""

    parsed: ParsedSource
    env: ConstantEnv
    hints: ModelHints
    arrays: dict[str, list[int]] = field(default_factory=dict)
    spaces: dict[str, int] = field(default_factory=dict)  # space var -> n elements
    datasets: dict[str, tuple[int, int]] = field(default_factory=dict)  # var -> (elements, elt_size)
    file_paths: list[str] = field(default_factory=list)
    top_events: list[_Event] = field(default_factory=list)
    loops: list[_LoopModel] = field(default_factory=list)

    def children(self) -> dict[int | None, list[SourceLine]]:
        by_parent: dict[int | None, list[SourceLine]] = {}
        for line in self.parsed.lines:
            by_parent.setdefault(line.parent, []).append(line)
        return by_parent


def workload_from_source(
    source: str,
    name: str,
    hints: ModelHints | None = None,
    extrapolation_factor: float = 1.0,
) -> Workload:
    """Interpret C source into a :class:`Workload`.

    ``extrapolation_factor`` is carried through from the reducer pipeline
    (see :class:`repro.discovery.kernel.IOKernel`).
    """
    hints = hints or ModelHints()
    formatted = format_source(source)
    parsed = parse_source(formatted)
    if "main" not in parsed.functions:
        raise ModelGenError("source has no main() function")
    env = ConstantEnv.from_parsed(parsed)
    interp = _Interp(parsed=parsed, env=env, hints=hints)

    children = interp.children()
    main = parsed.functions["main"]
    body = [
        l
        for l in children.get(main.head, [])
        if l.kind not in (LineKind.BRACE_OPEN, LineKind.BRACE_CLOSE, LineKind.BLANK)
    ]
    _walk_block(interp, body, children, loop=None, first_only=False, single_proc=False)

    return _assemble(interp, name, extrapolation_factor)


# ---------------------------------------------------------------------------
# interpretation
# ---------------------------------------------------------------------------


def _walk_block(
    interp: _Interp,
    statements: list[SourceLine],
    children: dict[int | None, list[SourceLine]],
    loop: _LoopModel | None,
    first_only: bool,
    single_proc: bool,
) -> None:
    for line in statements:
        if line.kind in (LineKind.BRACE_OPEN, LineKind.BRACE_CLOSE, LineKind.BLANK,
                         LineKind.DIRECTIVE, LineKind.RETURN):
            continue
        if line.kind == LineKind.FOR:
            _walk_for(interp, line, children, loop, first_only, single_proc)
            continue
        if line.kind in (LineKind.IF, LineKind.ELSE, LineKind.WHILE, LineKind.DO):
            guard_first, guard_single = _analyse_guard(interp, line, loop)
            body = _body_of(line, children)
            _walk_block(
                interp,
                body,
                children,
                loop,
                first_only or guard_first,
                single_proc or guard_single,
            )
            continue
        # Ordinary statement: track state, then record events.
        _track_state(interp, line)
        _record_events(interp, line, loop, first_only, single_proc)


def _body_of(header: SourceLine, children: dict[int | None, list[SourceLine]]) -> list[SourceLine]:
    return [
        l
        for l in children.get(header.index, [])
        if l.kind not in (LineKind.BRACE_OPEN, LineKind.BRACE_CLOSE, LineKind.BLANK)
    ]


def _walk_for(
    interp: _Interp,
    header: SourceLine,
    children: dict[int | None, list[SourceLine]],
    outer_loop: _LoopModel | None,
    first_only: bool,
    single_proc: bool,
) -> None:
    trips, loop_var = _trip_count(interp, header)
    body = _body_of(header, children)

    contains_io = _contains_h5_data_call(interp, header, children)
    if contains_io and outer_loop is None:
        loop = _LoopModel(header_index=header.index, iterations=trips)
        interp.loops.append(loop)
        _walk_loop_body(interp, body, children, loop, loop_var, single_proc)
        return

    if contains_io and outer_loop is not None:
        # Nested I/O loop: multiply into the outer loop's events.
        scaled = _LoopModel(header_index=header.index, iterations=trips)
        _walk_loop_body(interp, body, children, scaled, loop_var, single_proc)
        for ev in scaled.events:
            outer_loop.events.append(
                replace(
                    ev,
                    count=ev.count * (1 if ev.first_only else trips),
                    first_only=first_only,
                )
            )
        return

    # Pure compute loop: one aggregate compute event.
    n_statements = _count_statements(body, children)
    inner_trips = _nested_trip_product(interp, body, children)
    seconds = trips * inner_trips * n_statements * interp.hints.statement_cost
    target = outer_loop.events if outer_loop is not None else interp.top_events
    target.append(
        _Event(
            kind="compute",
            size=seconds,
            count=1.0,
            first_only=first_only,
            single_proc=single_proc,
        )
    )


def _walk_loop_body(
    interp: _Interp,
    body: list[SourceLine],
    children: dict[int | None, list[SourceLine]],
    loop: _LoopModel,
    loop_var: str | None,
    single_proc: bool,
) -> None:
    """Walk the body of an I/O loop, tagging first-iteration-only work."""
    for line in body:
        if line.kind in (LineKind.BRACE_OPEN, LineKind.BRACE_CLOSE, LineKind.BLANK,
                         LineKind.DIRECTIVE, LineKind.RETURN):
            continue
        if line.kind == LineKind.FOR:
            _walk_for(interp, line, children, loop, False, single_proc)
            continue
        if line.kind in (LineKind.IF, LineKind.ELSE, LineKind.WHILE, LineKind.DO):
            guard_first, guard_single = _analyse_guard(interp, line, loop, loop_var)
            _walk_block(
                interp,
                _body_of(line, children),
                children,
                loop,
                guard_first,
                single_proc or guard_single,
            )
            continue
        _track_state(interp, line)
        _record_events(interp, line, loop, False, single_proc)


def _analyse_guard(
    interp: _Interp,
    header: SourceLine,
    loop: _LoopModel | None,
    loop_var: str | None = None,
) -> tuple[bool, bool]:
    """Classify an if/while condition: (first-iteration-only, single-rank).

    Recognises ``if (VAR == CONST)`` where VAR is the enclosing loop
    variable (first-only when CONST resolves to the loop start) and
    ``if (rank == CONST)`` (single-rank).
    """
    text = header.text
    lpar, rpar = text.find("("), text.rfind(")")
    if lpar == -1 or rpar == -1:
        return False, False
    cond = text[lpar + 1 : rpar]
    if "==" not in cond:
        return False, False
    lhs, _, rhs = cond.partition("==")
    lhs, rhs = lhs.strip(), rhs.strip()
    if interp.env.try_resolve(rhs) is None:
        return False, False
    if loop_var is not None and lhs == loop_var:
        return True, False
    if lhs in ("rank", "mpi_rank", "my_rank", "myrank"):
        return False, True
    return False, False


def _trip_count(interp: _Interp, header: SourceLine) -> tuple[int, str | None]:
    """Resolve a for-header's trip count; unresolvable loops count as 1."""
    text = header.text
    lpar, rpar = text.find("("), text.rfind(")")
    if lpar == -1 or rpar == -1:
        return 1, None
    parts = text[lpar + 1 : rpar].split(";")
    if len(parts) != 3:
        return 1, None
    init, cond, update = (p.strip() for p in parts)

    var: str | None = None
    start = 0
    if "=" in init:
        var_part, _, start_expr = init.partition("=")
        var = var_part.replace("int", "").replace("long", "").strip()
        start = interp.env.try_resolve(start_expr.strip()) or 0

    step = 1
    if "+=" in update:
        step = interp.env.try_resolve(update.partition("+=")[2].strip()) or 1

    for op in ("<=", "<"):
        if op in cond:
            bound_expr = cond.partition(op)[2].strip()
            bound = interp.env.try_resolve(bound_expr)
            if bound is None:
                return 1, var
            if op == "<=":
                bound += 1
            trips = max(0, math.ceil((bound - start) / max(1, step)))
            return max(1, trips), var
    return 1, var


def _contains_h5_data_call(
    interp: _Interp, header: SourceLine, children: dict[int | None, list[SourceLine]]
) -> bool:
    """Whether any HDF5 call (data or metadata) occurs under a header --
    the same "loop contains I/O" notion the loop reducer uses."""
    stack = [header.index]
    while stack:
        idx = stack.pop()
        for line in children.get(idx, ()):
            if any(c.name.startswith("H5") for c in line.calls):
                return True
            stack.append(line.index)
    return False


def _count_statements(body: list[SourceLine], children: dict[int | None, list[SourceLine]]) -> int:
    total = 0
    stack = list(body)
    while stack:
        line = stack.pop()
        if line.kind in (LineKind.DECL, LineKind.EXPR):
            total += 1
        stack.extend(_body_of(line, children))
    return max(1, total)


def _nested_trip_product(
    interp: _Interp, body: list[SourceLine], children: dict[int | None, list[SourceLine]]
) -> int:
    """Product of nested compute-loop trip counts (depth-first max path)."""
    best = 1
    for line in body:
        if line.kind == LineKind.FOR:
            trips, _ = _trip_count(interp, line)
            inner = _nested_trip_product(interp, _body_of(line, children), children)
            best = max(best, trips * inner)
    return best


def _track_state(interp: _Interp, line: SourceLine) -> None:
    """Update arrays / dataspaces / datasets / constants from one line."""
    env, text = interp.env, line.text

    # Array initialiser: `hsize_t dims[2] = { A, B };`
    if line.kind == LineKind.DECL and "[" in text and "{" in text and "=" in text:
        name = text.split("[", 1)[0].split()[-1].lstrip("*")
        inner = text[text.find("{") + 1 : text.rfind("}")]
        values = [env.try_resolve(p.strip()) for p in inner.split(",") if p.strip()]
        if all(v is not None for v in values) and values:
            interp.arrays[name] = [int(v) for v in values]  # type: ignore[arg-type]

    # Array element assignment: `dims[0] = N;`
    elif "[" in text and "=" in text and line.kind == LineKind.EXPR:
        head, _, rhs = text.partition("=")
        if "[" in head and "]" in head:
            name = head.split("[", 1)[0].strip()
            idx = env.try_resolve(head[head.find("[") + 1 : head.find("]")])
            val = env.try_resolve(rhs.strip(" ;"))
            if name in interp.arrays and idx is not None and val is not None:
                arr = interp.arrays[name]
                if 0 <= idx < len(arr):
                    arr[int(idx)] = int(val)

    # Scalar constant: `int n = 8;` / `n = n * 2;`
    elif "=" in text and line.kind in (LineKind.DECL, LineKind.EXPR) and not line.calls:
        head, _, rhs = text.partition("=")
        name = head.split()[-1].lstrip("*") if head.split() else ""
        val = env.try_resolve(rhs.strip(" ;"))
        if name.isidentifier() and val is not None:
            env.define(name, val)

    for call in line.calls:
        if call.name == "H5Screate_simple":
            _track_dataspace(interp, line, call)
        elif call.name in ("H5Dcreate2", "H5Dcreate", "H5Dopen2", "H5Dopen"):
            _track_dataset(interp, line, call)
        elif call.name in ("H5Fcreate", "H5Fopen", "fopen", "MPI_File_open"):
            if call.string_args:
                interp.file_paths.append(call.string_args[0])


def _assigned_var(line: SourceLine) -> str | None:
    if "=" not in line.text:
        return None
    head = line.text.partition("=")[0].split()
    return head[-1].lstrip("*") if head else None


def _track_dataspace(interp: _Interp, line: SourceLine, call: CallInfo) -> None:
    var = _assigned_var(line)
    if var is None:
        return
    dims_var = next((a for a in call.arg_idents if a in interp.arrays), None)
    if dims_var is None:
        return
    ndims = interp.env.try_resolve(
        line.text[line.text.find("(") + 1 :].split(",", 1)[0]
    )
    dims = interp.arrays[dims_var]
    if ndims is not None:
        dims = dims[: int(ndims)]
    interp.spaces[var] = int(np.prod(dims)) if dims else 0


def _track_dataset(interp: _Interp, line: SourceLine, call: CallInfo) -> None:
    var = _assigned_var(line)
    if var is None:
        return
    elt = next((_H5_TYPE_SIZES[a] for a in call.arg_idents if a in _H5_TYPE_SIZES), 8)
    space = next((interp.spaces[a] for a in call.arg_idents if a in interp.spaces), 0)
    interp.datasets[var] = (space, elt)


def _record_events(
    interp: _Interp,
    line: SourceLine,
    loop: _LoopModel | None,
    first_only: bool,
    single_proc: bool,
) -> None:
    target = loop.events if loop is not None else interp.top_events
    for call in line.calls:
        if call.name in ("H5Dwrite", "H5Dread"):
            size = _transfer_bytes(interp, call)
            target.append(
                _Event(
                    kind="write" if call.name == "H5Dwrite" else "read",
                    size=size,
                    count=1.0,
                    first_only=first_only,
                    single_proc=single_proc,
                )
            )
        elif call.name in _H5_METADATA_CALLS:
            target.append(
                _Event(
                    kind="meta",
                    size=0.0,
                    count=1.0,
                    first_only=first_only,
                    single_proc=single_proc,
                )
            )
        elif call.name in ("usleep", "sleep"):
            # An explicit sleep in the source (user code passed to
            # tune_application may contain one) is compute time.
            text = line.text
            arg = text[text.find("(") + 1 : text.find(")")]
            value = interp.env.try_resolve(arg.strip())
            if value is not None:
                seconds = value * (1e-6 if call.name == "usleep" else 1.0)
                target.append(
                    _Event(kind="compute", size=float(seconds), count=1.0,
                           first_only=first_only, single_proc=single_proc)
                )
        elif call.name == "fprintf":
            # Log line cost ~ the format string length (plus newline).
            size = float(len(call.string_args[0]) + 8) if call.string_args else 64.0
            target.append(
                _Event(kind="log", size=size, count=1.0, first_only=first_only,
                       single_proc=single_proc)
            )
        elif call.name == "fwrite":
            text = line.text
            args = text[text.find("(") + 1 : text.rfind(")")].split(",")
            size = cnt = None
            if len(args) >= 3:
                size = interp.env.try_resolve(args[1].strip())
                cnt = interp.env.try_resolve(args[2].strip())
            total = float((size or 64) * (cnt or 1))
            target.append(
                _Event(kind="log", size=total, count=1.0, first_only=first_only,
                       single_proc=single_proc)
            )


def _transfer_bytes(interp: _Interp, call: CallInfo) -> float:
    """Bytes moved by one H5Dwrite/H5Dread call (per process)."""
    elt = next((_H5_TYPE_SIZES[a] for a in call.arg_idents if a in _H5_TYPE_SIZES), None)
    # Prefer an explicit memory dataspace among the args.
    space = next((interp.spaces[a] for a in call.arg_idents if a in interp.spaces), None)
    if space is None:
        dset = next((interp.datasets[a] for a in call.arg_idents if a in interp.datasets), None)
        if dset is not None:
            space, dset_elt = dset
            elt = elt if elt is not None else dset_elt
    if space is None or space == 0:
        space = MiB  # fallback: unknown selection, assume 1 MiB of elements
        elt = 1
    return float(space * (elt or 8))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _assemble(interp: _Interp, name: str, extrapolation_factor: float) -> Workload:
    hints = interp.hints
    memory_tier = bool(interp.file_paths) and all(
        p.startswith(hints.memory_prefixes) for p in interp.file_paths
    )
    tier = "memory" if memory_tier else "lustre"

    # Phase order is setup, logging, then each loop's first/steady
    # blocks: replay accumulates per-phase times in this order.
    fixed: list[IOPhase] = []
    loop_blocks: list[IOPhase] = []
    log_events: list[_Event] = []

    # Top-level (setup/finalise) events become one fixed phase.
    top_data = [e for e in interp.top_events if e.kind in ("write", "read")]
    top_meta = [e for e in interp.top_events if e.kind == "meta"]
    top_compute = sum(e.size for e in interp.top_events if e.kind == "compute")
    log_events.extend(e for e in interp.top_events if e.kind == "log")
    if top_data or top_meta or top_compute > 0:
        phase = _phase_from_events(
            "setup", top_data, top_meta, top_compute, 1, hints, tier
        )
        if phase is not None:
            fixed.append(phase)

    for i, loop in enumerate(interp.loops):
        per_iter = [e for e in loop.events if not e.first_only]
        first_extra = [e for e in loop.events if e.first_only]
        log_events.extend(
            replace(e, count=e.count * (1 if e.first_only else loop.iterations))
            for e in loop.events
            if e.kind == "log"
        )
        data_iter = [e for e in per_iter if e.kind in ("write", "read")]
        meta_iter = [e for e in per_iter if e.kind == "meta"]
        compute_iter = sum(e.size for e in per_iter if e.kind == "compute")
        data_first = [e for e in first_extra if e.kind in ("write", "read")]
        meta_first = [e for e in first_extra if e.kind == "meta"]
        compute_first = sum(e.size for e in first_extra if e.kind == "compute")

        first = _phase_from_events(
            f"loop{i}_first",
            data_iter + data_first,
            meta_iter + meta_first,
            compute_iter + compute_first,
            1,
            hints,
            tier,
        )
        if first is not None:
            loop_blocks.append(first)
        if loop.iterations > 1:
            steady = _phase_from_events(
                f"loop{i}_steady", data_iter, meta_iter, compute_iter,
                loop.iterations - 1, hints, tier,
            )
            if steady is not None:
                loop_blocks.append(steady)

    log_phase = _logging_phase(log_events, hints, tier)
    if log_phase is not None:
        fixed.append(log_phase)

    if not fixed and not loop_blocks:
        raise ModelGenError(f"source {name!r} produced no I/O or compute events")

    return Workload(
        name=name,
        n_procs=hints.n_procs,
        n_nodes=hints.n_nodes,
        phases=(*fixed, *loop_blocks),
        extrapolation_factor=extrapolation_factor,
    )


def _proc_count(event: _Event, hints: ModelHints) -> int:
    return 1 if event.single_proc else hints.n_procs


def _phase_from_events(
    name: str,
    data: list[_Event],
    meta: list[_Event],
    compute_seconds: float,
    iterations: int,
    hints: ModelHints,
    tier: str,
) -> IOPhase | None:
    streams: list[RequestStream] = []
    for op in ("write", "read"):
        events = [e for e in data if e.kind == op]
        if not events:
            continue
        total_ops = int(round(sum(e.count * _proc_count(e, hints) for e in events) * iterations))
        total_bytes = int(round(sum(e.size * e.count * _proc_count(e, hints) for e in events) * iterations))
        if total_ops <= 0 or total_bytes <= 0:
            continue
        sizes = _size_sample(events, hints)
        streams.append(
            RequestStream(
                op=op,  # type: ignore[arg-type]
                sizes=sizes,
                total_ops=total_ops,
                total_bytes=total_bytes,
                n_procs=hints.n_procs,
                shared_file=hints.shared_file,
                contiguity=hints.contiguity,
                interleave=hints.interleave,
                collective_capable=True,
            )
        )
    meta_ops = int(round(sum(e.count * _proc_count(e, hints) for e in meta) * iterations))
    metadata = (
        MetadataStream(total_ops=meta_ops, n_procs=hints.n_procs, per_proc_redundant=True)
        if meta_ops > 0
        else None
    )
    if not streams and metadata is None and compute_seconds <= 0:
        return None
    if not streams and metadata is None:
        # Pure compute phase: no data streams, just wall-clock time.
        return IOPhase(
            name=name,
            compute_seconds=compute_seconds * iterations,
            data=(),
            tier=tier,
        )
    return IOPhase(
        name=name,
        compute_seconds=compute_seconds * iterations,
        data=tuple(streams),
        metadata=metadata,
        chunked=hints.chunked and tier == "lustre",
        chunk_size=hints.chunk_size,
        working_set_per_proc=hints.working_set_per_proc,
        tier=tier,
    )


def _size_sample(events: list[_Event], hints: ModelHints) -> np.ndarray:
    """Representative request-size sample weighted by event counts."""
    weights = np.array([max(1e-9, e.count) for e in events])
    sizes = np.array([max(1.0, e.size) for e in events])
    reps = np.maximum(1, np.round(weights / weights.sum() * min(MAX_SAMPLE, 256)).astype(int))
    return np.repeat(sizes, reps)[:MAX_SAMPLE]


def _logging_phase(
    log_events: list[_Event], hints: ModelHints, tier: str
) -> IOPhase | None:
    if not log_events:
        return None
    total_ops = int(round(sum(e.count * _proc_count(e, hints) for e in log_events)))
    total_bytes = int(round(sum(e.size * e.count * _proc_count(e, hints) for e in log_events)))
    if total_ops <= 0 or total_bytes <= 0:
        return None
    mean = max(1, total_bytes // total_ops)
    return IOPhase(
        name="logging",
        compute_seconds=0.0,
        data=(
            RequestStream.uniform(
                "write",
                mean,
                total_ops,
                hints.n_procs,
                shared_file=False,
                contiguity=1.0,
                interleave=0.0,
                collective_capable=False,
            ),
        ),
        tier=tier,
    )
