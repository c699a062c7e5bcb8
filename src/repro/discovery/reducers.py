"""Kernel reducers: optional source-to-source transforms applied after
reconstruction.

The paper ships two ("they are optional to apply -- a null reduction
step could be used instead"; here that is an empty reducer tuple):

* :class:`LoopReduction` -- run only a percentage of the iterations of
  loops containing I/O, recording the scale factor so "the scalable
  metrics for that I/O are then multiplied by the loop reductions".
  Loops whose reduced trip count would not shrink are left alone
  ("whenever the loop iterations are too small to reduce, loop reduction
  will not be able to do anything").  Only the outermost I/O loop is
  reduced, and the recorded extrapolation factor is the *achieved*
  reduction (original/kept iterations), so byte extrapolation stays
  accurate even when ``ceil`` rounds the kept count up.
* :class:`IOPathSwitching` -- prepend every opened path with a
  memory-backed prefix (``/dev/shm``) so evaluations avoid slow storage.

One of the paper's future-work transforms is also provided:

* :class:`BlindWriteRemoval` -- drop H5Dwrite calls to datasets that are
  never read back within the kernel.

Each reducer returns a new source plus typed records describing what it
changed; the records drive metric extrapolation in the harness.
"""

from __future__ import annotations

import abc
import math
import re
from dataclasses import dataclass

from .constants import ConstantEnv
from .formatter import format_source
from .parser import LineKind, ParsedSource, parse_source

__all__ = [
    "ReductionRecord",
    "PathSwitchRecord",
    "BlindWriteRecord",
    "ReducerOutcome",
    "Reducer",
    "LoopReduction",
    "IOPathSwitching",
    "BlindWriteRemoval",
]


@dataclass(frozen=True)
class ReductionRecord:
    """One reduced loop."""

    line_index: int
    variable: str
    original_iterations: int
    reduced_iterations: int

    @property
    def scale(self) -> float:
        """Multiplier to extrapolate this loop's metrics back up."""
        return self.original_iterations / self.reduced_iterations


@dataclass(frozen=True)
class PathSwitchRecord:
    """One redirected file path."""

    line_index: int
    original: str
    switched: str


@dataclass(frozen=True)
class BlindWriteRecord:
    """One removed blind write."""

    line_index: int
    dataset_variable: str


@dataclass(frozen=True)
class ReducerOutcome:
    """Transformed source plus what changed."""

    source: str
    reductions: tuple[ReductionRecord, ...] = ()
    path_switches: tuple[PathSwitchRecord, ...] = ()
    removed_writes: tuple[BlindWriteRecord, ...] = ()
    #: Multiplier for scalable I/O metrics: :class:`LoopReduction`
    #: records the achieved reduction (original/kept iterations, e.g.
    #: 85x when 1% of an 85-iteration loop keeps one iteration).
    extrapolation_factor: float = 1.0


class Reducer(abc.ABC):
    """A source-to-source kernel transform."""

    @abc.abstractmethod
    def apply(self, source: str) -> ReducerOutcome:
        """Transform ``source`` (already formatted or not) and report."""


# Matches `for (init ; VAR < BOUND ; update)` capturing the three parts.
_FOR_RE = re.compile(
    r"^(\s*for\s*\()\s*(?P<init>[^;]*);\s*(?P<var>\w+)\s*(?P<op><=?)\s*(?P<bound>[^;]+);(?P<update>[^)]*)(\)\s*)$"
)


class LoopReduction(Reducer):
    """Shrink I/O-loop trip counts to ``fraction`` of the original.

    Only loops that (transitively) contain an I/O call are touched; the
    bound must resolve to an integer constant through the kernel's
    ``#define`` table.
    """

    def __init__(self, fraction: float, io_prefixes: tuple[str, ...] = ("H5",)):
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction
        self.io_prefixes = io_prefixes

    def apply(self, source: str) -> ReducerOutcome:
        formatted = format_source(source)
        parsed = parse_source(formatted)
        env = ConstantEnv.from_parsed(parsed)
        io_loops = self._loops_containing_io(parsed)

        lines = [line.text for line in parsed.lines]
        records: list[ReductionRecord] = []
        for idx in io_loops:
            match = _FOR_RE.match(lines[idx])
            if match is None:
                continue
            bound_expr = match.group("bound").strip()
            bound = env.try_resolve(bound_expr)
            if bound is None:
                continue
            iterations = bound + 1 if match.group("op") == "<=" else bound
            if iterations <= 0:
                continue
            reduced = max(1, math.ceil(iterations * self.fraction))
            if reduced >= iterations:
                continue  # too small to reduce
            new_bound = str(reduced) if match.group("op") == "<" else str(reduced - 1)
            lines[idx] = (
                f"{match.group(1)}{match.group('init')}; {match.group('var')} "
                f"{match.group('op')} {new_bound};{match.group('update')}) "
                f"/* tunio:loop-reduced {iterations}->{reduced} */"
            )
            records.append(
                ReductionRecord(
                    line_index=idx,
                    variable=match.group("var"),
                    original_iterations=iterations,
                    reduced_iterations=reduced,
                )
            )

        if records:
            total_orig = sum(r.original_iterations for r in records)
            total_red = sum(r.reduced_iterations for r in records)
            factor = total_orig / total_red
        else:
            factor = 1.0
        return ReducerOutcome(
            source="\n".join(lines) + "\n",
            reductions=tuple(records),
            extrapolation_factor=factor,
        )

    def _loops_containing_io(self, parsed: ParsedSource) -> list[int]:
        """Outermost FOR loops that (transitively) contain an I/O call.

        Only the outermost loop is reduced: shrinking nested loops too
        would compound the reduction and make extrapolation ambiguous.
        """
        loops: set[int] = set()
        for line in parsed.lines:
            if not any(c.name.startswith(self.io_prefixes) for c in line.calls):
                continue
            outermost: int | None = None
            for header_idx in parsed.enclosing_headers(line.index):
                if parsed.lines[header_idx].kind == LineKind.FOR:
                    outermost = header_idx
            if outermost is not None:
                loops.add(outermost)
        return sorted(loops)


#: Calls whose first string argument is a file path to switch.
_PATH_OPENING_CALLS = ("H5Fcreate", "H5Fopen", "fopen", "open", "MPI_File_open")


class IOPathSwitching(Reducer):
    """Prepend every opened path with a memory-backed prefix."""

    def __init__(self, prefix: str = "/dev/shm"):
        if not prefix or not prefix.startswith("/"):
            raise ValueError("prefix must be an absolute path")
        self.prefix = prefix.rstrip("/")

    def apply(self, source: str) -> ReducerOutcome:
        formatted = format_source(source)
        parsed = parse_source(formatted)
        lines = [line.text for line in parsed.lines]
        records: list[PathSwitchRecord] = []
        for line in parsed.lines:
            for call in line.calls:
                if call.name not in _PATH_OPENING_CALLS or not call.string_args:
                    continue
                original = call.string_args[0]
                if original.startswith(self.prefix):
                    continue
                switched = f"{self.prefix}/{original.lstrip('/')}"
                lines[line.index] = lines[line.index].replace(
                    f'"{original}"', f'"{switched}"', 1
                )
                records.append(
                    PathSwitchRecord(
                        line_index=line.index, original=original, switched=switched
                    )
                )
        return ReducerOutcome(
            source="\n".join(lines) + "\n", path_switches=tuple(records)
        )


class BlindWriteRemoval(Reducer):
    """Remove ``H5Dwrite`` calls on datasets that are never read back.

    A dataset variable is "read back" when it also appears in an
    ``H5Dread`` call.  This is one of the paper's future-work source
    transforms; it trades kernel fidelity (written bytes drop) for
    evaluation speed, so it is off by default everywhere.
    """

    def apply(self, source: str) -> ReducerOutcome:
        formatted = format_source(source)
        parsed = parse_source(formatted)
        read_datasets: set[str] = set()
        for line in parsed.lines:
            for call in line.calls:
                if call.name == "H5Dread" and call.arg_idents:
                    read_datasets.add(call.arg_idents[0])
        keep: list[str] = []
        records: list[BlindWriteRecord] = []
        for line in parsed.lines:
            write_call = next(
                (c for c in line.calls if c.name == "H5Dwrite" and c.arg_idents), None
            )
            if write_call is not None and write_call.arg_idents[0] not in read_datasets:
                records.append(
                    BlindWriteRecord(
                        line_index=line.index,
                        dataset_variable=write_call.arg_idents[0],
                    )
                )
                continue
            keep.append(line.text)
        return ReducerOutcome(
            source="\n".join(keep) + "\n", removed_writes=tuple(records)
        )

