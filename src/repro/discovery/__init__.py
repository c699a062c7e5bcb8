"""Application I/O Discovery: slice an HPC application down to its I/O
kernel.

Pipeline: :func:`~repro.discovery.formatter.format_source` (one statement
per line) -> :func:`~repro.discovery.parser.parse_source` (line-level
structure) -> :func:`~repro.discovery.marking.mark_lines` (the marking
loop) -> :func:`~repro.discovery.reconstruct.reconstruct_kernel` ->
optional :mod:`~repro.discovery.reducers` -> an
:class:`~repro.discovery.kernel.IOKernel` that binds to the simulator via
:mod:`~repro.discovery.modelgen`.
"""

from .constants import ConstantEnv, UnresolvableExpression
from .formatter import format_source
from .kernel import DiscoveryOptions, IOKernel, discover_io
from .lexer import LexError, Token, TokenKind, tokenize
from .marking import MarkingOptions, MarkingResult, mark_lines
from .modelgen import ModelGenError, ModelHints, workload_from_source
from .parser import (
    CallInfo,
    FunctionInfo,
    LineKind,
    ParsedSource,
    SourceLine,
    parse_source,
)
from .reconstruct import annotate_source, reconstruct_kernel
from .reducers import (
    BlindWriteRecord,
    BlindWriteRemoval,
    IOPathSwitching,
    LoopReduction,
    PathSwitchRecord,
    Reducer,
    ReducerOutcome,
    ReductionRecord,
)

__all__ = [
    "ConstantEnv",
    "UnresolvableExpression",
    "format_source",
    "DiscoveryOptions",
    "IOKernel",
    "discover_io",
    "LexError",
    "Token",
    "TokenKind",
    "tokenize",
    "MarkingOptions",
    "MarkingResult",
    "mark_lines",
    "ModelGenError",
    "ModelHints",
    "workload_from_source",
    "CallInfo",
    "FunctionInfo",
    "LineKind",
    "ParsedSource",
    "SourceLine",
    "parse_source",
    "annotate_source",
    "reconstruct_kernel",
    "BlindWriteRecord",
    "BlindWriteRemoval",
    "IOPathSwitching",
    "LoopReduction",
    "PathSwitchRecord",
    "Reducer",
    "ReducerOutcome",
    "ReductionRecord",
]
