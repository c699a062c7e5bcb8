"""Application I/O phases.

A workload is a sequence of :class:`IOPhase` objects.  Each phase bundles
the compute time that precedes its I/O, the data request streams it
issues, the metadata traffic, and the HDF5 dataset layout information the
HDF5 layer model needs (chunking).  Phases are already aggregated over
loop iterations: a checkpoint loop of 100 steps appears as one phase whose
streams carry 100 steps' worth of operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .requests import MetadataStream, RequestStream

__all__ = ["IOPhase"]


@dataclass(frozen=True)
class IOPhase:
    """One compute-then-I/O phase of an application run.

    Attributes
    ----------
    name:
        Label for reports ("checkpoint", "analysis_read", "logging"...).
    compute_seconds:
        Wall-clock compute time in this phase (not overlapped with I/O).
    data:
        The data request streams the phase issues.
    metadata:
        Metadata traffic, or ``None`` for pure data phases.
    chunked:
        Whether the HDF5 datasets written/read here use chunked layout.
    chunk_size:
        Chunk size in bytes (only meaningful when ``chunked``).
    working_set_per_proc:
        Bytes of distinct chunks a process touches before revisiting one;
        drives chunk-cache hit modelling.
    tier:
        Storage tier the phase targets: ``"lustre"`` (default) or
        ``"memory"`` after I/O path switching.
    """

    name: str
    compute_seconds: float
    data: tuple[RequestStream, ...]
    metadata: MetadataStream | None = None
    chunked: bool = False
    chunk_size: int = 0
    working_set_per_proc: int = 0
    tier: str = "lustre"

    def __post_init__(self) -> None:
        if self.compute_seconds < 0:
            raise ValueError("compute_seconds must be >= 0")
        if self.chunked and self.chunk_size <= 0:
            raise ValueError("chunked phases need a positive chunk_size")
        if self.tier not in ("lustre", "memory"):
            raise ValueError(f"unknown tier {self.tier!r}")
        object.__setattr__(self, "data", tuple(self.data))

    # -- derived totals ---------------------------------------------------------
    # Computed on first use and kept: every trace of the phase reads them.

    @cached_property
    def bytes_written(self) -> int:
        return sum(s.total_bytes for s in self.data if s.op == "write")

    @cached_property
    def bytes_read(self) -> int:
        return sum(s.total_bytes for s in self.data if s.op == "read")

    @cached_property
    def write_ops(self) -> int:
        return sum(s.total_ops for s in self.data if s.op == "write")

    @cached_property
    def read_ops(self) -> int:
        return sum(s.total_ops for s in self.data if s.op == "read")
