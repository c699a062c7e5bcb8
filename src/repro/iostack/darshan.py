"""Darshan-style I/O characterisation counters.

The paper's fitness function monitors bandwidth "using monitoring hooks
such as Darshan".  :class:`DarshanReport` is the simulator's equivalent: a
per-run record of byte and operation counters at the application level
(what the program asked for) and the POSIX level (what reached storage
after the stack transformed it), plus timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .units import bytes_per_sec_to_mb_per_sec

__all__ = ["DarshanReport", "PhaseRecord"]


@dataclass(frozen=True)
class PhaseRecord:
    """Per-phase slice of a report."""

    name: str
    bytes_written: int
    bytes_read: int
    write_ops: int
    read_ops: int
    io_seconds: float
    meta_seconds: float
    compute_seconds: float


@dataclass
class DarshanReport:
    """Counters for one application run.

    ``app_*`` counters reflect the application's requests; ``posix_*``
    counters reflect the transformed traffic that reached the storage
    tier (post sieving/collective buffering/alignment padding).
    """

    app_bytes_written: int = 0
    app_bytes_read: int = 0
    app_write_ops: int = 0
    app_read_ops: int = 0
    posix_bytes_written: int = 0
    posix_bytes_read: int = 0
    posix_write_ops: int = 0
    posix_read_ops: int = 0
    meta_ops: int = 0
    write_seconds: float = 0.0
    read_seconds: float = 0.0
    meta_seconds: float = 0.0
    compute_seconds: float = 0.0
    overhead_seconds: float = 0.0
    phases: list[PhaseRecord] = field(default_factory=list)

    # -- derived metrics -------------------------------------------------------

    @property
    def io_seconds(self) -> float:
        return self.write_seconds + self.read_seconds

    @property
    def runtime_seconds(self) -> float:
        """End-to-end simulated runtime of the run."""
        return (
            self.compute_seconds
            + self.io_seconds
            + self.meta_seconds
            + self.overhead_seconds
        )

    @property
    def write_bandwidth(self) -> float:
        """Application-level write bandwidth in bytes/s (0 if no writes)."""
        if self.app_bytes_written == 0 or self.write_seconds <= 0:
            return 0.0
        return self.app_bytes_written / self.write_seconds

    @property
    def read_bandwidth(self) -> float:
        """Application-level read bandwidth in bytes/s (0 if no reads)."""
        if self.app_bytes_read == 0 or self.read_seconds <= 0:
            return 0.0
        return self.app_bytes_read / self.read_seconds

    @property
    def write_bandwidth_mbps(self) -> float:
        return bytes_per_sec_to_mb_per_sec(self.write_bandwidth)

    @property
    def read_bandwidth_mbps(self) -> float:
        return bytes_per_sec_to_mb_per_sec(self.read_bandwidth)

    @property
    def alpha(self) -> float:
        """Fraction of transferred bytes that are writes -- the weight in
        the paper's ``perf`` objective."""
        total = self.app_bytes_written + self.app_bytes_read
        if total == 0:
            return 0.0
        return self.app_bytes_written / total

    def record_phase(self, record: PhaseRecord) -> None:
        self.phases.append(record)
