"""Size and time units used throughout the I/O stack simulator.

All byte quantities in the simulator are plain integers (bytes); all
durations are floats in seconds unless a function name says otherwise
(e.g. :func:`seconds_to_minutes`).  Bandwidths are bytes/second except at
reporting boundaries, where :func:`bytes_per_sec_to_mb_per_sec` converts to
the MB/s the paper quotes.
"""

from __future__ import annotations

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

US = 1e-6
MS = 1e-3
MINUTE = 60.0


def bytes_per_sec_to_mb_per_sec(value: float) -> float:
    """Convert a bandwidth in bytes/second to MB/s (decimal megabytes)."""
    return value / MB


def seconds_to_minutes(value: float) -> float:
    """Convert a duration in seconds to minutes."""
    return value / MINUTE
