"""Structured run tracing: the Darshan-style event recorder.

:class:`TraceRecorder` appends schema-versioned JSONL events (see
:mod:`.events`) to a file or file-like sink; :class:`NullRecorder` is
the no-op default every pipeline component carries, so healthy untraced
runs pay one attribute check per potential event and stay bit-identical
to pre-observability builds.

Recorders are *pure observers*: they never draw randomness, never touch
the simulated clock, and are never read back during a run.  The only
state they carry is the output handle and a sequence counter.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, IO, Iterator, Protocol, runtime_checkable

import numpy as np

from .events import SCHEMA_VERSION, validate_event

__all__ = [
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "TraceRecorder",
    "read_trace",
    "iter_trace",
]


@runtime_checkable
class Recorder(Protocol):
    """What the pipeline needs from a recorder."""

    enabled: bool

    def emit(self, event: str, **fields: Any) -> None: ...

    def bind_clock(self, clock: Any) -> None: ...


class NullRecorder:
    """The default recorder: does nothing, costs nothing.

    ``enabled`` is False so hot paths can skip building event payloads
    entirely (``if recorder.enabled: recorder.emit(...)``).
    """

    enabled = False

    def emit(self, event: str, **fields: Any) -> None:
        """Drop the event."""

    def bind_clock(self, clock: Any) -> None:
        """Nothing to bind."""

    def flush(self) -> None:
        """Nothing buffered."""

    def close(self) -> None:
        """Nothing open."""


#: Shared no-op instance (stateless, safe to share across tuners).
NULL_RECORDER = NullRecorder()


def _jsonable(obj: Any) -> Any:
    """JSON fallback for numpy scalars/arrays and other sequence types
    that show up in event payloads."""
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (set, frozenset, tuple)):
        return list(obj)
    raise TypeError(f"cannot serialise {type(obj).__name__} into a trace event")


class TraceRecorder:
    """Appends one JSON object per event to a JSONL sink.

    Parameters
    ----------
    sink:
        A path (opened for writing, parent directories created) or an
        open text file-like object (not closed by :meth:`close`).
    clock:
        Optional simulated clock; every event then carries
        ``sim_minutes``.  Tuners bind their own clock via
        :meth:`bind_clock` when a run starts.
    """

    enabled = True

    def __init__(self, sink: str | os.PathLike | IO[str], clock: Any = None):
        if isinstance(sink, (str, os.PathLike)):
            path = os.fspath(sink)
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            self._fh: IO[str] = open(path, "w", encoding="utf-8")
            self._owns_fh = True
            self.path: str | None = path
        else:
            self._fh = sink
            self._owns_fh = False
            self.path = getattr(sink, "name", None)
        self.clock = clock
        self._seq = 0
        self._t0 = time.perf_counter()
        self._closed = False

    def bind_clock(self, clock: Any) -> None:
        """Stamp subsequent events with ``clock.elapsed_minutes``."""
        self.clock = clock

    def emit(self, event: str, **fields: Any) -> None:
        """Append one event.  Emitting after :meth:`close` is a no-op so
        late stragglers (a cache still carrying this recorder) cannot
        crash a finished run."""
        if self._closed:
            return
        self._seq += 1
        record: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "event": event,
            "seq": self._seq,
            "wall_s": round(time.perf_counter() - self._t0, 6),
        }
        clock = self.clock
        if clock is not None:
            record["sim_minutes"] = clock.elapsed_minutes
        record.update(fields)
        self._fh.write(
            json.dumps(record, separators=(",", ":"), default=_jsonable) + "\n"
        )

    def flush(self) -> None:
        if not self._closed:
            self._fh.flush()

    def close(self) -> None:
        """Flush and (when the recorder opened the sink) close it."""
        if self._closed:
            return
        self._closed = True
        self._fh.flush()
        if self._owns_fh:
            self._fh.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def iter_trace(path: str | os.PathLike) -> Iterator[dict[str, Any]]:
    """Yield validated events from a trace file, in order.

    Tolerates a torn trailing line (a run killed mid-write) by stopping
    there; anything else undecodable raises :class:`ValueError` with the
    offending line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                if line.endswith("\n"):
                    raise ValueError(
                        f"{os.fspath(path)}:{lineno}: undecodable trace line"
                    ) from None
                return  # torn final line: the run was killed mid-write
            validate_event(record)
            yield record


def read_trace(path: str | os.PathLike) -> list[dict[str, Any]]:
    """All events of a trace file as a list (see :func:`iter_trace`)."""
    return list(iter_trace(path))
