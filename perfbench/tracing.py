"""Spans recorded around calls into the program's layers.

The benchmark never edits the program: it replaces a layer's public
function, at the name its caller looks up, with a wrapper that records a
span (name, start, end, parent span) and calls the original.  Spans stay
in memory while the run lasts and are written out when it ends.  A
layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Sequence

__all__ = [
    "NULL_TRACER",
    "Patches",
    "SpanSummary",
    "Tracer",
    "covered_length",
    "self_times",
    "summarize",
]

#: One recorded span: ``[name, start, end, parent index or -1]``.
Span = list


class Tracer:
    """Records nested spans and named counters in memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_return: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped so every call records a span named ``name``;
        ``on_return`` sees each result (to count what the call did)."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def observe(
        self, fn: Callable[..., Any], on_return: Callable[[Any], None]
    ) -> Callable[..., Any]:
        """``fn`` wrapped to hand each result to ``on_return``, without a
        span (for calls too small to time, like a cache lookup)."""

        @functools.wraps(fn)
        def observed(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            on_return(result)
            return result

        return observed

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def write(self, path: str) -> None:
        """Write every span as one JSON line (index, name, start, end,
        parent), followed by the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start,
                         "end": end, "parent": parent},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


class _NullTracer:
    """The untraced run's tracer: no spans, no counters."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.nullcontext:
        return self._null

    def count(self, name: str, amount: float = 1) -> None:
        pass


NULL_TRACER = _NullTracer()


class Patches:
    """Attribute replacements that are undone on exit.

    ``replace(owner, name, make)`` swaps ``owner.name`` for
    ``make(original)``; leaving the ``with`` block restores every
    original, so untraced passes run the unmodified program.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        max(0.0, (end - start) - covered_length(children.get(i, ()), start, end))
        for i, (_name, start, end, _parent) in enumerate(spans)
    ]


@dataclass(frozen=True)
class SpanSummary:
    """Per span name: how many calls, their total and their self time."""

    calls: int
    total_s: float
    self_s: float


def summarize(spans: Sequence[Span]) -> dict[str, SpanSummary]:
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for (name, start, end, _parent), self_s in zip(spans, self_times(spans)):
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
    return {name: SpanSummary(calls[name], total[name], own[name]) for name in calls}
