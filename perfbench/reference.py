"""A fixed reference loop that measures how fast the host runs right now.

The benchmark shares a few cores of a host that switches between a fast
and a slow state (about 1.5x apart) every few seconds and drifts over
minutes, without any reported steal time: the core itself runs slower,
so CPU time follows wall time.  The loop is timed just before and just
after every timed step of a round, and the step's time divided by the
loop's is the step's time in units of the loop, which the host's state
mostly cancels out of.  The loop is the benchmark's own code, so a
change to the program does not change it.
"""

from __future__ import annotations

from time import perf_counter, process_time

__all__ = ["reference_seconds"]

#: Sizes of the two parts of the loop (about 4 ms and 10 ms on a fast host).
INTEGER_ITERATIONS = 30_000
RECORDS = 6_000


def _integers() -> None:
    total, table = 0, {}
    for i in range(INTEGER_ITERATIONS):
        total += (i * i) % 7
        table[i & 255] = total


def _records() -> None:
    rows = [{"a": i, "b": (i * 7919) % 1000, "c": str(i)} for i in range(RECORDS)]
    rows.sort(key=lambda r: (r["b"], r["c"]))


def reference_seconds() -> tuple[float, float]:
    """Wall and process CPU seconds of one run of the reference loop:
    the geometric means over an interpreted integer-and-dict loop and
    building and sorting small records.  The geometric mean tracked the
    program's own steps better than either part alone (see README.md,
    Noise)."""
    marks = [(perf_counter(), process_time())]
    for part in (_integers, _records):
        part()
        marks.append((perf_counter(), process_time()))
    (w0, c0), (w1, c1), (w2, c2) = marks
    return ((w1 - w0) * (w2 - w1)) ** 0.5, ((c1 - c0) * (c2 - c1)) ** 0.5
