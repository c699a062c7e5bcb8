"""Benchmark-suite configuration.

Every figure benchmark runs its experiment exactly once
(``benchmark.pedantic(rounds=1)``): these are end-to-end experiment
regenerations whose value is the printed rows/series and the shape
assertions, not statistical timing.  Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows each figure's table as the paper reports it.
"""

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run an experiment once under the benchmark clock and return its
    result object."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
