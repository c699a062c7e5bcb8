#!/usr/bin/env python3
"""Tune your own application: build a custom workload and compare
stopping strategies on it.

Demonstrates the library surface a downstream user needs:

* describing an application's I/O with :class:`DumpSpec` (or raw
  request streams for full control);
* probing single parameters against the simulator;
* running HSTuner with different stoppers and comparing outcomes.
"""

import numpy as np

from repro import (
    HeuristicStopper,
    HSTuner,
    IOStackSimulator,
    NoiseModel,
    NoStop,
    StackConfiguration,
    cori,
)
from repro.iostack.units import MiB
from repro.workloads import DumpSpec, build_dump_workload


def main() -> None:
    # A climate-model-like proxy: 64 ranks dump 16 MiB each every 50
    # simulated seconds, with some log chatter.
    spec = DumpSpec(
        name="climate-proxy",
        n_procs=64,
        n_nodes=2,
        n_dumps=24,
        bytes_per_proc_per_dump=16 * MiB,
        writes_per_proc_per_dump=12,
        compute_seconds_per_dump=50.0,
        log_lines_per_proc_per_dump=1.0,
        interleave=0.5,
        contiguity=0.7,
        chunk_size=MiB,
        working_set_per_proc=16 * MiB,
    )
    workload = build_dump_workload(spec)
    platform = cori(workload.n_nodes)
    simulator = IOStackSimulator(platform, NoiseModel(seed=11))

    print("== single-parameter probes (what matters for this app?) ==")
    default = StackConfiguration.default()
    base = simulator.evaluate(workload, default).perf_mbps
    print(f"default: {base / 1000:.2f} GB/s")
    for name, value in (
        ("striping_factor", 64),
        ("romio_collective", True),
        ("alignment", 4 * MiB),
        ("sieve_buf_size", 16 * MiB),
    ):
        perf = simulator.evaluate(workload, default.with_values(**{name: value})).perf_mbps
        print(f"{name}={value!s:9s}: {perf / 1000:.2f} GB/s ({perf / base:.2f}x)")

    print("\n== tuning with different stoppers ==")
    for stopper in (NoStop(), HeuristicStopper()):
        tuner = HSTuner(simulator, stopper=stopper, rng=np.random.default_rng(7))
        result = tuner.tune(workload, max_iterations=30)
        print(
            f"{stopper.name:18s}: {result.best_perf / 1000:.2f} GB/s "
            f"in {result.total_minutes:7.1f} simulated min "
            f"({len(result.history)} iterations, {result.stop_reason})"
        )
        print(f"{'':20s}changed: {sorted(result.best_config.changed_parameters())}")


if __name__ == "__main__":
    main()
