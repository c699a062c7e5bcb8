#!/usr/bin/env python3
"""End-to-end pipeline on BD-CATS at 500 nodes (the paper's Figure 11/12
scenario).

Discovers BD-CATS's I/O kernel from source, tunes it with TunIO, applies
the found configuration to the full application, and derives the
lifecycle viability analysis: after how many production runs does the
tuning investment pay for itself?
"""

import numpy as np

from repro import (
    DiscoveryOptions,
    IOStackSimulator,
    NoiseModel,
    PerfNormalizer,
    StackConfiguration,
    build_tunio,
    cori,
    discover_io,
    train_seeded_agents,
)
from repro.discovery import workload_from_source
from repro.tuners.lifecycle import lifecycle_model, untuned_model, viability_point
from repro.workloads.sources import canonical_hints, load_source


def main() -> None:
    hints = canonical_hints("bdcats")
    source = load_source("bdcats")

    print("== discovering BD-CATS's I/O kernel ==")
    kernel = discover_io(source, "bdcats", DiscoveryOptions(hints=hints))
    kernel_workload = kernel.to_workload()
    app = workload_from_source(kernel.original_source, "bdcats-app", hints)
    print(
        f"kept {kernel.kept_line_count}/{kernel.original_line_count} lines; "
        f"kernel drops {app.compute_seconds:.0f} s of clustering compute per run"
    )

    platform = cori(app.n_nodes)
    simulator = IOStackSimulator(platform, NoiseModel(seed=1))
    normalizer = PerfNormalizer.for_platform(platform, app.n_nodes)

    print("\n== offline training + TunIO tuning of the kernel ==")
    # Agents are trained at component scale, then transferred, as in the
    # paper (VPIC/FLASH/HACC are the representative kernels).
    agents = train_seeded_agents(seed=2)
    tuner = build_tunio(simulator, agents, normalizer, rng=np.random.default_rng(4))
    result = tuner.tune(kernel_workload, max_iterations=50)
    print(
        f"TunIO stopped after {len(result.history)} iterations "
        f"({result.total_minutes:.0f} simulated minutes, {result.stop_reason})"
    )

    print("\n== applying the configuration to the full application ==")
    default = StackConfiguration.default()
    base = simulator.evaluate(app, default)
    tuned = simulator.evaluate(app, result.best_config)
    print(f"untuned: {base.perf_mbps / 1000:8.2f} GB/s ({base.charged_seconds / 60:.0f} min/run)")
    print(f"tuned  : {tuned.perf_mbps / 1000:8.2f} GB/s ({tuned.charged_seconds / 60:.0f} min/run)")
    print("changed parameters:", result.best_config.changed_parameters())

    print("\n== lifecycle viability (Figure 12) ==")
    tuned_model = lifecycle_model(simulator, app, result, name="tunio")
    base_model = untuned_model(simulator, app)
    n = viability_point(tuned_model, base_model)
    print(
        f"tuning cost {tuned_model.tuning_minutes:.0f} min up front, "
        f"saves {base_model.run_minutes - tuned_model.run_minutes:.1f} min per run"
    )
    print(f"-> tuning pays for itself after {n} production executions")


if __name__ == "__main__":
    main()
