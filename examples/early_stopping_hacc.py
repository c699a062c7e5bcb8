#!/usr/bin/env python3
"""Early stopping on HACC: TunIO's RL stopper versus the 5%/5-iteration
heuristic (the paper's Figure 10 scenario).

Runs one 50-generation HSTuner tune of HACC, then replays both stopping
policies over the recorded history and compares the bandwidth each
walks away with and its Return on Tuning Investment.
"""

import numpy as np

from repro import (
    HeuristicStopper,
    IOStackSimulator,
    NoiseModel,
    NoStop,
    PerfNormalizer,
    TunIO,
    cori,
    hacc,
    train_seeded_agents,
)
from repro.tuners import HSTuner, first_stop


def main() -> None:
    seed = 8  # the bundled run exhibiting the mid-tuning plateau trap
    platform = cori(4)
    simulator = IOStackSimulator(platform, NoiseModel(seed=seed * 1000 + 100))
    normalizer = PerfNormalizer.for_platform(platform)

    print("== offline-training the early stopper on synthetic log curves ==")
    # Training sweeps a simulator of its own, so the tuning run below
    # sees the same platform weather however much the sweep consumed.
    agents = train_seeded_agents(seed)

    print("== one full 50-generation HACC tune (no stopping) ==")
    tuner = HSTuner(simulator, stopper=NoStop(), rng=np.random.default_rng((seed, 100)))
    full = tuner.tune(hacc(), max_iterations=50)
    series = full.perf_series() / 1000
    print("best GB/s per iteration:")
    print("  " + " ".join(f"{v:.2f}" for v in series))

    # Table I's stop, replayed over the finished history without
    # learning from it.
    rl = TunIO(
        agents.smart_config, agents.early_stopper, normalizer, online_learning=False
    )
    heuristic = HeuristicStopper()

    print(f"\nuntuned: {full.baseline_perf / 1000:.2f} GB/s")
    for name, stop in (("TunIO RL stopper", first_stop(rl, full.history)),
                       ("heuristic 5%/5", first_stop(heuristic, full.history)),
                       ("full budget", len(full.history) - 1)):
        rec = full.history[stop]
        roti = (rec.best_perf - full.baseline_perf) / rec.elapsed_minutes
        print(
            f"{name:18s} stops at iter {rec.iteration:2d}: "
            f"{rec.best_perf / 1000:.2f} GB/s after {rec.elapsed_minutes:6.0f} min "
            f"(RoTI {roti:.2f} MB/s per minute)"
        )


if __name__ == "__main__":
    main()
