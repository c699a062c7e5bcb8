#!/usr/bin/env python3
"""Quickstart: tune FLASH's I/O stack configuration with TunIO.

Walks the whole pipeline on the simulated Cori platform:

1. offline training (parameter sweep on VPIC/FLASH/HACC + PCA, plus the
   log-curve-trained early stopper);
2. TunIO tuning of FLASH (Impact-First subsets + RL early stopping);
3. the tuned configuration, exported as an H5Tuner XML override file.

Runs in well under a minute on a laptop.  All times printed are
*simulated* tuning minutes -- what the run would have cost on the real
machine.
"""

import numpy as np

from repro import (
    IOStackSimulator,
    NoiseModel,
    PerfNormalizer,
    build_tunio,
    cori,
    flash,
    train_seeded_agents,
)
from repro.iostack import to_xml


def main() -> None:
    rng = np.random.default_rng(0)
    platform = cori(n_nodes=4)
    simulator = IOStackSimulator(platform, NoiseModel(seed=0))
    normalizer = PerfNormalizer.for_platform(platform)

    print("== offline training (sweeps + PCA + log-curve RL) ==")
    agents = train_seeded_agents(seed=0)
    ranked = agents.smart_config.ranked_parameters()
    print(f"impact ranking: {', '.join(ranked[:5])}, ...")

    print("\n== tuning FLASH with TunIO ==")
    tuner = build_tunio(simulator, agents, normalizer, rng=rng)
    result = tuner.tune(flash(), max_iterations=50)

    print(f"untuned perf : {result.baseline_perf / 1000:.2f} GB/s")
    for record in result.history:
        mark = "  <- stopped here" if record.iteration == result.stopped_at else ""
        print(
            f"iter {record.iteration:2d}: best {record.best_perf / 1000:.2f} GB/s, "
            f"{record.elapsed_minutes:7.1f} simulated min, "
            f"subset of {len(record.tuned_parameters):2d}{mark}"
        )
    print(
        f"\ntuned perf   : {result.best_perf / 1000:.2f} GB/s "
        f"({result.best_perf / result.baseline_perf:.1f}x) "
        f"after {result.total_minutes:.0f} simulated minutes "
        f"({result.total_evaluations} evaluations)"
    )

    print("\n== H5Tuner override file for the winning configuration ==")
    print(to_xml(result.best_config))


if __name__ == "__main__":
    main()
