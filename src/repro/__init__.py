"""TunIO reproduction: an AI-powered framework for optimizing HPC I/O.

Reproduces Rajesh et al., *TunIO: An AI-powered Framework for Optimizing
HPC I/O* (IPDPS 2024) as a self-contained Python library:

* :mod:`repro.core` -- TunIO itself: the Table I API
  (:class:`~repro.core.api.TunIO`), the Smart Configuration Generation
  and Early Stopping agents, the TunIO tuning pipeline, offline
  training, and the perf/RoTI metrics.
* :mod:`repro.discovery` -- Application I/O Discovery: C source ->
  I/O kernel slicing with loop reduction and I/O path switching.
* :mod:`repro.iostack` -- the simulated HDF5/MPI-IO/Lustre stack that
  stands in for the paper's Cori testbed.
* :mod:`repro.workloads` -- VPIC, FLASH, HACC, MACSio and BD-CATS
  behavioural models plus their C sources.
* :mod:`repro.ga` / :mod:`repro.rl` -- the evolutionary-algorithm and
  reinforcement-learning substrates (DEAP / Keras+Gym stand-ins).
* :mod:`repro.tuners` -- the HSTuner baseline, stopping strategies and
  lifecycle analysis.
* :mod:`repro.analysis` -- one experiment runner per paper figure.

Quickstart::

    from repro import (
        IOStackSimulator, NoiseModel, cori, PerfNormalizer,
        train_seeded_agents, build_tunio, flash,
    )

    agents = train_seeded_agents(seed=0)
    platform = cori(n_nodes=4)
    sim = IOStackSimulator(platform, NoiseModel(seed=0))
    normalizer = PerfNormalizer.for_platform(platform)
    tuner = build_tunio(sim, agents, normalizer)
    result = tuner.tune(flash(), max_iterations=50)
    print(result.best_perf, result.total_minutes, result.best_config)
"""

from repro.core import (
    PerfNormalizer,
    TuningOutcome,
    TuningSpec,
    tune_application,
    TunIO,
    TunIOTuner,
    TuningSession,
    build_tunio,
    roti,
    roti_curve,
    train_seeded_agents,
    train_tunio_agents,
)
from repro.discovery import (
    DiscoveryOptions,
    IOKernel,
    IOPathSwitching,
    LoopReduction,
    discover_io,
)
from repro.iostack import (
    TUNED_SPACE,
    IOStackSimulator,
    NoiseModel,
    StackConfiguration,
    cori,
)
from repro.tuners import (
    HeuristicStopper,
    HSTuner,
    NoStop,
    TuningResult,
)
from repro.workloads import (
    Workload,
    bdcats,
    flash,
    hacc,
    macsio_vpic_dipole,
    vpic,
)

__version__ = "1.0.0"

__all__ = [
    "PerfNormalizer",
    "TuningOutcome",
    "TuningSpec",
    "tune_application",
    "TunIO",
    "TunIOTuner",
    "TuningSession",
    "build_tunio",
    "roti",
    "roti_curve",
    "train_seeded_agents",
    "train_tunio_agents",
    "DiscoveryOptions",
    "IOKernel",
    "IOPathSwitching",
    "LoopReduction",
    "discover_io",
    "TUNED_SPACE",
    "IOStackSimulator",
    "NoiseModel",
    "StackConfiguration",
    "cori",
    "HeuristicStopper",
    "HSTuner",
    "NoStop",
    "TuningResult",
    "Workload",
    "bdcats",
    "flash",
    "hacc",
    "macsio_vpic_dipole",
    "vpic",
    "__version__",
]
