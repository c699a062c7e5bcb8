"""TunIO: the paper's primary contribution.

The three components (Application I/O Discovery lives in
:mod:`repro.discovery`; this package adds the two RL agents and the
pipeline), the Table I API facade, the perf/RoTI metrics and the offline
training phase.
"""

from .api import TunIO
from .early_stopping import (
    EarlyStoppingAgent,
    OfflineTrainingReport,
    RLStopper,
)
from .objective import PerfNormalizer
from .offline_training import (
    SweepResult,
    TunIOAgents,
    agent_arrays,
    agents_from_arrays,
    impact_from_sweeps,
    load_agents,
    parameter_sweep,
    pretrain_subset_picker,
    save_agents,
    train_seeded_agents,
    train_tunio_agents,
)
from .pipeline import TunIOTuner, TuningSession, build_tunio, make_tuner
from .roti import RoTICurve, roti, roti_curve
from .spec import TuningOutcome, TuningSpec, tune_application
from .smart_config import SmartConfigAgent

__all__ = [
    "TunIO",
    "EarlyStoppingAgent",
    "OfflineTrainingReport",
    "RLStopper",
    "PerfNormalizer",
    "SweepResult",
    "TunIOAgents",
    "agent_arrays",
    "agents_from_arrays",
    "impact_from_sweeps",
    "load_agents",
    "parameter_sweep",
    "pretrain_subset_picker",
    "save_agents",
    "train_seeded_agents",
    "train_tunio_agents",
    "TunIOTuner",
    "TuningSession",
    "build_tunio",
    "make_tuner",
    "TuningOutcome",
    "TuningSpec",
    "tune_application",
    "RoTICurve",
    "roti",
    "roti_curve",
    "SmartConfigAgent",
]
