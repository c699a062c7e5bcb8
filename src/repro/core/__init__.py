"""TunIO: the paper's primary contribution.

The three components (Application I/O Discovery lives in
:mod:`repro.discovery`; this package adds the two RL agents and the
pipeline), the Table I API facade, the perf/RoTI metrics and the offline
training phase.
"""

from .api import TunIO
from .early_stopping import (
    EarlyStoppingAgent,
    EarlyStoppingConfig,
    GuardedStopper,
    OfflineTrainingReport,
    RLStopper,
)
from .objective import PerfNormalizer
from .offline_training import (
    SweepResult,
    TunIOAgents,
    impact_from_sweeps,
    load_agents,
    parameter_sweep,
    pretrain_subset_picker,
    save_agents,
    train_tunio_agents,
)
from .pipeline import TunIOTuner, TuningSession, build_tunio, make_tuner
from .roti import RoTICurve, roti, roti_curve
from .spec import TuningOutcome, TuningSpec, tune_application
from .smart_config import GuardedSubsetPicker, SmartConfigAgent, SmartConfigSettings

__all__ = [
    "TunIO",
    "EarlyStoppingAgent",
    "EarlyStoppingConfig",
    "GuardedStopper",
    "OfflineTrainingReport",
    "RLStopper",
    "PerfNormalizer",
    "SweepResult",
    "TunIOAgents",
    "impact_from_sweeps",
    "load_agents",
    "parameter_sweep",
    "pretrain_subset_picker",
    "save_agents",
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
    "GuardedSubsetPicker",
    "SmartConfigAgent",
    "SmartConfigSettings",
]
