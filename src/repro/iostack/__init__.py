"""Simulated HPC I/O stack: parameters, configurations, layer models,
platform descriptions and the run simulator.

This package is the reproduction's substitute for the paper's physical
testbed (Cori + Lustre + HDF5/MPI-IO).  See DESIGN.md section 2 for the
substitution rationale.
"""

from .clock import SimulatedClock
from .cluster import Platform, cori
from .config import StackConfiguration, from_xml, to_xml
from .evalcache import EvaluationCache
from .faults import (
    AGENT_FAULT_MODES,
    DegradedWindow,
    EvaluationError,
    EvaluationTimeout,
    FaultPlan,
    PoisonedConfigError,
    TransientFaultError,
    config_digest,
)
from .noise import NoiseModel
from .parameters import (
    LIBRARY_CATALOG,
    TUNED_SPACE,
    ConstraintContext,
    ConstraintRegistry,
    ConstraintViolation,
    DivisibilityConstraint,
    LibraryCatalog,
    Parameter,
    ParameterSpace,
    UpperBoundConstraint,
    default_constraints,
    stack_permutations,
)
from .phase import IOPhase
from .requests import MAX_SAMPLE, MetadataStream, RequestStream
from .simulator import (
    EvaluationResult,
    IOStackSimulator,
    PhaseTrace,
    StackTrace,
    StreamTrace,
    WorkloadLike,
)

__all__ = [
    "SimulatedClock",
    "Platform",
    "cori",
    "StackConfiguration",
    "from_xml",
    "to_xml",
    "NoiseModel",
    "LIBRARY_CATALOG",
    "TUNED_SPACE",
    "LibraryCatalog",
    "Parameter",
    "ParameterSpace",
    "stack_permutations",
    "ConstraintContext",
    "ConstraintRegistry",
    "ConstraintViolation",
    "UpperBoundConstraint",
    "DivisibilityConstraint",
    "default_constraints",
    "IOPhase",
    "MAX_SAMPLE",
    "MetadataStream",
    "RequestStream",
    "EvaluationResult",
    "IOStackSimulator",
    "StackTrace",
    "PhaseTrace",
    "StreamTrace",
    "WorkloadLike",
    "EvaluationCache",
    "AGENT_FAULT_MODES",
    "DegradedWindow",
    "EvaluationError",
    "EvaluationTimeout",
    "FaultPlan",
    "PoisonedConfigError",
    "TransientFaultError",
    "config_digest",
]
