"""Application workload models: VPIC, FLASH, HACC, MACSio (VPIC-dipole)
and BD-CATS, plus the synthetic dump-workload generator.

Each factory returns a :class:`~repro.workloads.base.Workload`, the
behavioural model the simulator runs.  The matching C sources (for
Application I/O Discovery) live in :mod:`repro.workloads.sources`.
"""

from .base import Workload
from .bdcats import bdcats
from .flash import flash
from .generator import DumpSpec, build_dump_workload
from .hacc import hacc
from .ior import ior
from .macsio import DUMP_LOOP_ITERATIONS, macsio_vpic_dipole
from .vpic import vpic

__all__ = [
    "Workload",
    "bdcats",
    "flash",
    "DumpSpec",
    "build_dump_workload",
    "hacc",
    "ior",
    "DUMP_LOOP_ITERATIONS",
    "macsio_vpic_dipole",
    "vpic",
]
