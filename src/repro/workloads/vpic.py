"""VPIC-IO: the I/O kernel of the VPIC plasma-physics code.

VPIC writes particle data at fixed timestep intervals: eight single-
precision properties per particle (x, y, z, ux, uy, uz, i, q), each as a
1-D HDF5 dataset in a single shared file per timestep.  Every process
owns a contiguous slab of each dataset, so individual H5Dwrite calls are
large and contiguous but adjacent ranks' slabs interleave at dataset
granularity.  Metadata traffic is light (one dataset create per property
per step plus redundant per-rank opens).

Defaults match the paper's component-test scale (4 Cori nodes, 128
processes) with 8 M particles per process -- ~32 GiB per timestep across
the job.
"""

from __future__ import annotations

from repro.iostack.phase import IOPhase
from repro.iostack.requests import MetadataStream, RequestStream
from repro.iostack.units import MiB

from .base import Workload

__all__ = ["vpic", "N_PROPERTIES"]

#: Particle properties VPIC dumps (x, y, z, ux, uy, uz, i, q).
N_PROPERTIES = 8

#: Bytes per property value (single precision / 32-bit int).
_VALUE_BYTES = 4


def vpic(
    n_procs: int = 128,
    n_nodes: int = 4,
    particles_per_proc: int = 8_000_000,
    n_steps: int = 10,
    compute_seconds_per_step: float = 4.0,
) -> Workload:
    """Build the VPIC-IO workload.

    Parameters mirror the benchmark's knobs; ``compute_seconds_per_step``
    is small because VPIC-IO is already an extracted I/O kernel (the
    paper uses it as offline-training input, not as a discovery target).
    """
    if particles_per_proc <= 0 or n_steps <= 0:
        raise ValueError("particles_per_proc and n_steps must be positive")

    slab_bytes = particles_per_proc * _VALUE_BYTES  # one property, one rank
    writes_per_step = N_PROPERTIES * n_procs
    meta_per_step = N_PROPERTIES * 2 + n_procs  # creates + redundant opens

    def step_phase(name: str, steps: int) -> IOPhase:
        stream = RequestStream.uniform(
            "write",
            slab_bytes,
            writes_per_step * steps,
            n_procs,
            shared_file=True,
            contiguity=0.9,
            interleave=0.25,
            collective_capable=True,
        )
        meta = MetadataStream(
            total_ops=meta_per_step * steps,
            n_procs=n_procs,
            per_proc_redundant=True,
            write_fraction=0.4,
        )
        return IOPhase(
            name=name,
            compute_seconds=compute_seconds_per_step * steps,
            data=(stream,),
            metadata=meta,
            chunked=True,
            chunk_size=4 * MiB,
            working_set_per_proc=slab_bytes,
        )

    blocks = [step_phase("particle_dump_first", 1)]
    if n_steps > 1:
        blocks.append(step_phase("particle_dump_steady", n_steps - 1))

    return Workload(
        name="vpic-io",
        n_procs=n_procs,
        n_nodes=n_nodes,
        phases=tuple(blocks),
    )
