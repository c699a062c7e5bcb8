"""HACC-IO: the checkpoint kernel of the HACC cosmology code.

HACC checkpoints nine per-particle variables (xx, yy, zz, vx, vy, vz,
phi, pid, mask -- 38 bytes/particle).  Each rank writes its full particle
population as one very large contiguous record per variable into a
shared file.  Requests are big and per-rank regions barely interleave,
so HACC is primarily sensitive to striping (spreading the file over
OSTs) and alignment; collective buffering adds little beyond its shuffle
cost once requests are already large -- giving the tuner a genuinely
different response surface from FLASH.
"""

from __future__ import annotations

from repro.iostack.phase import IOPhase
from repro.iostack.requests import MetadataStream, RequestStream

from .base import Workload

__all__ = ["hacc", "BYTES_PER_PARTICLE"]

#: xx..vz as float (24) + phi float (4) + pid int64 (8) + mask uint16 (2).
BYTES_PER_PARTICLE = 38

_N_VARIABLES = 9


def hacc(
    n_procs: int = 128,
    n_nodes: int = 4,
    particles_per_proc: int = 4_000_000,
    n_checkpoints: int = 12,
    compute_seconds_per_checkpoint: float = 5.0,
) -> Workload:
    """Build the HACC-IO workload."""
    if particles_per_proc <= 0 or n_checkpoints < 1:
        raise ValueError("particles_per_proc and n_checkpoints must be positive")

    # One contiguous record per variable per rank; sizes are proportional
    # to each variable's width but the mean is what the model consumes.
    record_bytes = particles_per_proc * BYTES_PER_PARTICLE // _N_VARIABLES

    def ckpt_phase(name: str, cycles: int, meta_scale: float) -> IOPhase:
        stream = RequestStream.uniform(
            "write",
            record_bytes,
            _N_VARIABLES * n_procs * cycles,
            n_procs,
            shared_file=True,
            contiguity=0.95,
            interleave=0.35,
            collective_capable=True,
        )
        meta = MetadataStream(
            total_ops=round((_N_VARIABLES * 2 + 8) * n_procs * cycles * meta_scale),
            n_procs=n_procs,
            per_proc_redundant=True,
            write_fraction=0.35,
        )
        return IOPhase(
            name=name,
            compute_seconds=compute_seconds_per_checkpoint * cycles,
            data=(stream,),
            metadata=meta,
            # Contiguous layout: HACC records are not chunked.
            chunked=False,
        )

    blocks = [ckpt_phase("hacc_checkpoint_first", 1, meta_scale=1.5)]
    if n_checkpoints > 1:
        blocks.append(ckpt_phase("hacc_checkpoint_steady", n_checkpoints - 1, meta_scale=1.0))

    return Workload(
        name="hacc-io",
        n_procs=n_procs,
        n_nodes=n_nodes,
        phases=tuple(blocks),
    )
