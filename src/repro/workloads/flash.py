"""FLASH-IO: the checkpoint/plotfile kernel of the FLASH astrophysics
code.

FLASH-IO writes one checkpoint (24 double-precision "unknown" variables)
and two plotfiles (4 single-precision variables each) per run.  Each
process holds ~80 AMR blocks of 16^3 zones; a variable is written with
one H5Dwrite per process covering that process's block list -- a few MiB
per call, many calls, with block lists from different ranks interleaving
in the file.  The format is metadata-heavy: per-variable attributes,
runtime parameter tables, and tree structure all hit the metadata path
redundantly from every rank, which is why the collective-metadata and
metadata-cache parameters matter for this workload.
"""

from __future__ import annotations

from repro.iostack.phase import IOPhase
from repro.iostack.requests import MetadataStream, RequestStream
from repro.iostack.units import MiB

from .base import Workload

__all__ = ["flash"]

#: Checkpoint unknowns and plotfile variables in FLASH-IO.
_CHECKPOINT_VARS = 24
_PLOTFILE_VARS = 4
_N_PLOTFILES = 2

#: AMR block geometry: 16^3 zones, ~80 blocks per process.
_ZONES_PER_BLOCK = 16**3
_BLOCKS_PER_PROC = 80


def flash(
    n_procs: int = 128,
    n_nodes: int = 4,
    n_checkpoints: int = 8,
    compute_seconds_per_checkpoint: float = 6.0,
) -> Workload:
    """Build the FLASH-IO workload (``n_checkpoints`` checkpoint+plot
    cycles so the tuner has a loop to evaluate against)."""
    if n_checkpoints < 1:
        raise ValueError("n_checkpoints must be >= 1")

    ckpt_var_bytes = _BLOCKS_PER_PROC * _ZONES_PER_BLOCK * 8  # double precision
    plot_var_bytes = _BLOCKS_PER_PROC * _ZONES_PER_BLOCK * 4  # single precision

    def cycle_phase(name: str, cycles: int, extra_meta: float) -> IOPhase:
        ckpt = RequestStream.uniform(
            "write",
            ckpt_var_bytes,
            _CHECKPOINT_VARS * n_procs * cycles,
            n_procs,
            shared_file=True,
            contiguity=0.7,
            interleave=0.55,
            collective_capable=True,
        )
        plots = RequestStream.uniform(
            "write",
            plot_var_bytes,
            _PLOTFILE_VARS * _N_PLOTFILES * n_procs * cycles,
            n_procs,
            shared_file=True,
            contiguity=0.7,
            interleave=0.55,
            collective_capable=True,
        )
        # Attributes + runtime parameters + tree data, redundantly from
        # every rank: the dominant metadata source in FLASH-IO.
        meta = MetadataStream(
            total_ops=round((90 + extra_meta) * n_procs * cycles),
            n_procs=n_procs,
            per_proc_redundant=True,
            write_fraction=0.5,
        )
        return IOPhase(
            name=name,
            compute_seconds=compute_seconds_per_checkpoint * cycles,
            data=(ckpt, plots),
            metadata=meta,
            chunked=True,
            chunk_size=MiB,
            working_set_per_proc=_CHECKPOINT_VARS * ckpt_var_bytes,
        )

    blocks = [cycle_phase("checkpoint_first", 1, extra_meta=40.0)]
    if n_checkpoints > 1:
        blocks.append(cycle_phase("checkpoint_steady", n_checkpoints - 1, extra_meta=0.0))

    return Workload(
        name="flash-io",
        n_procs=n_procs,
        n_nodes=n_nodes,
        phases=tuple(blocks),
    )
