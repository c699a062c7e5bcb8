"""IOR-style parameterised benchmark workload.

IOR is the standard parallel-I/O benchmark: every rank moves
``block_size`` bytes in ``transfer_size`` chunks, either to one shared
file or to a file per process, writing and/or reading back.  It is the
natural probe for the simulator's access-mode axes that the application
workloads exercise only partially -- in particular file-per-process
(which sidesteps shared-file lock contention entirely, at the price of
metadata pressure) versus single-shared-file.
"""

from __future__ import annotations

from repro.iostack.phase import IOPhase
from repro.iostack.requests import MetadataStream, RequestStream
from repro.iostack.units import MiB

from .base import Workload

__all__ = ["ior"]


def ior(
    n_procs: int = 128,
    n_nodes: int = 4,
    block_size: int = 256 * MiB,
    transfer_size: int = 2 * MiB,
    file_per_process: bool = False,
    read_back: bool = True,
    n_segments: int = 4,
    interleave: float = 0.6,
) -> Workload:
    """Build an IOR-like workload.

    Parameters mirror IOR's ``-b`` (block size per rank), ``-t``
    (transfer size), ``-F`` (file per process), ``-r`` (read back) and
    ``-s`` (segments).
    """
    if block_size <= 0 or transfer_size <= 0 or n_segments < 1:
        raise ValueError("block_size, transfer_size and n_segments must be positive")
    if transfer_size > block_size:
        raise ValueError("transfer_size cannot exceed block_size")

    transfers_per_block = block_size // transfer_size
    ops_per_segment = transfers_per_block * n_procs

    def segment_phase(name: str, segments: int, meta_scale: float) -> IOPhase:
        streams = [
            RequestStream.uniform(
                "write",
                transfer_size,
                ops_per_segment * segments,
                n_procs,
                shared_file=not file_per_process,
                contiguity=0.95,
                interleave=0.0 if file_per_process else interleave,
            )
        ]
        if read_back:
            streams.append(
                RequestStream.uniform(
                    "read",
                    transfer_size,
                    ops_per_segment * segments,
                    n_procs,
                    shared_file=not file_per_process,
                    contiguity=0.95,
                    interleave=0.0 if file_per_process else interleave,
                )
            )
        # FPP creates one file per rank: much heavier metadata.
        meta_per_segment = (n_procs * 6 if file_per_process else n_procs * 2) + 8
        meta = MetadataStream(
            total_ops=round(meta_per_segment * segments * meta_scale),
            n_procs=n_procs,
            per_proc_redundant=not file_per_process,
            write_fraction=0.6 if file_per_process else 0.3,
        )
        return IOPhase(
            name=name,
            compute_seconds=0.0,
            data=tuple(streams),
            metadata=meta,
            chunked=False,
        )

    blocks = [segment_phase("segment_first", 1, meta_scale=1.5)]
    if n_segments > 1:
        blocks.append(segment_phase("segment_steady", n_segments - 1, meta_scale=1.0))

    mode = "fpp" if file_per_process else "shared"
    return Workload(
        name=f"ior-{mode}",
        n_procs=n_procs,
        n_nodes=n_nodes,
        phases=tuple(blocks),
    )
