"""BD-CATS: parallel DBSCAN clustering over particle datasets.

BD-CATS analyses the particle output of codes like VPIC: it *reads* the
particle properties (the bulk of its I/O), spends significant time in
the clustering computation (kd-tree build + union-find), and *writes*
back a cluster label per particle (a small fraction of the bytes read).
The paper's end-to-end pipeline test (Figures 11-12) runs it at 500 Cori
nodes / 1600 processes, the scale where untuned metadata storms and
1-OST default striping are most punishing.

Reads dominate (alpha is small), so tuning this workload exercises the
read path: sieve buffers, stripe spreading and collective read
buffering, with no extent-lock contention on the read side.
"""

from __future__ import annotations

from repro.iostack.phase import IOPhase
from repro.iostack.requests import MetadataStream, RequestStream
from repro.iostack.units import MiB

from .base import Workload

__all__ = ["bdcats"]

#: Particle properties read (x, y, z, ux, uy, uz -- BD-CATS clusters in
#: phase space).
_READ_VARS = 6
_VALUE_BYTES = 4
#: Bytes written per particle: one int32 cluster label.
_LABEL_BYTES = 4


def bdcats(
    n_procs: int = 1600,
    n_nodes: int = 500,
    particles_per_proc: int = 8_000_000,
    n_snapshots: int = 2,
    compute_seconds_per_snapshot: float = 120.0,
) -> Workload:
    """Build the BD-CATS workload (``n_snapshots`` clustering passes over
    successive simulation snapshots, as in production use)."""
    if particles_per_proc <= 0 or n_snapshots < 1:
        raise ValueError("particles_per_proc and n_snapshots must be positive")

    read_slab = particles_per_proc * _VALUE_BYTES  # one variable, one rank
    write_slab = particles_per_proc * _LABEL_BYTES

    def snapshot_phase(name: str, snaps: int, meta_scale: float) -> IOPhase:
        reads = RequestStream.uniform(
            "read",
            read_slab,
            _READ_VARS * n_procs * snaps,
            n_procs,
            shared_file=True,
            contiguity=0.9,
            interleave=0.3,
            collective_capable=True,
        )
        writes = RequestStream.uniform(
            "write",
            write_slab,
            n_procs * snaps,
            n_procs,
            shared_file=True,
            contiguity=0.9,
            interleave=0.3,
            collective_capable=True,
        )
        # Every rank opens the snapshot file and reads dataset headers:
        # at 1600 ranks this is the classic redundant-metadata storm.
        meta = MetadataStream(
            total_ops=round(40 * n_procs * snaps * meta_scale),
            n_procs=n_procs,
            per_proc_redundant=True,
            write_fraction=0.15,
        )
        return IOPhase(
            name=name,
            compute_seconds=compute_seconds_per_snapshot * snaps,
            data=(reads, writes),
            metadata=meta,
            chunked=True,
            chunk_size=8 * MiB,
            working_set_per_proc=read_slab,
        )

    blocks = [snapshot_phase("cluster_snapshot_first", 1, meta_scale=1.3)]
    if n_snapshots > 1:
        blocks.append(
            snapshot_phase("cluster_snapshot_steady", n_snapshots - 1, meta_scale=1.0)
        )

    return Workload(
        name="bd-cats",
        n_procs=n_procs,
        n_nodes=n_nodes,
        phases=tuple(blocks),
    )
