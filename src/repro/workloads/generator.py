"""Synthetic workload generator (the reproduction's MACSio).

MACSio is "a Multi-purpose, Application-Centric, Scalable I/O proxy
application": it emits configurable dump workloads whose compute:I/O
ratio, dump cadence and request shape can be matched to a real
application.  :class:`DumpSpec`/:func:`build_dump_workload` play the same
role here: they synthesise a :class:`~repro.workloads.base.Workload` from
a declarative description, which :mod:`repro.workloads.macsio` uses to
mimic VPIC-dipole behaviour, and which library users can use directly for
their own proxies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.iostack.phase import IOPhase
from repro.iostack.requests import MetadataStream, RequestStream
from repro.iostack.units import MiB

from .base import Workload

__all__ = ["DumpSpec", "build_dump_workload"]


@dataclass(frozen=True)
class DumpSpec:
    """Declarative description of a dump-loop workload.

    Attributes
    ----------
    name:
        Workload name.
    n_procs, n_nodes:
        Job shape.
    n_dumps:
        Iterations of the main dump loop.
    bytes_per_proc_per_dump:
        Payload each process writes per dump.
    writes_per_proc_per_dump:
        H5Dwrite calls per process per dump (request size follows).
    compute_seconds_per_dump:
        Wall-clock compute preceding each dump.
    first_dump_extra_ops_fraction:
        Extra write operations on the first dump only (file creation,
        coordinate arrays, headers), as a fraction of a steady dump's
        ops.  MACSio and most simulation codes front-load this work.
    log_lines_per_proc_per_dump:
        Small POSIX log writes per process per dump (not HDF5, not
        collective-capable; the "trivial writes" Application I/O
        Discovery drops).
    log_line_bytes:
        Size of one log write.
    read_fraction:
        Bytes read back per dump as a fraction of bytes written (restart
        verification / plot readback); 0 for write-only dumps.
    interleave, contiguity:
        File-access character of the dump writes (see
        :class:`RequestStream`).
    chunked, chunk_size, working_set_per_proc:
        HDF5 dataset layout (see :class:`~repro.iostack.phase.IOPhase`).
    metadata_ops_per_proc_per_dump:
        HDF5 metadata operations per process per dump.
    """

    name: str
    n_procs: int
    n_nodes: int
    n_dumps: int
    bytes_per_proc_per_dump: int
    writes_per_proc_per_dump: int
    compute_seconds_per_dump: float
    first_dump_extra_ops_fraction: float = 0.2
    log_lines_per_proc_per_dump: float = 0.0
    log_line_bytes: int = 96
    read_fraction: float = 0.0
    interleave: float = 0.3
    contiguity: float = 0.8
    chunked: bool = True
    chunk_size: int = MiB
    working_set_per_proc: int = 64 * MiB
    metadata_ops_per_proc_per_dump: float = 16.0

    def __post_init__(self) -> None:
        if self.n_dumps < 1:
            raise ValueError("n_dumps must be >= 1")
        if self.bytes_per_proc_per_dump <= 0 or self.writes_per_proc_per_dump <= 0:
            raise ValueError("dump payload must be positive")
        if not 0.0 <= self.first_dump_extra_ops_fraction <= 2.0:
            raise ValueError("first_dump_extra_ops_fraction out of range")
        if self.read_fraction < 0:
            raise ValueError("read_fraction must be >= 0")


def build_dump_workload(spec: DumpSpec) -> Workload:
    """Materialise a :class:`Workload` from a :class:`DumpSpec`.

    The dump loop becomes a heavier ``dump_first`` block and a
    ``dump_steady`` block for the remaining dumps.  Logging becomes one
    ``logging`` phase placed ahead of the dump blocks; it is not HDF5
    I/O, so the source slicer of Application I/O Discovery leaves it out
    of the generated kernel.
    """
    s = spec
    request_size = max(1, s.bytes_per_proc_per_dump // s.writes_per_proc_per_dump)

    def dump_phase(name: str, n_dumps: int, ops_scale: float) -> IOPhase:
        write_ops = max(1, round(s.writes_per_proc_per_dump * s.n_procs * n_dumps * ops_scale))
        data = [
            RequestStream.uniform(
                "write",
                request_size,
                write_ops,
                s.n_procs,
                shared_file=True,
                contiguity=s.contiguity,
                interleave=s.interleave,
                collective_capable=True,
            )
        ]
        if s.read_fraction > 0:
            read_bytes = int(s.bytes_per_proc_per_dump * s.n_procs * n_dumps * s.read_fraction)
            read_ops = max(1, round(write_ops * s.read_fraction))
            data.append(
                RequestStream.uniform(
                    "read",
                    max(1, read_bytes // read_ops),
                    read_ops,
                    s.n_procs,
                    shared_file=True,
                    contiguity=s.contiguity,
                    interleave=s.interleave,
                    collective_capable=True,
                )
            )
        meta = MetadataStream(
            total_ops=max(1, round(s.metadata_ops_per_proc_per_dump * s.n_procs * n_dumps * ops_scale)),
            n_procs=s.n_procs,
            per_proc_redundant=True,
        )
        return IOPhase(
            name=name,
            compute_seconds=s.compute_seconds_per_dump * n_dumps,
            data=tuple(data),
            metadata=meta,
            chunked=s.chunked,
            chunk_size=s.chunk_size,
            working_set_per_proc=s.working_set_per_proc,
        )

    first = dump_phase("dump_first", 1, 1.0 + s.first_dump_extra_ops_fraction)
    blocks: list[IOPhase] = [first]
    if s.n_dumps > 1:
        blocks.append(dump_phase("dump_steady", s.n_dumps - 1, 1.0))

    logging: list[IOPhase] = []
    if s.log_lines_per_proc_per_dump > 0:
        log_ops = max(1, round(s.log_lines_per_proc_per_dump * s.n_procs * s.n_dumps))
        logging.append(
            IOPhase(
                name="logging",
                compute_seconds=0.0,
                data=(
                    RequestStream.uniform(
                        "write",
                        s.log_line_bytes,
                        log_ops,
                        s.n_procs,
                        shared_file=False,
                        contiguity=1.0,
                        interleave=0.0,
                        collective_capable=False,
                    ),
                ),
            )
        )

    return Workload(
        name=s.name,
        n_procs=s.n_procs,
        n_nodes=s.n_nodes,
        phases=(*logging, *blocks),
    )
