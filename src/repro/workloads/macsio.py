"""MACSio: multi-purpose scalable I/O proxy, configured like VPIC-dipole.

The paper's Figure 8 experiments run MACSio with its compute-to-I/O
ratio "baselined on observed values from running VPIC programs with the
Dipole configuration" -- i.e. a real application profile, not a pure I/O
kernel: substantial compute between dumps, a long dump loop, and
per-rank log-file chatter (the "trivial writes" -- logging operations or
print statements -- that account for the kernel's ~19% write-op
undercount in Figure 8(c) while being a negligible share of bytes).

The dump-loop length (85) is chosen so that 1% loop reduction keeps
``ceil(0.85) = 1`` iteration: extrapolating it by 85x counts the
first-dump setup ops 85 times, which partly offsets the logging ops the
kernel drops -- the compensation effect Figure 8(c) describes.
"""

from __future__ import annotations

from repro.iostack.units import MiB

from .base import Workload
from .generator import DumpSpec, build_dump_workload

__all__ = ["macsio_vpic_dipole", "DUMP_LOOP_ITERATIONS"]

#: Main dump-loop length (see module docstring for why 85).
DUMP_LOOP_ITERATIONS = 85


def macsio_vpic_dipole(
    n_procs: int = 128,
    n_nodes: int = 4,
    part_size: int = 8 * MiB,
    compute_seconds_per_dump: float = 1.0,
) -> Workload:
    """MACSio in the VPIC-dipole-baselined configuration of Figure 8.

    Each rank dumps one ``part_size`` part per dump as a handful of
    H5Dwrite calls, plus ~2.35 log lines per rank per dump to a shared
    text log.  With the defaults the full application spends roughly
    half its evaluation time in compute+metadata overheads, which is the
    headroom Application I/O Discovery reclaims in Figure 8(a).
    """
    spec = DumpSpec(
        name="macsio-vpic-dipole",
        n_procs=n_procs,
        n_nodes=n_nodes,
        n_dumps=DUMP_LOOP_ITERATIONS,
        bytes_per_proc_per_dump=part_size,
        writes_per_proc_per_dump=8,
        compute_seconds_per_dump=compute_seconds_per_dump,
        # First dump writes mesh coordinates, topology and file headers.
        first_dump_extra_ops_fraction=0.25,
        # ~2.35 log lines/rank/dump makes logging 19% of app write ops
        # while staying ~2e-6 of bytes, matching Figure 8(c)'s kernel
        # error decomposition.
        log_lines_per_proc_per_dump=2.35,
        log_line_bytes=96,
        interleave=0.45,
        contiguity=0.75,
        chunked=True,
        chunk_size=MiB,
        working_set_per_proc=part_size,
        metadata_ops_per_proc_per_dump=20.0,
    )
    return build_dump_workload(spec)
