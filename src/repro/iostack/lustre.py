"""Lustre parallel-file-system model.

Serves the request streams that survive the HDF5 and MPI-IO layers.  The
two tuned parameters are ``striping_factor`` (how many OSTs a file spans)
and ``striping_unit`` (the stripe size).  The model captures the effects
that make these worth tuning:

* **Server parallelism** -- aggregate bandwidth grows with the OSTs the
  job actually uses (stripe count x files), up to the file system total.
* **Per-RPC overhead** -- each stripe a request touches is one bulk RPC;
  small or misaligned requests pay proportionally more latency.
* **Stripe-boundary crossings** -- requests not aligned to stripe
  boundaries straddle an extra OST, costing an extra RPC and extent-lock
  traffic.
* **Shared-file lock contention** -- many writers interleaved on one
  file serialise on per-OST extent locks; contiguous per-process domains
  (what collective buffering produces) avoid this.
* **Client-side ceilings** -- NIC/LNET caps per node.

Metadata operations are served by a single MDS with bounded throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .cluster import Platform
from .requests import MetadataStream, RequestStream

__all__ = ["LustreService", "serve_lustre", "serve_metadata", "stripe_rpcs"]


@dataclass(frozen=True)
class LustreService:
    """Timing breakdown for one stream served by Lustre."""

    seconds: float
    #: Aggregate bandwidth actually achieved (bytes/s).
    achieved_bandwidth: float
    #: Number of OSTs the stream's file(s) spread over.
    osts_used: int
    #: Mean bulk RPCs issued per request.
    rpcs_per_request: float
    #: Which ceiling bound the transfer: "server", "client" or "locks".
    bound_by: str


def serve_lustre(
    stream: RequestStream,
    values: Mapping[str, Any],
    platform: Platform,
    rpc_passes: dict[tuple, tuple[np.ndarray, float, float]] | None = None,
) -> LustreService:
    """Service time for one data stream against the Lustre model.

    ``values`` is the lustre slice of a configuration.  The RPC
    decomposition (:func:`stripe_rpcs`) reads only the size sample, the
    stripe size and whether the stream is stripe-aligned; it is looked
    up in ``rpc_passes`` under ``(id(sizes), stripe size, aligned)``
    and run on a miss (a fresh dict by default).  Each entry starts with
    the sample it was keyed by, which keeps that id from being reused.
    """
    stripe_count = int(values["striping_factor"])
    stripe_size = int(values["striping_unit"])

    n_files = 1 if stream.shared_file else stream.n_procs
    osts_used = min(stripe_count * n_files, platform.n_osts)

    sizes = stream.sizes
    aligned = stream.alignment >= stripe_size and stream.alignment % stripe_size == 0
    if rpc_passes is None:
        rpc_passes = {}
    rpc_key = (id(sizes), stripe_size, aligned)
    rpc_pass = rpc_passes.get(rpc_key)
    if rpc_pass is None:
        rpc_pass = rpc_passes[rpc_key] = (
            sizes, *stripe_rpcs(sizes, stripe_size, aligned)
        )
    _, rpcs_per_request, mean_rpc_bytes = rpc_pass

    # -- server-side ceiling ----------------------------------------------------
    # Per-RPC efficiency: the fraction of an OST's service time spent
    # moving bytes rather than in RPC turnaround.  Synchronous POSIX-path
    # writers cannot pipeline their RPCs, so small stripe-fragments pay
    # the full round trip -- this is what makes the stripe size and
    # alignment first-class tuning targets.
    ost_bw = platform.ost_bandwidth * platform.ost_utilization
    size_efficiency = mean_rpc_bytes / (mean_rpc_bytes + ost_bw * platform.rpc_latency)
    server_bw = osts_used * ost_bw * size_efficiency

    # Concurrent readers pay a seek/readahead-thrash penalty per OST.
    lock_bound_applied = False
    if stream.shared_file and stream.n_procs > 1 and stream.op == "read":
        clients_per_ost = stream.n_procs / osts_used
        server_bw /= (
            1.0
            + platform.read_contention_coeff
            * math.sqrt(max(0.0, clients_per_ost - 1.0))
        )

    # Multiple sequential writer streams multiplexed onto one OST object
    # (e.g. collective aggregators over too few stripes) force the OST to
    # seek between their file domains; spreading stripes or matching the
    # aggregator count to the stripe count avoids it.
    if stream.op == "write" and stream.interleave < 0.2 and stream.n_procs > 1:
        streams_per_ost = stream.n_procs / osts_used
        seek_efficiency = 1.0 / (1.0 + 1.2 * max(0.0, streams_per_ost - 1.0))
        server_bw *= seek_efficiency

    # -- client-side ceiling -------------------------------------------------------------
    client_nodes = stream.nodes_spanned(platform.n_nodes, platform.procs_per_node)
    client_bw = (
        platform.client_lustre_bandwidth
        * client_nodes**platform.client_scaling_exponent
    )

    achieved = min(server_bw, client_bw)
    if achieved <= 0:
        raise ArithmeticError("achieved bandwidth must be positive")
    transfer_seconds = stream.total_bytes / achieved

    # Extent-lock conflict resolution: interleaved writers on a shared
    # file trigger lock revocations.  Each revocation costs a round trip
    # plus flushing the dirty extent back to the OST (so big requests pay
    # proportionally), scaled by how many peers may hold the lock --
    # spreading over OSTs absorbs it only as sqrt.  Stripe-aligned
    # requests rarely share an extent (conflicts x0.3), and two-phase
    # collective I/O produces interleave=0 streams and pays nothing --
    # which is why alignment and collective buffering are the coordinated
    # fixes the tuner must discover.
    lock_seconds = 0.0
    if stream.shared_file and stream.op == "write" and stream.n_procs > 1:
        conflict = stream.interleave * (1.0 - stream.contiguity * 0.5)
        if aligned:
            conflict *= 0.3
        conflict_ops = stream.total_ops * conflict
        revocation = 3.0 * (platform.rpc_latency + stream.mean_size / ost_bw)
        # Spreading objects over OSTs relieves revocation queues only
        # weakly (quarter power): conflicts follow the byte-range
        # interleaving, which striping does not change.
        lock_seconds = conflict_ops * revocation * (
            stream.n_procs / osts_used
        ) ** 0.25
        if lock_seconds > transfer_seconds:
            lock_bound_applied = True

    # Client CPU cost of issuing the requests (parallel across procs).
    issue_seconds = (
        stream.total_ops * platform.syscall_overhead / max(1, stream.n_procs)
    )

    if lock_bound_applied and server_bw < client_bw:
        bound_by = "locks"
    elif server_bw <= client_bw:
        bound_by = "server"
    else:
        bound_by = "client"

    return LustreService(
        seconds=transfer_seconds + issue_seconds + lock_seconds,
        achieved_bandwidth=achieved,
        osts_used=osts_used,
        rpcs_per_request=rpcs_per_request,
        bound_by=bound_by,
    )


def stripe_rpcs(sizes: np.ndarray, stripe_size: int, aligned: bool) -> tuple[float, float]:
    """Mean bulk RPCs per request and mean bytes per RPC of a size sample.

    A request of size s touches ceil(s / stripe) stripes when aligned;
    otherwise its start offset is uniform within a stripe and it
    straddles one extra boundary with probability ~ (s mod
    stripe)/stripe.
    """
    base_touches = np.ceil(sizes / stripe_size)
    if aligned:
        touches = base_touches
    else:
        frac = (sizes % stripe_size) / stripe_size
        touches = base_touches + frac
    # ``add.reduce / size`` is exactly ``ndarray.mean`` without its
    # Python-level wrapper.
    rpcs_per_request = float(np.add.reduce(touches) / touches.size)
    rpc_bytes = sizes / touches
    mean_rpc_bytes = float(np.add.reduce(rpc_bytes) / rpc_bytes.size)
    return rpcs_per_request, mean_rpc_bytes


def serve_metadata(metadata: MetadataStream | None, platform: Platform) -> float:
    """Seconds to retire a metadata stream at the MDS.

    Operations issue in parallel across clients but the MDS has a fixed
    aggregate throughput; whichever bound is tighter dominates.
    """
    if metadata is None or metadata.total_ops == 0:
        return 0.0
    throughput_bound = metadata.total_ops / platform.mds_throughput
    latency_bound = metadata.ops_per_proc * platform.mds_latency
    return max(throughput_bound, latency_bound)
