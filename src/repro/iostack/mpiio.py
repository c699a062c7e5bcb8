"""MPI-IO (ROMIO) layer model: two-phase collective buffering.

When ``romio_collective`` is enabled and a stream is collective-capable on
a shared file, ROMIO reorganises the I/O in two phases:

1. *Shuffle*: processes exchange data over the network so that each of
   the ``cb_nodes`` aggregators owns a contiguous file domain.
2. *I/O*: aggregators issue large contiguous requests of up to
   ``cb_buffer_size`` bytes each.

The payoff is turning many small interleaved requests into few large
contiguous ones (eliminating lock contention and per-request overhead
downstream); the cost is the network shuffle plus aggregator serialisation
when ``cb_nodes`` is too small -- exactly the trade-off the tuner must
discover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .cluster import Platform
from .requests import RequestStream

__all__ = ["MPIIOResult", "apply_mpiio"]


@dataclass(frozen=True)
class MPIIOResult:
    """Output of the MPI-IO layer for one stream."""

    stream: RequestStream
    #: Seconds of network shuffle + synchronisation added by two-phase I/O.
    overhead_seconds: float
    #: Whether collective buffering was actually applied.
    collectivised: bool


def apply_mpiio(
    stream: RequestStream,
    values: Mapping[str, Any],
    platform: Platform,
    striping_unit: int,
    samples: dict[tuple[int, float], np.ndarray] | None = None,
) -> MPIIOResult:
    """Run one request stream through the MPI-IO layer.

    ``values`` is the mpiio slice of a configuration; ``striping_unit`` is
    forwarded from the Lustre layer because ROMIO's Lustre driver aligns
    aggregator file domains to stripe boundaries when the collective
    buffer is stripe-aligned.

    A collective rebuild's size sample is ``n`` equal requests; it is
    taken from ``samples``, keyed by ``(n, size)``, so the rebuilds of
    callers sharing that dict share one read-only array (a fresh dict
    by default).  Downstream memos key a stream by its array's
    identity, so content-equal rebuilds then hit them.
    """
    if not (
        values["romio_collective"]
        and stream.collective_capable
        and stream.shared_file
        and stream.n_procs > 1
    ):
        return MPIIOResult(stream, 0.0, False)

    cb_nodes = int(values["cb_nodes"])
    cb_buffer = int(values["cb_buffer_size"])
    n_nodes = max(1, platform.n_nodes)
    # ROMIO caps aggregators at the number of processes; placing more than
    # one aggregator per node buys little because they share the NIC.
    aggregators = max(1, min(cb_nodes, stream.n_procs))
    aggregator_nodes = min(aggregators, n_nodes)

    # -- phase 1: shuffle ---------------------------------------------------
    # All data crosses the network once, limited by the slower side of the
    # exchange (all compute nodes send, aggregator nodes receive).
    exchange_bw = min(n_nodes, aggregator_nodes) * platform.nic_bandwidth
    shuffle_seconds = stream.total_bytes / exchange_bw
    # Each collective round moves cb_buffer bytes per aggregator and costs
    # a synchronisation (alltoallv + barrier).
    rounds = math.ceil(stream.total_bytes / max(1, aggregators * cb_buffer))
    sync_cost = math.log2(max(2, stream.n_procs)) * platform.network_latency
    shuffle_seconds += rounds * sync_cost

    # -- phase 2: rebuilt request stream ------------------------------------
    total_ops = max(aggregators, math.ceil(stream.total_bytes / cb_buffer))
    sample_len = min(total_ops, stream.sizes.size)
    mean_size = stream.total_bytes / total_ops
    size = float(min(cb_buffer, mean_size))
    if samples is None:
        samples = {}
    sizes = samples.get((sample_len, size))
    if sizes is None:
        sizes = samples[sample_len, size] = np.full(sample_len, size)
        sizes.flags.writeable = False
    # Aggregator file domains are contiguous; they are stripe-aligned when
    # the buffer is a multiple of the stripe size.
    alignment = striping_unit if cb_buffer % max(1, striping_unit) == 0 else 1
    rebuilt = stream.with_sizes(
        sizes,
        total_ops,
        total_bytes=stream.total_bytes,
        n_procs=aggregators,
        contiguity=1.0,
        interleave=0.0,
        alignment=max(alignment, stream.alignment) if alignment > 1 else stream.alignment,
        nodes=aggregator_nodes,
    )
    return MPIIOResult(rebuilt, shuffle_seconds, True)
