"""HDF5 layer model.

Transforms application-level dataset accesses into the file-level request
stream handed to MPI-IO, applying the seven HDF5 parameters the paper
tunes:

* ``chunk_cache_size`` -- partial-chunk writes/reads to chunked datasets
  trigger read-modify-write traffic when the chunk cache cannot hold the
  working set (write amplification and extra read-back).
* ``sieve_buf_size`` -- data sieving coalesces small reads into larger
  sieve-buffer reads at the cost of some over-read.
* ``alignment`` -- objects at least half the threshold are placed on
  multiples of the boundary; downstream this suppresses stripe-boundary
  crossings when the boundary divides (or is divided by) the stripe size.
* ``meta_block_size`` -- aggregates small metadata allocations into
  blocks, shrinking the number of metadata I/O operations.
* ``mdc_config`` -- metadata cache configuration; changes the cache hit
  rate and therefore how many metadata operations reach the MDS.
* ``coll_metadata_ops`` / ``coll_metadata_write`` -- collapse redundant
  per-process metadata reads/writes into one operation plus a broadcast.

The layer has two independent halves.  :func:`apply_hdf5` transforms a
phase's data streams and reads only ``chunk_cache_size``,
``sieve_buf_size`` and ``alignment`` (:data:`DATA_PARAMETERS`);
:func:`apply_hdf5_metadata` transforms its metadata stream and reads only
the other four (:data:`METADATA_PARAMETERS`).  Only the metadata half
spends time inside the layer (collective-metadata broadcasts); the data
transforms reshape the streams and cost nothing themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .cluster import Platform
from .phase import IOPhase
from .requests import MetadataStream, RequestStream
from .units import KiB

__all__ = [
    "DATA_PARAMETERS",
    "METADATA_PARAMETERS",
    "HDF5Result",
    "apply_hdf5",
    "apply_hdf5_metadata",
]

#: The hdf5 parameters :func:`apply_hdf5` reads.
DATA_PARAMETERS = ("chunk_cache_size", "sieve_buf_size", "alignment")

#: The hdf5 parameters :func:`apply_hdf5_metadata` reads.
METADATA_PARAMETERS = (
    "coll_metadata_ops",
    "coll_metadata_write",
    "mdc_config",
    "meta_block_size",
)

#: Metadata-cache hit rates per ``mdc_config`` setting.  "small" thrashes,
#: "large" and "adaptive" keep most of the working set resident.
_MDC_HIT_RATE = {
    "default": 0.70,
    "small": 0.45,
    "large": 0.92,
    "adaptive": 0.88,
}

#: Fraction of extra bytes data sieving reads beyond what is consumed.
_SIEVE_OVERREAD = 0.10

#: Baseline metadata allocation granularity (HDF5's 2 KiB default).
_BASE_META_BLOCK = 2 * KiB


@dataclass(frozen=True)
class HDF5Result:
    """Output of the HDF5 layer's data half for one phase."""

    data: tuple[RequestStream, ...]


def apply_hdf5(phase: IOPhase, values: Mapping[str, Any]) -> HDF5Result:
    """Run one phase's data streams through the HDF5 layer model.

    ``values`` is the hdf5 slice of a :class:`~repro.iostack.config.
    StackConfiguration` (see :meth:`StackConfiguration.layer`); only
    :data:`DATA_PARAMETERS` are read.
    """
    return HDF5Result(
        tuple(_transform_data(stream, phase, values) for stream in phase.data)
    )


def _transform_data(
    stream: RequestStream, phase: IOPhase, values: Mapping[str, Any]
) -> RequestStream:
    out = stream

    if phase.chunked and stream.collective_capable:
        out = _apply_chunk_cache(out, phase, values["chunk_cache_size"])

    if out.op == "read":
        out = _apply_sieving(out, values["sieve_buf_size"])

    alignment = int(values["alignment"])
    if alignment > 1 and out.mean_size >= alignment / 2:
        out = out.aligned(alignment)

    return out


def _apply_chunk_cache(
    stream: RequestStream, phase: IOPhase, cache_size: int
) -> RequestStream:
    """Partial-chunk access against a cold chunk cache.

    When requests are smaller than a chunk, HDF5 must assemble whole
    chunks.  If the per-process working set fits the chunk cache the
    assembly happens in memory; otherwise evicted chunks are read back
    and rewritten, inflating both bytes and operations.
    """
    chunk = phase.chunk_size
    if chunk <= 0 or stream.mean_size >= chunk:
        return stream
    working_set = max(phase.working_set_per_proc, chunk)
    hit = min(1.0, cache_size / working_set)
    miss = 1.0 - hit
    if miss <= 0.0:
        # Fully cached: requests are assembled into whole-chunk I/O.
        return stream.coalesce(chunk)
    # Misses cause read-modify-write: every evicted partial chunk costs a
    # chunk-sized read plus a chunk-sized write instead of the small write.
    amplification = 1.0 + miss * min(2.0, chunk / stream.mean_size - 1.0) * 0.5
    return stream.with_sizes(
        np.minimum(stream.sizes * amplification, float(chunk)),
        stream.total_ops,
        total_bytes=int(round(stream.total_bytes * amplification)),
        contiguity=stream.contiguity * hit,
    )


def _apply_sieving(stream: RequestStream, sieve_buf_size: int) -> RequestStream:
    """Data sieving for reads: small (possibly strided) reads are served
    from a sieve buffer filled by one large contiguous read."""
    if stream.mean_size >= sieve_buf_size:
        return stream
    coalesced = stream.coalesce(sieve_buf_size)
    if coalesced.total_ops >= stream.total_ops:
        return stream
    return coalesced.with_sizes(
        coalesced.sizes * (1.0 + _SIEVE_OVERREAD),
        coalesced.total_ops,
        total_bytes=int(round(coalesced.total_bytes * (1.0 + _SIEVE_OVERREAD))),
    )


def apply_hdf5_metadata(
    metadata: MetadataStream | None, values: Mapping[str, Any], platform: Platform
) -> tuple[MetadataStream | None, float]:
    """Run one phase's metadata stream through the HDF5 layer model.

    Returns the operations that continue down the stack (post-cache;
    ``None`` when none survive) and the CPU/network seconds spent inside
    the layer (broadcasts).  Only :data:`METADATA_PARAMETERS` of
    ``values`` are read.
    """
    if metadata is None or metadata.total_ops == 0:
        return metadata, 0.0

    overhead = 0.0
    n_procs = metadata.n_procs
    read_ops = metadata.total_ops * (1.0 - metadata.write_fraction)
    write_ops = metadata.total_ops * metadata.write_fraction

    # Collective metadata: one rank performs the op, result is broadcast.
    if metadata.per_proc_redundant and n_procs > 1:
        bcast_cost = math.log2(n_procs) * platform.network_latency
        if values["coll_metadata_ops"]:
            overhead += (read_ops / n_procs) * bcast_cost
            read_ops /= n_procs
        if values["coll_metadata_write"]:
            overhead += (write_ops / n_procs) * bcast_cost
            write_ops /= n_procs

    # Metadata cache absorbs repeated reads.
    hit_rate = _MDC_HIT_RATE[values["mdc_config"]]
    read_ops *= 1.0 - hit_rate

    # Block aggregation amortises small metadata allocations: the op count
    # that reaches storage shrinks with the block size (sub-linearly --
    # allocations are batched but object headers still flush individually).
    agg = math.sqrt(max(1.0, values["meta_block_size"] / _BASE_META_BLOCK))
    write_ops /= agg

    total = max(0, int(round(read_ops + write_ops)))
    if total == 0:
        return None, overhead
    surviving = MetadataStream(
        total_ops=total,
        n_procs=n_procs,
        per_proc_redundant=False,  # redundancy resolved at this layer
        write_fraction=min(1.0, write_ops / max(1e-9, read_ops + write_ops)),
    )
    return surviving, overhead
