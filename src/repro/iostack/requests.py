"""Statistical request-stream representation.

The simulator does not replay every I/O operation of a petascale run;
instead each application phase is described by a :class:`RequestStream`: a
capped, representative *sample* of request sizes plus exact totals.  Layer
models transform streams (coalescing, aggregation, alignment) by operating
on the sample vector with numpy, and scale results by ``total_ops /
len(sample)``.  This keeps a full GA tuning run (hundreds of evaluations)
in the milliseconds range while preserving the size-distribution effects
the stack parameters act on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = ["RequestStream", "MetadataStream", "MAX_SAMPLE"]

#: Upper bound on the per-stream sample length.
MAX_SAMPLE = 2048

OpKind = Literal["write", "read"]


@dataclass(frozen=True)
class RequestStream:
    """A sampled stream of data requests issued by one phase.

    Attributes
    ----------
    op:
        ``"write"`` or ``"read"``.
    sizes:
        1-D array of sampled request sizes in bytes.  ``len(sizes) <=
        MAX_SAMPLE``; the sample is assumed representative of the whole
        stream.
    total_ops:
        True number of requests across the phase (all processes).
    total_bytes:
        True number of bytes moved across the phase.
    n_procs:
        Processes issuing requests concurrently.
    shared_file:
        True for single-shared-file access, False for file-per-process.
    contiguity:
        Fraction in [0, 1] of requests that are sequential with respect to
        the previous request of the same process (1.0 = perfectly
        contiguous per process).
    interleave:
        In [0, 1]: 0 means each process owns a large contiguous region of
        the file; 1 means fine-grained round-robin interleaving across
        processes (the worst case for lock contention on a shared file).
    collective_capable:
        Whether the requests were issued through an interface that the
        MPI-IO layer may collectivise (e.g. H5Dwrite with a transfer
        property list).  Raw POSIX logging writes are not.
    alignment:
        The byte boundary all request offsets are aligned to (1 = none).
        Set by the HDF5 layer when ``H5Pset_alignment`` is active.
    nodes:
        Number of nodes the issuing processes span; 0 (default) means
        "infer by densely packing n_procs onto nodes".  The MPI-IO layer
        sets this explicitly because aggregators are placed one per node.
    """

    op: OpKind
    sizes: np.ndarray
    total_ops: int
    total_bytes: int
    n_procs: int
    shared_file: bool = True
    contiguity: float = 1.0
    interleave: float = 0.0
    collective_capable: bool = True
    alignment: int = 1
    nodes: int = 0

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes, dtype=np.float64)
        if sizes.ndim != 1 or sizes.size == 0:
            raise ValueError("sizes must be a non-empty 1-D array")
        # A NaN or infinite size makes the mean non-finite, so one
        # reduction both validates the sample and yields ``mean_size``
        # (sum / size is exactly what ``ndarray.mean`` computes).
        mean = float(sizes.sum() / sizes.size)
        if not math.isfinite(mean):
            raise ValueError("request sizes must be finite")
        if sizes.min() <= 0:
            raise ValueError("request sizes must be positive")
        if sizes.size > MAX_SAMPLE:
            raise ValueError(f"sample longer than MAX_SAMPLE={MAX_SAMPLE}")
        if self.total_ops <= 0 or self.total_bytes <= 0:
            raise ValueError("totals must be positive")
        if self.n_procs <= 0:
            raise ValueError("n_procs must be positive")
        for name in ("contiguity", "interleave"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.op not in ("write", "read"):
            raise ValueError(f"op must be 'write' or 'read', got {self.op!r}")
        if self.alignment < 1:
            raise ValueError("alignment must be >= 1")
        if self.nodes < 0:
            raise ValueError("nodes must be >= 0")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "_mean_size", mean)

    def nodes_spanned(self, n_nodes: int, procs_per_node: int) -> int:
        """Nodes the issuing processes occupy on a given machine shape."""
        if self.nodes > 0:
            return max(1, min(self.nodes, n_nodes))
        packed = -(-self.n_procs // procs_per_node)  # ceil div
        return max(1, min(packed, n_nodes))

    def memo_key(self) -> tuple:
        """The stream's key in a layer memo (see
        :class:`~repro.iostack.evalcache.EvaluationCache`).

        Every field enters; ``sizes`` by the identity of its array, so a
        key never hashes a sample.  Transforms that leave the sizes alone
        share the array, which is what lets their outputs hit.  An
        equal-content copy of ``sizes`` gets a different key: a miss,
        never a false hit.  The id stays valid only while the array
        lives, so a memo entry must hold the stream it was keyed by.
        """
        return (
            self.op,
            id(self.sizes),
            self.total_ops,
            self.total_bytes,
            self.n_procs,
            self.shared_file,
            self.contiguity,
            self.interleave,
            self.collective_capable,
            self.alignment,
            self.nodes,
        )

    # -- derived quantities ---------------------------------------------------

    @property
    def mean_size(self) -> float:
        """Mean request size of the sample, in bytes."""
        return self._mean_size

    @property
    def scale(self) -> float:
        """Multiplier from sample counts to true counts."""
        return self.total_ops / self.sizes.size

    @property
    def ops_per_proc(self) -> float:
        return self.total_ops / self.n_procs

    # -- constructors --------------------------------------------------------------

    @classmethod
    def uniform(
        cls,
        op: OpKind,
        request_size: int,
        total_ops: int,
        n_procs: int,
        **kwargs: object,
    ) -> "RequestStream":
        """A stream where every request has the same size."""
        sample_len = min(total_ops, MAX_SAMPLE)
        sizes = np.full(sample_len, float(request_size))
        return cls(
            op=op,
            sizes=sizes,
            total_ops=total_ops,
            total_bytes=request_size * total_ops,
            n_procs=n_procs,
            **kwargs,  # type: ignore[arg-type]
        )

    @classmethod
    def lognormal(
        cls,
        op: OpKind,
        median_size: float,
        sigma: float,
        total_ops: int,
        n_procs: int,
        rng: np.random.Generator,
        **kwargs: object,
    ) -> "RequestStream":
        """A stream with lognormally distributed request sizes (the shape
        Darshan logs commonly show for mixed metadata/data workloads)."""
        sample_len = min(total_ops, MAX_SAMPLE)
        sizes = np.maximum(
            1.0, rng.lognormal(mean=np.log(median_size), sigma=sigma, size=sample_len)
        )
        mean = float(sizes.mean())
        return cls(
            op=op,
            sizes=sizes,
            total_ops=total_ops,
            total_bytes=int(round(mean * total_ops)),
            n_procs=n_procs,
            **kwargs,  # type: ignore[arg-type]
        )

    # -- transforms (used by layer models) ----------------------------------------

    def with_sizes(
        self,
        sizes: np.ndarray,
        total_ops: int,
        total_bytes: int | None = None,
        *,
        n_procs: int | None = None,
        contiguity: float | None = None,
        interleave: float | None = None,
        alignment: int | None = None,
        nodes: int | None = None,
    ) -> "RequestStream":
        """A new stream with a transformed size sample and totals; the
        keyword arguments override the matching fields, the rest are
        kept.  Built by a direct constructor call (every
        ``__post_init__`` check still runs): transforms sit on the
        per-trace path, where ``dataclasses.replace`` costs more than
        the arithmetic."""
        return RequestStream(
            op=self.op,
            sizes=sizes,
            total_ops=total_ops,
            # transforms usually conserve bytes
            total_bytes=self.total_bytes if total_bytes is None else total_bytes,
            n_procs=self.n_procs if n_procs is None else n_procs,
            shared_file=self.shared_file,
            contiguity=self.contiguity if contiguity is None else contiguity,
            interleave=self.interleave if interleave is None else interleave,
            collective_capable=self.collective_capable,
            alignment=self.alignment if alignment is None else alignment,
            nodes=self.nodes if nodes is None else nodes,
        )

    def aligned(self, boundary: int) -> "RequestStream":
        """Mark the stream's offsets aligned to ``boundary``.  Models
        ``H5Pset_alignment``: objects past the threshold start on
        multiples of the boundary.  The padding becomes holes in the
        file, not transferred bytes, so sizes and totals are unchanged --
        what changes is how requests map onto stripes downstream."""
        if boundary <= 1:
            return self
        return self.with_sizes(self.sizes, self.total_ops, alignment=boundary)

    def coalesce(self, buffer_size: int) -> "RequestStream":
        """Greedily merge consecutive sequential requests into buffers of
        at most ``buffer_size`` bytes.

        Only the contiguous fraction of the stream can merge; the result's
        op count shrinks accordingly.  Models both HDF5 data sieving and
        write-behind style buffering.
        """
        if buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        mean = self.mean_size
        if mean >= buffer_size or self.contiguity <= 0.0:
            return self
        # How many consecutive requests fit in one buffer, on average.
        per_buffer = max(1.0, buffer_size / mean)
        # A run of sequential requests has expected length 1/(1-c); merging
        # is limited by both the run length and the buffer capacity.
        expected_run = 1.0 / max(1e-9, 1.0 - self.contiguity) if self.contiguity < 1.0 else per_buffer
        merge = min(per_buffer, max(1.0, expected_run))
        new_total = max(self.n_procs, int(round(self.total_ops / merge)))
        new_sizes = np.minimum(self.sizes * merge, float(buffer_size))
        return self.with_sizes(new_sizes, new_total)


@dataclass(frozen=True)
class MetadataStream:
    """Metadata operations issued by one phase (creates, opens, attribute
    writes, dataset extensions...).

    Attributes
    ----------
    total_ops:
        True number of metadata operations across all processes.
    n_procs:
        Processes issuing them.
    per_proc_redundant:
        True when every process performs the *same* metadata operation
        (e.g. all ranks open the same file and read the same object
        headers).  This is the case collective metadata I/O collapses:
        one rank performs the operation and broadcasts the result.
    write_fraction:
        Fraction of the operations that modify metadata (in [0, 1]).
    """

    total_ops: int
    n_procs: int
    per_proc_redundant: bool = True
    write_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.total_ops < 0:
            raise ValueError("total_ops must be >= 0")
        if self.n_procs <= 0:
            raise ValueError("n_procs must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")

    @property
    def ops_per_proc(self) -> float:
        return self.total_ops / self.n_procs
