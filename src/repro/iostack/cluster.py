"""Cluster (platform) description for the I/O stack simulator.

:class:`Platform` captures the hardware quantities the layer models need:
node count, NIC injection bandwidth, Lustre OST/MDS characteristics, and
the memory tier used by I/O path switching.  :func:`cori` builds the
default platform modelled on NERSC Cori's Haswell partition and its
scratch Lustre file system (~700 GB/s aggregate over 248 OSTs), the
machine the paper evaluated on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .units import GB, MS, US

__all__ = ["Platform", "cori"]


@dataclass(frozen=True)
class Platform:
    """Hardware model consumed by the layer models.

    All bandwidths are bytes/second, all latencies seconds.
    """

    name: str
    n_nodes: int
    procs_per_node: int
    #: NIC injection bandwidth per node (network shuffle phases).
    nic_bandwidth: float
    #: One-way small-message network latency.
    network_latency: float
    #: Per-node ceiling on Lustre client traffic (LNET + client cache).
    client_lustre_bandwidth: float
    #: Number of object storage targets in the file system.
    n_osts: int
    #: Peak streaming bandwidth of a single OST.
    ost_bandwidth: float
    #: Fraction of OST bandwidth available to this job (shared system).
    ost_utilization: float
    #: Round-trip latency of one Lustre bulk RPC.
    rpc_latency: float
    #: Concurrent RPCs a single client keeps in flight per OST.
    max_rpcs_in_flight: int
    #: Latency of one metadata operation at the MDS.
    mds_latency: float
    #: Aggregate MDS operation throughput (ops/s).
    mds_throughput: float
    #: Per-node memory bandwidth for the /dev/shm tier.
    memory_bandwidth: float
    #: Per-syscall client CPU overhead.
    syscall_overhead: float
    #: Scales shared-file lock-contention penalties (dimensionless).
    lock_contention_coeff: float
    #: Scales shared-file read seek/readahead contention (dimensionless).
    read_contention_coeff: float
    #: Exponent for client-side bandwidth scaling with node count;
    #: sublinear (<1) captures LNET-router sharing at large allocations.
    client_scaling_exponent: float = 0.85

    def __post_init__(self) -> None:
        positive = (
            "n_nodes", "procs_per_node", "nic_bandwidth", "client_lustre_bandwidth",
            "n_osts", "ost_bandwidth", "rpc_latency", "max_rpcs_in_flight",
            "mds_latency", "mds_throughput", "memory_bandwidth",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.ost_utilization <= 1.0:
            raise ValueError("ost_utilization must be in (0, 1]")
        if self.network_latency < 0 or self.syscall_overhead < 0:
            raise ValueError("latencies must be >= 0")
        if self.lock_contention_coeff < 0 or self.read_contention_coeff < 0:
            raise ValueError("contention coefficients must be >= 0")

    @property
    def total_procs(self) -> int:
        return self.n_nodes * self.procs_per_node

    def scaled_to(self, n_nodes: int) -> "Platform":
        """The same machine with a different allocation size (the paper's
        component tests use 4 nodes; the end-to-end test uses 500)."""
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        return replace(self, n_nodes=n_nodes)


def cori(n_nodes: int = 4) -> Platform:
    """NERSC Cori Haswell + scratch Lustre, the paper's testbed.

    Numbers are public figures for Cori: Haswell nodes with a Cray Aries
    interconnect (~8 GB/s injection), the cscratch1 Lustre file system
    with 248 OSTs and ~700 GB/s aggregate peak.  Per-client Lustre write
    traffic saturates well below the NIC in practice (~0.7 GB/s/node),
    which is what bounds small-allocation tuned bandwidth.
    """
    return Platform(
        name=f"cori-haswell-{n_nodes}n",
        n_nodes=n_nodes,
        procs_per_node=32,
        nic_bandwidth=8 * GB,
        network_latency=2 * US,
        client_lustre_bandwidth=0.7 * GB,
        n_osts=248,
        ost_bandwidth=2.8 * GB,
        ost_utilization=0.7,
        rpc_latency=0.4 * MS,
        max_rpcs_in_flight=8,
        mds_latency=0.5 * MS,
        mds_throughput=30_000.0,
        memory_bandwidth=50 * GB,
        syscall_overhead=4 * US,
        lock_contention_coeff=0.10,
        read_contention_coeff=0.12,
    )

