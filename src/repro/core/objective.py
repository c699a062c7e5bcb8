"""The normalisation of the paper's I/O performance objective.

``perf = (1 - alpha) * BW_r + alpha * BW_w`` (computed by
:meth:`~repro.iostack.simulator.IOStackSimulator.evaluate_trace_with_factors`),
where alpha is the ratio of bytes written over total bytes transferred
and the bandwidths are in MB/s.  The RL agents consume *normalised*
perf: the paper normalises by ``1 / (BW_single x num_nodes)`` -- one
node's achievable bandwidth times the node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.iostack.cluster import Platform
from repro.iostack.faults import EvaluationError
from repro.iostack.units import bytes_per_sec_to_mb_per_sec

__all__ = ["PerfNormalizer"]


@dataclass(frozen=True)
class PerfNormalizer:
    """Maps raw perf (MB/s) to the normalised units the agents train on.

    ``single_node_bandwidth_mbps`` is BW_single: what one node can push
    to the file system (the per-node client ceiling); the normaliser is
    ``1 / (BW_single x num_nodes)``, so a perfectly client-bound tuned
    run normalises to ~1.0.
    """

    single_node_bandwidth_mbps: float
    num_nodes: int

    def __post_init__(self) -> None:
        if self.single_node_bandwidth_mbps <= 0:
            raise ValueError("single_node_bandwidth_mbps must be positive")
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")

    #: Client bandwidth scales sublinearly with nodes on real systems;
    #: the normaliser must follow or large-job perf reads as tiny.
    node_scaling_exponent: float = 1.0

    @classmethod
    def for_platform(cls, platform: Platform, num_nodes: int | None = None) -> "PerfNormalizer":
        return cls(
            single_node_bandwidth_mbps=bytes_per_sec_to_mb_per_sec(
                platform.client_lustre_bandwidth
            ),
            num_nodes=num_nodes if num_nodes is not None else platform.n_nodes,
            node_scaling_exponent=platform.client_scaling_exponent,
        )

    @property
    def scale_mbps(self) -> float:
        return self.single_node_bandwidth_mbps * self.num_nodes**self.node_scaling_exponent

    def normalize(self, perf_mbps: float) -> float:
        """perf in MB/s -> normalised units (~[0, 1.5]).

        A non-finite perf raises
        :class:`~repro.iostack.faults.EvaluationError`: the agents train
        on this value, and one NaN fed into their networks silently
        poisons every weight after it.
        """
        if not math.isfinite(perf_mbps):
            raise EvaluationError(
                f"cannot normalise non-finite perf {perf_mbps!r}"
            )
        if perf_mbps < 0:
            raise ValueError("perf must be >= 0")
        return perf_mbps / self.scale_mbps
