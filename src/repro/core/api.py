"""The TunIO library facade: the paper's Table I API.

"TunIO separates its components and provides an interface so that they
can be used by other tuning pipelines":

=================  ====================================  ===================
Function           Input                                 Output
=================  ====================================  ===================
``stop``           current_iteration, best_perf          stop / continue
``discover_io``    source_code, options                  I/O kernel
``subset_picker``  perf, current_parameter_set           next_parameter_set
=================  ====================================  ===================

:class:`TunIO` binds the three offline-trained components behind exactly
those three methods, so an external pipeline (the paper's example uses
DEAP + HSTuner) can call them without knowing about the agents inside.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.discovery.kernel import DiscoveryOptions, IOKernel
from repro.discovery.kernel import discover_io as _discover_io

from .early_stopping import EarlyStoppingAgent
from .objective import PerfNormalizer
from .smart_config import SmartConfigAgent

__all__ = ["TunIO"]


class TunIO:
    """The user-facing TunIO component bundle.

    Parameters
    ----------
    smart_config:
        An (ideally offline-trained) Smart Configuration Generation
        agent.
    early_stopper:
        An (ideally offline-trained) Early Stopping agent.
    normalizer:
        Perf normalisation for the agents' internal units; both
        :meth:`stop` and :meth:`subset_picker` read perf through it.
    """

    def __init__(
        self,
        smart_config: SmartConfigAgent,
        early_stopper: EarlyStoppingAgent,
        normalizer: PerfNormalizer,
    ):
        self.smart_config = smart_config
        self.early_stopper = early_stopper
        self.normalizer = smart_config.normalizer = normalizer
        self._perf_series: list[float] = []

    # -- Table I ------------------------------------------------------------------

    def stop(self, current_iteration: int, best_perf: float) -> bool:
        """Early Stopping: should the tuning pipeline stop?

        ``best_perf`` is the best objective (MB/s) attained in the
        current iteration; the component accumulates the series itself.
        """
        if current_iteration < 0:
            raise ValueError("current_iteration must be >= 0")
        expected = len(self._perf_series)
        if current_iteration > expected:
            raise ValueError(
                f"current_iteration {current_iteration} skips ahead; the next "
                f"iteration is {expected}"
            )
        # A restarted pipeline goes back: resynchronise.
        del self._perf_series[current_iteration:]
        self._perf_series.append(self.normalizer.normalize(best_perf))
        return self.early_stopper.should_stop(self._perf_series, current_iteration)

    def discover_io(
        self,
        source_code: str,
        options: DiscoveryOptions | None = None,
        name: str = "app",
    ) -> IOKernel:
        """Application I/O Discovery: source code + options -> I/O
        kernel."""
        return _discover_io(source_code, name=name, options=options)

    def subset_picker(
        self,
        perf: float,
        current_parameter_set: Sequence[str] | None,
    ) -> tuple[str, ...]:
        """Smart Configuration Generation: the parameter subset to tune
        next, given the perf the current subset achieved."""
        iteration = len(self._perf_series)
        return self.smart_config.subset_picker(
            perf, current_parameter_set, iteration=iteration
        )

    # -- session management ----------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh tuning pipeline (agents keep their learning)."""
        self._perf_series.clear()
        self.smart_config.reset_episode()
