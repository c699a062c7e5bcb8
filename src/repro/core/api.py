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

It is also the one way anything drives the agents at tuning time: TunIO's
own pipeline, the CLI and every figure go through it, so any pipeline
that calls Table I gets the same guards, fallbacks and online learning.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.discovery.kernel import DiscoveryOptions, IOKernel
from repro.discovery.kernel import discover_io as _discover_io
from repro.iostack.faults import FaultPlan
from repro.iostack.parameters import TUNED_SPACE
from repro.rl.guardrails import AgentGuard, GuardrailMonitor
from repro.tuners.base import IterationRecord

from .early_stopping import EarlyStoppingAgent, RLStopper
from .objective import PerfNormalizer
from .smart_config import SUBSET_SIZES, SmartConfigAgent

__all__ = ["TunIO"]

#: Identical non-full subsets in a row that mean the picker's policy
#: collapsed.  Healthy pickers never repeat a non-full subset more than
#: twice in a row (exploration keeps reshuffling the top-k), so 6 has a
#: 3x margin against false positives while still firing inside a short
#: early-stopped run.
CONSTANT_WINDOW = 6


class TunIO:
    """The user-facing TunIO component bundle, and a
    :class:`~repro.tuners.stoppers.Stopper` (:meth:`should_stop` asks
    :meth:`stop`), so a tuning pipeline can take it as its stopper.

    It holds the run's :class:`~repro.rl.guardrails.GuardrailMonitor`,
    the guarded :class:`~repro.core.early_stopping.RLStopper` and the
    subset picker's :class:`~repro.rl.guardrails.AgentGuard` (over the
    picker's q-network and target network and the observer's reward
    model).  On top of the guard's checks, a pick must be non-empty, use
    known parameter names and a configured subset size, and not repeat
    a non-full subset :data:`CONSTANT_WINDOW` times in a row.  Once
    anything trips, every pick for the rest of the run is the full
    parameter set.  The forced-output faults (``empty-subset``,
    ``constant-subset``) bypass the agent before any RNG draw, so
    degraded runs stay bit-reproducible.

    ``normalizer`` is the job's perf normalisation, for both agents.
    ``expected_runs`` and ``online_learning`` go to the RL stopper
    (Figure 10 replays a finished history with ``online_learning``
    off).  ``fault_source`` returns the current
    :class:`~repro.iostack.faults.FaultPlan` or ``None`` and is read on
    every call: the pipeline passes its simulator's, whose plan the CLI
    attaches after building the tuner.
    """

    name = "tunio"

    def __init__(
        self,
        smart_config: SmartConfigAgent,
        early_stopper: EarlyStoppingAgent,
        normalizer: PerfNormalizer,
        expected_runs: float | None = None,
        online_learning: bool = True,
        fault_source: Callable[[], FaultPlan | None] = lambda: None,
    ):
        self.smart_config = smart_config
        self.normalizer = smart_config.normalizer = normalizer
        self.guardrails = GuardrailMonitor()
        self.stopper = RLStopper(
            early_stopper, normalizer, self.guardrails, fault_source,
            expected_runs=expected_runs, online_learning=online_learning,
        )
        self.picker_guard = AgentGuard(
            "subset-picker",
            (
                ("q-network", smart_config.picker.q_network),
                ("target-network", smart_config.picker.target_network),
                ("reward-model", smart_config.observer.model),
            ),
            self.guardrails,
            fault_source,
        )
        self.reset()

    # -- Table I ------------------------------------------------------------------

    def stop(self, current_iteration: int, best_perf: float) -> bool:
        """Early Stopping: should the tuning pipeline stop?

        ``best_perf`` is the best objective (MB/s) attained by
        ``current_iteration``; the component accumulates the series
        itself (see :meth:`~repro.core.early_stopping.RLStopper.should_stop`).
        """
        return self.stopper.should_stop(current_iteration, best_perf)

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
        next, given the perf the current subset achieved.  Picks count
        from 1 since :meth:`reset` (in a pipeline, pick ``k`` is for
        iteration ``k``)."""
        self._picks += 1
        self._subset = self._guarded_pick(perf, current_parameter_set)
        return TUNED_SPACE.names if self._subset is None else self._subset

    # -- the rest of a pipeline's calls -------------------------------------------

    def credit(self, best_perf: float) -> None:
        """Credit the last picked subset with the normalised perf change
        its iteration made; ``best_perf`` (MB/s) is the best perf after
        that iteration."""
        norm = self.normalizer.normalize(best_perf)
        if self._subset is not None and self._last_best_norm is not None:
            self.smart_config.credit_subset(self._subset, norm - self._last_best_norm)
        self._last_best_norm = norm

    def should_stop(self, history: Sequence[IterationRecord]) -> bool:
        """:meth:`stop` for the last iteration of ``history``."""
        return self.stop(len(history) - 1, history[-1].best_perf)

    def reset(self) -> None:
        """Start a fresh tuning pipeline: clear the trips, re-arm both
        guards (a journal replay re-earns its trips) and clear the run's
        series, picks and credit; learned weights and impact scores
        persist."""
        self.guardrails.reset()
        self.stopper.reset()
        self.picker_guard.reset()
        self.smart_config.reset_episode()
        self._picks = 0
        self._subset = None
        self._last_best_norm = None
        self._forced_constant = None
        self._repeat_subset = None
        self._repeat_count = 0

    # -- the guarded picker --------------------------------------------------------

    def _guarded_pick(
        self, perf: float, current_parameter_set: Sequence[str] | None
    ) -> tuple[str, ...] | None:
        """This pick's subset, or ``None`` once the guard has tripped."""
        guard, iteration = self.picker_guard, self._picks
        if guard.degraded:
            return None
        fault = guard.before_call(iteration)
        if guard.degraded:
            return None
        if fault == "empty-subset":
            subset: tuple[str, ...] = ()
        elif fault == "constant-subset":
            # A collapsed policy emits literally the same subset forever:
            # freeze the top-2 ranking at the moment the fault engages.
            if self._forced_constant is None:
                self._forced_constant = self.smart_config.ranked_parameters()[:2]
            subset = self._forced_constant
        else:
            agent = self.smart_config
            subset = agent.subset_picker(perf, current_parameter_set, iteration)
            q_network = agent.picker.q_network
            guard.check_training(
                [
                    (q_network.last_loss, q_network.last_grad_norm),
                    (agent.observer.model.last_loss, None),
                ],
                iteration,
            )
            if guard.degraded:
                return None
        problem = self._output_problem(subset)
        if problem is not None:
            guard.trip(*problem, iteration)
            return None
        return subset

    def _output_problem(self, subset: tuple[str, ...]) -> tuple[str, str] | None:
        """The trip ``(kind, detail)`` a pick earns by itself, if any."""
        if not subset:
            return "invalid-output", "picker returned an empty subset"
        unknown = [p for p in subset if p not in TUNED_SPACE.names]
        if unknown:
            return "invalid-output", f"picker returned unknown parameter(s) {unknown!r}"
        if len(subset) not in SUBSET_SIZES:
            return (
                "invalid-output",
                f"subset size {len(subset)} not in configured sizes {SUBSET_SIZES!r}",
            )
        if len(subset) == len(TUNED_SPACE):
            self._repeat_subset, self._repeat_count = None, 0
            return None
        if subset == self._repeat_subset:
            self._repeat_count += 1
        else:
            self._repeat_subset, self._repeat_count = subset, 1
        if self._repeat_count >= CONSTANT_WINDOW:
            return (
                "degenerate-policy",
                f"subset {subset!r} repeated {self._repeat_count} times",
            )
        return None
