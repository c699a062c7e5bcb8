"""The TunIO tuning pipeline: HSTuner + the three TunIO components.

:class:`TunIOTuner` extends :class:`~repro.tuners.hstuner.HSTuner` by

* asking the Smart Configuration Generation agent for the parameter
  subset each generation may vary (Impact-First Tuning),
* crediting that subset with the normalised perf change it produced, and
* consulting the RL early stopper after every generation.

:func:`build_tunio` wires a ready pipeline from offline-trained agents;
:func:`make_tuner` builds any of the tuner kinds ``tunio-tune --tuner``
names, so the map from kind to class and stopper lives here only;
:class:`TuningSession` adds the paper's future-work interactive
refinement: a session can be resumed for more iterations later, keeping
the GA population, agents and clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.iostack.simulator import IOStackSimulator, WorkloadLike
from repro.tuners.base import IterationRecord, TuningResult
from repro.tuners.hstuner import HSTuner
from repro.tuners.journal import JournalError, JournalWriter, ReplayCursor
from repro.tuners.stoppers import HeuristicStopper, NoStop

from .early_stopping import GuardedStopper, RLStopper
from .objective import PerfNormalizer
from .offline_training import TunIOAgents
from .smart_config import GuardedSubsetPicker, SmartConfigAgent

__all__ = ["TUNER_KINDS", "TunIOTuner", "build_tunio", "make_tuner", "TuningSession"]

#: The tuner kinds :func:`make_tuner` builds (``tunio-tune --tuner``).
TUNER_KINDS = ("tunio", "hstuner", "hstuner-heuristic")


class TunIOTuner(HSTuner):
    """HSTuner with TunIO's Smart Configuration Generation and RL early
    stopping attached.

    Both agents run behind one :class:`~repro.rl.guardrails.AgentGuard`
    each (see :mod:`repro.rl.guardrails`): the subset picker through a
    :class:`~repro.core.smart_config.GuardedSubsetPicker` and an
    :class:`RLStopper` through a :class:`GuardedStopper`, both recording
    trips on the tuner's :class:`~repro.rl.guardrails.GuardrailMonitor`
    (``self.guardrails``, owned by :class:`HSTuner`).  On a healthy run
    the guards are pure observers -- results are bit-identical to
    unguarded wiring.  When one trips, the affected component degrades
    to plain-GA behaviour (full parameter set / patience-heuristic
    stopping) for the rest of the run, and the trips are reported on
    :class:`~repro.tuners.base.TuningResult`.
    """

    name = "tunio"

    def __init__(
        self,
        simulator: IOStackSimulator,
        smart_config: SmartConfigAgent,
        stopper: RLStopper,
        **kwargs,
    ):
        super().__init__(simulator, stopper=stopper, **kwargs)
        # Reads the *current* fault plan each call: the CLI attaches the
        # plan after it builds the tuner, and tests swap it.
        fault_source = lambda: simulator.faults  # noqa: E731
        self._picker = GuardedSubsetPicker(smart_config, self.guardrails, fault_source)
        if isinstance(stopper, RLStopper):
            self.stopper = GuardedStopper(stopper, self.guardrails, fault_source)
        self.smart_config = smart_config
        self._current_subset: tuple[str, ...] | None = None
        self._last_best_norm: float | None = None

    # -- HSTuner extension points ------------------------------------------------

    def _select_subset(
        self, iteration: int, history: Sequence[IterationRecord]
    ) -> tuple[str, ...] | None:
        if iteration == 0:
            # Generation 0 evaluates the seed population; the agent takes
            # over from the first bred generation.  A fresh run (or a
            # journal replay) re-arms the picker here.
            self._picker.reset()
            self._current_subset = None
            self._last_best_norm = None
            return None
        last = history[-1]
        subset = self._picker.pick(
            last.best_perf,
            self._current_subset,
            iteration=iteration,
        )
        self._current_subset = subset
        recorder = self.recorder
        if recorder.enabled:
            recorder.emit(
                "agent_decision",
                agent="subset-picker",
                iteration=iteration,
                subset=None if subset is None else list(subset),
                degraded=self.guardrails.tripped("subset-picker"),
            )
        return subset

    def _observe_iteration(self, record: IterationRecord) -> None:
        norm = self.smart_config.normalizer.normalize(record.best_perf)
        if self._current_subset is not None and self._last_best_norm is not None:
            self._picker.credit_subset(
                self._current_subset, norm - self._last_best_norm
            )
        self._last_best_norm = norm

    def _journal_agent_state(self) -> dict | None:
        # Informational only: replay re-trains the agents by re-driving
        # them, so nothing here is read back on resume.
        state: dict = {
            "impact_scores": [float(s) for s in self.smart_config.impact_scores],
        }
        if self.guardrails.trips:
            state["guardrail_trips"] = [str(t) for t in self.guardrails.trips]
        return state


def build_tunio(
    simulator: IOStackSimulator,
    agents: TunIOAgents,
    normalizer: PerfNormalizer,
    expected_runs: float | None = None,
    rng: np.random.Generator | None = None,
    **kwargs,
) -> TunIOTuner:
    """Assemble a TunIO pipeline from offline-trained agents; ``kwargs``
    (``cache``, ``retry_policy``, ...) go to :class:`TunIOTuner`.

    ``normalizer`` is the job's: both agents read perf through it, so
    agents trained at another node count see perf in the range they
    were trained on."""
    agents.smart_config.normalizer = normalizer
    stopper = RLStopper(
        agents.early_stopper, normalizer, expected_runs=expected_runs
    )
    return TunIOTuner(
        simulator,
        smart_config=agents.smart_config,
        stopper=stopper,
        rng=rng,
        **kwargs,
    )


def make_tuner(
    kind: str,
    simulator: IOStackSimulator,
    *,
    agents: TunIOAgents | None = None,
    normalizer: PerfNormalizer | None = None,
    **kwargs,
) -> HSTuner:
    """Build a tuner of one of the :data:`TUNER_KINDS`: ``tunio`` via
    :func:`build_tunio` (needs ``agents`` and ``normalizer``), ``hstuner``
    with :class:`NoStop`, ``hstuner-heuristic`` with
    :class:`HeuristicStopper`.  ``kwargs`` go to the tuner."""
    if kind == "tunio":
        if agents is None or normalizer is None:
            raise ValueError("the tunio tuner needs trained agents and a normalizer")
        return build_tunio(simulator, agents, normalizer, **kwargs)
    if kind == "hstuner":
        return HSTuner(simulator, stopper=NoStop(), **kwargs)
    if kind == "hstuner-heuristic":
        return HSTuner(simulator, stopper=HeuristicStopper(), **kwargs)
    raise ValueError(f"unknown tuner kind {kind!r} (choose from {TUNER_KINDS})")


@dataclass
class TuningSession:
    """A resumable tuning session (the paper's proposed "interactive
    session feature where a configuration can be refined over time
    across a series of runs").

    The first :meth:`run` starts tuning; later calls continue from the
    preserved GA population and clock, so a user can spend budget in
    instalments.

    With ``journal_path`` set, every completed generation is appended to
    a crash-safe JSONL journal (see :mod:`repro.tuners.journal`); pass a
    :class:`~repro.tuners.journal.ReplayCursor` over the loaded journal
    as ``replay`` to resume an interrupted run bit-identically.  A
    journal records one run and ends with its ``final`` record, so a
    journaled session runs once: a second :meth:`run` raises
    :class:`~repro.tuners.journal.JournalError`.
    """

    tuner: HSTuner
    workload: WorkloadLike
    result: TuningResult | None = None
    journal_path: str | None = None
    journal_header: dict | None = None
    replay: ReplayCursor | None = None
    _writer: JournalWriter | None = None

    def run(self, iterations: int) -> TuningResult:
        """Tune for up to ``iterations`` more iterations."""
        if self.result is None:
            if self.journal_path is not None:
                header = dict(self.journal_header or {})
                header.setdefault("workload", self.workload.name)
                header.setdefault("tuner", self.tuner.name)
                self._writer = JournalWriter(
                    self.journal_path,
                    header,
                    resume_from=self.replay.journal if self.replay else None,
                )
                self.tuner.attach_journal(self._writer, self.replay)
            self.result = self.tuner.tune(self.workload, max_iterations=iterations)
        elif self.journal_path is not None:
            raise JournalError(
                f"journal {self.journal_path} already ends with its run's final "
                f"record; a journaled session runs once"
            )
        else:
            self.result = self.tuner.resume(extra_iterations=iterations)
        return self.result

    def close(self) -> None:
        """Release the journal file handle, if any."""
        if self._writer is not None:
            self._writer.close()

    @property
    def best_perf(self) -> float:
        if self.result is None:
            raise RuntimeError("session has not run yet")
        return self.result.best_perf
