"""Deterministic fault injection for the simulated I/O stack.

Real tuning campaigns on shared HPC systems do not enjoy the clean
``configuration -> bandwidth`` oracle the rest of the reproduction
assumes: evaluations straggle behind slow OSTs, batch jobs die on launch,
parallel file systems degrade for minutes at a time, and the occasional
configuration reliably wedges the I/O middleware.  :class:`FaultPlan`
makes all of that a first-class, *injectable* and *reproducible*
condition so the tuning pipeline can be exercised (and regression-tested)
under turbulence.

Fault taxonomy
--------------
* **Transient evaluation errors** -- a stack traversal
  (:meth:`~repro.iostack.simulator.IOStackSimulator.trace`) raises
  :class:`TransientFaultError` with probability ``transient_error_rate``.
  The decision is drawn per ``(config, attempt)``, so a retry of the same
  configuration sees an independent draw and the schedule does not depend
  on thread timing.
* **Latency stragglers** -- a replayed run's service times are inflated
  by ``straggler_slowdown`` with probability ``straggler_rate`` (an
  evaluation that lands on a slow OST or a congested router).  Stragglers
  lower the measured bandwidth *and* lengthen the charged runtime, which
  is how they interact with the harness's evaluation timeout.
* **Degraded bandwidth windows** -- :class:`DegradedWindow` intervals of
  the *simulated tuning clock* during which every run's service times are
  multiplied by ``slowdown`` (a file-system-wide degradation, e.g. an OST
  rebuild).  Attach the tuning clock with :meth:`FaultPlan.attach_clock`.
* **Poisoned configurations** -- configurations registered through
  :meth:`poison` always fail with :class:`PoisonedConfigError`, retries
  notwithstanding; the harness quarantines them.

Determinism contract
--------------------
Like :class:`~repro.iostack.noise.NoiseModel`, a plan is seeded and
stream-positional: the transient-error decision for a configuration's
``k``-th attempt depends only on ``(seed, config digest, k)``, and the
straggler decision for the ``k``-th replay depends only on ``(seed,
k)``.  The per-config attempt counters and the replay counter are the
only mutable state; :meth:`get_state`/:meth:`set_state` round-trip them
through JSON for the tuning journal, so a resumed run replays the exact
fault schedule of the interrupted one.  A plan never touches the noise
stream, and an inactive plan (all rates zero, no windows, no poison)
leaves every simulated result bit-identical to running without one.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (simulator imports us)
    from .clock import SimulatedClock
    from .config import StackConfiguration

__all__ = [
    "AGENT_FAULT_MODES",
    "EvaluationError",
    "TransientFaultError",
    "PoisonedConfigError",
    "EvaluationTimeout",
    "DegradedWindow",
    "FaultPlan",
    "config_digest",
]

#: Agent-level fault modes (``FaultPlan.agent_fault``), one per
#: degradation path of the guardrailed pipeline:
#:
#: * ``nan-weights`` -- both agents' network weights overwritten with
#:   NaN (silent in-memory corruption).
#: * ``explode-weights`` -- weights overwritten with huge finite values
#:   (a training blow-up that never went non-finite).
#: * ``stop-now`` -- degenerate always-stop early-stopper policy (caught
#:   only inside the stopper's warm-up; after it, the stop is obeyed).
#: * ``empty-subset`` -- the subset picker emits empty subsets.
#: * ``constant-subset`` -- the subset picker emits the same fixed
#:   subset forever, ignoring its inputs.
#: * ``checkpoint-truncation`` -- the agents checkpoint file is
#:   truncated after saving, so the next load fails validation.
AGENT_FAULT_MODES = (
    "nan-weights",
    "explode-weights",
    "stop-now",
    "empty-subset",
    "constant-subset",
    "checkpoint-truncation",
)


class EvaluationError(Exception):
    """An evaluation failed in a way the harness may retry or quarantine.

    Raised by fault injection (subclasses below), by the objective path
    on non-finite performance values, and by the resilient harness when
    converting timeouts into failures.  Anything *not* derived from this
    class is treated as a genuine bug and propagates.
    """


class TransientFaultError(EvaluationError):
    """An injected transient failure (crashed job step, I/O error)."""


class PoisonedConfigError(EvaluationError):
    """A configuration registered as always-failing was evaluated."""


class EvaluationTimeout(EvaluationError):
    """An evaluation exceeded the harness's simulated timeout."""


def config_digest(config: "StackConfiguration") -> str:
    """A process-stable hex digest of a configuration.

    ``hash(config)`` folds in randomized string hashes, so it cannot key
    fault schedules or quarantine entries that must survive a process
    restart (journal resume).  This digest walks the parameter names and
    values in space order instead.
    """
    h = hashlib.blake2b(digest_size=8)
    for name in config.space.names:
        h.update(name.encode())
        h.update(b"=")
        h.update(repr(config[name]).encode())
        h.update(b";")
    return h.hexdigest()


@dataclass(frozen=True)
class DegradedWindow:
    """A simulated-clock interval of file-system-wide degradation.

    ``start_minutes <= t < end_minutes`` of *tuning clock* time; every
    replay inside the window has its service times multiplied by
    ``slowdown`` (>= 1).
    """

    start_minutes: float
    end_minutes: float
    slowdown: float

    def __post_init__(self) -> None:
        if self.start_minutes < 0 or self.end_minutes <= self.start_minutes:
            raise ValueError("need 0 <= start_minutes < end_minutes")
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1")

    def covers(self, minutes: float) -> bool:
        return self.start_minutes <= minutes < self.end_minutes

    @classmethod
    def parse(cls, spec: str) -> "DegradedWindow":
        """Parse a ``start:end:slowdown`` CLI spec (minutes)."""
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"degraded window spec must be start:end:slowdown, got {spec!r}"
            )
        return cls(float(parts[0]), float(parts[1]), float(parts[2]))


#: Seed salts decorrelating the plan's decision streams from each other.
_TRACE_SALT = 0x7A5C3
_REPLAY_SALT = 0x51F15


@dataclass
class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    Parameters
    ----------
    seed:
        Base seed of every fault decision stream.
    transient_error_rate:
        Per-attempt probability that a stack traversal raises
        :class:`TransientFaultError`.
    straggler_rate, straggler_slowdown:
        Per-replay probability and magnitude of a latency straggler.
    degraded_windows:
        Simulated-clock intervals of file-system degradation.
    agent_fault, agent_fault_at:
        Agent-level fault mode (one of :data:`AGENT_FAULT_MODES`, or
        ``None``) and the tuning iteration it engages at.  Weight faults
        are applied by each agent's :class:`repro.rl.guardrails.AgentGuard`,
        forced outputs by the guarded agents that hold one
        (:class:`repro.core.smart_config.GuardedSubsetPicker`,
        :class:`repro.core.early_stopping.GuardedStopper`), and
        ``checkpoint-truncation`` by the CLI's checkpoint path;
        deterministic (no random stream involved).
    """

    seed: int = 0
    transient_error_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_slowdown: float = 4.0
    degraded_windows: tuple[DegradedWindow, ...] = ()
    agent_fault: str | None = None
    agent_fault_at: int = 0

    #: Cumulative injection counters (observability; not part of the
    #: determinism contract).
    transient_errors_injected: int = field(default=0, repr=False)
    stragglers_injected: int = field(default=0, repr=False)

    _poisoned: dict[str, str] = field(default_factory=dict, repr=False)
    _trace_attempts: dict[str, int] = field(default_factory=dict, repr=False)
    _replay_counter: int = field(default=0, repr=False)
    _clock: "SimulatedClock | None" = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.transient_error_rate < 1.0:
            raise ValueError("transient_error_rate must be in [0, 1)")
        if not 0.0 <= self.straggler_rate < 1.0:
            raise ValueError("straggler_rate must be in [0, 1)")
        if self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1")
        if self.agent_fault is not None and self.agent_fault not in AGENT_FAULT_MODES:
            raise ValueError(
                f"unknown agent_fault {self.agent_fault!r}; "
                f"known modes: {', '.join(AGENT_FAULT_MODES)}"
            )
        if self.agent_fault_at < 0:
            raise ValueError("agent_fault_at must be >= 0")
        self.degraded_windows = tuple(self.degraded_windows)

    # -- configuration ---------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when any fault source can fire."""
        return bool(
            self.transient_error_rate > 0
            or self.straggler_rate > 0
            or self.degraded_windows
            or self._poisoned
            or self.agent_fault is not None
        )

    def agent_fault_active(self, iteration: int) -> str | None:
        """The agent fault mode engaged at ``iteration``, or ``None``."""
        if self.agent_fault is None or iteration < self.agent_fault_at:
            return None
        return self.agent_fault

    def poison(self, config: "StackConfiguration") -> None:
        """Register a configuration that always fails."""
        self._poisoned[config_digest(config)] = repr(config)

    def attach_clock(self, clock: "SimulatedClock | None") -> None:
        """Tie degraded windows to a tuning clock (the harness does this
        at the start of every tune)."""
        self._clock = clock

    # -- decision streams --------------------------------------------------------

    def check_trace(self, config: "StackConfiguration") -> None:
        """Fault decision for one stack-traversal attempt of ``config``.

        Raises :class:`PoisonedConfigError` or
        :class:`TransientFaultError` when the attempt faults; otherwise
        returns (and leaves the traversal untouched).  Thread-safe: the
        per-config attempt counter is advanced under a lock, and the
        decision depends only on ``(seed, config digest, attempt)``.
        """
        digest = config_digest(config)
        poisoned = self._poisoned.get(digest)
        if poisoned is not None:
            raise PoisonedConfigError(f"poisoned configuration {poisoned}")
        if self.transient_error_rate <= 0:
            return
        with self._lock:
            attempt = self._trace_attempts.get(digest, 0)
            self._trace_attempts[digest] = attempt + 1
        rng = np.random.default_rng(
            (self.seed ^ _TRACE_SALT, int(digest, 16), attempt)
        )
        if rng.random() < self.transient_error_rate:
            with self._lock:
                self.transient_errors_injected += 1
            raise TransientFaultError(
                f"injected transient fault (attempt {attempt}) evaluating {config!r}"
            )

    def replay_slowdown(self) -> float:
        """Service-time multiplier for the next replayed run: straggler
        draw times the degradation of the current clock window.  Returns
        exactly 1.0 when nothing fires (so multiplying by it preserves
        bit-identity)."""
        counter = self._replay_counter
        self._replay_counter += 1
        slowdown = 1.0
        if self.straggler_rate > 0:
            rng = np.random.default_rng((self.seed ^ _REPLAY_SALT, counter))
            if rng.random() < self.straggler_rate:
                slowdown *= self.straggler_slowdown
                self.stragglers_injected += 1
        if self.degraded_windows and self._clock is not None:
            minutes = self._clock.elapsed_minutes
            for window in self.degraded_windows:
                if window.covers(minutes):
                    slowdown *= window.slowdown
        return slowdown

    # -- journal state ------------------------------------------------------------

    def get_state(self) -> dict[str, Any]:
        """JSON-serialisable mutable state (stream positions and
        injection counters) for the tuning journal."""
        return {
            "replay_counter": self._replay_counter,
            "trace_attempts": dict(self._trace_attempts),
            "transient_errors_injected": self.transient_errors_injected,
            "stragglers_injected": self.stragglers_injected,
        }

    def set_state(self, state: Mapping[str, Any]) -> None:
        """Restore stream positions captured by :meth:`get_state`."""
        self._replay_counter = int(state["replay_counter"])
        self._trace_attempts = {
            str(k): int(v) for k, v in state["trace_attempts"].items()
        }
        self.transient_errors_injected = int(
            state.get("transient_errors_injected", 0)
        )
        self.stragglers_injected = int(state.get("stragglers_injected", 0))

    def reset(self) -> None:
        """Rewind every decision stream to its start (new campaign)."""
        self._replay_counter = 0
        self._trace_attempts.clear()
        self.transient_errors_injected = 0
        self.stragglers_injected = 0
