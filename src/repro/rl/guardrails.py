"""Guardrails for the RL agents: detect broken learning, never act on it.

TunIO's promise is that its agents only ever *help*: Impact-First
subsetting and RL early stopping should make tuning cheaper, never make
the tuned result worse than plain HSTuner.  A NaN-poisoned network, an
exploded Q-function, a truncated checkpoint or a policy that collapsed
into "always stop" breaks that promise silently -- inference still
returns *something*, and the GA dutifully obeys it for a whole campaign.

This module supplies the detection layer:

* **Weight checks** -- :func:`network_weight_issue` scans an
  :class:`~repro.rl.nn.MLP`'s parameters for non-finite or exploded
  values.  Scans are pure reads: no forward pass, no RNG, no state
  change -- calling them on a healthy agent leaves a tuning run
  bit-identical.
* **Training monitors** -- :class:`LossDivergenceMonitor` watches the
  loss/gradient-norm telemetry the networks publish
  (:attr:`MLP.last_loss` / :attr:`MLP.last_grad_norm`) for divergence
  and gradient explosion.
* **Trip bookkeeping** -- :class:`GuardrailMonitor` records every
  :class:`GuardrailTrip` and deduplicates the user-facing warnings (one
  line per distinct guardrail/kind, however many evaluations re-trip it).
* **The agent guard** -- :class:`AgentGuard` is the one place the
  "is this agent broken?" decision lives: it applies an engaged weight
  fault, scans the agent's labelled networks before each call, checks
  its training telemetry after it, and holds the permanent ``degraded``
  state.  Both agents hold one, and both are driven only through Table
  I's :class:`repro.core.api.TunIO`: its subset picker (degrades to the
  full parameter set) and its :class:`repro.core.early_stopping.RLStopper`
  (degrades to the patience heuristic); each adds only the checks on
  its own outputs.
* **Checkpoint validation** -- :func:`validate_agent_checkpoint` checks
  an agent checkpoint's schema, version and value sanity before any
  weight is installed; :class:`CheckpointError` is the single failure
  type the pipeline (and the CLI's exit-code mapping) handles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from .nn import MLP

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.iostack.faults import FaultPlan

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "GuardrailTrip",
    "GuardrailMonitor",
    "LossDivergenceMonitor",
    "AgentGuard",
    "network_weight_issue",
    "corrupt_network",
    "validate_agent_checkpoint",
]

#: Magnitude beyond which a weight is considered exploded even though it
#: is still finite (Adam with MSE on normalised features keeps healthy
#: weights many orders of magnitude below this).
WEIGHT_LIMIT = 1e12

# -- trips ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuardrailTrip:
    """One guardrail activation.

    ``guardrail`` names the guarded component (``subset-picker``,
    ``early-stopper``, ``checkpoint``); ``kind`` the failure class
    (``non-finite-weights``, ``exploded-weights``, ``loss-divergence``,
    ``gradient-explosion``, ``degenerate-policy``, ``invalid-output``,
    ``schema``); ``detail`` is the human-readable specifics.
    """

    guardrail: str
    kind: str
    detail: str
    iteration: int | None = None

    def __str__(self) -> str:
        where = f" at iteration {self.iteration}" if self.iteration is not None else ""
        return f"{self.guardrail}:{self.kind}{where} ({self.detail})"


class GuardrailMonitor:
    """Collects guardrail trips and deduplicates their warnings.

    A guardrail that keeps re-tripping (a NaN network is scanned before
    *every* decision) records every trip but surfaces **one** warning
    line per distinct ``(guardrail, kind)`` pair, so long campaigns do
    not flood stdout or the journal.  :meth:`drain_warnings` hands the
    not-yet-emitted lines to the caller (the pipeline drains once per
    generation).
    """

    def __init__(self) -> None:
        self._trips: list[GuardrailTrip] = []
        self._seen: set[tuple[str, str]] = set()
        self._pending: list[str] = []
        #: Optional trace recorder (duck-typed; see
        #: :mod:`repro.observability.recorder`).  None by default so the
        #: monitor needs no observability import.
        self.recorder = None

    def trip(
        self,
        guardrail: str,
        kind: str,
        detail: str,
        iteration: int | None = None,
    ) -> GuardrailTrip:
        """Record a trip; queue its warning unless an identical
        ``(guardrail, kind)`` already produced one."""
        trip = GuardrailTrip(guardrail, kind, detail, iteration)
        self._trips.append(trip)
        key = (guardrail, kind)
        if key not in self._seen:
            self._seen.add(key)
            self._pending.append(f"guardrail tripped: {trip}")
        recorder = self.recorder
        if recorder is not None and recorder.enabled:
            recorder.emit(
                "guardrail_trip",
                guardrail=guardrail,
                kind=kind,
                detail=detail,
                iteration=iteration,
            )
        return trip

    @property
    def trips(self) -> tuple[GuardrailTrip, ...]:
        return tuple(self._trips)

    def tripped(self, guardrail: str | None = None) -> bool:
        """Whether anything (or a specific guardrail) has tripped."""
        if guardrail is None:
            return bool(self._trips)
        return any(t.guardrail == guardrail for t in self._trips)

    def drain_warnings(self) -> list[str]:
        """Deduplicated warning lines queued since the last drain."""
        out, self._pending = self._pending, []
        return out

    def reset(self) -> None:
        self._trips.clear()
        self._seen.clear()
        self._pending.clear()


# -- weight checks -------------------------------------------------------------------


def network_weight_issue(mlp: MLP) -> str | None:
    """Why an MLP's parameters are unusable, or ``None`` if healthy.

    Pure read: no forward pass, no RNG draw, no mutation.
    """
    for i, layer in enumerate(mlp.layers):
        for label, arr in (("weights", layer.weight), ("biases", layer.bias)):
            if not np.all(np.isfinite(arr)):
                return f"non-finite {label} in layer {i}"
            peak = float(np.abs(arr).max()) if arr.size else 0.0
            if peak > WEIGHT_LIMIT:
                return f"exploded {label} in layer {i} (|w| up to {peak:.3g})"
    return None


def corrupt_network(mlp: MLP, mode: str) -> None:
    """Deterministically corrupt a network in place (fault injection).

    ``nan-weights`` poisons every parameter with NaN; ``explode-weights``
    sets them to a huge finite magnitude.  Used by the agent-level fault
    modes so the detection path is exercised end-to-end on the *real*
    corrupted networks, not on mocks.
    """
    if mode == "nan-weights":
        value = float("nan")
    elif mode == "explode-weights":
        value = 1e30
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    for layer in mlp.layers:
        layer.weight.fill(value)
        layer.bias.fill(value)


# -- training monitors ----------------------------------------------------------------


#: A loss more than this many times the running mean of the healthy
#: losses is divergence.  Online-RL losses legitimately jump orders of
#: magnitude when the reward scale shifts (a new best perf rescales the
#: Q-targets), so only true numerical runaway -- many orders beyond any
#: healthy Q-value -- may trip, or healthy runs would spuriously degrade.
DIVERGENCE_FACTOR = 1e6
#: Gradient norm beyond which a training step is an explosion.
GRAD_LIMIT = 1e6
#: Healthy losses seen before divergence is judged.
DIVERGENCE_WARMUP = 5


class LossDivergenceMonitor:
    """Watches a training-loss stream for divergence and exploding
    gradients.

    Feed it the per-step telemetry the networks publish
    (:attr:`MLP.last_loss` / :attr:`MLP.last_grad_norm`);
    :meth:`observe` returns a trip reason when the stream goes bad, and
    ``None`` while it is healthy.  Divergence means the loss exceeds
    :data:`DIVERGENCE_FACTOR` times the running mean of the healthy
    losses seen so far, judged once :data:`DIVERGENCE_WARMUP` of them
    are in; a gradient norm above :data:`GRAD_LIMIT` is an explosion.
    """

    def __init__(self) -> None:
        self._seen = 0
        self._baseline = 0.0

    def observe(self, loss: float | None, grad_norm: float | None = None) -> str | None:
        """Record one training step; return a trip reason or ``None``."""
        if loss is None:
            return None
        if not np.isfinite(loss):
            return f"non-finite training loss ({loss})"
        if grad_norm is not None:
            if not np.isfinite(grad_norm):
                return f"non-finite gradient norm ({grad_norm})"
            if grad_norm > GRAD_LIMIT:
                return (
                    f"gradient explosion (|grad| {grad_norm:.3g} "
                    f"> limit {GRAD_LIMIT:.3g})"
                )
        if self._seen >= DIVERGENCE_WARMUP:
            threshold = DIVERGENCE_FACTOR * max(self._baseline, 1e-12)
            if loss > threshold:
                return (
                    f"loss divergence ({loss:.3g} > {DIVERGENCE_FACTOR:g}x "
                    f"baseline {self._baseline:.3g})"
                )
        # Running mean of healthy losses only (a diverged step must not
        # drag the baseline up after itself).
        self._baseline = (self._baseline * self._seen + float(loss)) / (self._seen + 1)
        self._seen += 1
        return None

    def reset(self) -> None:
        self._seen = 0
        self._baseline = 0.0


# -- the agent guard ------------------------------------------------------------------

#: Agent fault modes that corrupt the networks (``FaultPlan.agent_fault``).
_WEIGHT_FAULTS = ("nan-weights", "explode-weights")


class AgentGuard:
    """What every guarded agent shares: fault injection, the weight and
    training-health checks, and the permanent ``degraded`` state.

    ``networks`` are the agent's labelled networks, e.g.
    ``(("q-network", ...), ("target-network", ...))``, scanned in that
    order before every call; a trip's detail names the first unusable
    one.  Trips are recorded on ``monitor`` under ``guardrail``.
    ``fault_source`` returns the *current*
    :class:`~repro.iostack.faults.FaultPlan`; it is read on every call
    because the simulator's plan may change after the agent is wrapped:
    ``tunio-tune`` attaches the run's plan after building the tuner, and
    tests swap a simulator's plan.

    Every check is a pure read made before the agent would draw a random
    number, so a healthy guarded agent is bit-identical to a bare one,
    and a run degraded at iteration ``k`` consumes the same random
    streams as one wired with the fallback from the start.  Once tripped
    the guard stays degraded until :meth:`reset`, which a fresh tune (or
    a journal replay) calls so the trip is re-earned deterministically.
    """

    def __init__(
        self,
        guardrail: str,
        networks: Sequence[tuple[str, MLP]],
        monitor: GuardrailMonitor,
        fault_source: Callable[[], "FaultPlan | None"],
    ):
        self.guardrail = guardrail
        self.networks = tuple(networks)
        self.monitor = monitor
        self._fault_source = fault_source
        self._loss_monitor = LossDivergenceMonitor()
        self._corrupted = False
        self.degraded = False

    def trip(self, kind: str, detail: str, iteration: int | None = None) -> None:
        """Record a trip and degrade for the rest of the run."""
        self.monitor.trip(self.guardrail, kind, detail, iteration=iteration)
        self.degraded = True

    def before_call(self, iteration: int) -> str | None:
        """The pre-call checks; returns the agent fault engaged at
        ``iteration`` (``None`` without one).

        An engaged weight fault corrupts the networks, once per run;
        then the networks are scanned and the first unusable one trips
        the guard (the caller checks :attr:`degraded`)."""
        plan = self._fault_source()
        fault = plan.agent_fault_active(iteration) if plan is not None else None
        if fault in _WEIGHT_FAULTS and not self._corrupted:
            self._corrupted = True
            for _, net in self.networks:
                corrupt_network(net, fault)
        for label, net in self.networks:
            issue = network_weight_issue(net)
            if issue is not None:
                kind = "non-finite" if issue.startswith("non-finite") else "exploded"
                self.trip(f"{kind}-weights", f"{label}: {issue}", iteration)
                break
        return fault

    def check_training(
        self,
        telemetry: Sequence[tuple[float | None, float | None]],
        iteration: int,
    ) -> None:
        """Feed a call's ``(loss, grad_norm)`` pairs, in order, to the
        guard's one running loss baseline; the first bad pair trips."""
        for loss, grad_norm in telemetry:
            reason = self._loss_monitor.observe(loss, grad_norm)
            if reason is not None:
                self.trip("training-divergence", reason, iteration)
                return

    def reset(self) -> None:
        self.degraded = False
        self._corrupted = False
        self._loss_monitor.reset()


# -- checkpoint validation -------------------------------------------------------------

#: Version written into agent checkpoints by ``save_agents``.
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """An agent checkpoint failed schema/version/shape/value validation.

    Raised before any weight is installed, so a bad checkpoint can never
    half-load an agent; the message names the offending key and the fix.
    """


def validate_agent_checkpoint(
    data: Mapping[str, Any],
    path: str = "<checkpoint>",
) -> None:
    """Validate a :func:`~repro.core.offline_training.save_agents`-style
    payload (name -> array) before installing any weights.

    Checks performed, in order:

    * a ``checkpoint_version`` no newer than this build understands
      (missing = legacy, accepted);
    * the schema: ``impact_scores`` plus at least one ``smart_`` and one
      ``stop_`` weight array each;
    * every array finite (a NaN-poisoned checkpoint is rejected here, so
      corruption is caught at load time rather than mid-campaign);
    * ``impact_scores`` non-negative with positive sum.
    """
    keys = list(data.keys())
    version_arr = data.get("checkpoint_version")
    if version_arr is not None:
        version = int(np.asarray(version_arr))
        if version > CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {version} is newer than this "
                f"build understands (max {CHECKPOINT_VERSION}); re-train the "
                f"agents or upgrade"
            )
    if "impact_scores" not in keys:
        raise CheckpointError(
            f"{path}: missing 'impact_scores' (not an agents checkpoint, or "
            f"truncated during write); re-train with --agents-cache to rebuild"
        )
    for prefix, component in (("smart_", "smart-config agent"), ("stop_", "early stopper")):
        if not any(k.startswith(prefix) for k in keys):
            raise CheckpointError(
                f"{path}: no '{prefix}*' arrays -- the {component} weights are "
                f"missing (truncated or partial checkpoint); re-train to rebuild"
            )
    for key in keys:
        arr = np.asarray(data[key])
        if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
            raise CheckpointError(
                f"{path}: array {key!r} contains non-finite values (corrupted "
                f"checkpoint); re-train to rebuild"
            )
    impact = np.asarray(data["impact_scores"], dtype=float)
    if impact.ndim != 1 or impact.size < 1 or np.any(impact < 0) or impact.sum() <= 0:
        raise CheckpointError(
            f"{path}: 'impact_scores' must be a non-negative 1-D array with a "
            f"positive sum, got shape {impact.shape}"
        )
