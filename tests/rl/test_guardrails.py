"""Guardrail primitives: weight scans, the loss-divergence monitor, trip
bookkeeping/dedup, and checkpoint schema validation."""

import numpy as np
import pytest

from repro.iostack.faults import FaultPlan
from repro.rl.guardrails import (
    CHECKPOINT_VERSION,
    DIVERGENCE_FACTOR,
    DIVERGENCE_WARMUP,
    GRAD_LIMIT,
    AgentGuard,
    CheckpointError,
    GuardrailMonitor,
    LossDivergenceMonitor,
    corrupt_network,
    network_weight_issue,
    validate_agent_checkpoint,
)
from repro.rl.nn import MLP

pytestmark = pytest.mark.guardrails


def make_net(seed: int = 0) -> MLP:
    return MLP([4, 8, 2], rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# weight scans
# ---------------------------------------------------------------------------


def test_healthy_network_passes_the_scan():
    assert network_weight_issue(make_net()) is None


def test_scan_is_a_pure_read():
    net = make_net()
    before = [layer.weight.copy() for layer in net.layers]
    network_weight_issue(net)
    for layer, saved in zip(net.layers, before):
        assert np.array_equal(layer.weight, saved)


def test_nan_corruption_is_detected():
    net = make_net()
    corrupt_network(net, "nan-weights")
    issue = network_weight_issue(net)
    assert issue is not None and "non-finite" in issue


def test_explosion_corruption_is_detected():
    net = make_net()
    corrupt_network(net, "explode-weights")
    issue = network_weight_issue(net)
    assert issue is not None and "exploded" in issue


def test_single_poisoned_weight_is_enough():
    net = make_net()
    net.layers[1].weight[0, 0] = float("inf")
    assert network_weight_issue(net) is not None


def test_unknown_corruption_mode_rejected():
    with pytest.raises(ValueError):
        corrupt_network(make_net(), "melt")


# ---------------------------------------------------------------------------
# loss-divergence monitor
# ---------------------------------------------------------------------------


def test_monitor_accepts_a_healthy_stream():
    monitor = LossDivergenceMonitor()
    for loss in [1.0, 0.8, 0.9, 0.7, 0.85, 0.6, 40.0, 0.5]:
        assert monitor.observe(loss, grad_norm=1.0) is None


def test_monitor_ignores_missing_telemetry():
    monitor = LossDivergenceMonitor()
    assert monitor.observe(None) is None


def healthy_warmup(monitor):
    for _ in range(DIVERGENCE_WARMUP):
        assert monitor.observe(1.0) is None


def test_monitor_trips_on_divergence_after_warmup():
    monitor = LossDivergenceMonitor()
    healthy_warmup(monitor)
    reason = monitor.observe(1e7)
    assert reason is not None and "divergence" in reason


def test_monitor_is_quiet_during_warmup():
    """A wild early loss establishes the baseline instead of tripping."""
    monitor = LossDivergenceMonitor()
    assert monitor.observe(1e12) is None


def test_monitor_trips_on_non_finite_loss_immediately():
    monitor = LossDivergenceMonitor()
    reason = monitor.observe(float("nan"))
    assert reason is not None and "non-finite" in reason


def test_monitor_trips_on_gradient_explosion():
    monitor = LossDivergenceMonitor()
    assert monitor.observe(1.0, grad_norm=GRAD_LIMIT) is None
    reason = monitor.observe(1.0, grad_norm=1e9)
    assert reason is not None and "gradient explosion" in reason


def test_monitor_reset_restarts_warmup():
    monitor = LossDivergenceMonitor()
    healthy_warmup(monitor)
    assert monitor.observe(1e7) is not None
    monitor.reset()
    assert monitor.observe(1e7) is None  # back in warmup


def test_monitor_default_divergence_factor_is_1e6():
    """Online-RL losses jump orders of magnitude on reward-scale shifts;
    only a runaway beyond 1e6x the running mean trips."""
    assert DIVERGENCE_FACTOR == 1e6
    monitor = LossDivergenceMonitor()
    healthy_warmup(monitor)
    assert monitor.observe(1e5) is None
    assert "divergence" in monitor.observe(1e12)


# ---------------------------------------------------------------------------
# the agent guard
# ---------------------------------------------------------------------------


def test_guard_scans_labelled_networks_and_names_the_dirty_one():
    q, model = make_net(0), make_net(1)
    guard = AgentGuard(
        "subset-picker", (("q-network", q), ("reward-model", model)),
        GuardrailMonitor(), lambda: None,
    )
    assert guard.before_call(0) is None
    assert not guard.degraded
    corrupt_network(model, "explode-weights")
    guard.before_call(1)
    assert guard.degraded
    assert [str(t) for t in guard.monitor.trips] == [
        "subset-picker:exploded-weights at iteration 1 "
        "(reward-model: exploded weights in layer 0 (|w| up to 1e+30))"
    ]


def test_guard_applies_an_engaged_weight_fault_once_per_run():
    net = make_net()
    plan = FaultPlan(agent_fault="nan-weights", agent_fault_at=2)
    guard = AgentGuard("early-stopper", (("q-network", net),), GuardrailMonitor(), lambda: plan)
    assert guard.before_call(1) is None
    assert not guard.degraded
    assert guard.before_call(2) == "nan-weights"
    assert guard.degraded
    assert not np.isfinite(net.layers[0].weight).any()
    net.copy_from(make_net())
    guard.before_call(3)  # still engaged, but not re-applied
    assert np.isfinite(net.layers[0].weight).all()
    assert len(guard.monitor.trips) == 1
    guard.reset()
    assert not guard.degraded
    guard.before_call(3)  # a fresh run re-earns the trip
    assert guard.degraded and len(guard.monitor.trips) == 2


def test_guard_checks_telemetry_pairs_in_order_against_one_baseline():
    guard = AgentGuard("subset-picker", (), GuardrailMonitor(), lambda: None)
    for it in range(3):
        guard.check_training([(1.0, 1.0), (1.0, None)], it)
    assert not guard.degraded
    guard.check_training([(1.0, 2e6), (float("nan"), None)], 7)
    assert [str(t) for t in guard.monitor.trips] == [
        "subset-picker:training-divergence at iteration 7 "
        "(gradient explosion (|grad| 2e+06 > limit 1e+06))"
    ]


# ---------------------------------------------------------------------------
# trip bookkeeping
# ---------------------------------------------------------------------------


def test_monitor_records_every_trip():
    monitor = GuardrailMonitor()
    monitor.trip("subset-picker", "non-finite-weights", "layer 0", iteration=3)
    monitor.trip("subset-picker", "non-finite-weights", "layer 0", iteration=4)
    assert len(monitor.trips) == 2
    assert monitor.tripped()
    assert monitor.tripped("subset-picker")
    assert not monitor.tripped("early-stopper")


def test_warnings_are_deduplicated_per_guardrail_and_kind():
    """A re-tripping guardrail (NaN nets are scanned every call) emits
    exactly one warning line per distinct failure class."""
    monitor = GuardrailMonitor()
    for it in range(10):
        monitor.trip("subset-picker", "non-finite-weights", "layer 0", iteration=it)
    monitor.trip("early-stopper", "non-finite-weights", "layer 0", iteration=2)
    warnings = monitor.drain_warnings()
    assert len(warnings) == 2
    assert monitor.drain_warnings() == []  # drained


def test_trip_string_is_self_describing():
    monitor = GuardrailMonitor()
    trip = monitor.trip("early-stopper", "degenerate-policy", "stop at t=1", iteration=1)
    assert str(trip) == "early-stopper:degenerate-policy at iteration 1 (stop at t=1)"


def test_reset_rearms_dedup():
    monitor = GuardrailMonitor()
    monitor.trip("subset-picker", "invalid-output", "empty subset")
    monitor.drain_warnings()
    monitor.reset()
    assert monitor.trips == ()
    monitor.trip("subset-picker", "invalid-output", "empty subset")
    assert len(monitor.drain_warnings()) == 1


# ---------------------------------------------------------------------------
# checkpoint validation
# ---------------------------------------------------------------------------


def valid_payload() -> dict:
    return {
        "checkpoint_version": np.array(CHECKPOINT_VERSION),
        "impact_scores": np.array([0.5, 0.3, 0.2]),
        "smart_w0": np.zeros((4, 4)),
        "stop_w0": np.zeros((4, 4)),
    }


def test_valid_payload_passes():
    validate_agent_checkpoint(valid_payload())


def test_legacy_payload_without_version_passes():
    payload = valid_payload()
    del payload["checkpoint_version"]
    validate_agent_checkpoint(payload)


def test_future_version_rejected():
    payload = valid_payload()
    payload["checkpoint_version"] = np.array(CHECKPOINT_VERSION + 1)
    with pytest.raises(CheckpointError, match="newer than this build"):
        validate_agent_checkpoint(payload)


@pytest.mark.parametrize("missing", ["impact_scores", "smart_w0", "stop_w0"])
def test_missing_schema_keys_rejected(missing):
    payload = valid_payload()
    del payload[missing]
    with pytest.raises(CheckpointError):
        validate_agent_checkpoint(payload)


def test_nan_poisoned_weights_rejected():
    payload = valid_payload()
    payload["smart_w0"][1, 1] = float("nan")
    with pytest.raises(CheckpointError, match="non-finite"):
        validate_agent_checkpoint(payload)


def test_degenerate_impact_scores_rejected():
    payload = valid_payload()
    payload["impact_scores"] = np.zeros(3)
    with pytest.raises(CheckpointError):
        validate_agent_checkpoint(payload)
    payload["impact_scores"] = np.array([0.5, -0.1, 0.6])
    with pytest.raises(CheckpointError):
        validate_agent_checkpoint(payload)
