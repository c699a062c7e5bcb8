"""Cross-parameter constraint registry: actionable violations,
deterministic repair, and the algebraic properties the GA relies on (idempotence,
order-stability, RNG-neutrality)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ga import Individual, repair_individual
from repro.iostack import (
    StackConfiguration,
    TUNED_SPACE,
    cori,
)
from repro.iostack.parameters import (
    ConstraintContext,
    ConstraintRegistry,
    default_constraints,
)

pytestmark = pytest.mark.guardrails

# A deliberately tight context: fewer OSTs than the largest stripe
# candidate and fewer ranks than the largest cb_nodes candidate, so the
# upper-bound rules actually bite.
TIGHT = ConstraintContext(n_osts=24, n_procs=64)
REGISTRY = default_constraints(context=TIGHT)


def random_values(seed: int) -> dict:
    config = StackConfiguration.random(np.random.default_rng(seed))
    return {name: config[name] for name in config}


# ---------------------------------------------------------------------------
# registry basics
# ---------------------------------------------------------------------------


def test_default_registry_has_the_documented_rules():
    names = [c.name for c in REGISTRY]
    assert "stripe-vs-osts" in names
    assert "aggregators-vs-ranks" in names
    assert "alignment-divides-stripe" in names
    assert "stripe-divides-cb" in names


def test_unbound_context_skips_scale_rules():
    """With no platform facts, the upper-bound rules never reject."""
    unbound = default_constraints(context=ConstraintContext())
    default = StackConfiguration.default()
    values = {name: default[name] for name in default}
    values["striping_factor"] = max(
        v for v in TUNED_SPACE["striping_factor"].values
    )
    violations = unbound.violations(values)
    assert all(v.constraint != "stripe-vs-osts" for v in violations)


def test_context_rejects_nonsense_scales():
    with pytest.raises(ValueError):
        ConstraintContext(n_osts=0)
    with pytest.raises(ValueError):
        ConstraintContext(n_procs=-4)


def test_context_for_run_reads_platform_and_workload():
    platform = cori(4)

    class W:
        n_procs = 128

    ctx = ConstraintContext.for_run(platform, W())
    assert ctx.n_osts == platform.n_osts
    assert ctx.n_procs == 128


# ---------------------------------------------------------------------------
# violations
# ---------------------------------------------------------------------------


def test_violations_carry_actionable_messages():
    default = StackConfiguration.default()
    values = {name: default[name] for name in default}
    values["striping_factor"] = max(
        v for v in TUNED_SPACE["striping_factor"].values if v > TIGHT.n_osts
    )
    (violation,) = REGISTRY.violations(values)
    message = str(violation)
    assert "stripe-vs-osts" in message
    assert "repair would set striping_factor=" in message
    assert violation.parameter == "striping_factor"


def test_clean_configuration_validates_silently():
    config = StackConfiguration.default()
    assert REGISTRY.violations(dict(config)) == []


# ---------------------------------------------------------------------------
# repair properties (the GA's contract)
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_repair_is_validate_clean(seed):
    """repair() output always passes strict validation."""
    repaired = REGISTRY.repair(random_values(seed))
    assert REGISTRY.violations(repaired) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_repair_is_idempotent(seed):
    fixed = REGISTRY.repair(random_values(seed))
    assert REGISTRY.repair(fixed) == fixed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_repair_is_deterministic(seed):
    values = random_values(seed)
    assert REGISTRY.repair(values) == REGISTRY.repair(dict(values))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
def test_repair_fixed_point_is_order_stable(seed, shuffle_seed):
    """Shuffling the constraint order never changes the fixed point
    (each repair only lowers its parameter, so chaotic iteration of the
    rules converges to one projection)."""
    values = random_values(seed)
    baseline = REGISTRY.repair(values)
    rules = list(REGISTRY)
    random.Random(shuffle_seed).shuffle(rules)
    shuffled = ConstraintRegistry(rules, TIGHT)
    assert shuffled.repair(values) == baseline


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_repair_only_touches_constrained_parameters(seed):
    values = random_values(seed)
    constrained = {p for c in REGISTRY for p in c.parameters()}
    repaired = REGISTRY.repair(values)
    for name, value in values.items():
        if name not in constrained:
            assert repaired[name] == value


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_repaired_values_stay_on_the_candidate_grid(seed):
    repaired = REGISTRY.repair(random_values(seed))
    for name, value in repaired.items():
        assert value in TUNED_SPACE[name].values


# ---------------------------------------------------------------------------
# genome-level repair (GA integration)
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_repair_genome_matches_value_repair(seed):
    rng = np.random.default_rng(seed)
    genome = np.array(
        [rng.integers(0, p.cardinality) for p in TUNED_SPACE], dtype=np.int64
    )
    repaired = REGISTRY.repair_genome(genome)
    assert TUNED_SPACE.decode(repaired) == REGISTRY.repair(TUNED_SPACE.decode(genome))


def test_repair_individual_is_identity_on_clean_genomes():
    """Clean individuals come back as the *same object* (fitness kept,
    no RNG consumed) -- the property that keeps constraint-armed GA runs
    bit-identical when variation happens to produce valid children."""
    clean = REGISTRY.repair(dict(StackConfiguration.default()))
    ind = Individual(TUNED_SPACE.encode(clean))
    assert repair_individual(ind, REGISTRY) is ind


def test_repair_individual_projects_dirty_genomes():
    default = StackConfiguration.default()
    values = {name: default[name] for name in default}
    values["striping_factor"] = max(
        v for v in TUNED_SPACE["striping_factor"].values
    )
    ind = Individual(TUNED_SPACE.encode(values))
    fixed = repair_individual(ind, REGISTRY)
    assert REGISTRY.violations(TUNED_SPACE.decode(fixed.genome)) == []
