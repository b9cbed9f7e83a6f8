"""Per-node clock drift: honest safety and attacker detection.

The acceptance bar for drift support: honest nodes under bounded
:class:`~repro.sim.clock.ClockDrift` register **zero** frequency
violations across a 50-cycle event-runtime run (given a frequency
tolerance sized to the drift envelope), while an attacker forging
future timestamps to over-mint is still provably detected.
"""

import random

import pytest

from repro.adversary.frequency import FrequencyAttacker
from repro.core.config import SecureCyclonConfig
from repro.errors import ConfigError, SimulationError
from repro.experiments.scenarios import build_secure_overlay
from repro.metrics.links import view_fill_fraction
from repro.sim.clock import ClockDrift, DriftedClock, DriftPlan, SimClock
from repro.sim.scheduler import EventScheduler, PeriodJitter


# ----------------------------------------------------------------------
# the drift model itself
# ----------------------------------------------------------------------


def test_clock_drift_perception():
    drift = ClockDrift(skew_s=2.0, rate=0.01)
    assert drift.perceive(0.0) == 2.0
    assert drift.perceive(100.0) == pytest.approx(103.0)
    assert drift.offset_at(100.0) == pytest.approx(3.0)
    assert ClockDrift().is_zero
    assert not drift.is_zero


def test_clock_drift_must_run_forwards():
    with pytest.raises(SimulationError):
        ClockDrift(rate=-1.0)


def test_drifted_clock_cycle_of_timestamp_inverts_the_drift():
    """timestamp_for_cycle and cycle_of_timestamp round-trip through
    the drift, matching the invariant the un-drifted clock pins."""
    base = SimClock(period_seconds=10.0)
    drifted = DriftedClock(base, ClockDrift(skew_s=-6.0, rate=0.01))
    for cycle in (0, 1, 7, 100):
        stamp = drifted.timestamp_for_cycle(cycle)
        assert drifted.cycle_of_timestamp(stamp) == cycle
        assert drifted.cycle_of_timestamp(stamp + 1.0) == cycle


def test_drifted_clock_filters_wall_time_but_not_cycles():
    base = SimClock(period_seconds=10.0)
    drifted = DriftedClock(base, ClockDrift(skew_s=1.5, rate=0.1))
    assert drifted.now_s == pytest.approx(1.5)
    assert drifted.cycle == 0
    assert drifted.period_seconds == 10.0
    base.advance(3)  # true time 30
    assert drifted.now_s == pytest.approx(34.5)
    assert drifted.now() == drifted.now_s
    # Cycles are engine bookkeeping, not a local measurement.
    assert drifted.cycle == base.cycle == 3


def test_drift_plan_envelope_and_bound():
    plan = DriftPlan(max_skew_s=2.0, max_rate=0.01)
    rng = random.Random(3)
    for _ in range(100):
        drift = plan.draw(rng)
        assert abs(drift.skew_s) <= 2.0
        assert abs(drift.rate) <= 0.01
    assert plan.bound_at(500.0) == pytest.approx(2.0 + 5.0)
    with pytest.raises(SimulationError):
        DriftPlan(max_skew_s=-1.0)
    with pytest.raises(SimulationError):
        DriftPlan(max_rate=1.0)


def test_frequency_tolerance_validation():
    config = SecureCyclonConfig(frequency_tolerance_seconds=2.0)
    assert config.effective_frequency_period(10.0) == 8.0
    with pytest.raises(ConfigError):
        SecureCyclonConfig(frequency_tolerance_seconds=-1.0)
    with pytest.raises(ConfigError):
        SecureCyclonConfig(
            frequency_tolerance_seconds=10.0
        ).effective_frequency_period(10.0)


# ----------------------------------------------------------------------
# honest safety at 50 cycles (the acceptance criterion)
# ----------------------------------------------------------------------


def test_bounded_drift_50_cycles_zero_frequency_violations():
    """Honest-only overlay, event runtime, jittered timers, every node
    on its own drifting clock: 50 cycles must produce zero frequency
    violations, zero blacklistings, and a healthy overlay."""
    period_s = 10.0
    plan = DriftPlan(max_skew_s=2.0, max_rate=0.003)
    horizon_s = 50 * period_s
    # Tolerances sized from the envelope: two clocks can disagree by
    # at most twice the plan's bound over the run.
    assert 2 * plan.bound_at(horizon_s) < period_s
    overlay = build_secure_overlay(
        n=40,
        config=SecureCyclonConfig(
            view_length=8,
            swap_length=3,
            frequency_tolerance_seconds=2 * plan.bound_at(horizon_s),
        ),
        seed=17,
        runtime=EventScheduler(
            jitter=PeriodJitter(mode="uniform", spread=0.1)
        ),
        drift=plan,
    )
    overlay.run(50)
    engine = overlay.engine
    violations = engine.trace.of_kind("secure.violation_found")
    assert violations == []
    assert engine.trace.count("secure.blacklisted") == 0
    assert view_fill_fraction(engine) > 0.9
    # The global audit judges by the same drift-tolerant window the
    # nodes enforce on each other: no false mint-rate findings either.
    from repro import audit_engine

    assert not [
        finding
        for finding in audit_engine(engine).findings
        if finding.invariant == "mint-rate"
    ]


def test_drift_without_tolerance_throttles_slow_clocks():
    """Control for the tolerance: with zero slack, nodes whose clocks
    run slow stamp their once-per-period mints fractionally under one
    period apart and the §IV-B self-guard makes them sit activations
    out — honest but starved.  (Never *violations*: the guard and the
    predicate see the same timestamps.)"""
    overlay = build_secure_overlay(
        n=20,
        config=SecureCyclonConfig(view_length=6, swap_length=3),
        seed=19,
        runtime=EventScheduler(),
        drift=DriftPlan(max_skew_s=0.0, max_rate=0.01),
    )
    overlay.run(10)
    engine = overlay.engine
    assert engine.trace.count("secure.violation_found") == 0
    assert engine.trace.count("secure.mint_rate_limited") > 0


# ----------------------------------------------------------------------
# attacker detection survives drift
# ----------------------------------------------------------------------


def test_future_forging_overminter_still_detected_under_drift():
    """A FrequencyAttacker forges future timestamps (its burst stamps
    run ahead of its clock) to circulate extra descriptors; bounded
    honest drift plus the matching tolerance must not blind the
    detector to it."""
    plan = DriftPlan(max_skew_s=2.0, max_rate=0.003)
    overlay = build_secure_overlay(
        n=30,
        config=SecureCyclonConfig(
            view_length=8,
            swap_length=3,
            frequency_tolerance_seconds=3.0,
        ),
        malicious=2,
        attack_start=2,
        seed=23,
        attacker_cls=FrequencyAttacker,
        attacker_kwargs={"burst": 4},
        runtime=EventScheduler(
            jitter=PeriodJitter(mode="uniform", spread=0.1)
        ),
        drift=plan,
    )
    overlay.run(12)
    engine = overlay.engine
    blacklistings = engine.trace.of_kind("secure.blacklisted")
    assert blacklistings
    malicious_ids = {node.node_id for node in overlay.malicious_nodes}
    assert {event.detail["culprit"] for event in blacklistings} <= malicious_ids
    # No honest node was caught in the crossfire.
    found = engine.trace.of_kind("secure.violation_found")
    assert {event.detail["culprit"] for event in found} <= malicious_ids


def test_far_future_timestamp_rejected_by_drifted_receiver():
    """Verification tolerance bounds the future: a descriptor stamped
    beyond now + tolerance is refused even by receivers whose own
    clocks drift."""
    from repro.core.descriptor import mint

    overlay = build_secure_overlay(
        n=6,
        config=SecureCyclonConfig(view_length=4, swap_length=2),
        seed=31,
        drift=DriftPlan(max_skew_s=2.0, max_rate=0.003),
    )
    engine = overlay.engine
    nodes = list(engine.nodes.values())
    receiver, forger = nodes[0], nodes[1]
    tolerance = receiver._tolerance_cached
    forged = mint(
        forger.keypair,
        forger.address,
        receiver.clock.now_s + tolerance + 100.0,
    ).transfer(forger.keypair, forger.node_id)
    receiver._observe_all([forged], None)
    assert receiver.sample_cache.get(forged.identity) is None
    # The same stamp inside the tolerance window is acceptable.
    near = mint(
        forger.keypair, forger.address, receiver.clock.now_s + tolerance / 2
    ).transfer(forger.keypair, forger.node_id)
    receiver._observe_all([near], None)
    assert receiver.sample_cache.get(near.identity) is near
