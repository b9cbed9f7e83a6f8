"""The resume contract: checkpoint + fresh rebuild == unbroken run.

The matrix runs {object, wire} transports × {sequential, batched}
chain verifiers (pinned past the transport's own choice): a run
checkpointed at its midpoint and resumed into a freshly built engine
must reproduce the unbroken run's probe series
and final node state exactly — every RNG stream, view, cache,
blacklist, adversary pool, and counter carried over bit-for-bit.

Also covered: the scheduler-driven :class:`CheckpointPolicy` (every-N
and on-demand), the experiments CLI's ``split_runs`` hook, resuming
under the event runtime (state restores; documented
no-bit-exactness-limitation), and the typed rejection of mismatched
checkpoints (wrong seed, wrong period, wrong population, engine
already past the file).
"""

import dataclasses

import pytest

from repro.adversary.cloning import CloningAttacker
from repro.core.config import SecureCyclonConfig
from repro.cyclon.config import CyclonConfig
from repro.errors import CheckpointError, ConfigError, SimulationError
from repro.experiments.scenarios import build_cyclon_overlay, build_secure_overlay
from repro.metrics.collector import standard_probes
from repro.ops.checkpoint import (
    CheckpointPolicy,
    restore_checkpoint,
    save_checkpoint,
    split_runs,
)
from repro.sim.engine import SimConfig
from repro.sim.observers import SeriesObserver
from repro.sim.transport import ENV_TRANSPORT

NODES = 36
MALICIOUS = 4
CYCLES = 10
HALF = CYCLES // 2


def _build(seed: int = 13, **engine_kwargs):
    overlay = build_secure_overlay(
        n=NODES,
        config=SecureCyclonConfig(view_length=8, swap_length=3),
        malicious=MALICIOUS,
        attack_start=2,
        seed=seed,
        **engine_kwargs,
    )
    observer = SeriesObserver(standard_probes())
    overlay.engine.add_observer(observer)
    return overlay, observer


def _node_state(overlay):
    return {
        node_id: (
            tuple(
                (entry.descriptor, entry.non_swappable)
                for entry in node.view._entries
            ),
            node.blacklist.proofs_tuple(),
            node.current_cycle,
        )
        for node_id, node in overlay.engine.nodes.items()
    }


@pytest.mark.parametrize("transport", ["object", "wire"])
@pytest.mark.parametrize("verification", ["sequential", "batched"])
def test_resume_matches_unbroken_run(
    monkeypatch, force_verifier, tmp_path, transport, verification
):
    monkeypatch.setenv(ENV_TRANSPORT, transport)
    force_verifier(verification)

    unbroken, unbroken_obs = _build()
    assert {
        node._vplan is not None
        for node in unbroken.engine.nodes.values()
        if hasattr(node, "_vplan")
    } == {verification == "batched"}
    unbroken.run(CYCLES)

    first, _ = _build()
    first.run(HALF)
    path = save_checkpoint(first.engine, tmp_path / "mid.ckpt")

    resumed, resumed_obs = _build()
    header = restore_checkpoint(resumed.engine, path)
    assert header.cycle == HALF
    assert resumed.engine.clock.cycle == HALF
    resumed.run(CYCLES - HALF)

    assert resumed_obs.series == unbroken_obs.series
    assert _node_state(resumed) == _node_state(unbroken)
    assert (
        resumed.engine.network.dialogues_opened
        == unbroken.engine.network.dialogues_opened
    )
    assert (
        resumed.engine.network.push_bytes
        == unbroken.engine.network.push_bytes
    )
    assert list(resumed.engine.trace) == list(unbroken.engine.trace)


def test_resume_with_peer_health_ledger(tmp_path):
    """The health ledger's scores/quarantine state survive a resume."""
    kwargs = {"sim_config": SimConfig(seed=13, peer_health=True)}
    unbroken, unbroken_obs = _build(**kwargs)
    unbroken.run(CYCLES)

    first, _ = _build(**kwargs)
    first.run(HALF)
    path = save_checkpoint(first.engine, tmp_path / "health.ckpt")

    resumed, resumed_obs = _build(**kwargs)
    restore_checkpoint(resumed.engine, path)
    resumed.run(CYCLES - HALF)

    assert resumed_obs.series == unbroken_obs.series
    reference = unbroken.engine.network.peer_health
    candidate = resumed.engine.network.peer_health
    assert candidate._scores == reference._scores
    assert candidate._quarantined == reference._quarantined
    assert candidate.quarantine_events == reference.quarantine_events


def test_event_runtime_resume_restores_state(tmp_path):
    """Event runtime: state restores cleanly (no bit-exactness promise —
    the in-flight event queue is rebuilt, not serialised)."""
    first, _ = _build(runtime="event")
    first.run(HALF)
    path = save_checkpoint(first.engine, tmp_path / "event.ckpt")

    resumed, _ = _build(runtime="event")
    restore_checkpoint(resumed.engine, path)
    assert resumed.engine.clock.cycle == HALF
    assert _node_state(resumed) == _node_state(first)
    resumed.run(CYCLES - HALF)  # must run, not crash
    assert resumed.engine.clock.cycle == CYCLES


def test_cyclon_overlay_resume(tmp_path):
    """Legacy-Cyclon nodes (and hub attackers) round-trip too: epoch,
    record list, and attacker kind all survive the rebuild+overlay."""
    def _cyclon():
        overlay = build_cyclon_overlay(
            n=30,
            config=CyclonConfig(view_length=8, swap_length=3),
            malicious=3,
            attack_start=2,
            seed=19,
        )
        observer = SeriesObserver(standard_probes())
        overlay.engine.add_observer(observer)
        return overlay, observer

    unbroken, unbroken_obs = _cyclon()
    unbroken.run(CYCLES)

    first, _ = _cyclon()
    first.run(HALF)
    path = save_checkpoint(first.engine, tmp_path / "cyclon.ckpt")

    resumed, resumed_obs = _cyclon()
    restore_checkpoint(resumed.engine, path)
    resumed.run(CYCLES - HALF)

    assert resumed_obs.series == unbroken_obs.series
    for node_id, node in resumed.engine.nodes.items():
        twin = unbroken.engine.nodes[node_id]
        assert [r[0] for r in node.view._records] == [
            r[0] for r in twin.view._records
        ]
        assert node.view._epoch == twin.view._epoch


def test_cloning_attacker_resume(tmp_path):
    """CloningAttacker stashes and clone-event logs survive a resume."""
    def _cloning():
        overlay = build_secure_overlay(
            n=NODES,
            config=SecureCyclonConfig(view_length=8, swap_length=3),
            malicious=MALICIOUS,
            attack_start=1,
            seed=13,
            attacker_cls=CloningAttacker,
        )
        observer = SeriesObserver(standard_probes())
        overlay.engine.add_observer(observer)
        return overlay, observer

    unbroken, unbroken_obs = _cloning()
    unbroken.run(CYCLES)

    first, _ = _cloning()
    first.run(HALF)
    path = save_checkpoint(first.engine, tmp_path / "cloning.ckpt")

    resumed, resumed_obs = _cloning()
    restore_checkpoint(resumed.engine, path)
    resumed.run(CYCLES - HALF)

    assert resumed_obs.series == unbroken_obs.series
    attackers = [
        node
        for node in resumed.engine.nodes.values()
        if isinstance(node, CloningAttacker)
    ]
    twins = [
        node
        for node in unbroken.engine.nodes.values()
        if isinstance(node, CloningAttacker)
    ]
    assert sum(len(a.clone_events) for a in attackers) == sum(
        len(t.clone_events) for t in twins
    )


def test_wrong_node_kind_rejected(tmp_path):
    """Same population, different attacker class: typed rejection."""
    overlay, _ = _build()  # default SecureHubAttacker
    overlay.run(2)
    path = save_checkpoint(overlay.engine, tmp_path / "kind.ckpt")
    cloning = build_secure_overlay(
        n=NODES,
        config=SecureCyclonConfig(view_length=8, swap_length=3),
        malicious=MALICIOUS,
        attack_start=2,
        seed=13,
        attacker_cls=CloningAttacker,
    )
    with pytest.raises(CheckpointError, match="in the engine but a"):
        restore_checkpoint(cloning.engine, path)


def test_checkpoint_does_not_perturb_the_run(tmp_path):
    """Saving is pure reads: a run that checkpoints every 2 cycles ends
    bit-identical to one that never checkpoints."""
    plain, plain_obs = _build()
    plain.run(CYCLES)

    policed, policed_obs = _build()
    policy = CheckpointPolicy(tmp_path, every_cycles=2)
    policed.engine.checkpoint_policy = policy
    policed.run(CYCLES)

    assert policed_obs.series == plain_obs.series
    assert _node_state(policed) == _node_state(plain)
    assert [path.name for path in policy.saved] == [
        f"cycle-{c:06d}.ckpt" for c in range(2, CYCLES + 1, 2)
    ]


def test_policy_on_demand_and_validation(tmp_path):
    with pytest.raises(ConfigError):
        CheckpointPolicy(tmp_path, every_cycles=0)
    overlay, _ = _build()
    policy = CheckpointPolicy(tmp_path / "demand")
    overlay.engine.checkpoint_policy = policy
    overlay.run(3)
    assert policy.saved == []  # purely on-demand: nothing yet
    policy.request()
    overlay.run(2)
    assert [path.name for path in policy.saved] == ["cycle-000004.ckpt"]


def test_policy_resume_from_midpoint_file(tmp_path):
    unbroken, unbroken_obs = _build()
    policy = CheckpointPolicy(tmp_path, every_cycles=HALF)
    unbroken.engine.checkpoint_policy = policy
    unbroken.run(CYCLES)

    resumed, resumed_obs = _build()
    restore_checkpoint(resumed.engine, policy.saved[0])
    resumed.run(CYCLES - HALF)
    assert resumed_obs.series == unbroken_obs.series


def test_split_runs_checkpoint_then_resume(tmp_path):
    unbroken, unbroken_obs = _build()
    unbroken.run(CYCLES)

    with split_runs(tmp_path, "checkpoint"):
        first, first_obs = _build()
        first.run(CYCLES)
    # The intercepted run still completes identically...
    assert first_obs.series == unbroken_obs.series
    assert (tmp_path / "run-0.ckpt").exists()

    # ...and a resume-mode twin replays only the back half.
    with split_runs(tmp_path, "resume"):
        resumed, resumed_obs = _build()
        resumed.run(CYCLES)
    assert resumed_obs.series == unbroken_obs.series
    assert _node_state(resumed) == _node_state(unbroken)


def test_split_runs_passes_short_runs_through(tmp_path):
    """A 1-cycle run has no midpoint: both modes just run it."""
    with split_runs(tmp_path, "checkpoint"):
        overlay, _ = _build()
        overlay.run(1)
    assert overlay.engine.clock.cycle == 1
    assert list(tmp_path.glob("*.ckpt")) == []
    with split_runs(tmp_path, "resume"):
        overlay, _ = _build()
        overlay.run(1)
    assert overlay.engine.clock.cycle == 1


def test_split_runs_guards(tmp_path):
    with pytest.raises(ConfigError):
        with split_runs(tmp_path, "sideways"):
            pass
    with split_runs(tmp_path, "checkpoint"):
        with pytest.raises(SimulationError, match="already active"):
            with split_runs(tmp_path, "checkpoint"):
                pass
    with split_runs(tmp_path / "empty", "resume"):
        overlay, _ = _build()
        with pytest.raises(CheckpointError, match="missing"):
            overlay.run(CYCLES)


def test_mismatched_checkpoints_are_rejected(tmp_path):
    overlay, _ = _build(seed=13)
    overlay.run(HALF)
    path = save_checkpoint(overlay.engine, tmp_path / "mid.ckpt")

    wrong_seed, _ = _build(seed=14)
    with pytest.raises(CheckpointError, match="master seed"):
        restore_checkpoint(wrong_seed.engine, path)

    stale, _ = _build(seed=13)
    stale.run(HALF + 2)
    with pytest.raises(CheckpointError, match="past the"):
        restore_checkpoint(stale.engine, path)

    small = build_secure_overlay(n=NODES - 2, malicious=MALICIOUS, seed=13)
    with pytest.raises(CheckpointError, match="populations differ"):
        restore_checkpoint(small.engine, path)

    no_observer = build_secure_overlay(
        n=NODES,
        config=SecureCyclonConfig(view_length=8, swap_length=3),
        malicious=MALICIOUS,
        attack_start=2,
        seed=13,
    )
    with pytest.raises(CheckpointError, match="observer"):
        restore_checkpoint(no_observer.engine, path)


def test_wrong_period_rejected(tmp_path):
    overlay, _ = _build()
    overlay.run(2)
    path = save_checkpoint(overlay.engine, tmp_path / "p.ckpt")
    records = path.read_bytes()
    # Rebuild with a different gossip period via the sim config.
    other = build_secure_overlay(
        n=NODES,
        config=SecureCyclonConfig(view_length=8, swap_length=3),
        malicious=MALICIOUS,
        attack_start=2,
        seed=13,
        sim_config=SimConfig(seed=13, period_seconds=7.0),
    )
    assert records  # file written
    with pytest.raises(CheckpointError, match="period"):
        restore_checkpoint(other.engine, path)


def test_restore_preserves_blacklist_alias(tmp_path):
    """node._blacklist_map must still alias blacklist.by_culprit after
    a restore — the hot-path membership test depends on it."""
    overlay, _ = _build()
    overlay.run(CYCLES)  # long enough for proofs to exist
    path = save_checkpoint(overlay.engine, tmp_path / "alias.ckpt")
    resumed, _ = _build()
    restore_checkpoint(resumed.engine, path)
    some_proofs = 0
    for node in resumed.engine.nodes.values():
        assert node._blacklist_map is node.blacklist.by_culprit
        some_proofs += len(node.blacklist.proofs_tuple())
    assert some_proofs > 0  # the attack actually produced blacklists
