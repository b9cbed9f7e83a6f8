"""Scheduler-equivalence guarantees for the pluggable runtime.

Two properties gate the refactor that split ``Engine.run`` into
schedulers:

1. **Bit-for-bit**: the :class:`~repro.sim.scheduler.CycleScheduler`
   must reproduce the pre-refactor engine exactly.  The golden files
   under ``tests/properties/golden/`` are the fig2/3/5/6/7 smoke-scale
   series captured from the engine *before* the scheduler abstraction
   existed (same capture as ``scripts/capture_figures.py``); any drift
   in RNG-stream consumption or activation order shows up as a diff.

2. **Statistical**: the :class:`~repro.sim.scheduler.EventScheduler`
   with zero latency and zero jitter is the same protocol on a
   staggered clock, so a converged honest overlay must produce the
   same degree/in-degree statistics within tolerance — not identical
   runs (activation interleaving differs by design), but the same
   topology-shaping behaviour.
"""

import pathlib

import pytest

from repro.cyclon.config import CyclonConfig
from repro.experiments import (
    fig2_indegree,
    fig3_cyclon_takeover,
    fig5_hub_defense,
    fig6_depletion,
    fig7_redemption,
)
from repro.experiments.scale import Scale
from repro.experiments.scenarios import build_cyclon_overlay
from repro.metrics.degree import indegree_statistics
from repro.metrics.links import view_fill_fraction

GOLDEN = pathlib.Path(__file__).parent / "golden"

_CAPTURES = {
    "fig2": lambda: fig2_indegree.render(
        fig2_indegree.run_fig2(scale=Scale.SMOKE, seed=1)
    ),
    "fig3": lambda: fig3_cyclon_takeover.render(
        fig3_cyclon_takeover.run_fig3(scale=Scale.SMOKE, seed=1)
    ),
    "fig5": lambda: fig5_hub_defense.render(
        fig5_hub_defense.run_fig5(scale=Scale.SMOKE, seed=1)
    ),
    "fig6": lambda: fig6_depletion.render(
        fig6_depletion.run_fig6(scale=Scale.SMOKE, seed=1)
    ),
    "fig7": lambda: fig7_redemption.render(
        fig7_redemption.run_fig7(scale=Scale.SMOKE, seed=1)
    ),
}


@pytest.mark.parametrize("name", sorted(_CAPTURES))
def test_cycle_scheduler_matches_pre_refactor_engine(name):
    """The extracted cycle loop is bit-for-bit the old ``Engine.run``."""
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _CAPTURES[name]() + "\n" == expected


@pytest.mark.golden_wire
@pytest.mark.parametrize("verification", ["sequential", "batched"])
@pytest.mark.parametrize("name", sorted(_CAPTURES))
def test_wire_transport_matches_goldens(
    name, verification, monkeypatch, force_verifier
):
    """``transport=wire`` is bit-for-bit the shared-object simulator.

    The wire transport replaces *how* messages travel — every dialogue
    leg and push framed to bytes and decoded fresh at the receiver —
    never *what* they say: the codec is lossless and consumes no RNG,
    so flipping the whole harness to wire mode via the environment
    override must reproduce the committed golden series byte for byte.
    The wire picks the engine's batched plan as its chain verifier;
    pinning the sequential walk instead must not move a byte either,
    since both verifiers return identical verdicts.
    """
    monkeypatch.setenv("REPRO_TRANSPORT", "wire")
    force_verifier(verification)
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _CAPTURES[name]() + "\n" == expected


@pytest.mark.parametrize("transport", ["object", "wire"])
@pytest.mark.parametrize("name", sorted(_CAPTURES))
def test_inert_fault_subsystem_matches_goldens(name, transport, monkeypatch):
    """Installed-but-inert wire faults + health ledger change nothing.

    The fault plane (``repro.sim.transport.FaultInjector``) and the
    per-peer health ledger (``repro.sim.peerhealth``) must be free when
    idle: an injector whose plan injects nothing draws zero randomness
    from its (dedicated) stream, and a ledger that never sees an
    offence never quarantines — so wiring both into every engine must
    reproduce the committed golden series byte for byte, under both
    transports.
    """
    from repro.sim.engine import Engine
    from repro.sim.peerhealth import PeerHealthLedger
    from repro.sim.transport import FaultInjector, FaultPlan

    original_init = Engine.__init__

    def init_with_inert_subsystem(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.network.use_fault_injector(
            FaultInjector(
                rng=self.rng_hub.stream("wire-faults"), plan=FaultPlan()
            )
        )
        self.network.use_peer_health(PeerHealthLedger())

    monkeypatch.setattr(Engine, "__init__", init_with_inert_subsystem)
    monkeypatch.setenv("REPRO_TRANSPORT", transport)
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _CAPTURES[name]() + "\n" == expected


def _converged_stats(runtime):
    overlay = build_cyclon_overlay(
        n=150,
        config=CyclonConfig(view_length=10, swap_length=3),
        seed=11,
        runtime=runtime,
    )
    overlay.run(40)
    return (
        indegree_statistics(overlay.engine),
        view_fill_fraction(overlay.engine),
    )


def test_event_scheduler_zero_latency_matches_cycle_statistics():
    """Zero latency + zero jitter: same degree statistics, by tolerance."""
    cycle_stats, cycle_fill = _converged_stats("cycle")
    event_stats, event_fill = _converged_stats("event")

    # Outdegree is pinned by the protocol, so mean indegree must agree
    # almost exactly; the spread is a converged-property of the shuffle
    # dynamics and may wobble a little between interleavings.
    assert event_stats["mean"] == pytest.approx(cycle_stats["mean"], rel=0.02)
    assert event_stats["stddev"] == pytest.approx(
        cycle_stats["stddev"], rel=0.5, abs=1.0
    )
    assert event_fill == pytest.approx(cycle_fill, abs=0.05)
