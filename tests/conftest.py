"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.config import SecureCyclonConfig
from repro.core.descriptor import mint
from repro.crypto.registry import KeyRegistry
from repro.sim.clock import SimClock
from repro.sim.network import NetworkAddress

PERIOD = 10.0


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def registry():
    return KeyRegistry()


@pytest.fixture
def clock():
    return SimClock(period_seconds=PERIOD)


@pytest.fixture
def keypairs(registry, rng):
    """Five registered key pairs: enough actors for any protocol story."""
    return [registry.new_keypair(rng) for _ in range(5)]


@pytest.fixture
def addresses():
    return [NetworkAddress(host=i + 1, port=9000) for i in range(5)]


@pytest.fixture
def minted(keypairs, addresses):
    """A factory for fresh descriptors: minted(i, timestamp)."""

    def _mint(index: int, timestamp: float = 0.0):
        return mint(keypairs[index], addresses[index], timestamp)

    return _mint


@pytest.fixture
def small_config():
    return SecureCyclonConfig(view_length=8, swap_length=3)


@pytest.fixture
def force_verifier(monkeypatch):
    """Pin the chain verifier of every engine-built node, whatever the
    transport: ``force_verifier("batched")`` binds the engine-wide
    plan, ``force_verifier("sequential")`` leaves ``verify_descriptor``.

    ``Engine.add_node`` normally picks from the transport; the two
    verifiers return identical verdicts, so pinning either one on
    either transport must not change a single result.
    """
    from repro.sim.engine import Engine

    def _force(verification: str) -> None:
        assert verification in ("sequential", "batched")
        add_node = Engine.add_node

        def add_node_pinned(engine, node):
            add_node(engine, node)
            if getattr(node, "registry", None) is not engine.registry:
                return
            if not hasattr(node, "bind_verification_plan"):
                return
            if verification == "batched":
                node.bind_verification_plan(engine.verification_plan())
            else:
                node._vplan = None

        monkeypatch.setattr(Engine, "add_node", add_node_pinned)

    return _force
