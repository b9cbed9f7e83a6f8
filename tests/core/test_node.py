"""Protocol-level tests for the SecureCyclon node.

These wire a handful of real nodes into an engine and exercise the
acceptance rules, the tit-for-tat rounds, the non-swappable repair, and
the blacklisting pipeline at message granularity.
"""

import pytest

from repro.core.config import SecureCyclonConfig
from repro.core.descriptor import TransferKind, mint
from repro.core.exchange import (
    BulkSwapMessage,
    BulkSwapReply,
    GossipAccept,
    GossipOpen,
    GossipReject,
    ProofFlood,
    TransferMessage,
    TransferReply,
)
from repro.core.node import SecureCyclonNode
from repro.core.proofs import build_cloning_proof
from repro.sim.engine import Engine, SimConfig


def build_world(n=5, config=None):
    """``n`` real SecureCyclon nodes attached to one engine."""
    engine = Engine(SimConfig(seed=5))
    config = config or SecureCyclonConfig(view_length=6, swap_length=3)
    nodes = []
    for index in range(n):
        keypair = engine.registry.new_keypair(engine.rng_hub.stream("keys"))
        address = engine.network.reserve_address(keypair.public)
        node = SecureCyclonNode(
            keypair=keypair,
            address=address,
            config=config,
            clock=engine.clock,
            registry=engine.registry,
            rng=engine.rng_hub.stream(f"node-{index}"),
            trace=engine.trace,
        )
        node.bind_network(engine.network)
        engine.add_node(node)
        nodes.append(node)
    return engine, nodes


def give(giver, receiver, timestamp=0.0, non_swappable=False):
    """Mint a descriptor of ``giver`` and hand it to ``receiver``."""
    descriptor = mint(giver.keypair, giver.address, timestamp).transfer(
        giver.keypair, receiver.node_id
    )
    receiver.view.insert(descriptor, non_swappable=non_swappable)
    return descriptor


def open_for(initiator, partner, descriptor, non_swappable=False, **kwargs):
    redemption = descriptor.redeem(
        initiator.keypair, non_swappable=non_swappable
    )
    return GossipOpen(
        redemption=redemption, non_swappable=non_swappable, **kwargs
    )


# ----------------------------------------------------------------------
# redemption acceptance rules (§IV-A)
# ----------------------------------------------------------------------


def test_accepts_valid_redemption():
    engine, (a, b, *_) = build_world()
    d = give(b, a)
    reply = b.receive(a.node_id, open_for(a, b, d))
    assert isinstance(reply, GossipAccept)


def test_rejects_descriptor_of_another_creator():
    engine, (a, b, c, *_) = build_world()
    d = give(c, a)  # created by c, not b
    reply = b.receive(a.node_id, open_for(a, c, d))
    assert isinstance(reply, GossipReject)
    assert reply.reason == "not-my-descriptor"


def test_rejects_redemption_by_non_owner():
    engine, (a, b, c, *_) = build_world()
    d = give(b, c)  # owned by c
    redemption = d.redeem(c.keypair)
    reply = b.receive(a.node_id, GossipOpen(redemption=redemption))
    assert isinstance(reply, GossipReject)
    assert reply.reason == "not-the-owner"


def test_rejects_unredeemed_descriptor():
    engine, (a, b, *_) = build_world()
    d = give(b, a)
    reply = b.receive(a.node_id, GossipOpen(redemption=d))
    assert isinstance(reply, GossipReject)
    assert reply.reason == "missing-redeem-hop"


def test_rejects_double_redemption_of_same_token():
    engine, (a, b, *_) = build_world()
    d = give(b, a)
    opening = open_for(a, b, d)
    assert isinstance(b.receive(a.node_id, opening), GossipAccept)
    reply = b.receive(a.node_id, opening)
    assert isinstance(reply, GossipReject)
    assert reply.reason == "already-redeemed"


def test_rejects_kind_mismatch():
    engine, (a, b, *_) = build_world()
    d = give(b, a, non_swappable=True)
    redemption = d.redeem(a.keypair, non_swappable=True)
    # Flag says regular, hop says non-swappable.
    reply = b.receive(
        a.node_id, GossipOpen(redemption=redemption, non_swappable=False)
    )
    assert isinstance(reply, GossipReject)
    assert reply.reason == "redeem-kind-mismatch"


def test_nonswap_quota_once_per_descriptor_and_cycle():
    engine, (a, b, c, *_) = build_world()
    d_a = give(b, a, timestamp=0.0)
    d_c = give(b, c, timestamp=-10.0)
    first = b.receive(a.node_id, open_for(a, b, d_a, non_swappable=True))
    assert isinstance(first, GossipAccept)
    # Same cycle, different descriptor, also non-swappable: quota hit.
    second = b.receive(c.node_id, open_for(c, b, d_c, non_swappable=True))
    assert isinstance(second, GossipReject)
    assert second.reason == "nonswap-quota-this-cycle"
    # Next cycle the per-descriptor restriction persists.
    b.begin_cycle(1)
    third = b.receive(a.node_id, open_for(a, b, d_a, non_swappable=True))
    assert isinstance(third, GossipReject)
    assert third.reason == "nonswap-already-redeemed"


def test_rejects_blacklisted_sender():
    engine, (a, b, c, *_) = build_world()
    # b learns a proof incriminating a.
    base = mint(c.keypair, c.address, 0.0).transfer(c.keypair, a.node_id)
    proof = build_cloning_proof(
        base.transfer(a.keypair, b.node_id),
        base.transfer(a.keypair, c.node_id),
    )
    b.receive_push(c.node_id, ProofFlood(proof=proof))
    assert b.blacklist.is_blacklisted(a.node_id)
    d = give(b, a)
    reply = b.receive(a.node_id, open_for(a, b, d))
    assert isinstance(reply, GossipReject)
    assert reply.reason == "blacklisted"
    assert reply.proofs  # the evidence travels with the rejection


# ----------------------------------------------------------------------
# tit-for-tat rounds (§V-B)
# ----------------------------------------------------------------------


def test_transfer_rounds_counter_one_for_one():
    engine, (a, b, c, *_) = build_world()
    d = give(b, a)
    give(c, b, timestamp=-10.0)  # b has something to counter with
    assert isinstance(b.receive(a.node_id, open_for(a, b, d)), GossipAccept)
    fresh = a.mint_fresh_descriptor().transfer(a.keypair, b.node_id)
    reply = b.receive(
        a.node_id, TransferMessage(descriptor=fresh, round_index=0)
    )
    assert isinstance(reply, TransferReply)
    assert reply.descriptor is not None
    assert reply.descriptor.current_owner == a.node_id
    assert b.view.contains_creator(a.node_id)


def test_transfer_without_session_is_refused():
    engine, (a, b, *_) = build_world()
    fresh = mint(a.keypair, a.address, 0.0).transfer(a.keypair, b.node_id)
    reply = b.receive(
        a.node_id, TransferMessage(descriptor=fresh, round_index=0)
    )
    assert reply.descriptor is None
    assert not b.view.contains_creator(a.node_id)


def test_rounds_are_bounded_by_swap_length():
    engine, (a, b, c, *_) = build_world()
    d = give(b, a)
    for i in range(6):
        give(c, b, timestamp=-10.0 * (i + 1))
    assert isinstance(b.receive(a.node_id, open_for(a, b, d)), GossipAccept)
    accepted = 0
    for round_index in range(5):
        fresh = mint(
            a.keypair, a.address, float(round_index)
        ).transfer(a.keypair, b.node_id)
        reply = b.receive(
            a.node_id,
            TransferMessage(descriptor=fresh, round_index=round_index),
        )
        if reply.descriptor is not None:
            accepted += 1
    assert accepted <= b.config.swap_length


def test_stale_fresh_descriptor_refused():
    engine, (a, b, *_) = build_world()
    d = give(b, a)
    assert isinstance(b.receive(a.node_id, open_for(a, b, d)), GossipAccept)
    stale = mint(a.keypair, a.address, -500.0).transfer(a.keypair, b.node_id)
    reply = b.receive(
        a.node_id, TransferMessage(descriptor=stale, round_index=0)
    )
    assert reply.descriptor is None


def test_spent_descriptor_not_accepted_as_transfer():
    engine, (a, b, c, *_) = build_world()
    d = give(b, a)
    assert isinstance(b.receive(a.node_id, open_for(a, b, d)), GossipAccept)
    spent = (
        mint(c.keypair, c.address, 0.0)
        .transfer(c.keypair, a.node_id)
        .redeem(a.keypair)
    )
    reply = b.receive(
        a.node_id, TransferMessage(descriptor=spent, round_index=1)
    )
    assert reply.descriptor is None


# ----------------------------------------------------------------------
# bulk mode and depletion repair (§V-A)
# ----------------------------------------------------------------------


def test_bulk_swap_exchanges_descriptors():
    config = SecureCyclonConfig(view_length=6, swap_length=3, tit_for_tat=False)
    engine, (a, b, c, *_) = build_world(config=config)
    d = give(b, a)
    for i in range(3):
        give(c, b, timestamp=-10.0 * (i + 1))
    assert isinstance(b.receive(a.node_id, open_for(a, b, d)), GossipAccept)
    fresh = a.mint_fresh_descriptor().transfer(a.keypair, b.node_id)
    reply = b.receive(a.node_id, BulkSwapMessage(descriptors=(fresh,)))
    assert isinstance(reply, BulkSwapReply)
    assert 1 <= len(reply.descriptors) <= 3
    assert b.view.contains_creator(a.node_id)


def test_bulk_partner_repairs_with_non_swappables_when_drained():
    config = SecureCyclonConfig(view_length=6, swap_length=3, tit_for_tat=False)
    engine, (a, b, c, *_) = build_world(config=config)
    d = give(b, a)
    for i in range(4):
        give(c, b, timestamp=-10.0 * (i + 1))
    before = len(b.view)
    assert isinstance(b.receive(a.node_id, open_for(a, b, d)), GossipAccept)
    # Empty bulk: the link-depletion attack shape.
    reply = b.receive(a.node_id, BulkSwapMessage(descriptors=()))
    assert isinstance(reply, BulkSwapReply)
    assert len(reply.descriptors) >= 1
    # b gave descriptors away but repaired the holes as non-swappable.
    assert len(b.view) == before
    assert b.view.non_swappable_count() == len(reply.descriptors)


# ----------------------------------------------------------------------
# observation pipeline and blacklisting (§IV-B, §IV-C)
# ----------------------------------------------------------------------


def test_conflicting_samples_produce_blacklisting_and_purge():
    engine, (a, b, c, d_node, e) = build_world()
    # c clones a descriptor created by e: two forked branches.
    base = mint(e.keypair, e.address, 0.0).transfer(e.keypair, c.node_id)
    branch_1 = base.transfer(c.keypair, a.node_id)
    branch_2 = base.transfer(c.keypair, b.node_id)
    give(c, a, timestamp=-10.0)  # a holds a link to the future culprit

    a._observe_all([branch_1], engine.network)
    assert a.sample_cache.get(branch_1.identity) is branch_1
    assert not a.blacklist.is_blacklisted(c.node_id)
    a._observe_all([branch_2], engine.network)
    assert a.blacklist.is_blacklisted(c.node_id)
    # The first branch stays cached; the fork never replaced it.
    assert a.sample_cache.get(branch_1.identity) is branch_1
    # The view was purged of the culprit's descriptors.
    assert not a.view.contains_creator(c.node_id)
    assert engine.trace.count("secure.violation_found") >= 1


def test_proof_flood_reaches_neighbors():
    engine, (a, b, c, d_node, e) = build_world()
    give(b, a)  # a's view points at b, so floods reach b
    base = mint(e.keypair, e.address, 0.0).transfer(e.keypair, c.node_id)
    branch_1 = base.transfer(c.keypair, a.node_id)
    branch_2 = base.transfer(c.keypair, d_node.node_id)
    a._observe_all([branch_1, branch_2], engine.network)
    assert a.blacklist.is_blacklisted(c.node_id)
    assert b.blacklist.is_blacklisted(c.node_id)  # via the flood


def test_invalid_proof_is_ignored():
    engine, (a, b, c, *_) = build_world()
    base = mint(c.keypair, c.address, 0.0).transfer(c.keypair, a.node_id)
    branch = base.transfer(a.keypair, b.node_id)
    # A "proof" whose chains do not actually fork.
    from repro.core.proofs import CloningProof

    bogus = CloningProof(first=base, second=branch, culprit=b.node_id)
    a.receive_push(c.node_id, ProofFlood(proof=bogus))
    assert not a.blacklist.is_blacklisted(b.node_id)


def test_node_never_blacklists_itself():
    engine, (a, b, c, *_) = build_world()
    base = mint(c.keypair, c.address, 0.0).transfer(c.keypair, a.node_id)
    proof = build_cloning_proof(
        base.transfer(a.keypair, b.node_id),
        base.transfer(a.keypair, c.node_id),
    )
    a.receive_push(b.node_id, ProofFlood(proof=proof))
    assert not a.blacklist.is_blacklisted(a.node_id)


def test_blacklist_disabled_traces_but_does_not_act():
    config = SecureCyclonConfig(
        view_length=6, swap_length=3, blacklist_enabled=False
    )
    engine, (a, b, c, d_node, e) = build_world(config=config)
    base = mint(e.keypair, e.address, 0.0).transfer(e.keypair, c.node_id)
    owned = base.transfer(c.keypair, a.node_id)
    assert a._observe_validated(owned, engine.network)
    assert a.sample_cache.get(owned.identity) is owned
    clone = base.transfer(c.keypair, b.node_id)
    assert a._observe_validated(clone, engine.network)
    assert engine.trace.count("secure.violation_found") == 1
    assert not a.blacklist.is_blacklisted(c.node_id)
    assert a.sample_cache.get(owned.identity) is owned


def test_mint_guard_once_per_cycle():
    engine, (a, *_) = build_world()
    a.begin_cycle(0)
    a.mint_fresh_descriptor()
    with pytest.raises(RuntimeError):
        a.mint_fresh_descriptor()
    a.begin_cycle(1)
    a.mint_fresh_descriptor()  # new cycle, new budget


def test_unknown_payload_rejected():
    # A payload that makes no sense as a request — e.g. a reply-type
    # frame replayed by a wire-plane attacker — is refused, never
    # crashed on: a Byzantine sender must not cost the receiver its
    # cycle.
    engine, (a, *_) = build_world()
    reply = a.receive("x", object())
    assert isinstance(reply, GossipReject)
    assert reply.reason == "unexpected message"
    assert engine.trace.count("secure.unexpected_request") == 1


def test_samples_payload_contains_view_and_redemption_cache():
    engine, (a, b, c, *_) = build_world()
    give(b, a, timestamp=-10.0)
    redeemed = (
        mint(c.keypair, c.address, 0.0)
        .transfer(c.keypair, a.node_id)
        .redeem(a.keypair)
    )
    a.redemption_cache.add(redeemed, cycle=0)
    samples = a._samples_payload()
    assert any(s.creator == b.node_id for s in samples)
    assert any(s.identity == redeemed.identity for s in samples)
