"""Unit tests for the batched verification kernel and its plan.

Covers the flat-buffer MAC kernel (single-comparison settle, failure
localisation, buffer growth), the memo layers (per-object, verdict
memo, within-batch piggyback), equivalence with ``verify_descriptor``
verdict-for-verdict, and — most importantly — the cross-node memo
lifecycle: persistence across cycles, the wholesale clear past the
cap, cleanup after a failed batch, and blacklist/purge invalidation,
including the scenario where node A's adoption blacklists a creator
whose chains node B's same-cycle batch then sees.
"""

import random

import pytest

from repro.core.config import SecureCyclonConfig
from repro.core.descriptor import (
    OwnershipHop,
    SecureDescriptor,
    mint,
    verify_descriptor,
)
from repro.core.samples import SampleCache
from repro.crypto import batch as batch_module
from repro.crypto.batch import VerificationPlan
from repro.crypto.registry import KeyRegistry
from repro.crypto.signing import Signature
from repro.experiments.scenarios import build_secure_overlay
from repro.sim.network import NetworkAddress

ADDRESS = NetworkAddress(host=1, port=1)


@pytest.fixture()
def registry():
    return KeyRegistry()


def make_keypairs(registry, count, seed=3):
    rng = random.Random(seed)
    return [registry.new_keypair(rng) for _ in range(count)]


def chain(keypairs, creator, path, ts=0.0):
    descriptor = mint(keypairs[creator], ADDRESS, ts)
    holder = keypairs[creator]
    for index in path:
        descriptor = descriptor.transfer(holder, keypairs[index].public)
        holder = keypairs[index]
    return descriptor


def rebuild(descriptor):
    """Wire-fidelity copy: identical content, fresh objects and memos."""
    hops = tuple(
        OwnershipHop(
            owner=hop.owner,
            kind=hop.kind,
            signature=Signature(
                signer=hop.signature.signer, mac=hop.signature.mac
            ),
        )
        for hop in descriptor.hops
    )
    return SecureDescriptor(
        creator=descriptor.creator,
        address=descriptor.address,
        timestamp=descriptor.timestamp,
        hops=hops,
    )


def tamper(descriptor, mac=b"\xff" * 32):
    last = descriptor.hops[-1]
    hops = descriptor.hops[:-1] + (
        OwnershipHop(
            owner=last.owner,
            kind=last.kind,
            signature=Signature(signer=last.signature.signer, mac=mac),
        ),
    )
    return SecureDescriptor(
        creator=descriptor.creator,
        address=descriptor.address,
        timestamp=descriptor.timestamp,
        hops=hops,
    )


# ----------------------------------------------------------------------
# kernel verdicts
# ----------------------------------------------------------------------


def test_batch_verdicts_match_sequential_verifier(registry):
    keypairs = make_keypairs(registry, 6)
    batch = [
        chain(keypairs, 0, (1, 2, 3)),
        tamper(chain(keypairs, 1, (2, 3))),
        chain(keypairs, 2, ()),  # hopless: owned by its creator
        tamper(chain(keypairs, 3, (4,)), mac=b"short"),
        chain(keypairs, 4, (5, 0)),
    ]
    plan = VerificationPlan(registry)
    got = plan.verify_batch([rebuild(d) for d in batch])

    reference = KeyRegistry()
    for keypair in keypairs:
        reference.register(keypair)
    expected = [
        verify_descriptor(rebuild(d), reference) for d in batch
    ]
    assert got == expected == [True, False, True, False, True]


def test_forged_chain_is_localised_not_contagious(registry):
    """One forged hop fails the batch-wide comparison; localisation
    must still pass every honest chain in the same batch."""
    keypairs = make_keypairs(registry, 6)
    honest = [chain(keypairs, i, ((i + 1) % 6,), ts=float(i)) for i in range(6)]
    batch = [rebuild(d) for d in honest]
    batch.insert(3, tamper(chain(keypairs, 0, (1, 2), ts=99.0)))
    plan = VerificationPlan(registry)
    verdicts = plan.verify_batch(batch)
    assert verdicts == [True, True, True, False, True, True, True]
    assert plan.chains_rejected == 1
    assert plan.chains_verified == 6


def test_unknown_signer_fails_batched_and_sequential(registry):
    keypairs = make_keypairs(registry, 3)
    stranger_registry = KeyRegistry()
    stranger = make_keypairs(stranger_registry, 1, seed=99)[0]
    descriptor = mint(stranger, ADDRESS, 0.0).transfer(
        stranger, keypairs[0].public
    )
    assert not verify_descriptor(rebuild(descriptor), registry)
    plan = VerificationPlan(registry)
    assert plan.verify_batch([rebuild(descriptor)]) == [False]


def test_structural_violations_rejected_without_mac_work(registry):
    keypairs = make_keypairs(registry, 3)
    redeemed = (
        mint(keypairs[0], ADDRESS, 0.0)
        .transfer(keypairs[0], keypairs[1].public)
        .redeem(keypairs[1])
    )
    # Graft a hop after the terminal redemption: structurally illegal.
    extra = chain(keypairs, 0, (1, 2), ts=5.0).hops[-1]
    grafted = SecureDescriptor(
        creator=redeemed.creator,
        address=redeemed.address,
        timestamp=redeemed.timestamp,
        hops=redeemed.hops + (extra,),
    )
    plan = VerificationPlan(registry)
    assert plan.verify_batch([grafted]) == [False]
    assert plan.macs_checked == 0
    assert not verify_descriptor(grafted, registry)


def test_buffer_growth_handles_batches_past_initial_capacity(registry):
    keypairs = make_keypairs(registry, 8)
    batch = [
        rebuild(chain(keypairs, i % 8, tuple((i + j + 1) % 8 for j in range(5)), ts=float(i * 10)))
        for i in range(40)  # 200 hops >> the 64-hop initial capacity
    ]
    plan = VerificationPlan(registry)
    assert all(plan.verify_batch(batch))
    assert plan.macs_checked == 200


# ----------------------------------------------------------------------
# memo layers
# ----------------------------------------------------------------------


def test_duplicate_digests_are_mac_checked_once(registry):
    keypairs = make_keypairs(registry, 4)
    original = chain(keypairs, 0, (1, 2))
    copies = [rebuild(original) for _ in range(5)]
    plan = VerificationPlan(registry)
    # Three copies in one batch: one kernel pass, two piggybacks.
    assert all(plan.verify_batch(copies[:3]))
    assert plan.macs_checked == 2  # one distinct chain, two hops
    assert plan.chains_verified == 1
    # Two more in a later batch: digest-memo hits
    # (fresh objects, so the per-object memo cannot answer).
    assert all(plan.verify_batch([rebuild(original), rebuild(original)]))
    assert plan.chains_verified == 1
    assert plan.digest_memo_hits == 2


def test_negative_verdicts_are_memoised_within_cycle(registry):
    keypairs = make_keypairs(registry, 3)
    forged = tamper(chain(keypairs, 0, (1, 2)))
    plan = VerificationPlan(registry)
    assert plan.verify_batch([forged]) == [False]
    checked = plan.macs_checked
    assert plan.verify_batch([rebuild(forged)]) == [False]
    assert plan.macs_checked == checked  # no second kernel pass
    assert plan.digest_memo_hits == 1


def test_verdicts_outlive_the_cycle(registry):
    """The memo has no cycle boundary: a copy rebuilt and verified any
    time later is a memo hit, with no second walk and no MAC."""
    keypairs = make_keypairs(registry, 3)
    descriptor = chain(keypairs, 0, (1,))
    plan = VerificationPlan(registry)
    assert plan.verify_batch([rebuild(descriptor)]) == [True]
    assert plan.verify_batch([rebuild(descriptor)]) == [True]
    assert plan.digest_memo_hits == 1
    assert plan.macs_checked == 1
    assert plan.chains_verified == 1


def test_memo_clears_wholesale_past_its_cap(registry, monkeypatch):
    monkeypatch.setattr(batch_module, "_VERDICT_MEMO_MAX", 2)
    keypairs = make_keypairs(registry, 4)
    chains = [chain(keypairs, i, ((i + 1) % 4,)) for i in range(3)]
    plan = VerificationPlan(registry)
    assert plan.verify_batch([rebuild(d) for d in chains[:2]]) == [True, True]
    assert len(plan._verdicts) == 2  # at the cap: kept
    assert plan.verify_batch([rebuild(chains[0])]) == [True]
    assert plan.digest_memo_hits == 1
    assert plan.verify_batch([rebuild(chains[2])]) == [True]
    assert plan._verdicts == {} and plan._creator_digests == {}
    # After the clear a copy is walked again and settles the same way,
    # riding the registry's prefix-trust cache: no MAC is re-run.
    checked = plan.macs_checked
    assert plan.verify_batch([rebuild(chains[0])]) == [True]
    assert plan.digest_memo_hits == 1
    assert plan.macs_checked == checked
    assert plan.chains_verified == 4


def test_failed_batch_leaves_no_chain_in_flight(registry, monkeypatch):
    """If the kernel raises mid-batch, the chains it was settling leave
    the memo, so a later copy is verified instead of piggybacking onto a
    record that never settles."""
    keypairs = make_keypairs(registry, 3)
    descriptor = chain(keypairs, 0, (1, 2))
    plan = VerificationPlan(registry)
    run_kernel = VerificationPlan._run_kernel
    calls = []

    def fail_once(self, pending, total_hops):
        calls.append(total_hops)
        if len(calls) == 1:
            raise RuntimeError("kernel failure")
        return run_kernel(self, pending, total_hops)

    monkeypatch.setattr(VerificationPlan, "_run_kernel", fail_once)
    with pytest.raises(RuntimeError):
        plan.verify_batch([rebuild(descriptor), rebuild(descriptor)])
    assert not any(
        entry.__class__ is batch_module._PendingChain
        for entry in plan._verdicts.values()
    )
    assert plan.verify_batch([rebuild(descriptor)]) == [True]
    assert plan.chains_verified == 1
    assert len(calls) == 2


def test_verified_objects_short_circuit(registry):
    keypairs = make_keypairs(registry, 3)
    descriptor = chain(keypairs, 0, (1,))
    plan = VerificationPlan(registry)
    assert plan.verify(descriptor)
    assert plan.verify(descriptor)
    assert plan.object_memo_hits >= 1
    assert descriptor._verified_by is registry


# ----------------------------------------------------------------------
# cross-node memo invalidation (satellite: stale-entry scenario)
# ----------------------------------------------------------------------


def test_invalidate_creator_drops_memo_entries(registry):
    keypairs = make_keypairs(registry, 4)
    by_culprit = chain(keypairs, 0, (1,))
    by_other = chain(keypairs, 2, (3,))
    plan = VerificationPlan(registry)
    plan.verify_batch([rebuild(by_culprit), rebuild(by_other)])
    dropped = plan.invalidate_creator(keypairs[0].public)
    assert dropped == 1
    assert plan.invalidations == 1
    # The other creator's entry must survive.
    plan.verify_batch([rebuild(by_other)])
    assert plan.digest_memo_hits == 1


def test_same_cycle_blacklist_is_never_bypassed_via_shared_memo(registry):
    """Node A's adoption blacklists creator C; node B's same-cycle batch
    must not accept C's descriptors via the shared digest memo.

    The guarantee is structural — the memo caches *crypto* verdicts
    only, and every receiver filters against its own live blacklist
    after verification — and the plan additionally drops C's entries on
    purge.  Both properties are asserted here with two caches sharing
    one plan, exactly the engine-wide wiring.
    """
    keypairs = make_keypairs(registry, 6)
    culprit_kp = keypairs[0]
    culprit = culprit_kp.public
    plan = VerificationPlan(registry)

    period = 10.0
    cache_a = SampleCache(horizon_cycles=10, period_seconds=period)
    cache_b = SampleCache(horizon_cycles=10, period_seconds=period)
    blacklist_a: dict = {}
    blacklist_b: dict = {}
    proofs_a: list = []

    def adopt_a(proof, network, already_validated):
        # Node A's adoption: blacklist + purge + plan invalidation +
        # "flood" to node B (whose own adoption purges its state too) —
        # the same effects SecureCyclonNode._adopt_proof produces.
        proofs_a.append(proof)
        for blacklist, cache in (
            (blacklist_a, cache_a),
            (blacklist_b, cache_b),
        ):
            if proof.culprit not in blacklist:
                blacklist[proof.culprit] = proof
                cache.forget_creator(proof.culprit)
        plan.invalidate_creator(proof.culprit)

    honest_by_culprit = chain(keypairs, 0, (2,), ts=500.0)
    clone_a, clone_b = (
        mint(culprit_kp, ADDRESS, 100.0).transfer(culprit_kp, keypairs[3].public),
        mint(culprit_kp, ADDRESS, 100.0).transfer(culprit_kp, keypairs[4].public),
    )

    # Node A first observes C's honest-looking descriptor (the memo now
    # holds its digest), then the forked pair — adoption fires mid-batch.
    cache_a.observe_stream_planned(
        [rebuild(honest_by_culprit), rebuild(clone_a), rebuild(clone_b)],
        7, registry, blacklist_a, 1000.0, adopt_a, None, plan,
    )
    assert culprit in blacklist_a
    assert [p.kind for p in proofs_a] == ["cloning"]
    assert len(cache_a) == 0

    # Same cycle, node B: a rebuilt copy of the descriptor whose digest
    # the plan verified for A.  It must not land in B's cache.
    def adopt_b(proof, network, already_validated):  # pragma: no cover
        raise AssertionError("node B must not discover anything here")

    cache_b.observe_stream_planned(
        [rebuild(honest_by_culprit)],
        7, registry, blacklist_b, 1000.0, adopt_b, None, plan,
    )
    assert len(cache_b) == 0
    assert cache_b.get(honest_by_culprit.identity) is None


def run_attacked_overlay(transport, bind_plan=False):
    """40 nodes, 4 hub attackers from cycle 2, 6 cycles: each node's
    view and blacklist, and the engine."""
    overlay = build_secure_overlay(
        n=40,
        config=SecureCyclonConfig(
            view_length=8, swap_length=3, transport=transport
        ),
        malicious=4,
        attack_start=2,
        seed=11,
    )
    if bind_plan:
        plan = overlay.engine.verification_plan()
        for node in overlay.engine.nodes.values():
            node.bind_verification_plan(plan)
    overlay.run(6)
    snapshot = {
        node_id: (
            tuple(
                (e.creator, e.descriptor.timestamp, len(e.descriptor.hops))
                for e in node.view._entries
            ),
            frozenset(node.blacklist.by_culprit),
        )
        for node_id, node in sorted(overlay.engine.nodes.items())
        if hasattr(node, "view")
    }
    return snapshot, overlay.engine


def test_overlay_under_attack_exercises_shared_plan_invalidation():
    """End-to-end on the object transport: binding the shared plan to
    every node of an overlay under a hub attack matches the sequential
    overlay node-for-node, and the blacklisting wave actually exercised
    the shared plan's invalidation hook."""
    sequential, unplanned = run_attacked_overlay("object")
    assert unplanned._verification_plan is None
    batched, engine = run_attacked_overlay("object", bind_plan=True)
    assert sequential == batched
    plan = engine._verification_plan
    assert plan.invalidations > 0
    assert plan.chains_verified > 0


def test_when_the_memo_clears_changes_work_never_outputs(monkeypatch):
    """A 40-node wire overlay under a hub attack ends in the same views
    and blacklists whether the verdict memo clears every few chains or
    never, and the tiny cap really bounds the memo."""
    default, engine = run_attacked_overlay("wire")
    default_plan = engine._verification_plan

    cap = 4
    held = []
    settle = VerificationPlan._settle

    def tracking_settle(self, descriptors, pending):
        results = settle(self, descriptors, pending)
        # Nothing leaves the memo inside a batch, so this is its peak.
        held.append((len(self._verdicts), len(descriptors)))
        return results

    monkeypatch.setattr(batch_module, "_VERDICT_MEMO_MAX", cap)
    monkeypatch.setattr(VerificationPlan, "_settle", tracking_settle)
    tiny, engine = run_attacked_overlay("wire")
    tiny_plan = engine._verification_plan

    assert tiny == default
    assert any(blacklist for _, blacklist in tiny.values())
    assert tiny_plan.macs_checked >= default_plan.macs_checked
    assert tiny_plan.chains_verified > default_plan.chains_verified
    assert held and all(peak <= cap + size for peak, size in held)
    assert len(tiny_plan._verdicts) <= cap


@pytest.mark.parametrize("transport", ["object", "wire"])
def test_add_node_binds_the_shared_plan_on_the_wire_only(transport):
    """``Engine.add_node`` picks the verifier from the transport: the
    engine-wide plan on the wire, ``verify_descriptor`` on objects —
    and never the plan for a node verifying against another registry."""
    from repro.core.node import SecureCyclonNode

    config = SecureCyclonConfig(
        view_length=4, swap_length=2, transport=transport
    )
    overlay = build_secure_overlay(n=6, config=config, seed=5)
    engine = overlay.engine
    bound = {node._vplan for node in engine.nodes.values()}
    if transport == "wire":
        assert engine._verification_plan is not None
        assert bound == {engine._verification_plan}
    else:
        assert engine._verification_plan is None
        assert bound == {None}

    foreign_registry = KeyRegistry()
    keypair = make_keypairs(foreign_registry, 1, seed=9)[0]
    stranger = SecureCyclonNode(
        keypair=keypair,
        address=engine.network.reserve_address(keypair.public),
        config=config,
        clock=engine.clock,
        registry=foreign_registry,
        rng=random.Random(1),
    )
    engine.add_node(stranger)
    assert stranger._vplan is None


def test_content_key_distinguishes_every_field(registry):
    """The memo key encoding is injective field by field: kind, MAC
    content, MAC length, and timestamp must all separate keys (the
    variable-length fields are length-prefixed so no boundary shift
    can make two distinct chains collide)."""
    from repro.crypto.batch import _content_key

    keypairs = make_keypairs(registry, 3)
    base = mint(keypairs[0], ADDRESS, 10.0)
    transferred = base.transfer(keypairs[0], keypairs[1].public)
    redeemed = base.transfer(
        keypairs[0], keypairs[0].public,
        kind=__import__("repro.core.descriptor", fromlist=["TransferKind"]).TransferKind.REDEEM,
    )
    keys = {
        _content_key(base),
        _content_key(transferred),
        _content_key(redeemed),
        _content_key(tamper(transferred)),
        _content_key(tamper(transferred, mac=b"\xff" * 31)),
        _content_key(tamper(transferred, mac=b"\xff" * 33)),
        _content_key(mint(keypairs[0], ADDRESS, 10.5)),
    }
    assert len(keys) == 7
