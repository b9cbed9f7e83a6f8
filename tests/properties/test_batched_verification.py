"""Equivalence of sequential and batched sample-stream verification.

The batched verification kernel (``repro.crypto.batch``) must be
observationally identical to the sequential path descriptor by
descriptor: for any batch — honest, forged, cloned, expired,
blacklisted, duplicated — running ``SampleCache.observe_stream`` and
``SampleCache.observe_stream_planned`` over independently rebuilt
copies of the same descriptors must leave behind identical caches,
identical blacklists, and identical adopted proofs.

The generators are seeded and derandomised (``derandomize=True``) so
CI runs are reproducible; the batch vocabulary deliberately covers the
kernel's distinct code paths:

* ``honest``             — valid chains of varying length;
* ``forged-mac``         — a tampered hop MAC (including wrong-length
                           MACs, which the flat kernel must reject
                           without misaligning its buffers);
* ``cloned-chain``       — two forked copies of one token (§IV-B
                           cloning, discovered mid-batch);
* ``expired-timestamp``  — mint timestamps beyond the deadline;
* ``blacklisted-owner``  — creators blacklisted before the batch;
* ``duplicate-digest``   — wire-rebuilt copies of an earlier batch
                           element (the cross-node digest-memo path).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.descriptor import (
    OwnershipHop,
    SecureDescriptor,
    TransferKind,
    mint,
)
from repro.core.samples import SampleCache
from repro.crypto.batch import VerificationPlan
from repro.crypto.keys import KeyPair
from repro.crypto.registry import KeyRegistry
from repro.crypto.signing import Signature
from repro.sim.network import NetworkAddress

PERIOD = 10.0
HORIZON = 40
DEADLINE = 1000.0

_SEED_RNG = random.Random(17)
_MASTER = KeyRegistry()
_KEYPAIRS = [_MASTER.new_keypair(_SEED_RNG) for _ in range(7)]
_ADDRESS = NetworkAddress(host=1, port=1)

# Batch element vocabulary (see module docstring).
_KINDS = st.sampled_from(
    [
        "honest",
        "forged-mac",
        "short-mac",
        "cloned-chain",
        "expired-timestamp",
        "blacklisted-owner",
        "duplicate-digest",
    ]
)


def _chain(creator: int, ts: float, path: tuple) -> SecureDescriptor:
    """An honest chain minted by ``creator`` through ``path`` owners."""
    descriptor = mint(_KEYPAIRS[creator], _ADDRESS, ts)
    holder = _KEYPAIRS[creator]
    for owner in path:
        nxt = _KEYPAIRS[owner]
        descriptor = descriptor.transfer(holder, nxt.public)
        holder = nxt
    return descriptor


def _tamper_last_mac(descriptor: SecureDescriptor, mac: bytes) -> SecureDescriptor:
    last = descriptor.hops[-1]
    forged_hop = OwnershipHop(
        owner=last.owner,
        kind=last.kind,
        signature=Signature(signer=last.signature.signer, mac=mac),
    )
    return SecureDescriptor(
        creator=descriptor.creator,
        address=descriptor.address,
        timestamp=descriptor.timestamp,
        hops=descriptor.hops[:-1] + (forged_hop,),
    )


def _rebuild(descriptor: SecureDescriptor) -> SecureDescriptor:
    """A wire-fidelity copy: same content, all-fresh objects/memos."""
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


def _materialize(spec) -> tuple:
    """Expand generated specs into (descriptors, pre-blacklisted set).

    Timestamps are spaced one period apart per creator so honest
    elements never conflict; cloned pairs share one mint on purpose.
    """
    kinds, creators, owner_picks = spec
    descriptors = []
    blacklisted_creators = set()
    for index, kind in enumerate(kinds):
        creator = creators[index] % 5
        ts = float((index + 1) * PERIOD)
        path = (5, (owner_picks[index] % 2) + 5)
        if kind == "honest":
            descriptors.append(_chain(creator, ts, (5,)))
        elif kind == "forged-mac":
            descriptors.append(
                _tamper_last_mac(_chain(creator, ts, path), b"\x00" * 32)
            )
        elif kind == "short-mac":
            descriptors.append(
                _tamper_last_mac(_chain(creator, ts, path), b"oops")
            )
        elif kind == "cloned-chain":
            base = _chain(creator, ts, (5,))
            clone_a = base.transfer(_KEYPAIRS[5], _KEYPAIRS[6].public)
            clone_b = base.transfer(_KEYPAIRS[5], _KEYPAIRS[creator].public)
            descriptors.append(clone_a)
            descriptors.append(clone_b)
        elif kind == "expired-timestamp":
            descriptors.append(_chain(creator, DEADLINE + ts, (5,)))
        elif kind == "blacklisted-owner":
            blacklisted_creators.add(_KEYPAIRS[creator].public)
            descriptors.append(_chain(creator, ts, (5,)))
        elif kind == "duplicate-digest":
            if descriptors:
                descriptors.append(
                    _rebuild(descriptors[owner_picks[index] % len(descriptors)])
                )
            else:
                descriptors.append(_chain(creator, ts, (5,)))
    return descriptors, blacklisted_creators


class _Harness:
    """One side of the comparison: cache + blacklist + adoption.

    Mirrors the blacklist-enabled tail of
    ``SecureCyclonNode._adopt_proof``: record the proof, blacklist the
    culprit, purge the cache — so mid-batch adoption effects
    (blacklisted creators, purged entries) land exactly as they do in a
    live node.
    """

    def __init__(self, registry, pre_blacklisted):
        self.registry = registry
        self.cache = SampleCache(horizon_cycles=HORIZON, period_seconds=PERIOD)
        self.blacklist = {key: "pre" for key in pre_blacklisted}
        self.proofs = []

    def adopt(self, proof, network, already_validated):
        self.proofs.append(proof)
        if proof.culprit in self.blacklist:
            return
        self.blacklist[proof.culprit] = proof
        self.cache.forget_creator(proof.culprit)

    def snapshot(self):
        cache_dump = {}
        for creator, slot in self.cache._by_creator.items():
            cache_dump[creator] = {
                ts: (len(d.hops), d.owners(), d.chain_digest())
                for ts, d in slot[1].items()
            }
        return (
            cache_dump,
            {k: getattr(v, "kind", v) for k, v in self.blacklist.items()},
            [
                (p.kind, p.culprit, p.first.identity, p.second.identity)
                for p in self.proofs
            ],
            len(self.cache),
        )


def _fresh_registry() -> KeyRegistry:
    registry = KeyRegistry()
    for keypair in _KEYPAIRS:
        registry.register(keypair)
    return registry


def _run_sequential(descriptors, pre_blacklisted):
    harness = _Harness(_fresh_registry(), pre_blacklisted)
    harness.cache.observe_stream(
        [_rebuild(d) for d in descriptors],
        cycle=1,
        registry=harness.registry,
        blacklisted=harness.blacklist,
        deadline=DEADLINE,
        adopt=harness.adopt,
        network=None,
    )
    return harness.snapshot()


def _run_batched(descriptors, pre_blacklisted):
    harness = _Harness(_fresh_registry(), pre_blacklisted)
    plan = VerificationPlan(harness.registry)
    harness.cache.observe_stream_planned(
        [_rebuild(d) for d in descriptors],
        cycle=1,
        registry=harness.registry,
        blacklisted=harness.blacklist,
        deadline=DEADLINE,
        adopt=harness.adopt,
        network=None,
        plan=plan,
    )
    return harness.snapshot()


@given(
    spec=st.tuples(
        st.lists(_KINDS, min_size=1, max_size=12),
        st.lists(st.integers(0, 4), min_size=12, max_size=12),
        st.lists(st.integers(0, 7), min_size=12, max_size=12),
    )
)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_batched_stream_is_observationally_identical(spec):
    """Same batch, same effects: caches, blacklists, proofs all match."""
    descriptors, pre_blacklisted = _materialize(spec)
    assert _run_sequential(descriptors, pre_blacklisted) == _run_batched(
        descriptors, pre_blacklisted
    )


@given(
    spec=st.tuples(
        st.lists(_KINDS, min_size=1, max_size=12),
        st.lists(st.integers(0, 4), min_size=12, max_size=12),
        st.lists(st.integers(0, 7), min_size=12, max_size=12),
    ),
    split=st.integers(0, 11),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_two_message_streams_match_across_shared_plan_state(spec, split):
    """Splitting one batch into two messages (as dialogue traffic does)
    keeps both paths identical — the plan memo carries state between
    verify_batch calls."""
    descriptors, pre_blacklisted = _materialize(spec)
    cut = min(split, len(descriptors))

    seq = _Harness(_fresh_registry(), pre_blacklisted)
    rebuilt = [_rebuild(d) for d in descriptors]
    for part in (rebuilt[:cut], rebuilt[cut:]):
        seq.cache.observe_stream(
            part, 1, seq.registry, seq.blacklist, DEADLINE,
            seq.adopt, None,
        )

    bat = _Harness(_fresh_registry(), pre_blacklisted)
    plan = VerificationPlan(bat.registry)
    rebuilt = [_rebuild(d) for d in descriptors]
    for part in (rebuilt[:cut], rebuilt[cut:]):
        bat.cache.observe_stream_planned(
            part, 1, bat.registry, bat.blacklist, DEADLINE,
            bat.adopt, None, plan,
        )
    assert seq.snapshot() == bat.snapshot()


# ----------------------------------------------------------------------
# regression: mid-batch adoption ordering
# ----------------------------------------------------------------------


def _clone_pair(creator: int, ts: float):
    """Two copies of one token forked *at the creator*: the creator
    signed two first transfers, so the cloning culprit is the creator
    itself — which is what lets the scenario below assert that the
    culprit's other descriptors are purged."""
    base = mint(_KEYPAIRS[creator], _ADDRESS, ts)
    return (
        base.transfer(_KEYPAIRS[creator], _KEYPAIRS[5].public),
        base.transfer(_KEYPAIRS[creator], _KEYPAIRS[6].public),
    )


def _mid_batch_scenario():
    """A batch whose middle element triggers adoption against creator 2.

    Layout: [honest by 2, clone A of 2's token, clone B (violation fires
    here), later honest descriptor by 2, honest by 3].  Everything
    created by 2 must be gone from the cache afterwards — including the
    entries stored *before* the adoption — and the later descriptor by
    2 must never be stored because the loop re-reads the live blacklist.
    """
    early = _chain(2, 50.0, (5,))
    clone_a, clone_b = _clone_pair(2, 200.0)
    late_by_culprit = _chain(2, 400.0, (5,))
    unrelated = _chain(3, 300.0, (5,))
    return [early, clone_a, clone_b, late_by_culprit, unrelated]


def _assert_mid_batch_semantics(snapshot):
    cache_dump, blacklist, proofs, count = snapshot
    culprit = _KEYPAIRS[2].public
    bystander = _KEYPAIRS[3].public
    assert culprit in blacklist, "adoption must blacklist the cloner"
    assert [p[0] for p in proofs] == ["cloning"]
    assert proofs[0][1] == culprit
    # The purge ran mid-batch: nothing by the culprit survives, not even
    # the entries stored before the violation fired...
    assert culprit not in cache_dump
    # ...the later same-batch descriptor by the culprit was refused by
    # the live blacklist check...
    assert count == 1
    # ...and the innocent bystander after it was still accepted.
    assert bystander in cache_dump


def test_mid_batch_adoption_purges_later_descriptors_sequential():
    batch = _mid_batch_scenario()
    _assert_mid_batch_semantics(_run_sequential(batch, set()))


def test_mid_batch_adoption_purges_later_descriptors_batched():
    """The regression this suite exists for: the batched kernel must
    not hoist anything but pure crypto out of the loop — adoption
    effects (blacklist, purge) still land between loop steps."""
    batch = _mid_batch_scenario()
    _assert_mid_batch_semantics(_run_batched(batch, set()))


def test_mid_batch_semantics_agree_exactly():
    batch = _mid_batch_scenario()
    assert _run_sequential(batch, set()) == _run_batched(batch, set())
