"""The sample cache: cross-checking every descriptor a node sees.

Paper §IV-B: "nodes should cache all descriptors they have seen in
order to match them against each other and against descriptors they
will receive in the future".  Caching a descriptor does *not* confer
ownership — samples exist solely for violation discovery.

The cache holds at most one copy per descriptor identity (the longest
compatible chain, per the paper).  Entries expire after a configurable
horizon; descriptors only live ~ℓ cycles, so a horizon of 2ℓ keeps
memory bounded without losing detection power (see DESIGN.md).

Storage layout: one slot per creator, holding the sorted mint
timestamps (the frequency-check index) and a timestamp-keyed map of
descriptors.  A descriptor's identity is (creator, timestamp), so the
two-level layout resolves identities with plain float keys, keeps the
frequency check's neighbour lookup allocation-free, and makes purging
a blacklisted creator a single dictionary pop.  Sample observation is
the hottest loop of the whole simulation (every sample of every gossip
message lands here), which is why the layout is tuned this far and why
:meth:`observe_stream` exists.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.chain import ChainRelation, compare_chains
from repro.core.descriptor import (
    DescriptorId,
    SecureDescriptor,
    verify_descriptor,
)
from repro.core.proofs import (
    FREQUENCY_SLACK_SECONDS,
    CloningProof,
    ViolationProof,
    build_frequency_proof,
)
from repro.crypto.keys import PublicKey

# Per-creator slot layout: [sorted timestamps, {timestamp: descriptor}].
_TIMESTAMPS = 0
_BY_TS = 1

#: The blacklist :meth:`SampleCache.observe` hands the insertion loop:
#: it returns proofs instead of adopting them, so nothing can grow it.
_NOTHING_BLACKLISTED: frozenset = frozenset()


class SampleCache:
    """Per-node store of observed descriptors with conflict detection."""

    def __init__(self, horizon_cycles: int, period_seconds: float) -> None:
        if horizon_cycles < 1:
            raise ValueError("horizon_cycles must be >= 1")
        if period_seconds <= 0:
            raise ValueError("period_seconds must be positive")
        self._horizon = horizon_cycles
        self._period = period_seconds
        self._by_creator: Dict[PublicKey, list] = {}
        self._count = 0
        self._expiry: Deque[Tuple[int, PublicKey, float]] = deque()

    def __len__(self) -> int:
        return self._count

    def get(self, identity: DescriptorId) -> Optional[SecureDescriptor]:
        slot = self._by_creator.get(identity.creator)
        if slot is None:
            return None
        return slot[_BY_TS].get(identity.timestamp)

    # ------------------------------------------------------------------
    # observation (the §IV-B checks)
    # ------------------------------------------------------------------

    def observe(
        self, descriptor: SecureDescriptor, cycle: int
    ) -> List[ViolationProof]:
        """Record ``descriptor`` and return any violation proofs found.

        Runs :meth:`_insert` — the same §IV-B insertion rules every
        sample batch goes through — over this one descriptor, with no
        screens in front: the caller has vetted it.  Proofs are
        returned, not adopted; what to do with them is the caller's
        decision.
        """
        found: List[ViolationProof] = []
        self._insert(
            (descriptor,),
            cycle,
            _NOTHING_BLACKLISTED,
            lambda proof, _network, _validated: found.append(proof),
            None,
        )
        return found

    def observe_stream(
        self,
        descriptors,
        cycle: int,
        registry,
        blacklisted: dict,
        deadline: float,
        adopt,
        network,
    ) -> None:
        """Vet and observe a whole sample batch: the §IV-B pipeline.

        Runs chain verification, the timestamp bound and the blacklist
        filters over ``descriptors`` in order, then the insertion rules
        (:meth:`_insert`), adopting each discovered proof *immediately*
        via ``adopt(proof, network, already_validated=True)`` —
        adoption may blacklist a creator or purge this very cache, and
        later samples in the same batch must see those effects.
        ``blacklisted`` is the live blacklist dict (mutated by
        adoption), ``deadline`` the timestamp acceptance bound.

        The three pure screens (chain verification, timestamp bound,
        blacklist membership) run as one flat pass over the whole
        batch, and only the survivors enter the stateful insertion
        loop.  The split is behaviour-preserving
        because the screens are pure with respect to batch state
        *until the first adoption*: the blacklist only ever grows, and
        the insertion loop watches its size, re-applying the blacklist
        screens live to every survivor after a mid-batch adoption.
        Every descriptor, screened or not, is verified in batch order,
        so memo and trusted-cache effects do not depend on the split.
        """
        survivors: List[SecureDescriptor] = []
        keep = survivors.append
        for descriptor in descriptors:
            if descriptor._verified_by is not registry and not verify_descriptor(
                descriptor, registry
            ):
                continue
            if descriptor.timestamp > deadline:
                continue
            if descriptor.creator in blacklisted:
                continue
            keep(descriptor)
        if survivors:
            self._insert(survivors, cycle, blacklisted, adopt, network)

    def _insert(
        self,
        survivors,
        cycle: int,
        blacklisted,
        adopt,
        network,
    ) -> None:
        """The §IV-B insertion rules, the one copy every path runs.

        For each descriptor in order: a new identity gets the frequency
        check against its creator's neighbouring timestamps and is
        stored; a known identity gets the ownership check against the
        cached copy, and a compatible longer chain replaces it.  Proofs
        go to ``adopt(proof, network, True)`` as they are found.  While
        ``blacklisted`` keeps the size it had on entry the caller's
        screens still hold; once an adoption grows it, every remaining
        descriptor is re-screened live.
        """
        by_creator = self._by_creator
        expiry = self._expiry
        expiry_cycle = cycle + self._horizon
        period = self._period
        threshold = period - FREQUENCY_SLACK_SECONDS
        bisect_left = bisect.bisect_left
        # The caller's screens hold while the blacklist is exactly as it
        # was; the first adoption grows it (blacklists are append-only),
        # after which every remaining survivor gets the live re-check.
        screened_size = len(blacklisted)
        for descriptor in survivors:
            creator = descriptor.creator
            if len(blacklisted) != screened_size and creator in blacklisted:
                continue
            ts = descriptor.timestamp
            slot = by_creator.get(creator)
            if slot is None:
                by_creator[creator] = [[ts], {ts: descriptor}]
                self._count += 1
                expiry.append((expiry_cycle, creator, ts))
                continue
            by_ts = slot[_BY_TS]
            existing = by_ts.get(ts)
            if existing is descriptor:
                # Seen this exact object: every check already ran.
                # Samples repeat heavily (views change slowly), so this
                # fast path carries real traffic.
                continue
            if existing is None:
                # New identity: only the frequency check applies.
                timestamps = slot[_TIMESTAMPS]
                index = bisect_left(timestamps, ts)
                proofs = None
                # Only the two neighbours of the insertion point can
                # conflict; both bounds checks are unrolled.
                if index and ts - timestamps[index - 1] < threshold:
                    proofs = self._neighbor_proofs(
                        descriptor, by_ts, timestamps[index - 1], proofs
                    )
                if index < len(timestamps) and (
                    timestamps[index] - ts < threshold
                ):
                    proofs = self._neighbor_proofs(
                        descriptor, by_ts, timestamps[index], proofs
                    )
                timestamps.insert(index, ts)
                by_ts[ts] = descriptor
                self._count += 1
                expiry.append((expiry_cycle, creator, ts))
                if proofs is not None:
                    # Adoption strictly after storage: blacklisting the
                    # culprit purges this cache, and the purge must see
                    # the entry just stored.
                    for proof in proofs:
                        adopt(proof, network, True)
                continue
            # Known identity: the ownership check.  Equal chain digests
            # imply equal chain content (the digests commit to every
            # hop), by far the most common case — distinct copies of
            # the same unmoved descriptor.
            existing_digest = existing._chain_digest
            incoming_digest = descriptor._chain_digest
            if (
                existing_digest if existing_digest is not None
                else existing.chain_digest()
            ) == (
                incoming_digest if incoming_digest is not None
                else descriptor.chain_digest()
            ):
                continue
            comparison = compare_chains(existing, descriptor)
            if comparison.is_violation:
                adopt(
                    CloningProof(
                        first=existing,
                        second=descriptor,
                        culprit=comparison.culprit,
                    ),
                    network,
                    True,
                )
            elif comparison.relation is ChainRelation.PREFIX:
                # Retain the longest compatible chain.
                by_ts[ts] = descriptor

    def observe_stream_planned(
        self,
        descriptors,
        cycle: int,
        registry,
        blacklisted: dict,
        deadline: float,
        adopt,
        network,
        plan,
    ) -> None:
        """:meth:`observe_stream` driven by a batched verification plan.

        Semantically identical to :meth:`observe_stream` — the §IV-B
        pipeline over ``descriptors`` in order, with proofs adopted
        *immediately* so later samples in the same batch see their
        effects (blacklisted creators, purged cache entries).  The only
        difference is the verification prologue: the whole batch is
        settled up front by ``plan.verify_batch`` (one flat MAC kernel
        pass plus the cycle-scoped cross-node digest memo), so the
        per-descriptor loop tests nothing but the per-object memo the
        plan filled in.

        Hoisting verification before the loop is behaviour-preserving
        because chain verification is pure crypto: it consumes no RNG
        and its verdict cannot depend on anything a mid-batch adoption
        mutates (blacklists are filtered live on both paths).  After
        the kernel pass every valid descriptor carries the per-object
        memo, so :meth:`observe_stream`'s own prologue short-circuits
        past its ``verify_descriptor`` fallback; chains the kernel
        rejected stay unverified and the fallback re-derives exactly
        the same ``False`` — only forged traffic ever pays that
        (sequentially re-verified on both paths alike).  The
        equivalence suite drives both entry points over adversarial
        batches and asserts identical caches, blacklists, and proofs.
        """
        pending = [
            descriptor
            for descriptor in descriptors
            if descriptor._verified_by is not registry
        ]
        if pending:
            plan.verify_batch(pending)
        self.observe_stream(
            descriptors,
            cycle,
            registry,
            blacklisted,
            deadline,
            adopt,
            network,
        )

    def _neighbor_proofs(
        self, descriptor: SecureDescriptor, by_ts: dict, other_ts: float, proofs
    ):
        """Build the frequency proof against one conflicting neighbour.

        Out-of-line because timestamp conflicts never occur in honest
        traffic — the hot loop only pays for the comparison.
        """
        other = by_ts.get(other_ts)
        if other is not None:
            proof = build_frequency_proof(descriptor, other, self._period)
            if proof is not None:
                if proofs is None:
                    return [proof]
                proofs.append(proof)
        return proofs

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def expire(self, cycle: int) -> int:
        """Drop entries past their horizon; returns how many were dropped."""
        expiry = self._expiry
        if not expiry or expiry[0][0] > cycle:
            return 0
        dropped = 0
        while expiry and expiry[0][0] <= cycle:
            _, creator, ts = expiry.popleft()
            if self._remove_sample(creator, ts):
                dropped += 1
        return dropped

    def forget_creator(self, creator: PublicKey) -> int:
        """Purge all samples created by ``creator`` (it was blacklisted)."""
        slot = self._by_creator.pop(creator, None)
        if slot is None:
            return 0
        removed = len(slot[_BY_TS])
        self._count -= removed
        return removed

    def _remove_sample(self, creator: PublicKey, ts: float) -> bool:
        slot = self._by_creator.get(creator)
        if slot is None or slot[_BY_TS].pop(ts, None) is None:
            return False
        timestamps = slot[_TIMESTAMPS]
        index = bisect.bisect_left(timestamps, ts)
        if index < len(timestamps) and timestamps[index] == ts:
            del timestamps[index]
        if not timestamps:
            del self._by_creator[creator]
        self._count -= 1
        return True

    def _remove_identity(self, identity: DescriptorId) -> bool:
        return self._remove_sample(identity.creator, identity.timestamp)
