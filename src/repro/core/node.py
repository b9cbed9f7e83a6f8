"""The SecureCyclon protocol node (paper §IV–§V).

This class composes every security mechanism of the paper around the
Cyclon gossip skeleton:

* descriptors are owned tokens; gossiping requires redeeming one
  created by the partner (§IV-A);
* every received descriptor — owned or sample — passes through the
  frequency and ownership checks (§IV-B);
* discovered violations become proofs, flooded to the overlay and
  piggybacked on gossip (§IV-C);
* empty view slots are repaired with non-swappable copies (§V-A);
* ownership moves one descriptor per round trip when tit-for-tat is on
  (§V-B);
* redeemed descriptors linger in the redemption cache and travel as
  samples (§V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.blacklist import Blacklist
from repro.core.config import SecureCyclonConfig
from repro.core.descriptor import (
    TERMINAL_KINDS,
    SecureDescriptor,
    TransferKind,
    mint,
    verify_descriptor,
)
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
from repro.core.proofs import ViolationProof, timestamps_conflict
from repro.core.redemption import RedemptionCache
from repro.core.samples import SampleCache
from repro.core.view import SecureView, ViewEntry
from repro.crypto.batch import VerificationPlan
from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import PeerUnreachable
from repro.sim.channel import MessageDropped, MessageTimeout
from repro.sim.clock import SimClock
from repro.sim.engine import ProtocolNode
from repro.sim.network import Network, NetworkAddress
from repro.sim.retry import drive_attempts


@dataclass
class _PartnerSession:
    """Per-dialogue state kept by the partner between tit-for-tat rounds."""

    initiator: PublicKey
    rounds_left: int
    swap_budget: int  # how many descriptors we may still send


class SecureCyclonNode(ProtocolNode):
    """A correct SecureCyclon participant."""

    def __init__(
        self,
        keypair: KeyPair,
        address: NetworkAddress,
        config: SecureCyclonConfig,
        clock: SimClock,
        registry,
        rng,
        trace=None,
    ) -> None:
        self.keypair = keypair
        self.node_id = keypair.public
        self.address = address
        self.config = config
        self.clock = clock
        self.registry = registry
        self.rng = rng
        self.trace = trace

        self.view = SecureView(self.node_id, config.view_length)
        # Drift-tolerant frequency window: every frequency predicate
        # this node evaluates (self-guard, sample cross-check, relayed
        # proof validation) uses the same effective period, so what the
        # node refuses to do is exactly what it would prosecute.
        self._freq_period = config.effective_frequency_period(
            clock.period_seconds
        )
        self.sample_cache = SampleCache(
            horizon_cycles=config.effective_sample_horizon,
            period_seconds=self._freq_period,
        )
        self.redemption_cache = RedemptionCache(config.redemption_cache_cycles)
        self.blacklist = Blacklist()

        self.current_cycle = 0
        self._tolerance_cached = config.effective_timestamp_tolerance(
            clock.period_seconds
        )
        # Hot-path aliases: descriptor vetting runs for every sample in
        # every message, so per-descriptor method calls and config
        # attribute chains are hoisted once here.  The blacklist dict is
        # never replaced, only mutated, so the alias stays valid.
        self._blacklist_map = self.blacklist.by_culprit
        # The engine-wide shared plan, bound by Engine.add_node on the
        # wire transport; ``None`` selects verify_descriptor everywhere.
        self._vplan: Optional[VerificationPlan] = None
        self._last_mint_cycle: Optional[int] = None
        self._last_mint_time_s: Optional[float] = None
        self._sessions: Dict[PublicKey, _PartnerSession] = {}
        # §V-A restrictions on non-swappable redemptions we accept.
        self._nonswap_redeemed_identities: Set[float] = set()
        self._nonswap_accepted_this_cycle = False
        # Timestamps of own descriptors we have already seen redeemed.
        self._redeemed_own_timestamps: Set[float] = set()

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        """Reset per-cycle state: sessions, non-swappable quota, cache expiry."""
        self.current_cycle = cycle
        self._nonswap_accepted_this_cycle = False
        self._sessions.clear()
        self.sample_cache.expire(cycle)
        self.redemption_cache.expire(cycle)
        if self._vplan is not None:
            # Idempotent per cycle number: on a shared plan the first
            # node (or the scheduler) to reach the boundary clears the
            # digest memo, the rest are no-ops.
            self._vplan.begin_cycle(cycle)

    def run_cycle(self, network: Network) -> None:
        """Initiate one gossip exchange by redeeming the oldest view entry.

        When the dialogue *opening* times out (event runtime only), the
        configured :class:`~repro.sim.retry.RetryPolicy` may re-initiate
        with the next oldest entry — immediately, or after a scheduled
        backoff.  Only un-opened dialogues retry: once the opening
        succeeded, this activation's single fresh mint may already
        exist, and a second exchange could not mint legally.
        """
        self._network_for_flood = network
        if not self._may_mint_now():
            # Event runtime: a jittered timer fired early enough that a
            # fresh mint would violate the §IV-B frequency rule.  Sit
            # this activation out *before* redeeming anything, so no
            # token is wasted.  Never triggers under the cycle runtime
            # (activations there are exactly one period apart).
            self._emit("secure.mint_rate_limited")
            return
        drive_attempts(
            policy=self.config.retry,
            attempt=lambda: self._gossip_once(network),
            network=network,
            node_id=self.node_id,
            emit=self._emit,
            prefix="secure",
            # Deferred backoff attempts re-check the §IV-B mint guard
            # at fire time: the node's next regular activation may
            # have minted in the meantime.
            pre_fire=self._may_mint_now,
        )

    def _gossip_once(self, network: Network) -> bool:
        """One full exchange attempt; True iff the opening timed out
        (the only failure a :class:`~repro.sim.retry.RetryPolicy` may
        retry)."""
        entry = self.view.oldest()
        if entry is None:
            self._emit("secure.idle")
            return False
        self.view.remove_entry(entry)
        partner_id = entry.creator
        if self.blacklist.is_blacklisted(partner_id):
            # Should not normally happen (views are purged on blacklist),
            # but races with purging are handled defensively.
            self._emit("secure.skip_blacklisted", partner=partner_id)
            return False
        try:
            channel = network.connect(self.node_id, partner_id)
        except PeerUnreachable:
            # §V-A case 1: drop the descriptor, skip the cycle.
            self._emit("secure.partner_unreachable", partner=partner_id)
            return False

        redemption = entry.descriptor.redeem(
            self.keypair, non_swappable=entry.non_swappable
        )
        if not entry.non_swappable:
            # §V-C: the redeemer retains the redeemed copy as a sample.
            # Non-swappable redemptions are sanctioned forks and must not
            # circulate (DESIGN.md).
            self.redemption_cache.add(redemption, self.current_cycle)
            self.sample_cache.observe(redemption, self.current_cycle)

        opening = GossipOpen(
            redemption=redemption,
            non_swappable=entry.non_swappable,
            samples=self._samples_payload(),
            proofs=self.blacklist.proofs_tuple(),
        )
        try:
            reply = channel.request(opening)
        except MessageDropped as failure:
            # Lost, or (event runtime) timed out — §V-A by timing: when
            # ``delivered`` is True the partner *did* process the
            # redemption and the token is spent on both sides even
            # though the initiator saw nothing back; otherwise the
            # token is still spent locally (the signed redemption hop
            # exists).  Either way this attempt is over; a timeout may
            # be retried with a *different* token, never this one.
            if isinstance(failure, MessageTimeout):
                self._emit(
                    "secure.open_timeout",
                    partner=partner_id,
                    delivered=failure.delivered,
                )
                return True
            self._emit("secure.open_dropped", partner=partner_id)
            return False

        if isinstance(reply, GossipReject):
            self._ingest_proofs(reply.proofs, network)
            self._emit(
                "secure.open_rejected", partner=partner_id, reason=reply.reason
            )
            return False
        if not isinstance(reply, GossipAccept):
            self._emit("secure.bad_reply", partner=partner_id)
            return False

        self._ingest_proofs(reply.proofs, network)
        self._observe_all(reply.samples, network)
        if self.blacklist.is_blacklisted(partner_id):
            return False

        if self.config.tit_for_tat:
            self._initiate_tit_for_tat(channel, partner_id, network)
        else:
            self._initiate_bulk_swap(channel, partner_id, network)
        return False

    def receive(self, sender_id: Any, payload: Any) -> Any:
        """Dispatch an incoming request/response message to its handler.

        Transfer rounds outnumber dialogue openings roughly
        ``swap_length`` to one, so they are dispatched first.
        """
        if isinstance(payload, TransferMessage):
            return self._handle_transfer(sender_id, payload)
        if isinstance(payload, GossipOpen):
            return self._handle_open(sender_id, payload)
        if isinstance(payload, BulkSwapMessage):
            return self._handle_bulk_swap(sender_id, payload)
        # A message that decodes but makes no sense as a request — e.g.
        # a reply-type frame replayed by a wire-plane attacker — is
        # refused, not crashed on: a Byzantine sender must never cost
        # the *receiver* its cycle.  Initiators already treat any
        # non-matching reply as a failed exchange, so the refusal is
        # safe at every round of the dialogue.
        self._emit("secure.unexpected_request", sender=sender_id)
        return GossipReject(reason="unexpected message", proofs=())

    def receive_push(self, sender_id: Any, payload: Any) -> None:
        """Handle a one-way push (proof flooding); unknown pushes are dropped."""
        if isinstance(payload, ProofFlood):
            self._ingest_proofs((payload.proof,), self._network_for_flood)
        # Unknown pushes are ignored: one-way traffic cannot be trusted.

    # ------------------------------------------------------------------
    # initiator side
    # ------------------------------------------------------------------

    def _may_mint_now(self) -> bool:
        """Whether a fresh mint at the current instant is §IV-B-legal.

        Guards both hazards of desynchronised timers: a second mint in
        the same cycle (the classic guard) and two mints whose
        timestamps are closer than one period (what honest peers would
        prosecute as a frequency violation).
        """
        if self._last_mint_cycle == self.current_cycle:
            return False
        last = self._last_mint_time_s
        if last is None:
            return True
        return not timestamps_conflict(
            self.clock.now_s, last, self._freq_period
        )

    def mint_fresh_descriptor(self) -> SecureDescriptor:
        """Mint this cycle's fresh self-descriptor (at most one per cycle)."""
        if self._last_mint_cycle == self.current_cycle:
            raise RuntimeError(
                "honest nodes mint at most one descriptor per cycle"
            )
        self._last_mint_cycle = self.current_cycle
        self._last_mint_time_s = self.clock.now()
        return mint(self.keypair, self.address, self.clock.now())

    def _pop_outgoing(
        self, counterparty: PublicKey
    ) -> Optional[SecureDescriptor]:
        """Select the next view descriptor to send to ``counterparty``.

        One hook for all three send paths (tit-for-tat rounds, partner
        counters, bulk swaps); adversarial subclasses override it to
        substitute cloned descriptors.  Descriptors created by the
        counterparty are skipped — handing a node its own token would
        merely retire it.
        """
        entry = self.view.pop_one_random_swappable(
            self.rng, exclude_creator=counterparty
        )
        return entry.descriptor if entry is not None else None

    def _initiate_tit_for_tat(
        self, channel, partner_id: PublicKey, network: Network
    ) -> None:
        """Run the §V-B rounds: one descriptor each way per round trip."""
        transferred: List[SecureDescriptor] = []
        for round_index in range(self.config.swap_length):
            if round_index == 0:
                outgoing_plain = self.mint_fresh_descriptor()
            else:
                outgoing_plain = self._pop_outgoing(partner_id)
                if outgoing_plain is None:
                    break
                transferred.append(outgoing_plain)
            outgoing = outgoing_plain.transfer(self.keypair, partner_id)
            try:
                reply = channel.request(
                    TransferMessage(descriptor=outgoing, round_index=round_index)
                )
            except MessageDropped as failure:
                # A lost or delivered-but-unanswered round: the partner
                # may hold our descriptor while we hold nothing new;
                # tit-for-tat accounting is identical on both paths
                # (the transferred list already tracks what must be
                # repaired non-swappably).
                if isinstance(failure, MessageTimeout):
                    self._emit(
                        "secure.round_timeout",
                        partner=partner_id,
                        delivered=failure.delivered,
                    )
                else:
                    self._emit("secure.round_dropped", partner=partner_id)
                break
            if not isinstance(reply, TransferReply) or reply.descriptor is None:
                # Partner quit halfway: stop sending (tit-for-tat).
                self._emit("secure.partner_defected", partner=partner_id)
                break
            if not self._accept_owned(reply.descriptor, partner_id, network):
                break
        self._repair_with_non_swappables(transferred)

    def _initiate_bulk_swap(
        self, channel, partner_id: PublicKey, network: Network
    ) -> None:
        """Single-shot swap used when tit-for-tat is disabled (Fig 6)."""
        plain: List[SecureDescriptor] = [self.mint_fresh_descriptor()]
        transferred: List[SecureDescriptor] = []
        for _ in range(self.config.swap_length - 1):
            descriptor = self._pop_outgoing(partner_id)
            if descriptor is None:
                break
            plain.append(descriptor)
            transferred.append(descriptor)
        outgoing = tuple(
            descriptor.transfer(self.keypair, partner_id)
            for descriptor in plain
        )
        try:
            reply = channel.request(BulkSwapMessage(descriptors=outgoing))
        except MessageDropped as failure:
            if isinstance(failure, MessageTimeout):
                self._emit(
                    "secure.bulk_timeout",
                    partner=partner_id,
                    delivered=failure.delivered,
                )
            else:
                self._emit("secure.bulk_dropped", partner=partner_id)
            self._repair_with_non_swappables(transferred)
            return
        if isinstance(reply, BulkSwapReply):
            for descriptor in reply.descriptors:
                if not self._accept_owned(descriptor, partner_id, network):
                    break
        self._repair_with_non_swappables(transferred)

    def _accept_owned(
        self,
        descriptor: SecureDescriptor,
        sender_id: PublicKey,
        network: Network,
    ) -> bool:
        """Validate and store a descriptor transferred to us.

        Returns False when the dialogue should stop (sender proven
        malicious or garbage received).
        """
        if not self._validate_incoming_transfer(descriptor, sender_id):
            return False
        if not self._observe_validated(descriptor, network):
            return not self.blacklist.is_blacklisted(sender_id)
        self.view.insert(descriptor, non_swappable=False)
        return True

    def _repair_with_non_swappables(
        self, transferred: List[SecureDescriptor]
    ) -> None:
        """§V-A: backfill empty slots with non-swappable copies of
        descriptors whose ownership we just gave away."""
        for descriptor in transferred:
            if self.view.free_slots <= 0:
                break
            if self.blacklist.is_blacklisted(descriptor.creator):
                continue
            if self.view.insert(descriptor, non_swappable=True):
                self._emit(
                    "secure.non_swappable_retained", creator=descriptor.creator
                )

    # ------------------------------------------------------------------
    # partner side
    # ------------------------------------------------------------------

    def _handle_open(self, sender_id: PublicKey, opening: GossipOpen) -> Any:
        network = self._network_for_flood
        self._ingest_proofs(opening.proofs, network)
        if self.blacklist.is_blacklisted(sender_id):
            return GossipReject(
                reason="blacklisted",
                proofs=self._proof_against(sender_id),
            )

        verdict = self._validate_redemption(sender_id, opening)
        if verdict is not None:
            return GossipReject(reason=verdict)

        redemption = opening.redemption
        if opening.non_swappable:
            self._nonswap_redeemed_identities.add(redemption.timestamp)
            self._nonswap_accepted_this_cycle = True
        else:
            self._redeemed_own_timestamps.add(redemption.timestamp)
            self.redemption_cache.add(redemption, self.current_cycle)
            self.sample_cache.observe(redemption, self.current_cycle)

        self._observe_all(opening.samples, network)
        if self.blacklist.is_blacklisted(sender_id):
            return GossipReject(
                reason="blacklisted",
                proofs=self._proof_against(sender_id),
            )

        self._sessions[sender_id] = _PartnerSession(
            initiator=sender_id,
            rounds_left=self.config.swap_length,
            swap_budget=self.config.swap_length,
        )
        return GossipAccept(
            samples=self._samples_payload(),
            proofs=self.blacklist.proofs_tuple(),
        )

    def _validate_redemption(
        self, sender_id: PublicKey, opening: GossipOpen
    ) -> Optional[str]:
        """All §IV-A/§V-A acceptance rules; returns a reject reason or None."""
        redemption = opening.redemption
        if redemption.creator != self.node_id:
            return "not-my-descriptor"
        if not self._verify_chain(redemption):
            return "invalid-chain"
        if not redemption.is_spent:
            return "missing-redeem-hop"
        final = redemption.hops[-1]
        expected_kind = (
            TransferKind.NONSWAP_REDEEM
            if opening.non_swappable
            else TransferKind.REDEEM
        )
        if final.kind is not expected_kind:
            return "redeem-kind-mismatch"
        hops = redemption.hops
        redeemer = hops[-2].owner if len(hops) > 1 else redemption.creator
        if redeemer != sender_id:
            return "not-the-owner"
        if opening.non_swappable:
            # §V-A: at most one non-swappable redemption per descriptor,
            # and at most one per cycle.
            if redemption.timestamp in self._nonswap_redeemed_identities:
                return "nonswap-already-redeemed"
            if self._nonswap_accepted_this_cycle:
                return "nonswap-quota-this-cycle"
        else:
            if redemption.timestamp in self._redeemed_own_timestamps:
                # A replay or a clone of an already-spent token; either
                # way the gossip is refused.  The observation caches the
                # copy, but any proof it returns is discarded, not
                # adopted (as for the other redemption observations).
                self.sample_cache.observe(redemption, self.current_cycle)
                return "already-redeemed"
        return None

    def _handle_transfer(
        self, sender_id: PublicKey, message: TransferMessage
    ) -> TransferReply:
        network = self._network_for_flood
        session = self._sessions.get(sender_id)
        if session is None or session.rounds_left <= 0:
            return TransferReply(descriptor=None)
        session.rounds_left -= 1

        descriptor = message.descriptor
        if not self._validate_incoming_transfer(descriptor, sender_id):
            return TransferReply(descriptor=None)
        if message.round_index == 0 and not self._fresh_descriptor_ok(
            descriptor, sender_id
        ):
            self._emit("secure.stale_fresh_descriptor", sender=sender_id)
            return TransferReply(descriptor=None)
        if not self._observe_validated(descriptor, network):
            return TransferReply(descriptor=None)

        counter: Optional[SecureDescriptor] = None
        if session.swap_budget > 0:
            outgoing = self._pop_outgoing(sender_id)
            if outgoing is not None:
                session.swap_budget -= 1
                counter = outgoing.transfer(self.keypair, sender_id)
        self.view.insert(descriptor, non_swappable=False)
        return TransferReply(descriptor=counter)

    def _handle_bulk_swap(
        self, sender_id: PublicKey, message: BulkSwapMessage
    ) -> BulkSwapReply:
        network = self._network_for_flood
        session = self._sessions.get(sender_id)
        if session is None:
            return BulkSwapReply(descriptors=())
        self._sessions.pop(sender_id, None)

        accepted: List[SecureDescriptor] = []
        for index, descriptor in enumerate(message.descriptors):
            if len(accepted) >= self.config.swap_length:
                break
            if not self._validate_incoming_transfer(descriptor, sender_id):
                continue
            if index == 0 and descriptor.creator == sender_id:
                if not self._fresh_descriptor_ok(descriptor, sender_id):
                    continue
            if not self._observe_validated(descriptor, network):
                continue
            accepted.append(descriptor)

        outgoing_plain: List[SecureDescriptor] = []
        for _ in range(min(session.swap_budget, self.config.swap_length)):
            descriptor = self._pop_outgoing(sender_id)
            if descriptor is None:
                break
            outgoing_plain.append(descriptor)
        counters = tuple(
            descriptor.transfer(self.keypair, sender_id)
            for descriptor in outgoing_plain
        )
        for descriptor in accepted:
            self.view.insert(descriptor, non_swappable=False)
        # If the initiator offered fewer descriptors than we returned
        # (the link-depletion attack, §V-B), repair the deficit with
        # non-swappable copies of what we just gave away.
        self._repair_with_non_swappables(outgoing_plain)
        return BulkSwapReply(descriptors=counters)

    # ------------------------------------------------------------------
    # descriptor vetting
    # ------------------------------------------------------------------

    def _validate_incoming_transfer(
        self, descriptor: SecureDescriptor, sender_id: PublicKey
    ) -> bool:
        """Structural checks on a descriptor transferred to this node."""
        # Key equality is digest equality; the raw byte comparisons keep
        # this per-transfer gauntlet at C speed.
        my_digest = self.node_id.digest
        if descriptor.creator.digest == my_digest:
            # Our own descriptor coming home as a swap is useless: views
            # hold no self-links.  Not a violation, just dropped.
            return False
        registry = self.registry
        if descriptor._verified_by is not registry and not self._verify_chain(
            descriptor
        ):
            return False
        hops = descriptor.hops
        if not hops or hops[-1].owner.digest != my_digest:
            # A hopless descriptor is owned by its creator, which the
            # first check proved is not this node.
            return False
        if hops[-1].kind in TERMINAL_KINDS:  # spent: already redeemed
            return False
        # The previous owner (second-to-last link of the ownership
        # sequence) must be the node that handed the descriptor over.
        previous = hops[-2].owner if len(hops) > 1 else descriptor.creator
        if previous.digest != sender_id.digest:
            return False
        if descriptor.timestamp > self.clock.now_s + self._tolerance_cached:
            return False
        return True

    def _fresh_descriptor_ok(
        self, descriptor: SecureDescriptor, sender_id: PublicKey
    ) -> bool:
        """§IV-A: newly created descriptors must carry a current timestamp."""
        if descriptor.creator != sender_id:
            return True  # not a self-descriptor; no freshness constraint
        if len(descriptor.hops) != 1:
            return True  # already travelled; ages naturally
        deviation = abs(descriptor.timestamp - self.clock.now())
        return deviation <= self._tolerance()

    def _tolerance(self) -> float:
        return self._tolerance_cached

    # ------------------------------------------------------------------
    # observation and proofs
    # ------------------------------------------------------------------

    def _samples_payload(self) -> Tuple[SecureDescriptor, ...]:
        """Copies of the current view plus the redemption cache (§IV-B,
        §V-C) — sent with the first message in each direction."""
        return (*self.view.descriptors(), *self.redemption_cache.contents())

    def _verify_chain(self, descriptor: SecureDescriptor) -> bool:
        """Chain verification through the verifier the engine chose.

        Unbound nodes call :func:`verify_descriptor` directly; nodes
        bound to a :class:`VerificationPlan` route through it so single
        verifications share the cycle's cross-node digest memo with the
        batched sample streams.  Both compute the identical predicate.
        """
        plan = self._vplan
        if plan is not None:
            return plan.verify(descriptor)
        return verify_descriptor(descriptor, self.registry)

    def _observe_all(self, descriptors, network) -> None:
        plan = self._vplan
        if plan is not None:
            self.sample_cache.observe_stream_planned(
                descriptors,
                self.current_cycle,
                self.registry,
                self._blacklist_map,
                self.clock.now_s + self._tolerance_cached,
                self._adopt_proof,
                network,
                plan,
            )
            return
        self.sample_cache.observe_stream(
            descriptors,
            self.current_cycle,
            self.registry,
            self._blacklist_map,
            self.clock.now_s + self._tolerance_cached,
            self._adopt_proof,
            network,
        )

    def _observe_validated(self, descriptor: SecureDescriptor, network) -> bool:
        """The §IV-B tail for one descriptor whose chain and timestamp
        were already checked (right after
        :meth:`_validate_incoming_transfer`): the blacklist filter, then
        the sample cache's insertion rules, adopting any proof found.

        Returns True if the descriptor is acceptable for further use
        (its creator is not blacklisted)."""
        blacklisted = self._blacklist_map
        creator = descriptor.creator
        if creator in blacklisted:
            return False
        proofs = self.sample_cache.observe(descriptor, self.current_cycle)
        if proofs:
            for proof in proofs:
                self._adopt_proof(proof, network, already_validated=True)
        return creator not in blacklisted

    def _ingest_proofs(self, proofs, network) -> None:
        # Most relayed proofs name a culprit this node already holds
        # (every dialogue carries the sender's whole blacklist): skip
        # them with one dict probe, the same early return _adopt_proof
        # would take.
        node_id = self.node_id
        blacklisted = self._blacklist_map
        for proof in proofs:
            culprit = proof.culprit
            if culprit in blacklisted or culprit == node_id:
                continue
            self._adopt_proof(proof, network, already_validated=False)

    def _adopt_proof(
        self, proof: ViolationProof, network, already_validated: bool
    ) -> None:
        if proof.culprit == self.node_id:
            return
        if proof.culprit in self.blacklist:
            return
        if not already_validated and not proof.validate(
            self.registry, self._freq_period
        ):
            return
        if already_validated:
            # A locally discovered violation (as opposed to a relayed
            # proof) — traced unconditionally so detection-ratio
            # experiments (Fig 7) can count it even with enforcement off.
            self._emit(
                "secure.violation_found",
                culprit=proof.culprit,
                proof_kind=proof.kind,
                identity=proof.first.identity,
            )
        if not self.config.blacklist_enabled:
            return
        self.blacklist.add(proof)
        self._purge_culprit(proof.culprit)
        self._emit(
            "secure.blacklisted",
            culprit=proof.culprit,
            proof_kind=proof.kind,
        )
        if network is not None:
            self._flood(proof, network)

    def _purge_culprit(self, culprit: PublicKey) -> None:
        self.view.purge_creator(culprit)
        self.sample_cache.forget_creator(culprit)
        self._sessions.pop(culprit, None)
        if self._vplan is not None:
            # Drop the culprit's chains from the shared digest memo so
            # no same-cycle batch resolves them from a stale entry
            # (verdicts are blacklist-independent crypto, so this is
            # hygiene — every receiver still filters against its own
            # live blacklist — but it keeps the memo honest).
            self._vplan.invalidate_creator(culprit)

    def _flood(self, proof: ViolationProof, network) -> None:
        """§IV-C: broadcast the proof over our current overlay links."""
        if network is None:
            return
        flood = ProofFlood(proof=proof)
        for neighbor_id in set(self.view.neighbor_ids()):
            network.push(self.node_id, neighbor_id, flood)

    def _proof_against(
        self, target: PublicKey
    ) -> Tuple[ViolationProof, ...]:
        proof = self.blacklist.proof_for(target)
        return (proof,) if proof is not None else ()

    # ------------------------------------------------------------------
    # wiring helpers
    # ------------------------------------------------------------------

    _network_for_flood: Optional[Network] = None

    def bind_network(self, network: Network) -> None:
        """Give the node a network handle for flooding outside dialogues.

        The engine's dialogue API hands initiators a channel, but proof
        flooding on the *partner* side needs a way to push one-way
        messages; experiments call this once at setup.
        """
        self._network_for_flood = network

    def bind_verification_plan(self, plan: VerificationPlan) -> None:
        """Adopt a shared batched-verification plan.

        :meth:`repro.sim.engine.Engine.add_node` calls this on the wire
        transport, so chain verdicts are shared network-wide within a
        cycle.  Binding a plan opts the node into the batched path —
        the caller owns that decision.
        """
        self._vplan = plan

    def _emit(self, kind: str, **detail: Any) -> None:
        if self.trace is not None:
            self.trace.emit(self.current_cycle, kind, node=self.node_id, **detail)
