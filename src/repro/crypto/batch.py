"""Batched ownership-chain verification: the §IV-B kernel, batched.

Sequential verification (:func:`repro.core.descriptor.verify_descriptor`)
walks one chain at a time: per hop, a structural check, a digest
extension, a registry seed lookup, one keyed-BLAKE2b MAC, and one
constant-time comparison — four Python-level calls per hop, per chain,
per *receiver*.  At paper scale (1K–10K nodes) the sample payload of
every gossip message funnels through that walk ~10k times per cycle,
and most of those walks re-derive verdicts some other node already
established in the same cycle.

This module batches the work along two axes:

* **Across chains** — :class:`VerificationPlan.verify_batch` flattens
  every not-yet-verified chain of a message into contiguous
  preallocated byte buffers (hop messages, claimed MACs), runs the
  keyed-BLAKE2b PRF once per hop over the flat buffer, and settles the
  *entire batch* with a single constant-time comparison of the two
  buffers.  Per-chain failure localisation only runs when that one
  comparison fails, i.e. only under attack.

* **Across nodes and cycles** — the plan keeps a verdict memo that
  groups descriptors by chain: each distinct chain is walked and
  MAC-checked once network-wide no matter how many receivers see a
  copy or in which cycle, and every later sighting — same object or a
  wire-rebuilt duplicate — resolves with one dictionary probe.  The
  memo key is a one-shot keyless BLAKE2b over the *entire* chain
  content — birth fields plus every hop's owner, kind, claimed signer,
  and MAC — so probing costs one C-level hash instead of the per-hop
  digest walk an attested-digest key would need, and key equality
  implies content equality under the same collision-resistance
  assumption the registry's prefix-trust cache already makes.
  Successful entries carry the chain and attested digests, so a memo
  hit also warms the rebuilt copy's lazy digest slots.

The kernel computes exactly the predicate of ``verify_descriptor`` —
same structural rules, same signer-continuity checks, same prefix-trust
reuse, same per-object ``_verified_by`` memo side effects — so the two
paths are interchangeable descriptor by descriptor.  The equivalence is
enforced property-by-property in
``tests/properties/test_batched_verification.py`` and bit-for-bit on
the golden figure series: the wire transport always verifies through
the plan (``Engine.add_node``), and
``tests/properties/test_scheduler_equivalence.py`` holds it to the
goldens the object transport's sequential walk produces.

Memo lifetime and invalidation: a verdict is a pure function of the
chain content and the registry (which only ever grows), so the memo
persists across cycles under a size cap, ``_VERDICT_MEMO_MAX``, and is
cleared wholesale on overflow — the same cap and rule as
:class:`repro.core.codec_batch.InternTable`'s record map, which holds
the same chains keyed by their bytes.  When a clear happens changes
work, never verdicts.  :meth:`VerificationPlan.invalidate_creator`
drops every memo entry for chains minted by a freshly blacklisted
creator.  Crypto verdicts are blacklist-independent — blacklist
filtering always runs live against each receiver's own blacklist,
*after* verification, on both paths — so invalidation is hygiene plus
defence-in-depth, not a correctness dependency; the cross-node tests
in ``tests/crypto/test_batch.py`` pin that a memo entry can never
smuggle a blacklisted creator's descriptor past a receiver that
already adopted the proof.
"""

from __future__ import annotations

import hashlib
import hmac
from itertools import islice
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.descriptor import (
    TERMINAL_KINDS,
    SecureDescriptor,
    TransferKind,
    _TRUSTED_CACHE_MAX,
    _extend_attested,
    _extend_digest,
)

_MAC_BYTES = 32
_INITIAL_HOP_CAPACITY = 64
#: Verdict memo cap: checked after each batch, cleared wholesale past it.
_VERDICT_MEMO_MAX = 1 << 16

# One fixed-width tag per hop kind (the closed TransferKind set), so the
# key encoding below never concatenates two variable-length fields.
_KIND_TAG = {
    kind: index.to_bytes(1, "big") for index, kind in enumerate(TransferKind)
}


def _content_key(descriptor: SecureDescriptor) -> bytes:
    """One-shot fingerprint of the complete chain content.

    Covers the birth fields and, per hop, the owner, the kind, the
    *claimed* signer, and the MAC — everything the verifier's verdict
    depends on — in a single keyless BLAKE2b call.  The encoding is
    injective: every field is either fixed-width (key digests, the
    kind tag) or carried behind an explicit length prefix (timestamp
    repr, the attacker-supplied MAC bytes), so no choice of field
    values can shift a boundary and make two distinct chains encode to
    the same input.  Key equality therefore implies content equality
    up to a hash collision — the same standing assumption the
    registry's trusted-digest cache makes — which is what lets
    verdicts (including structural rejections) be shared across
    copies.

    The key is cached on the descriptor (``_content_key``): it is
    content-determined and descriptors are immutable, so it never goes
    stale.  The zero-copy wire decoder pre-fills the slot with a
    *domain-separated* fingerprint of the canonical record bytes it
    just parsed (see :mod:`repro.core.codec_batch`) — a different but
    equally injective encoding of the same content, distinguished by a
    BLAKE2b ``person`` tag so the two schemes can never collide with
    each other.  Copies keyed under different schemes simply occupy
    two memo entries (one extra verification per distinct chain at
    worst); copies keyed under the same scheme share, which is the
    case that carries the traffic.
    """
    cached = descriptor._content_key
    if cached is not None:
        return cached
    address = descriptor.address
    ts_bytes = repr(descriptor.timestamp).encode("ascii")
    parts = [
        descriptor.creator.digest,
        address.host.to_bytes(4, "big"),
        address.port.to_bytes(2, "big"),
        len(ts_bytes).to_bytes(4, "big"),
        ts_bytes,
    ]
    append = parts.append
    for hop in descriptor.hops:
        signature = hop.signature
        mac = signature.mac
        append(hop.owner.digest)
        append(_KIND_TAG[hop.kind])
        append(signature.signer.digest)
        append(len(mac).to_bytes(4, "big"))
        append(mac)
    key = hashlib.blake2b(b"".join(parts), digest_size=32).digest()
    object.__setattr__(descriptor, "_content_key", key)
    return key


class _PendingChain:
    """One distinct chain awaiting the flat MAC kernel."""

    __slots__ = (
        "descriptor",
        "followers",
        "hop_start",
        "hop_count",
        "chain_digest",
        "attested_digest",
        "chain_key",
        "result_slots",
        "verdict",
    )

    def __init__(
        self,
        descriptor: SecureDescriptor,
        hop_start: int,
        hop_count: int,
        chain_digest: bytes,
        attested_digest: bytes,
    ) -> None:
        self.descriptor = descriptor
        self.followers: List[SecureDescriptor] = []
        self.hop_start = hop_start
        self.hop_count = hop_count
        self.chain_digest = chain_digest
        self.attested_digest = attested_digest
        self.result_slots: List[int] = []
        self.verdict = False


class VerificationPlan:
    """Batched verification state, shared network-wide.

    One plan serves one :class:`~repro.crypto.registry.KeyRegistry` —
    in a simulation, one engine.  Every node bound to the plan routes
    its chain verifications through it; the plan answers from the
    per-object memo, the content-keyed verdict memo, or the flat MAC
    kernel, in that order.
    """

    __slots__ = (
        "registry",
        "_verdicts",
        "_creator_digests",
        "_messages",
        "_mac_buf",
        "_out_buf",
        "_keys",
        "batches",
        "macs_checked",
        "chains_verified",
        "chains_rejected",
        "digest_memo_hits",
        "object_memo_hits",
        "invalidations",
    )

    def __init__(self, registry: Any) -> None:
        self.registry = registry
        # Verdict memo: content key (see _content_key) -> False
        # for rejected chains, (chain_digest, attested_digest) for
        # verified ones, or a _PendingChain while its batch is in
        # flight.  Keyed on chain content so a wire-rebuilt duplicate
        # of an already-checked chain resolves with one hash + probe.
        self._verdicts: Dict[bytes, Any] = {}
        # creator -> [memo keys] recorded since the last clear, so a
        # blacklist/purge can surgically drop the culprit's entries.
        self._creator_digests: Dict[Any, List[bytes]] = {}
        # Flat kernel state, preallocated and reused across batches:
        # the claimed-MAC and computed-MAC byte buffers (settled with a
        # single constant-time comparison; grown geometrically when a
        # batch overflows them) plus flat per-hop message/seed lists.
        capacity = _INITIAL_HOP_CAPACITY * _MAC_BYTES
        self._mac_buf = bytearray(capacity)
        self._out_buf = bytearray(capacity)
        self._keys: List[bytes] = []
        self._messages: List[bytes] = []
        # Counters: exposed for benchmarks and the perf docs.
        self.batches = 0
        self.macs_checked = 0
        self.chains_verified = 0
        self.chains_rejected = 0
        self.digest_memo_hits = 0
        self.object_memo_hits = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------

    def invalidate_creator(self, creator: Any) -> int:
        """Drop every memo entry for chains minted by ``creator``.

        Called when a node bound to this plan blacklists (and purges)
        ``creator``.  Verification verdicts are pure crypto and do not
        depend on blacklists — receivers always filter against their
        own live blacklist after verification — so this is memo hygiene
        and defence-in-depth, not a correctness dependency.  Returns
        how many entries were dropped.
        """
        keys = self._creator_digests.pop(creator, None)
        if not keys:
            return 0
        verdicts = self._verdicts
        dropped = 0
        for key in keys:
            if verdicts.pop(key, None) is not None:
                dropped += 1
        self.invalidations += dropped
        return dropped

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------

    def verify(self, descriptor: SecureDescriptor) -> bool:
        """Verify one descriptor through the plan's memo layers."""
        if descriptor._verified_by is self.registry:
            self.object_memo_hits += 1
            return True
        return self.verify_batch((descriptor,))[0]

    def verify_batch(
        self, descriptors: Sequence[SecureDescriptor]
    ) -> List[bool]:
        """Verify a whole batch; returns one verdict per descriptor.

        Descriptors already carrying the per-object memo are settled
        immediately; the rest are grouped by chain content, answered
        from the verdict memo where possible, and the remaining distinct
        chains go through the flat MAC kernel together.  Successful
        chains receive exactly the side effects of
        ``verify_descriptor``: cached digests, the ``_verified_by``
        object memo, and a registry prefix-trust entry.
        """
        memo = self._verdicts
        pending: List[_PendingChain] = []
        try:
            results = self._settle(descriptors, pending)
        except BaseException:
            # A record left in flight would turn every later copy of its
            # chain into a follower of a batch that never settles.
            for record in pending:
                if memo.get(record.chain_key) is record:
                    del memo[record.chain_key]
            raise
        if len(memo) > _VERDICT_MEMO_MAX:
            memo.clear()
            self._creator_digests.clear()
        self.batches += 1
        return results

    def _settle(
        self,
        descriptors: Sequence[SecureDescriptor],
        pending: List[_PendingChain],
    ) -> List[bool]:
        registry = self.registry
        memo = self._verdicts
        results = [False] * len(descriptors)
        hop_cursor = 0
        keys = self._keys
        keys.clear()
        messages = self._messages
        messages.clear()
        mac_buf = self._mac_buf
        seed_for = registry.seed_for
        trusted = getattr(registry, "trusted_chain_digests", None)
        fill = object.__setattr__

        for slot, descriptor in enumerate(descriptors):
            if descriptor._verified_by is registry:
                self.object_memo_hits += 1
                results[slot] = True
                continue
            chain_key = _content_key(descriptor)
            cached = memo.get(chain_key)
            if cached is not None:
                if cached.__class__ is _PendingChain:
                    # Same chain earlier in this very batch: piggyback.
                    cached.followers.append(descriptor)
                    cached.result_slots.append(slot)
                    continue
                # A copy of a chain already settled: one dictionary
                # probe replaces the whole walk.
                self.digest_memo_hits += 1
                if cached is not False:
                    if descriptor._chain_digest is None:
                        fill(descriptor, "_chain_digest", cached[0])
                    if descriptor._attested_digest is None:
                        fill(descriptor, "_attested_digest", cached[1])
                    fill(descriptor, "_verified_by", registry)
                    results[slot] = True
                continue
            encoded = self._walk_chain(descriptor, trusted)
            if encoded is None:
                # Structural violations are content-determined (the key
                # covers the claimed signers), so the rejection is
                # memoisable like any other verdict.
                memo[chain_key] = False
                self._track_creator(descriptor.creator, chain_key)
                self.chains_rejected += 1
                continue
            chain_digest, attested, hop_digests, suffix_start = encoded
            hops = descriptor.hops
            record = _PendingChain(
                descriptor,
                hop_cursor,
                len(hops) - suffix_start,
                chain_digest,
                attested,
            )
            record.chain_key = chain_key
            record.result_slots.append(slot)
            # Flatten the unverified suffix: hop messages + seeds as
            # flat lists, claimed MACs into the preallocated buffer the
            # kernel settles with one comparison.
            ok = True
            offset = hop_cursor * _MAC_BYTES
            needed = (hop_cursor + len(hops) - suffix_start) * _MAC_BYTES
            if needed > len(mac_buf):
                self._grow(needed)
                mac_buf = self._mac_buf
            for index in range(suffix_start, len(hops)):
                signature = hops[index].signature
                seed = seed_for(signature.signer)
                mac = signature.mac
                if seed is None or len(mac) != _MAC_BYTES:
                    # Unknown signer, or a malformed MAC the constant-
                    # time comparison would reject anyway.
                    ok = False
                    break
                mac_buf[offset : offset + _MAC_BYTES] = mac
                keys.append(seed)
                messages.append(hop_digests[index])
                offset += _MAC_BYTES
            if not ok:
                del keys[hop_cursor:]
                del messages[hop_cursor:]
                memo[chain_key] = False
                self._track_creator(descriptor.creator, chain_key)
                self.chains_rejected += 1
                continue
            hop_cursor += record.hop_count
            pending.append(record)
            memo[chain_key] = record

        if pending:
            self._run_kernel(pending, hop_cursor)
            for record in pending:
                chain_key = record.chain_key
                self._track_creator(record.descriptor.creator, chain_key)
                if record.verdict:
                    memo[chain_key] = (
                        record.chain_digest,
                        record.attested_digest,
                    )
                    self.chains_verified += 1
                    self._apply_success(
                        record.descriptor,
                        record.chain_digest,
                        record.attested_digest,
                        trusted,
                    )
                    for follower in record.followers:
                        self._apply_success(
                            follower,
                            record.chain_digest,
                            record.attested_digest,
                            trusted,
                        )
                    for slot in record.result_slots:
                        results[slot] = True
                else:
                    memo[chain_key] = False
                    self.chains_rejected += 1
        return results

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _walk_chain(
        self, descriptor: SecureDescriptor, trusted: Optional[dict]
    ) -> Optional[Tuple[bytes, bytes, List[bytes], int]]:
        """Structural pass: rules, digest chain, deepest trusted prefix.

        Mirrors pass 1 of ``verify_descriptor`` exactly.  Returns
        ``None`` when a structural rule fails (terminal-hop placement,
        signer continuity), else ``(chain_digest, attested_digest,
        per-hop message digests, first unverified hop index)``.
        """
        hops = descriptor.hops
        creator = descriptor.creator
        digest = descriptor.base_digest()
        attested = digest
        last = len(hops) - 1
        signer = creator
        hop_digests: List[bytes] = []
        suffix_start = 0
        for index, hop in enumerate(hops):
            kind = hop.kind
            if kind in TERMINAL_KINDS and (
                index != last or hop.owner != creator
            ):
                return None
            if hop.signature.signer != signer:
                return None
            digest = _extend_digest(digest, hop.owner, kind)
            hop_digests.append(digest)
            attested = _extend_attested(
                attested, hop.owner, kind, hop.signature.mac
            )
            if trusted is not None and attested in trusted:
                suffix_start = index + 1
            signer = hop.owner
        return digest, attested, hop_digests, suffix_start

    def _run_kernel(self, pending: List[_PendingChain], total_hops: int) -> None:
        """The flat MAC kernel: hash every hop, compare once.

        Recomputes the keyed-BLAKE2b MAC of every flattened hop into
        the output buffer, then settles the whole batch with a single
        constant-time comparison against the claimed MACs.  Only when
        that comparison fails — i.e. at least one forged hop exists in
        the batch — does the per-chain localisation pass run.
        """
        size = total_hops * _MAC_BYTES
        out_buf = self._out_buf
        if size > len(out_buf):
            self._grow(size)
            out_buf = self._out_buf
        blake2b = hashlib.blake2b
        offset = 0
        for seed, message in zip(self._keys, self._messages):
            out_buf[offset : offset + _MAC_BYTES] = blake2b(
                message, key=seed, digest_size=_MAC_BYTES
            ).digest()
            offset += _MAC_BYTES
        self.macs_checked += total_hops
        mac_view = memoryview(self._mac_buf)
        out_view = memoryview(out_buf)
        if hmac.compare_digest(out_view[:size], mac_view[:size]):
            for record in pending:
                record.verdict = True
            return
        # Rare (adversarial) path: localise the forged chain(s).
        for record in pending:
            start = record.hop_start * _MAC_BYTES
            end = start + record.hop_count * _MAC_BYTES
            record.verdict = hmac.compare_digest(
                out_view[start:end], mac_view[start:end]
            )

    def _apply_success(
        self,
        descriptor: SecureDescriptor,
        chain_digest: bytes,
        attested: bytes,
        trusted: Optional[dict],
    ) -> None:
        """Side effects of a successful verification, as the sequential
        path produces them: cached digests, the per-object memo, and a
        prefix-trust entry (with the same bounded eviction)."""
        fill = object.__setattr__
        if descriptor._chain_digest is None:
            fill(descriptor, "_chain_digest", chain_digest)
        if descriptor._attested_digest is None:
            fill(descriptor, "_attested_digest", attested)
        fill(descriptor, "_verified_by", self.registry)
        if trusted is not None and descriptor.hops:
            trusted[attested] = None
            if len(trusted) > _TRUSTED_CACHE_MAX:
                for stale in list(
                    islice(iter(trusted), _TRUSTED_CACHE_MAX // 8)
                ):
                    del trusted[stale]

    def _track_creator(self, creator: Any, chain_key: bytes) -> None:
        bucket = self._creator_digests.get(creator)
        if bucket is None:
            self._creator_digests[creator] = [chain_key]
        else:
            bucket.append(chain_key)

    def _grow(self, needed: int) -> None:
        capacity = len(self._mac_buf)
        while capacity < needed:
            capacity *= 2
        self._mac_buf.extend(bytearray(capacity - len(self._mac_buf)))
        self._out_buf.extend(bytearray(capacity - len(self._out_buf)))

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (benchmarks, perf docs, tests)."""
        return {
            "batches": self.batches,
            "macs_checked": self.macs_checked,
            "chains_verified": self.chains_verified,
            "chains_rejected": self.chains_rejected,
            "digest_memo_hits": self.digest_memo_hits,
            "object_memo_hits": self.object_memo_hits,
            "invalidations": self.invalidations,
        }
