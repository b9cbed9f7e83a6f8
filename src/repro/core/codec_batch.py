"""Codec fast path: cycle-scoped batch encoding and zero-copy decoding.

:mod:`repro.core.codec` is the *reference* codec: a field-at-a-time
reader/writer pair that every extension codec programs against and the
property suite fuzzes.  This module is the fast path the
:class:`~repro.sim.transport.WireTransport` actually runs — same bytes,
same accept/reject set, a fraction of the work:

* :class:`BatchEncoder` — encode-once-per-distinct-payload within a
  cycle.  A whole-message memo generalises the network's one-entry push
  memo (a proof flood re-frames one payload per neighbour; here *any*
  repeated payload object costs one encode per cycle), and a
  per-descriptor record memo catches the heavier redundancy below the
  message level: the same descriptor object is embedded in several
  frames per cycle (a reply here, a bulk swap there), and its record
  bytes never change.  A proofs-section memo does the same for the
  retained-proof list every opening and reply carries (§IV-C): a
  node's blacklist hands out one tuple per version, so the whole
  section is serialised once per blacklist version per cycle, and each
  proof record is assembled from the descriptor record memo.  All three
  memos key on ``id()`` **and keep a strong reference to the keyed
  object in the value**, so a garbage-collected id can never alias a
  new object into stale bytes.
  :meth:`BatchEncoder.encode_frames` frames a whole fan-out into one
  ``bytearray`` as length-prefixed frames.

* :class:`FastDecoder` — a zero-copy walk over each frame: one offset
  cursor, precompiled :class:`struct.Struct` instances, and no
  intermediate per-record slicing through the reference reader (the
  reference path slices every embedded record out of the frame and then
  re-slices every field out of the record).  Built-in message types 1–8
  are decoded inline, proof records included; extension-registry frames
  fall back to the reference decoder, so registered protocols keep
  exactly their own decode semantics.

* :class:`InternTable` — the wire atoms that repeat in nearly every
  frame of a cycle (creator/owner public keys, whole ownership hops,
  descriptor identities, the 48-byte birth prelude) are decoded once
  per distinct byte-run and shared, analogous to the
  :class:`~repro.crypto.batch.VerificationPlan` verdict memo.  Interning
  is *content-addressed* and therefore safe for value objects — keys,
  hops, identities carry no per-receiver state.  Whole descriptors and
  proofs are **never** interned: each receiver must hold its own
  :class:`~repro.core.descriptor.SecureDescriptor` and proof instances
  (their lazy digest slots and the wire-mode no-shared-objects contract
  pinned by ``tests/sim/test_transport.py`` depend on it).  What the
  record-level maps keep is the parse result — field templates from
  which a fresh shell is assembled per decode.

Lifetime rules: the *id-keyed encode memos* (messages, descriptors,
proofs sections) are cycle-scoped — :meth:`BatchEncoder.begin_cycle`
drops them at every cycle boundary (ticked from
``Network.health_tick``, which both schedulers call once per cycle)
because their values pin strong references to live payload objects.
The *content-addressed* intern maps (atoms, descriptor records, proof
records) persist across cycles under hard size caps (clearing
wholesale on overflow): a content-addressed entry can never go stale —
the key *is* the bytes that produced the value — and retaining it lets
the forward path
(receive in cycle *N*, re-send in cycle *N+1*) hit the table.  In both
cases lifetime is for *boundedness only*: every entry is
content-determined or identity-pinned, so correctness never depends on
when a clear happens.

The decoder also pre-fills each rebuilt descriptor's
``_content_key`` slot with a domain-separated BLAKE2b fingerprint of
the canonical record bytes it just parsed.  The record encoding is
injective (fixed-width fields, explicit hop count, exact-length
check), so record bytes determine chain content; the ``person`` tag
keeps this scheme's digests disjoint from the chain-walk encoding in
:func:`repro.crypto.batch._content_key`.  Batched verification's
verdict memo probe then costs one C-level hash computed as a side effect
of decoding, instead of a per-hop Python walk over the rebuilt chain.

Nothing here consumes randomness, and the encoder's output is
byte-identical to :func:`~repro.core.codec.encode_message` (property-
tested over every registered message type), so golden series stay
bit-for-bit under every ``transport × verification`` combination.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.codec import (
    MAX_FRAME_BYTES,
    _TYPE_CODES,
    _U8,
    _U16,
    _U32,
    decode_message,
    encode_message,
)
from repro.core.descriptor import (
    DescriptorId,
    OwnershipHop,
    SecureDescriptor,
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
from repro.core.proofs import ViolationProof
from repro.core.wire import (
    _BIRTH,
    _CODE_KINDS,
    PROOF_TYPES,
    encode_descriptor,
)
from repro.crypto.keys import PublicKey
from repro.crypto.signing import Signature
from repro.errors import CodecError, FrameOversizeError
from repro.sim.network import NetworkAddress

#: Domain tag for record-derived content keys (see module docstring):
#: BLAKE2b personalisation keeps these digests disjoint from the
#: chain-walk content keys of :func:`repro.crypto.batch._content_key`.
_WIRE_KEY_PERSON = b"repro-wire-v1"

#: Descriptor record layout: 32-byte creator digest + ``>IHd`` birth
#: fields + u16 hop count, then 65 bytes per hop (owner digest, kind
#: byte, MAC).  The decoder validates record length against this shape
#: *before* parsing hops, so a corrupt count is rejected by arithmetic.
_PRELUDE_BYTES = 48
_HOP_BYTES = 65

#: Proof record layout: kind byte + 32-byte culprit digest, then two
#: u32-length-prefixed descriptor records filling the rest exactly.
_PROOF_PRELUDE_BYTES = 33

# Size caps (entries, not bytes).  Intern entries are small shared
# value objects and memo entries one record/frame each; the caps exist
# only as the no-cycle-tick fallback — a 10K-node cycle stays well
# under all of them, so in steady state eviction never fires.
_KEY_INTERN_MAX = 1 << 17
_HOP_INTERN_MAX = 1 << 17
_BIRTH_INTERN_MAX = 1 << 16
_RECORD_INTERN_MAX = 1 << 16
_PROOF_INTERN_MAX = 1 << 14
_DESCRIPTOR_MEMO_MAX = 1 << 16
_MESSAGE_MEMO_MAX = 1 << 14
_SECTION_MEMO_MAX = 1 << 14

_blake2b = hashlib.blake2b
_fill = object.__setattr__


def _build_descriptor(template: tuple) -> SecureDescriptor:
    """Assemble a fresh descriptor shell from a parsed record template.

    ``template`` is ``(creator, address, timestamp, hops, identity,
    content_key)`` — the immutable parse result of one validated record.
    Every decode gets its own :class:`SecureDescriptor` instance with
    the lazy cache slots reset: atoms are shared by content, shells and
    verification state never are.
    """
    creator, address, timestamp, hops, identity, content_key = template
    descriptor = object.__new__(SecureDescriptor)
    _fill(descriptor, "creator", creator)
    _fill(descriptor, "address", address)
    _fill(descriptor, "timestamp", timestamp)
    _fill(descriptor, "hops", hops)
    _fill(descriptor, "identity", identity)
    _fill(descriptor, "_base_digest", None)
    _fill(descriptor, "_chain_digest", None)
    _fill(descriptor, "_attested_digest", None)
    _fill(descriptor, "_verified_by", None)
    _fill(descriptor, "_content_key", content_key)
    return descriptor


def _template(descriptor: SecureDescriptor) -> tuple:
    """Inverse of :func:`_build_descriptor` for a freshly decoded shell."""
    return (
        descriptor.creator,
        descriptor.address,
        descriptor.timestamp,
        descriptor.hops,
        descriptor.identity,
        descriptor._content_key,
    )


def _intern_key(keys: Dict[bytes, PublicKey], digest: bytes) -> PublicKey:
    """The shared :class:`PublicKey` for a 32-byte digest."""
    key = keys.get(digest)
    if key is None:
        key = PublicKey(digest)
        if len(keys) >= _KEY_INTERN_MAX:
            keys.clear()
        keys[digest] = key
    return key


class InternTable:
    """Bounded content-addressed intern maps for repeated wire atoms.

    Three content-addressed maps, each keyed by the exact byte-run (or
    byte-run-derived tuple) that produced the value:

    * ``keys``   — 32-byte digest → :class:`PublicKey`
    * ``births`` — 48-byte birth prelude → ``(creator, address,
      timestamp, identity)``; the timestamp keeps its raw bit pattern
      in the key, so ``0.0``/``-0.0``/NaN payloads never alias
    * ``hops``   — ``(signer, 65-byte hop record)`` →
      :class:`OwnershipHop`; the signer is part of the key because the
      wire format leaves it implied by chain position

    Interned hops restore, by content, exactly the sharing object
    mode gets from lineage: for *verified* chains a
    content-equal hop under the same signer implies an identical
    prefix (a deterministic MAC over the prefix digest cannot verify
    for two different prefixes), so the chain comparison's shared-hop
    fast path stays sound — and unverified garbage is rejected before
    any comparison runs, on both transports alike.

    Three record-level maps sit above the atoms (views overlap heavily,
    so most records repeat many times per cycle):

    * ``records`` — whole validated descriptor record bytes → the
      parsed *field template* ``(creator, address, timestamp, hops,
      identity, content_key)``.  A hit skips parsing entirely; only a
      fresh :class:`SecureDescriptor` shell (cache slots reset) is
      assembled per decode, so receivers still never share descriptor
      objects — or verification state.
    * ``records_by_key`` — content key → record bytes, the encode-side
      inverse.  Filled at decode time (both sides of the pair are in
      hand) and probed by :class:`BatchEncoder` when a node re-sends a
      descriptor it received, collapsing the forward path's
      re-serialisation to one dict probe.  Safe because the record
      encoding is canonical: one content, one byte string.
    * ``proofs`` — whole validated proof record bytes → ``(cls,
      culprit, first_template, second_template)``.  Every opening and
      reply re-delivers the sender's whole blacklist (§IV-C catch-up),
      so under attack the same proof records arrive many times per
      cycle; a hit assembles a fresh proof around two fresh descriptor
      shells without parsing anything.
    """

    __slots__ = (
        "keys",
        "births",
        "hops",
        "records",
        "records_by_key",
        "proofs",
        "hits",
        "misses",
        "_cycle",
    )

    def __init__(self) -> None:
        self.keys: Dict[bytes, PublicKey] = {}
        self.births: Dict[bytes, tuple] = {}
        self.hops: Dict[tuple, OwnershipHop] = {}
        self.records: Dict[bytes, tuple] = {}
        self.records_by_key: Dict[bytes, bytes] = {}
        self.proofs: Dict[bytes, tuple] = {}
        self.hits = 0
        self.misses = 0
        self._cycle: Optional[int] = None

    def begin_cycle(self, cycle: int) -> None:
        """Note the cycle boundary.

        Deliberately retains every map: entries are content-addressed,
        so they cannot go stale, and descriptors received in cycle *N*
        are re-sent in cycle *N+1* — clearing here would forfeit
        exactly those hits.  Boundedness comes from the per-map size
        caps, enforced at insert time.
        """
        self._cycle = cycle

    def clear(self) -> None:
        """Drop every interned atom and record (test/tooling hook)."""
        self.keys.clear()
        self.births.clear()
        self.hops.clear()
        self.records.clear()
        self.records_by_key.clear()
        self.proofs.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of atom lookups answered from the table."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, int]:
        return {
            "keys": len(self.keys),
            "births": len(self.births),
            "hops": len(self.hops),
            "records": len(self.records),
            "proofs": len(self.proofs),
            "hits": self.hits,
            "misses": self.misses,
        }


class BatchEncoder:
    """Cycle-scoped encoder: one encode per distinct payload or record.

    Produces frames byte-identical to
    :func:`repro.core.codec.encode_message` — built-in types are
    mirrored field for field against one reusable ``bytearray``;
    extension-registry types delegate to the reference writer, whose
    output is then memoised like any other frame.
    """

    __slots__ = (
        "_messages",
        "_descriptors",
        "_sections",
        "_by_content",
        "_buf",
        "_cycle",
        "message_hits",
        "message_misses",
        "descriptor_hits",
        "descriptor_misses",
    )

    def __init__(self, intern: Optional[InternTable] = None) -> None:
        # id(payload) -> (payload, frame bytes).  The strong reference
        # in the value pins the id: no live entry can ever be probed by
        # a recycled id of a dead object.
        self._messages: Dict[int, Tuple[Any, bytes]] = {}
        # id(descriptor) -> (descriptor, record bytes), same contract.
        self._descriptors: Dict[int, Tuple[SecureDescriptor, bytes]] = {}
        # id(proofs tuple) -> (tuple, whole proofs-section bytes), same
        # contract.  Blacklist.add replaces its tuple, so each
        # blacklist version is serialised once per cycle.
        self._sections: Dict[int, Tuple[tuple, bytes]] = {}
        # content key -> record bytes.  When the encoder shares an
        # InternTable with the decoder (the wire transport wires them
        # together), re-sending a descriptor received this cycle hits
        # the entry the decoder filled and skips serialisation outright.
        self._by_content: Dict[bytes, bytes] = (
            intern.records_by_key if intern is not None else {}
        )
        self._buf = bytearray()
        self._cycle: Optional[int] = None
        self.message_hits = 0
        self.message_misses = 0
        self.descriptor_hits = 0
        self.descriptor_misses = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        """Drop the previous cycle's memos (idempotent per cycle)."""
        if cycle == self._cycle:
            return
        self._cycle = cycle
        self._messages.clear()
        self._descriptors.clear()
        self._sections.clear()

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------

    def encode(self, payload: Any) -> bytes:
        """Frame one payload, memoised per object within the cycle."""
        memo = self._messages
        key = id(payload)
        entry = memo.get(key)
        if entry is not None and entry[0] is payload:
            self.message_hits += 1
            return entry[1]
        self.message_misses += 1
        frame = self._encode_message(payload)
        if len(memo) >= _MESSAGE_MEMO_MAX:
            memo.clear()
        memo[key] = (payload, frame)
        return frame

    def encode_frames(self, payloads: Iterable[Any]) -> bytes:
        """Frame a whole fan-out: one buffer, length-prefixed frames.

        Byte-identical to concatenating ``u32(len(frame)) + frame`` for
        each payload's reference encoding — the framing a socket-facing
        shard would ship as one write.
        """
        out = bytearray()
        pack_len = _U32.pack
        for payload in payloads:
            frame = self.encode(payload)
            out += pack_len(len(frame))
            out += frame
        return bytes(out)

    def stats(self) -> Dict[str, int]:
        return {
            "message_hits": self.message_hits,
            "message_misses": self.message_misses,
            "descriptor_hits": self.descriptor_hits,
            "descriptor_misses": self.descriptor_misses,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _encode_message(self, payload: Any) -> bytes:
        code = _TYPE_CODES.get(type(payload))
        if code is None:
            # Extension-registry types (and the unknown-type CodecError)
            # take the reference writer verbatim.
            return encode_message(payload)
        buf = self._buf
        del buf[:]
        buf.append(code)
        if code == 1:  # GossipOpen
            self._write_descriptor(buf, payload.redemption)
            buf.append(1 if payload.non_swappable else 0)
            self._write_descriptors(buf, payload.samples)
            self._write_proofs(buf, payload.proofs)
        elif code == 2:  # GossipAccept
            self._write_descriptors(buf, payload.samples)
            self._write_proofs(buf, payload.proofs)
        elif code == 3:  # GossipReject
            raw = payload.reason.encode("utf-8")
            buf += _U16.pack(len(raw))
            buf += raw
            self._write_proofs(buf, payload.proofs)
        elif code == 4:  # TransferMessage
            self._write_descriptor(buf, payload.descriptor)
            buf += _U16.pack(payload.round_index)
        elif code == 5:  # TransferReply
            descriptor = payload.descriptor
            buf.append(1 if descriptor is not None else 0)
            if descriptor is not None:
                self._write_descriptor(buf, descriptor)
        elif code in (6, 7):  # BulkSwapMessage / BulkSwapReply
            self._write_descriptors(buf, payload.descriptors)
        else:  # ProofFlood (code 8)
            record = self._proof_bytes(payload.proof)
            buf += _U32.pack(len(record))
            buf += record
        return bytes(buf)

    def _write_descriptor(self, buf: bytearray, descriptor: SecureDescriptor) -> None:
        record = self._descriptor_bytes(descriptor)
        buf += _U32.pack(len(record))
        buf += record

    def _write_descriptors(
        self, buf: bytearray, items: Tuple[SecureDescriptor, ...]
    ) -> None:
        buf += _U16.pack(len(items))
        for item in items:
            self._write_descriptor(buf, item)

    def _write_proofs(self, buf: bytearray, items: tuple) -> None:
        memo = self._sections
        key = id(items)
        entry = memo.get(key)
        if entry is not None and entry[0] is items:
            buf += entry[1]
            return
        pack_len = _U32.pack
        parts = [_U16.pack(len(items))]
        for item in items:
            record = self._proof_bytes(item)
            parts.append(pack_len(len(record)))
            parts.append(record)
        section = b"".join(parts)
        if len(memo) >= _SECTION_MEMO_MAX:
            memo.clear()
        memo[key] = (items, section)
        buf += section

    def _proof_bytes(self, proof: ViolationProof) -> bytes:
        """One proof record, as :func:`~repro.core.wire.encode_proof`."""
        first = self._descriptor_bytes(proof.first)
        second = self._descriptor_bytes(proof.second)
        return b"".join(
            (
                _U8.pack(PROOF_TYPES.index(type(proof))),
                proof.culprit.digest,
                _U32.pack(len(first)),
                first,
                _U32.pack(len(second)),
                second,
            )
        )

    def _descriptor_bytes(self, descriptor: SecureDescriptor) -> bytes:
        # Content-keyed probe first: a key (filled by the wire decoder
        # or the batched-verification walk) identifies chain content,
        # and the record encoding is canonical, so any descriptor with
        # this content serialises to the memoised bytes.
        content_key = descriptor._content_key
        if content_key is not None:
            by_content = self._by_content
            record = by_content.get(content_key)
            if record is not None:
                self.descriptor_hits += 1
                return record
            self.descriptor_misses += 1
            record = encode_descriptor(descriptor)
            if len(by_content) >= _RECORD_INTERN_MAX:
                by_content.clear()
            by_content[content_key] = record
            return record
        memo = self._descriptors
        key = id(descriptor)
        entry = memo.get(key)
        if entry is not None and entry[0] is descriptor:
            self.descriptor_hits += 1
            return entry[1]
        self.descriptor_misses += 1
        record = encode_descriptor(descriptor)
        if len(memo) >= _DESCRIPTOR_MEMO_MAX:
            memo.clear()
        memo[key] = (descriptor, record)
        return record


class FastDecoder:
    """Zero-copy decoder for the built-in dialogue messages.

    Walks the frame with one offset cursor; embedded descriptor and
    proof records are parsed in place (no intermediate record slice)
    and their atoms resolved through the shared :class:`InternTable`.
    The accept set and the raised exception types match the reference
    decoder exactly — the mutation-fuzz equivalence property in
    ``tests/properties/test_codec_roundtrip.py`` pins both directions.
    """

    __slots__ = ("intern", "frames_decoded", "descriptors_decoded")

    def __init__(self, intern: Optional[InternTable] = None) -> None:
        self.intern = intern if intern is not None else InternTable()
        self.frames_decoded = 0
        self.descriptors_decoded = 0

    def decode(
        self, data: bytes, max_frame_bytes: Optional[int] = MAX_FRAME_BYTES
    ) -> Any:
        """Inverse of :func:`~repro.core.codec.encode_message`.

        Same contract as the reference
        :func:`~repro.core.codec.decode_message`: oversize frames raise
        :class:`FrameOversizeError` before any parsing; every other
        malformed input raises :class:`CodecError`.
        """
        if type(data) is not bytes:
            # Fault injectors and tests may hand bytearray frames; the
            # intern probes below need hashable (bytes) slices.
            data = bytes(data)
        if max_frame_bytes is not None and len(data) > max_frame_bytes:
            raise FrameOversizeError(
                f"frame of {len(data)} bytes exceeds the "
                f"{max_frame_bytes}-byte ceiling"
            )
        if not data:
            raise CodecError("truncated u8 field")
        code = data[0]
        if not 1 <= code <= 8:
            # Extension-registry frames keep their own decoders; the
            # reference path also owns the unknown-code rejection.
            return decode_message(data, max_frame_bytes)
        self.frames_decoded += 1
        try:
            size = len(data)
            offset = 1
            if code == 1:  # GossipOpen
                redemption, offset = self._read_descriptor(data, offset, size)
                if offset >= size:
                    raise CodecError("truncated u8 field")
                non_swappable = bool(data[offset])
                offset += 1
                samples, offset = self._read_descriptors(data, offset, size)
                proofs, offset = self._read_proofs(data, offset, size)
                message: Any = GossipOpen(
                    redemption=redemption,
                    non_swappable=non_swappable,
                    samples=samples,
                    proofs=proofs,
                )
            elif code == 2:  # GossipAccept
                samples, offset = self._read_descriptors(data, offset, size)
                proofs, offset = self._read_proofs(data, offset, size)
                message = GossipAccept(samples=samples, proofs=proofs)
            elif code == 3:  # GossipReject
                if offset + 2 > size:
                    raise CodecError("truncated u16 field")
                (length,) = _U16.unpack_from(data, offset)
                offset += 2
                if length > size - offset:
                    raise CodecError("truncated string")
                reason = data[offset : offset + length].decode("utf-8")
                offset += length
                proofs, offset = self._read_proofs(data, offset, size)
                message = GossipReject(reason=reason, proofs=proofs)
            elif code == 4:  # TransferMessage
                descriptor, offset = self._read_descriptor(data, offset, size)
                if offset + 2 > size:
                    raise CodecError("truncated u16 field")
                (round_index,) = _U16.unpack_from(data, offset)
                offset += 2
                message = TransferMessage(
                    descriptor=descriptor, round_index=round_index
                )
            elif code == 5:  # TransferReply
                if offset >= size:
                    raise CodecError("truncated u8 field")
                present = data[offset]
                offset += 1
                descriptor = None
                if present:
                    descriptor, offset = self._read_descriptor(
                        data, offset, size
                    )
                message = TransferReply(descriptor=descriptor)
            elif code == 6:  # BulkSwapMessage
                descriptors, offset = self._read_descriptors(data, offset, size)
                message = BulkSwapMessage(descriptors=descriptors)
            elif code == 7:  # BulkSwapReply
                descriptors, offset = self._read_descriptors(data, offset, size)
                message = BulkSwapReply(descriptors=descriptors)
            else:  # ProofFlood (code 8)
                proof, offset = self._read_proof(data, offset, size)
                message = ProofFlood(proof=proof)
            if offset != size:
                raise CodecError("trailing bytes after message")
            return message
        except CodecError:
            raise
        except ValueError as exc:
            # Mirrors the reference dispatch wrapper: the typed errors
            # above pass through untouched; what is left is invalid
            # UTF-8 in a reject reason.
            raise CodecError(f"malformed message bytes: {exc}") from exc

    def decode_frames(
        self, data: bytes, max_frame_bytes: Optional[int] = MAX_FRAME_BYTES
    ) -> List[Any]:
        """Decode a whole :meth:`BatchEncoder.encode_frames` buffer.

        The shard boundary's receive path: one ``recv`` hands over a
        length-prefixed buffer, :func:`split_frames` walks the
        prefixes, and each frame decodes through the shared intern
        table — so descriptors repeated across a fan-out are built
        once per worker, exactly like the in-process wire transport.
        """
        return [
            self.decode(frame, max_frame_bytes)
            for frame in split_frames(data)
        ]

    def decode_descriptor_run(
        self, data: bytes, count: int
    ) -> Tuple[SecureDescriptor, ...]:
        """Decode ``count`` length-prefixed descriptor records filling ``data``.

        The wire's descriptor-list layout without the message around it
        (bulk descriptor stores such as checkpoint tables).  Each record
        gets its own fresh shell; atoms intern through :attr:`intern`.
        Truncation, a corrupt record, or bytes left over raise
        :class:`CodecError`.
        """
        size = len(data)
        offset = 0
        items: List[SecureDescriptor] = []
        append = items.append
        read = self._read_descriptor
        for _ in range(count):
            descriptor, offset = read(data, offset, size)
            append(descriptor)
        if offset != size:
            raise CodecError("trailing bytes after descriptor run")
        return tuple(items)

    # ------------------------------------------------------------------
    # record parsing
    # ------------------------------------------------------------------

    def _read_descriptors(
        self, data: bytes, offset: int, size: int
    ) -> Tuple[Tuple[SecureDescriptor, ...], int]:
        if offset + 2 > size:
            raise CodecError("truncated u16 field")
        (count,) = _U16.unpack_from(data, offset)
        offset += 2
        items: List[SecureDescriptor] = []
        append = items.append
        read = self._read_descriptor
        for _ in range(count):
            descriptor, offset = read(data, offset, size)
            append(descriptor)
        return tuple(items), offset

    def _read_proofs(
        self, data: bytes, offset: int, size: int
    ) -> Tuple[tuple, int]:
        if offset + 2 > size:
            raise CodecError("truncated u16 field")
        (count,) = _U16.unpack_from(data, offset)
        offset += 2
        items: list = []
        append = items.append
        read = self._read_proof
        for _ in range(count):
            proof, offset = read(data, offset, size)
            append(proof)
        return tuple(items), offset

    def _read_proof(
        self, data: bytes, offset: int, size: int
    ) -> Tuple[ViolationProof, int]:
        """Parse one length-prefixed proof record in place.

        Accepts exactly the records :func:`~repro.core.wire.decode_proof`
        accepts: a known kind byte, a 32-byte culprit, then two
        length-prefixed descriptor records (parsed by
        :meth:`_read_descriptor`) that fill the record exactly.
        """
        if offset + 4 > size:
            raise CodecError("truncated u32 field")
        (length,) = _U32.unpack_from(data, offset)
        offset += 4
        if length > size - offset:
            raise CodecError("truncated record")
        end = offset + length
        intern = self.intern
        record = data[offset:end]
        entry = intern.proofs.get(record)
        if entry is not None:
            # Whole-record hit: a fresh proof around fresh descriptor
            # shells, so receivers share no proof or verification state.
            intern.hits += 1
            self.descriptors_decoded += 2
            cls, culprit, first, second = entry
            return (
                cls(
                    first=_build_descriptor(first),
                    second=_build_descriptor(second),
                    culprit=culprit,
                ),
                end,
            )
        if length < _PROOF_PRELUDE_BYTES:
            raise CodecError("truncated proof record")
        kind = data[offset]
        if kind >= len(PROOF_TYPES):
            raise CodecError("unknown proof kind code")
        cls = PROOF_TYPES[kind]
        culprit = _intern_key(intern.keys, data[offset + 1 : offset + 33])
        first, cursor = self._read_descriptor(data, offset + 33, end)
        second, cursor = self._read_descriptor(data, cursor, end)
        if cursor != end:
            raise CodecError("trailing bytes after proof")
        proofs = intern.proofs
        if len(proofs) >= _PROOF_INTERN_MAX:
            proofs.clear()
        proofs[record] = (cls, culprit, _template(first), _template(second))
        return cls(first=first, second=second, culprit=culprit), end

    def _read_descriptor(
        self, data: bytes, offset: int, size: int
    ) -> Tuple[SecureDescriptor, int]:
        """Parse one length-prefixed descriptor record in place.

        Accepts exactly the records
        :func:`~repro.core.wire.decode_descriptor` accepts: the length
        must equal ``48 + 65·hop_count`` and every hop kind byte must
        be a registered code — validated by arithmetic before any atom
        is built.
        """
        if offset + 4 > size:
            raise CodecError("truncated u32 field")
        (length,) = _U32.unpack_from(data, offset)
        offset += 4
        if length > size - offset:
            raise CodecError("truncated record")
        start = offset
        end = offset + length
        if length < _PRELUDE_BYTES:
            raise CodecError("truncated descriptor record")
        intern = self.intern
        record = data[start:end]
        template = intern.records.get(record)
        if template is not None:
            # Whole-record hit: the exact bytes were parsed (and
            # validated) earlier this cycle — only a fresh shell with
            # reset cache slots is assembled.
            intern.hits += 1
            self.descriptors_decoded += 1
            return _build_descriptor(template), end
        prelude = record[:_PRELUDE_BYTES]
        birth = intern.births.get(prelude)
        if birth is not None:
            intern.hits += 1
            creator, address, timestamp, identity = birth
        else:
            intern.misses += 1
            creator = _intern_key(intern.keys, prelude[:32])
            host, port, timestamp = _BIRTH.unpack_from(prelude, 32)
            address = NetworkAddress(host=host, port=port)
            identity = DescriptorId(creator=creator, timestamp=timestamp)
            births = intern.births
            if len(births) >= _BIRTH_INTERN_MAX:
                births.clear()
            births[prelude] = (creator, address, timestamp, identity)
        (hop_count,) = _U16.unpack_from(data, start + 46)
        if length != _PRELUDE_BYTES + _HOP_BYTES * hop_count:
            raise CodecError("malformed descriptor record length")
        hops: List[OwnershipHop] = []
        append = hops.append
        hop_intern = intern.hops
        signer = creator
        cursor = start + _PRELUDE_BYTES
        for _ in range(hop_count):
            hop_rec = data[cursor : cursor + _HOP_BYTES]
            hop_key = (signer, hop_rec)
            hop = hop_intern.get(hop_key)
            if hop is None:
                intern.misses += 1
                kind = _CODE_KINDS.get(hop_rec[32])
                if kind is None:
                    raise CodecError("unknown hop kind code")
                owner = _intern_key(intern.keys, hop_rec[:32])
                signature = object.__new__(Signature)
                _fill(signature, "signer", signer)
                _fill(signature, "mac", hop_rec[33:])
                hop = object.__new__(OwnershipHop)
                _fill(hop, "owner", owner)
                _fill(hop, "kind", kind)
                _fill(hop, "signature", signature)
                if len(hop_intern) >= _HOP_INTERN_MAX:
                    hop_intern.clear()
                hop_intern[hop_key] = hop
            else:
                intern.hits += 1
            append(hop)
            signer = hop.owner
            cursor += _HOP_BYTES
        # The record bytes determine the chain content injectively, so
        # their domain-separated fingerprint is a valid batched-
        # verification memo key — computed here, where the bytes are
        # already in hand, instead of re-walking the chain later.
        content_key = _blake2b(
            record, digest_size=32, person=_WIRE_KEY_PERSON
        ).digest()
        template = (
            creator,
            address,
            timestamp,
            tuple(hops),
            identity,
            content_key,
        )
        records = intern.records
        if len(records) >= _RECORD_INTERN_MAX:
            records.clear()
        records[record] = template
        by_key = intern.records_by_key
        if len(by_key) >= _RECORD_INTERN_MAX:
            by_key.clear()
        by_key[content_key] = record
        self.descriptors_decoded += 1
        return _build_descriptor(template), end


def split_frames(data: bytes) -> List[bytes]:
    """Split a :meth:`BatchEncoder.encode_frames` buffer into frames.

    Raises :class:`CodecError` on truncated length prefixes or frame
    bodies — the batch-framing mirror of the per-frame decoders.
    """
    frames: List[bytes] = []
    offset = 0
    size = len(data)
    while offset < size:
        if offset + 4 > size:
            raise CodecError("truncated frame length prefix")
        (length,) = _U32.unpack_from(data, offset)
        offset += 4
        if length > size - offset:
            raise CodecError("truncated frame body")
        frames.append(data[offset : offset + length])
        offset += length
    return frames
