"""Codec extension records for checkpointed engine state.

Every piece of *mutated* engine state — the parts a freshly rebuilt
overlay would not already hold — gets a record type here, registered
with the message codec (:func:`repro.core.codec.register_message_codec`)
under type codes 32–42.  Codes 1–8 belong to the SecureCyclon dialogue,
9–10 to the legacy-Cyclon shuffle; the checkpoint plane starts at 32 to
leave room for future protocol messages.

The records are plain frozen dataclasses so round-trip property tests
can construct them directly.  Three kinds of payload:

* **Tables.**  Every distinct :class:`SecureDescriptor` object of the
  checkpointed engine is written once, as its canonical
  :func:`repro.core.wire.encode_descriptor` record, in
  :class:`DescriptorTableChunk` records; node identities that key
  sample caches and proofs are written once in :class:`KeyTableChunk`
  records.  Both are chunked so no frame outgrows
  :data:`~repro.core.codec.MAX_FRAME_BYTES`.

* **Structured state** (views, sample caches, redemptions, proofs,
  adversary pools, RNG streams, health ledgers).  Per-node descriptor
  fields are u32 *references* into the descriptor table and node ids in
  samples, expiry entries and proofs are u32 references into the key
  table.  Fixed-width rows are written as packed runs (a byte-length
  prefixed blob of back-to-back :mod:`struct` rows) and read back with
  one ``iter_unpack`` per run; a run whose length is not a multiple of
  its row size is a typed :class:`~repro.errors.CodecError`.

* **Heterogeneous bookkeeping** (the event trace, observer series)
  rides in :class:`BlobState` as a pickle payload, mirroring the shard
  control plane's pickled frame bodies: checkpoint files, like shard
  sockets, are operator-trusted local artefacts, not wire input (the
  trust boundary is documented in docs/OPS.md).

Node identities outside the key table use the same tagged encoding as
the legacy-Cyclon codec: real runs key everything by
:class:`~repro.crypto.keys.PublicKey` digests, while unit fixtures use
ints and strings.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import starmap
from typing import Any, Optional, Tuple

from repro.core.codec import (
    MessageReader,
    MessageWriter,
    register_message_codec,
)
from repro.core.descriptor import SecureDescriptor
from repro.core.wire import PROOF_TYPES
from repro.crypto.keys import PublicKey
from repro.cyclon.descriptor import CyclonDescriptor
from repro.errors import CodecError
from repro.sim.network import NetworkAddress

#: Extension type codes owned by the checkpoint plane.
CODE_HEADER = 32
CODE_RNG_STREAM = 33
CODE_REGISTRY = 34
CODE_NETWORK = 35
CODE_PEER_HEALTH = 36
CODE_BLOB = 37
CODE_NODE = 38
CODE_COORDINATOR = 39
CODE_FOOTER = 40
CODE_KEY_TABLE = 41
CODE_DESCRIPTOR_TABLE = 42

#: Node-state variants a checkpoint can carry, in tag order.
NODE_KINDS = ("secure", "cyclon", "secure-hub", "cyclon-hub", "cloning")

#: Slots :class:`BlobState` is allowed to name.
BLOB_SLOTS = ("trace", "observer-series")

#: Mersenne Twister ``getstate()`` version this codec understands.
_MT_VERSION = 3

# Row layouts of the packed runs (big-endian, no padding).
F64_ROW = struct.Struct(">d")  # a float
REF_ROW = struct.Struct(">I")  # a table reference
VIEW_ROW = struct.Struct(">IB")  # (ref, non_swappable)
SLOT_ROW = struct.Struct(">II")  # (creator key, sample count)
PAIR_ROW = struct.Struct(">dI")  # (timestamp, ref)
EXPIRY_ROW = struct.Struct(">IId")  # (expiry cycle, creator key, timestamp)
REDEMPTION_ROW = struct.Struct(">qI")  # (cycle, ref)
PROOF_ROW = struct.Struct(">BIII")  # (kind, culprit key, first ref, second ref)
STASH_ROW = struct.Struct(">Iq")  # (ref, target age)


# ----------------------------------------------------------------------
# record dataclasses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointHeader:
    """First record of every checkpoint file."""

    format_version: int
    master_seed: int
    cycle: int
    now_s: float
    period_s: float
    node_count: int


@dataclass(frozen=True)
class RngStreamState:
    """One named RNG stream's full ``random.Random.getstate()``."""

    name: str
    state: tuple


@dataclass(frozen=True)
class RegistryState:
    """A run of the key registry's prefix-trust cache, in insertion order.

    The cache grows with the run, so it is written as consecutive
    chunks; the reader concatenates them.
    """

    trusted_digests: Tuple[bytes, ...]


@dataclass(frozen=True)
class NetworkState:
    """The network directory's traffic counters."""

    dialogues_opened: int
    pushes_sent: int
    push_bytes: int
    dialogue_bytes_forward: int
    dialogue_bytes_backward: int
    dialogue_seconds: float
    undecodable_frames: int
    quarantine_refusals: int


@dataclass(frozen=True)
class PeerHealthState:
    """The per-peer health ledger, scores through amplification meter.

    ``offences`` carries (kind, count) pairs per peer so the record
    stays valid if the ledger grows new offence kinds.
    """

    cycle: int
    scores: Tuple[Tuple[Any, float], ...]
    quarantined: Tuple[Any, ...]
    offences: Tuple[Tuple[Any, Tuple[Tuple[str, int], ...]], ...]
    quarantined_at: Tuple[Tuple[Any, int], ...]
    quarantine_events: int
    release_events: int
    adversary: Tuple[Any, ...]
    adversary_bytes_sent: int
    adversary_bytes_scanned: int
    honest_bytes_to_adversary: int


@dataclass(frozen=True)
class BlobState:
    """A piece of an opaque (pickled) payload; a slot's pieces concatenate."""

    slot: str
    payload: bytes


@dataclass(frozen=True)
class KeyTableChunk:
    """Key-table entries ``first`` onwards: node ids other records index."""

    first: int
    keys: Tuple[Any, ...]


@dataclass(frozen=True)
class DescriptorTableChunk:
    """Descriptor-table entries ``first`` to ``first + count - 1``.

    ``records`` is the entries' canonical descriptor records, each
    u32-length-prefixed, back to back — the layout the wire uses for a
    descriptor list, so :meth:`~repro.core.codec_batch.FastDecoder.
    decode_descriptor_run` reads it in place.  ``descriptors`` is not
    encoded: :func:`~repro.ops.checkpoint.read_checkpoint` fills it with
    the decoded entries.
    """

    first: int
    count: int
    records: bytes
    descriptors: Tuple[SecureDescriptor, ...] = field(
        default=(), compare=False, repr=False
    )


@dataclass(frozen=True)
class NodeState:
    """One protocol node's mutated state.

    ``kind`` selects which field groups are meaningful: the secure
    family (``secure``/``secure-hub``/``cloning``) uses the view/
    cache/blacklist groups; the legacy family (``cyclon``/
    ``cyclon-hub``) uses the ``cyclon_*`` group.  Unused groups stay
    at their defaults and are not encoded.  *ref* fields index the
    descriptor table, *key* fields the key table.
    """

    kind: str
    node_id: Any
    current_cycle: int
    # --- secure family ------------------------------------------------
    last_mint_cycle: Optional[int] = None
    last_mint_time_s: Optional[float] = None
    nonswap_accepted: bool = False
    nonswap_redeemed: Tuple[float, ...] = ()
    redeemed_own: Tuple[float, ...] = ()
    #: ``(ref, non_swappable)`` in view order.
    view_entries: Tuple[Tuple[int, bool], ...] = ()
    #: ``(creator key, sample count)`` per cache slot, in cache order.
    sample_slots: Tuple[Tuple[int, int], ...] = ()
    #: ``(timestamp, ref)`` of every cached sample, slot by slot.
    sample_pairs: Tuple[Tuple[float, int], ...] = ()
    #: ``(expiry_cycle, creator key, timestamp)`` in deque order.
    sample_expiry: Tuple[Tuple[int, int, float], ...] = ()
    #: ``(cycle, ref)`` in redemption-cache order.
    redemptions: Tuple[Tuple[int, int], ...] = ()
    #: ``(kind, culprit key, first ref, second ref)`` in discovery order.
    proofs: Tuple[Tuple[int, int, int, int], ...] = ()
    # --- adversary extras ---------------------------------------------
    cycle_mint: Optional[int] = None
    #: ``(ref, target_age)`` stash of a cloning attacker.
    stash: Tuple[Tuple[int, int], ...] = ()
    #: ``(creator, timestamp, age_at_duplication, cycle)`` clone log.
    clone_events: Tuple[Tuple[Any, float, int, int], ...] = ()
    # --- legacy-Cyclon family -----------------------------------------
    cyclon_epoch: int = 0
    #: ``(descriptor, epoch_at_materialisation)`` in view order.
    cyclon_records: Tuple[Tuple[CyclonDescriptor, int], ...] = field(
        default=()
    )


@dataclass(frozen=True)
class CoordinatorState:
    """A malicious coordinator's descriptor pool and circulation map (refs)."""

    pool_maxlen: Optional[int]
    pool: Tuple[int, ...]
    circulating: Tuple[int, ...]


@dataclass(frozen=True)
class CheckpointFooter:
    """Last record: total record count, catching frame-level truncation."""

    record_count: int


# ----------------------------------------------------------------------
# shared field helpers
# ----------------------------------------------------------------------


def _write_node_ref(writer: MessageWriter, node_id: Any) -> None:
    """Tagged node identity (same scheme as the legacy-Cyclon codec)."""
    if isinstance(node_id, PublicKey):
        writer.u8(0)
        writer.raw(node_id.digest)
    elif isinstance(node_id, bool):
        raise CodecError(f"cannot encode node id {node_id!r}")
    elif isinstance(node_id, int):
        if not -(2**63) <= node_id < 2**63:
            raise CodecError("integer node id out of i64 range")
        writer.u8(1)
        writer.i64(node_id)
    elif isinstance(node_id, str):
        writer.u8(2)
        writer.string(node_id)
    else:
        raise CodecError(
            f"cannot encode node id of type {type(node_id).__name__}"
        )


def _read_node_ref(reader: MessageReader) -> Any:
    tag = reader.u8()
    if tag == 0:
        return PublicKey(reader.fixed(32))
    if tag == 1:
        return reader.i64()
    if tag == 2:
        return reader.string()
    raise CodecError(f"unknown node id tag {tag}")


def node_ref_size(node_id: Any) -> int:
    """Encoded size of :func:`_write_node_ref` (chunking arithmetic)."""
    if isinstance(node_id, PublicKey):
        return 33
    if isinstance(node_id, str):
        return 3 + len(node_id.encode("utf-8"))
    return 9


def _write_optional_i64(writer: MessageWriter, value: Optional[int]) -> None:
    if value is None:
        writer.u8(0)
    else:
        writer.u8(1)
        writer.i64(value)


def _read_optional_i64(reader: MessageReader) -> Optional[int]:
    return reader.i64() if reader.u8() else None


def _write_optional_f64(writer: MessageWriter, value: Optional[float]) -> None:
    if value is None:
        writer.u8(0)
    else:
        writer.u8(1)
        writer.f64(value)


def _read_optional_f64(reader: MessageReader) -> Optional[float]:
    return reader.f64() if reader.u8() else None


def _write_run(writer: MessageWriter, row: struct.Struct, rows) -> None:
    """A packed run of tuples: u32 byte length, then the rows."""
    try:
        writer.blob(b"".join(starmap(row.pack, rows)))
    except struct.error as exc:
        raise CodecError(f"value out of range for {row.format!r} rows: {exc}") from None


def _write_column(writer: MessageWriter, row: struct.Struct, values) -> None:
    """A packed run of single values (one-field rows)."""
    _write_run(writer, row, zip(values))


def _read_run(reader: MessageReader, row: struct.Struct) -> Tuple[tuple, ...]:
    raw = reader.blob()
    if len(raw) % row.size:
        raise CodecError(
            f"packed run of {len(raw)} bytes is not a multiple of its "
            f"{row.size}-byte rows"
        )
    return tuple(row.iter_unpack(raw))


def _read_column(reader: MessageReader, row: struct.Struct) -> Tuple[Any, ...]:
    return tuple(value for (value,) in _read_run(reader, row))


# ----------------------------------------------------------------------
# record codecs
# ----------------------------------------------------------------------


def _encode_header(writer: MessageWriter, record: CheckpointHeader) -> None:
    writer.u16(record.format_version)
    writer.i64(record.master_seed)
    writer.u32(record.cycle)
    writer.f64(record.now_s)
    writer.f64(record.period_s)
    writer.u32(record.node_count)


def _decode_header(reader: MessageReader) -> CheckpointHeader:
    return CheckpointHeader(
        format_version=reader.u16(),
        master_seed=reader.i64(),
        cycle=reader.u32(),
        now_s=reader.f64(),
        period_s=reader.f64(),
        node_count=reader.u32(),
    )


def _encode_rng(writer: MessageWriter, record: RngStreamState) -> None:
    state = record.state
    if len(state) != 3 or state[0] != _MT_VERSION:
        raise CodecError(
            f"unsupported RNG state for stream {record.name!r} "
            f"(expected Mersenne Twister version {_MT_VERSION})"
        )
    version, internal, gauss_next = state
    writer.string(record.name)
    writer.u8(version)
    writer.u32(len(internal))
    try:
        writer.raw(struct.pack(f">{len(internal)}I", *internal))
    except struct.error as exc:
        raise CodecError(f"RNG state word out of u32 range: {exc}") from None
    _write_optional_f64(writer, gauss_next)


def _decode_rng(reader: MessageReader) -> RngStreamState:
    name = reader.string()
    version = reader.u8()
    if version != _MT_VERSION:
        raise CodecError(f"unknown RNG state version {version}")
    count = reader.u32()
    internal = struct.unpack(f">{count}I", reader.fixed(4 * count))
    gauss_next = _read_optional_f64(reader)
    return RngStreamState(name=name, state=(version, internal, gauss_next))


def _encode_registry(writer: MessageWriter, record: RegistryState) -> None:
    writer.u32(len(record.trusted_digests))
    for digest in record.trusted_digests:
        writer.blob(digest)


def _decode_registry(reader: MessageReader) -> RegistryState:
    return RegistryState(
        trusted_digests=tuple(reader.blob() for _ in range(reader.u32()))
    )


def _encode_network(writer: MessageWriter, record: NetworkState) -> None:
    writer.i64(record.dialogues_opened)
    writer.i64(record.pushes_sent)
    writer.i64(record.push_bytes)
    writer.i64(record.dialogue_bytes_forward)
    writer.i64(record.dialogue_bytes_backward)
    writer.f64(record.dialogue_seconds)
    writer.i64(record.undecodable_frames)
    writer.i64(record.quarantine_refusals)


def _decode_network(reader: MessageReader) -> NetworkState:
    return NetworkState(
        dialogues_opened=reader.i64(),
        pushes_sent=reader.i64(),
        push_bytes=reader.i64(),
        dialogue_bytes_forward=reader.i64(),
        dialogue_bytes_backward=reader.i64(),
        dialogue_seconds=reader.f64(),
        undecodable_frames=reader.i64(),
        quarantine_refusals=reader.i64(),
    )


def _encode_peer_health(
    writer: MessageWriter, record: PeerHealthState
) -> None:
    writer.i64(record.cycle)
    writer.u32(len(record.scores))
    for peer, score in record.scores:
        _write_node_ref(writer, peer)
        writer.f64(score)
    writer.u32(len(record.quarantined))
    for peer in record.quarantined:
        _write_node_ref(writer, peer)
    writer.u32(len(record.offences))
    for peer, kinds in record.offences:
        _write_node_ref(writer, peer)
        writer.u8(len(kinds))
        for kind, count in kinds:
            writer.string(kind)
            writer.i64(count)
    writer.u32(len(record.quarantined_at))
    for peer, cycle in record.quarantined_at:
        _write_node_ref(writer, peer)
        writer.i64(cycle)
    writer.i64(record.quarantine_events)
    writer.i64(record.release_events)
    writer.u32(len(record.adversary))
    for peer in record.adversary:
        _write_node_ref(writer, peer)
    writer.i64(record.adversary_bytes_sent)
    writer.i64(record.adversary_bytes_scanned)
    writer.i64(record.honest_bytes_to_adversary)


def _decode_peer_health(reader: MessageReader) -> PeerHealthState:
    cycle = reader.i64()
    scores = tuple(
        (_read_node_ref(reader), reader.f64())
        for _ in range(reader.u32())
    )
    quarantined = tuple(
        _read_node_ref(reader) for _ in range(reader.u32())
    )
    offences = tuple(
        (
            _read_node_ref(reader),
            tuple(
                (reader.string(), reader.i64())
                for _ in range(reader.u8())
            ),
        )
        for _ in range(reader.u32())
    )
    quarantined_at = tuple(
        (_read_node_ref(reader), reader.i64())
        for _ in range(reader.u32())
    )
    quarantine_events = reader.i64()
    release_events = reader.i64()
    adversary = tuple(_read_node_ref(reader) for _ in range(reader.u32()))
    return PeerHealthState(
        cycle=cycle,
        scores=scores,
        quarantined=quarantined,
        offences=offences,
        quarantined_at=quarantined_at,
        quarantine_events=quarantine_events,
        release_events=release_events,
        adversary=adversary,
        adversary_bytes_sent=reader.i64(),
        adversary_bytes_scanned=reader.i64(),
        honest_bytes_to_adversary=reader.i64(),
    )


def _encode_blob(writer: MessageWriter, record: BlobState) -> None:
    if record.slot not in BLOB_SLOTS:
        raise CodecError(f"unknown blob slot {record.slot!r}")
    writer.string(record.slot)
    writer.blob(record.payload)


def _decode_blob(reader: MessageReader) -> BlobState:
    slot = reader.string()
    if slot not in BLOB_SLOTS:
        raise CodecError(f"unknown blob slot {slot!r}")
    return BlobState(slot=slot, payload=reader.blob())


def _encode_key_table(writer: MessageWriter, record: KeyTableChunk) -> None:
    writer.u32(record.first)
    writer.u32(len(record.keys))
    for key in record.keys:
        _write_node_ref(writer, key)


def _decode_key_table(reader: MessageReader) -> KeyTableChunk:
    first = reader.u32()
    return KeyTableChunk(
        first=first,
        keys=tuple(_read_node_ref(reader) for _ in range(reader.u32())),
    )


def _encode_descriptor_table(
    writer: MessageWriter, record: DescriptorTableChunk
) -> None:
    writer.u32(record.first)
    writer.u32(record.count)
    writer.blob(record.records)


def _decode_descriptor_table(reader: MessageReader) -> DescriptorTableChunk:
    return DescriptorTableChunk(
        first=reader.u32(), count=reader.u32(), records=reader.blob()
    )


def _write_cyclon_descriptor(
    writer: MessageWriter, descriptor: CyclonDescriptor
) -> None:
    _write_node_ref(writer, descriptor.node_id)
    writer.u32(descriptor.address.host)
    writer.u16(descriptor.address.port)
    writer.i64(descriptor.age)


def _read_cyclon_descriptor(reader: MessageReader) -> CyclonDescriptor:
    node_id = _read_node_ref(reader)
    address = NetworkAddress(host=reader.u32(), port=reader.u16())
    return CyclonDescriptor(node_id=node_id, address=address, age=reader.i64())


def _encode_node(writer: MessageWriter, record: NodeState) -> None:
    try:
        tag = NODE_KINDS.index(record.kind)
    except ValueError:
        raise CodecError(f"unknown node kind {record.kind!r}") from None
    writer.u8(tag)
    _write_node_ref(writer, record.node_id)
    writer.i64(record.current_cycle)
    if record.kind in ("cyclon", "cyclon-hub"):
        writer.i64(record.cyclon_epoch)
        writer.u16(len(record.cyclon_records))
        for descriptor, epoch in record.cyclon_records:
            _write_cyclon_descriptor(writer, descriptor)
            writer.i64(epoch)
        return
    _write_optional_i64(writer, record.last_mint_cycle)
    _write_optional_f64(writer, record.last_mint_time_s)
    writer.u8(1 if record.nonswap_accepted else 0)
    _write_column(writer, F64_ROW, record.nonswap_redeemed)
    _write_column(writer, F64_ROW, record.redeemed_own)
    _write_run(writer, VIEW_ROW, record.view_entries)
    _write_run(writer, SLOT_ROW, record.sample_slots)
    _write_run(writer, PAIR_ROW, record.sample_pairs)
    _write_run(writer, EXPIRY_ROW, record.sample_expiry)
    _write_run(writer, REDEMPTION_ROW, record.redemptions)
    _write_run(writer, PROOF_ROW, record.proofs)
    if record.cycle_mint is None:
        writer.u8(0)
    else:
        writer.u8(1)
        writer.u32(record.cycle_mint)
    _write_run(writer, STASH_ROW, record.stash)
    writer.u32(len(record.clone_events))
    for creator, timestamp, age, cycle in record.clone_events:
        _write_node_ref(writer, creator)
        writer.f64(timestamp)
        writer.i64(age)
        writer.i64(cycle)


def _decode_node(reader: MessageReader) -> NodeState:
    tag = reader.u8()
    if tag >= len(NODE_KINDS):
        raise CodecError(f"unknown node kind tag {tag}")
    kind = NODE_KINDS[tag]
    node_id = _read_node_ref(reader)
    current_cycle = reader.i64()
    if kind in ("cyclon", "cyclon-hub"):
        cyclon_epoch = reader.i64()
        cyclon_records = tuple(
            (_read_cyclon_descriptor(reader), reader.i64())
            for _ in range(reader.u16())
        )
        return NodeState(
            kind=kind,
            node_id=node_id,
            current_cycle=current_cycle,
            cyclon_epoch=cyclon_epoch,
            cyclon_records=cyclon_records,
        )
    last_mint_cycle = _read_optional_i64(reader)
    last_mint_time_s = _read_optional_f64(reader)
    nonswap_accepted = bool(reader.u8())
    nonswap_redeemed = _read_column(reader, F64_ROW)
    redeemed_own = _read_column(reader, F64_ROW)
    view_entries = tuple(
        (ref, bool(flag)) for ref, flag in _read_run(reader, VIEW_ROW)
    )
    sample_slots = _read_run(reader, SLOT_ROW)
    sample_pairs = _read_run(reader, PAIR_ROW)
    if sum(count for _, count in sample_slots) != len(sample_pairs):
        raise CodecError("sample slots disagree with the sample count")
    sample_expiry = _read_run(reader, EXPIRY_ROW)
    redemptions = _read_run(reader, REDEMPTION_ROW)
    proofs = _read_run(reader, PROOF_ROW)
    if any(proof[0] >= len(PROOF_TYPES) for proof in proofs):
        raise CodecError("unknown proof kind code")
    cycle_mint = reader.u32() if reader.u8() else None
    stash = _read_run(reader, STASH_ROW)
    clone_events = tuple(
        (_read_node_ref(reader), reader.f64(), reader.i64(), reader.i64())
        for _ in range(reader.u32())
    )
    return NodeState(
        kind=kind,
        node_id=node_id,
        current_cycle=current_cycle,
        last_mint_cycle=last_mint_cycle,
        last_mint_time_s=last_mint_time_s,
        nonswap_accepted=nonswap_accepted,
        nonswap_redeemed=nonswap_redeemed,
        redeemed_own=redeemed_own,
        view_entries=view_entries,
        sample_slots=sample_slots,
        sample_pairs=sample_pairs,
        sample_expiry=sample_expiry,
        redemptions=redemptions,
        proofs=proofs,
        cycle_mint=cycle_mint,
        stash=stash,
        clone_events=clone_events,
    )


def _encode_coordinator(
    writer: MessageWriter, record: CoordinatorState
) -> None:
    _write_optional_i64(writer, record.pool_maxlen)
    _write_column(writer, REF_ROW, record.pool)
    _write_column(writer, REF_ROW, record.circulating)


def _decode_coordinator(reader: MessageReader) -> CoordinatorState:
    return CoordinatorState(
        pool_maxlen=_read_optional_i64(reader),
        pool=_read_column(reader, REF_ROW),
        circulating=_read_column(reader, REF_ROW),
    )


def _encode_footer(writer: MessageWriter, record: CheckpointFooter) -> None:
    writer.u32(record.record_count)


def _decode_footer(reader: MessageReader) -> CheckpointFooter:
    return CheckpointFooter(record_count=reader.u32())


register_message_codec(CheckpointHeader, CODE_HEADER, _encode_header, _decode_header)
register_message_codec(RngStreamState, CODE_RNG_STREAM, _encode_rng, _decode_rng)
register_message_codec(RegistryState, CODE_REGISTRY, _encode_registry, _decode_registry)
register_message_codec(NetworkState, CODE_NETWORK, _encode_network, _decode_network)
register_message_codec(
    PeerHealthState, CODE_PEER_HEALTH, _encode_peer_health, _decode_peer_health
)
register_message_codec(BlobState, CODE_BLOB, _encode_blob, _decode_blob)
register_message_codec(NodeState, CODE_NODE, _encode_node, _decode_node)
register_message_codec(
    CoordinatorState, CODE_COORDINATOR, _encode_coordinator, _decode_coordinator
)
register_message_codec(CheckpointFooter, CODE_FOOTER, _encode_footer, _decode_footer)
register_message_codec(
    KeyTableChunk, CODE_KEY_TABLE, _encode_key_table, _decode_key_table
)
register_message_codec(
    DescriptorTableChunk,
    CODE_DESCRIPTOR_TABLE,
    _encode_descriptor_table,
    _decode_descriptor_table,
)
