"""Versioned engine checkpoints with a bit-exact resume contract.

File format (``docs/OPS.md`` has the normative description)::

    b"RPCK"                                  magic, 4 bytes
    repeat: u32 frame length + frame bytes   one codec message per frame

Every frame is an :mod:`repro.ops.records` record serialised through
:func:`repro.core.codec.encode_message` and at most
:data:`~repro.core.codec.MAX_FRAME_BYTES` long.  The first record must
be a :class:`~repro.ops.records.CheckpointHeader` (format version,
master seed, clock position, node count) and the last a
:class:`~repro.ops.records.CheckpointFooter` whose record count covers
the whole file — truncation at any frame boundary is caught by
arithmetic, truncation inside a frame by the codec, and both surface
as a typed :class:`~repro.errors.CheckpointError` before any state is
applied.

The body is one **descriptor table** plus per-node records that
reference it.  Capture keys every :class:`SecureDescriptor` by object
identity and writes each distinct object once, so a descriptor that
sits in forty sample caches is stored — and restored — once, and the
restored overlay has exactly the sharing the live one had: object
mode shares across nodes, wire mode shares nothing its receivers did
not.  Identity, not content: merging equal-content objects would make
wire receivers share descriptors they never shared.

The resume model is **rebuild + overlay**: a checkpoint stores only
the *mutated* state (views, caches, blacklists, RNG streams, counters,
the clock), not keys or topology.  To resume, rebuild the identical
overlay — same builder, same config, same seed — in a fresh process,
then :func:`restore_checkpoint` overlays the saved state on top.  The
rebuild may consume build-time randomness freely: every named RNG
stream is ``setstate()``-restored afterwards.  Under the cycle runtime
the continuation is bit-for-bit the unbroken run (the golden-guarded
contract); under the event runtime the in-flight event queue is not
serialised, so resume restores *state* but restarts activation timers
— documented, not golden-guarded.
"""

from __future__ import annotations

import itertools
import pathlib
import pickle
import struct
from collections import deque
from contextlib import contextmanager
from dataclasses import replace
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.adversary.cloning import CloneEvent, CloningAttacker, _StashEntry
from repro.adversary.coordinator import MaliciousCoordinator
from repro.adversary.hub import CyclonHubAttacker, SecureHubAttacker
from repro.core.codec import MAX_FRAME_BYTES, decode_message, encode_message
from repro.core.codec_batch import FastDecoder, InternTable
from repro.core.descriptor import DescriptorId, SecureDescriptor
from repro.core.node import SecureCyclonNode
from repro.core.samples import _BY_TS, _TIMESTAMPS
from repro.core.view import _new_entry
from repro.core.wire import PROOF_TYPES, encode_descriptor
from repro.crypto.keys import PublicKey
from repro.cyclon.node import CyclonNode
from repro.errors import (
    CheckpointError,
    CodecError,
    ConfigError,
    SimulationError,
)
from repro.ops.records import (
    BlobState,
    CheckpointFooter,
    CheckpointHeader,
    CoordinatorState,
    DescriptorTableChunk,
    KeyTableChunk,
    NetworkState,
    NodeState,
    PeerHealthState,
    RegistryState,
    RngStreamState,
    node_ref_size,
)

MAGIC = b"RPCK"
FORMAT_VERSION = 2

_LEN = struct.Struct(">I")

#: Payload bytes one chunk record may carry: the frame ceiling less
#: room for the chunk's own fixed fields.
_CHUNK_BUDGET = MAX_FRAME_BYTES - 64

_first = itemgetter(0)
_second = itemgetter(1)


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------


def _node_kind(node: Any) -> str:
    """Classify a node for :class:`NodeState` (subclasses first)."""
    if isinstance(node, CloningAttacker):
        return "cloning"
    if isinstance(node, SecureHubAttacker):
        return "secure-hub"
    if isinstance(node, SecureCyclonNode):
        return "secure"
    if isinstance(node, CyclonHubAttacker):
        return "cyclon-hub"
    if isinstance(node, CyclonNode):
        return "cyclon"
    raise CheckpointError(
        f"cannot checkpoint node of type {type(node).__name__}"
    )


class _Tables:
    """Capture-side descriptor and key tables.

    Descriptors are keyed by ``id()``: every one is held by the engine
    (and by :attr:`descriptors`) for the whole capture, so no id can be
    recycled, and identity is the sharing the restore must reproduce.
    Keys are value objects and are keyed by value.
    """

    def __init__(self) -> None:
        self._refs: Dict[int, int] = {}
        self.descriptors: List[SecureDescriptor] = []
        self._keys: Dict[Any, int] = {}
        self.keys: List[Any] = []

    def ref(self, descriptor: SecureDescriptor) -> int:
        index = self._refs.get(id(descriptor))
        if index is None:
            index = self._refs[id(descriptor)] = len(self.descriptors)
            self.descriptors.append(descriptor)
        return index

    def key(self, node_id: Any) -> int:
        index = self._keys.get(node_id)
        if index is None:
            index = self._keys[node_id] = len(self.keys)
            self.keys.append(node_id)
        return index


def _capture_node(node: Any, tables: _Tables) -> NodeState:
    kind = _node_kind(node)
    if kind in ("cyclon", "cyclon-hub"):
        view = node.view
        return NodeState(
            kind=kind,
            node_id=node.node_id,
            current_cycle=node.current_cycle,
            cyclon_epoch=view._epoch,
            cyclon_records=tuple(
                (record[0], record[1]) for record in view._records
            ),
        )
    ref, key = tables.ref, tables.key
    cache = node.sample_cache
    slots: List[Tuple[int, int]] = []
    pairs: List[Tuple[float, int]] = []
    for creator, slot in cache._by_creator.items():
        timestamps, by_ts = slot[_TIMESTAMPS], slot[_BY_TS]
        slots.append((key(creator), len(timestamps)))
        pairs.extend([(ts, ref(by_ts[ts])) for ts in timestamps])
    proofs = tuple(
        (
            PROOF_TYPES.index(type(proof)),
            key(proof.culprit),
            ref(proof.first),
            ref(proof.second),
        )
        for proof in node.blacklist.proofs_tuple()
    )
    extras: Dict[str, Any] = {}
    if kind == "secure-hub" and node._cycle_mint is not None:
        extras["cycle_mint"] = ref(node._cycle_mint)
    elif kind == "cloning":
        extras["stash"] = tuple(
            (ref(entry.descriptor), entry.target_age) for entry in node._stash
        )
        extras["clone_events"] = tuple(
            (
                event.identity.creator,
                event.identity.timestamp,
                event.age_at_duplication,
                event.cycle,
            )
            for event in node.clone_events
        )
    return NodeState(
        kind=kind,
        node_id=node.node_id,
        current_cycle=node.current_cycle,
        last_mint_cycle=node._last_mint_cycle,
        last_mint_time_s=node._last_mint_time_s,
        nonswap_accepted=node._nonswap_accepted_this_cycle,
        nonswap_redeemed=tuple(sorted(node._nonswap_redeemed_identities)),
        redeemed_own=tuple(sorted(node._redeemed_own_timestamps)),
        view_entries=tuple(
            (ref(entry.descriptor), entry.non_swappable)
            for entry in node.view._entries
        ),
        sample_slots=tuple(slots),
        sample_pairs=tuple(pairs),
        sample_expiry=tuple(
            (expiry_cycle, key(creator), ts)
            for expiry_cycle, creator, ts in cache._expiry
        ),
        redemptions=tuple(
            (cycle, ref(descriptor))
            for cycle, descriptor in node.redemption_cache._entries
        ),
        proofs=proofs,
        **extras,
    )


def _capture_peer_health(ledger: Any) -> PeerHealthState:
    return PeerHealthState(
        cycle=ledger._cycle,
        scores=tuple(ledger._scores.items()),
        quarantined=tuple(ledger._quarantined),
        offences=tuple(
            (peer, tuple(counts.items()))
            for peer, counts in ledger.offences.items()
        ),
        quarantined_at=tuple(ledger.quarantined_at.items()),
        quarantine_events=ledger.quarantine_events,
        release_events=ledger.release_events,
        adversary=tuple(ledger._adversary),
        adversary_bytes_sent=ledger.adversary_bytes_sent,
        adversary_bytes_scanned=ledger.adversary_bytes_scanned,
        honest_bytes_to_adversary=ledger.honest_bytes_to_adversary,
    )


def _discover_coordinators(engine: Any) -> List[MaliciousCoordinator]:
    """Coordinators reachable from nodes, deduplicated, in node order."""
    found: List[MaliciousCoordinator] = []
    seen: set = set()
    for node in engine.nodes.values():
        coordinator = getattr(node, "coordinator", None)
        if isinstance(coordinator, MaliciousCoordinator):
            if id(coordinator) not in seen:
                seen.add(id(coordinator))
                found.append(coordinator)
    return found


def _chunked(
    items: Iterable[Any], size_of: Callable[[Any], int], budget: int
) -> Iterator[Tuple[int, List[Any]]]:
    """``(first index, items)`` runs of at most ``budget`` bytes each.

    Always yields at least one (possibly empty) run, so every table
    and list is present in the file even when it has no entries.
    """
    first, chunk, size = 0, [], 0
    for index, item in enumerate(items):
        cost = size_of(item)
        if chunk and size + cost > budget:
            yield first, chunk
            first, chunk, size = index, [], 0
        chunk.append(item)
        size += cost
    yield first, chunk


def descriptor_table(
    descriptors: Iterable[SecureDescriptor],
) -> List[DescriptorTableChunk]:
    """The descriptor table as chunks of at most ``_CHUNK_BUDGET`` record
    bytes."""
    framed = (
        _LEN.pack(len(record)) + record
        for record in map(encode_descriptor, descriptors)
    )
    return [
        DescriptorTableChunk(
            first=first, count=len(chunk), records=b"".join(chunk)
        )
        for first, chunk in _chunked(framed, len, _CHUNK_BUDGET)
    ]


def _blob_chunks(slot: str, payload: bytes) -> List[BlobState]:
    return [
        BlobState(slot=slot, payload=payload[start : start + _CHUNK_BUDGET])
        for start in range(0, max(1, len(payload)), _CHUNK_BUDGET)
    ]


def capture_records(engine: Any) -> List[Any]:
    """Every record of ``engine``'s mutated state, header to footer."""
    records: List[Any] = [
        CheckpointHeader(
            format_version=FORMAT_VERSION,
            master_seed=engine.rng_hub.master_seed,
            cycle=engine.clock.cycle,
            now_s=engine.clock.now_s,
            period_s=engine.clock.period_seconds,
            node_count=len(engine.nodes),
        )
    ]
    for name, state in engine.rng_hub.stream_states().items():
        records.append(RngStreamState(name=name, state=state))
    records.extend(
        RegistryState(trusted_digests=tuple(chunk))
        for _, chunk in _chunked(
            engine.registry.trusted_chain_digests,
            lambda digest: 4 + len(digest),
            _CHUNK_BUDGET,
        )
    )
    network = engine.network
    records.append(
        NetworkState(
            dialogues_opened=network.dialogues_opened,
            pushes_sent=network.pushes_sent,
            push_bytes=network.push_bytes,
            dialogue_bytes_forward=network.dialogue_bytes_forward,
            dialogue_bytes_backward=network.dialogue_bytes_backward,
            dialogue_seconds=network.dialogue_seconds,
            undecodable_frames=network.undecodable_frames,
            quarantine_refusals=network.quarantine_refusals,
        )
    )
    ledger = network.peer_health
    if ledger is not None:
        records.append(_capture_peer_health(ledger))
    records.extend(
        _blob_chunks("trace", pickle.dumps(list(engine.trace), protocol=4))
    )
    # The body references the tables, so it is captured first and the
    # tables written ahead of it.
    tables = _Tables()
    body: List[Any] = [
        CoordinatorState(
            pool_maxlen=coordinator._pool.maxlen,
            pool=tuple(map(tables.ref, coordinator._pool)),
            circulating=tuple(
                map(tables.ref, coordinator._circulating.values())
            ),
        )
        for coordinator in _discover_coordinators(engine)
    ]
    body.extend(_capture_node(node, tables) for node in engine.nodes.values())
    records.extend(
        KeyTableChunk(first=first, keys=tuple(chunk))
        for first, chunk in _chunked(tables.keys, node_ref_size, _CHUNK_BUDGET)
    )
    records.extend(descriptor_table(tables.descriptors))
    records.extend(body)
    series = [
        observer.export_series()
        for observer in engine._observers
        if hasattr(observer, "export_series")
    ]
    records.extend(
        _blob_chunks("observer-series", pickle.dumps(series, protocol=4))
    )
    records.append(CheckpointFooter(record_count=len(records) + 1))
    return records


def save_checkpoint(engine: Any, path: Any) -> pathlib.Path:
    """Serialise ``engine``'s full mutated state to ``path``.

    Pure reads plus RNG ``getstate()`` — saving perturbs nothing, so a
    run that checkpoints mid-way stays bit-identical to one that does
    not.  Runs under the engine's GC scope.  Returns the written path.
    """
    path = pathlib.Path(path)
    parts: List[bytes] = [MAGIC]
    with engine._tuned_gc():
        for record in capture_records(engine):
            payload = encode_message(record)
            if len(payload) > MAX_FRAME_BYTES:
                raise CheckpointError(
                    f"a {type(record).__name__} record encodes to "
                    f"{len(payload)} bytes, over the {MAX_FRAME_BYTES}-byte "
                    "frame ceiling"
                )
            parts.append(_LEN.pack(len(payload)))
            parts.append(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"".join(parts))
    return path


# ----------------------------------------------------------------------
# read / inspect
# ----------------------------------------------------------------------


def _descriptor_refs(record: Any) -> Iterator[int]:
    """Every descriptor-table reference a body record holds."""
    if isinstance(record, CoordinatorState):
        return itertools.chain(record.pool, record.circulating)
    return itertools.chain(
        map(_first, record.view_entries),
        map(_second, record.sample_pairs),
        map(_second, record.redemptions),
        map(itemgetter(2), record.proofs),
        map(itemgetter(3), record.proofs),
        map(_first, record.stash),
        () if record.cycle_mint is None else (record.cycle_mint,),
    )


def _key_refs(record: Any) -> Iterator[int]:
    """Every key-table reference a body record holds."""
    if isinstance(record, CoordinatorState):
        return iter(())
    return itertools.chain(
        map(_first, record.sample_slots),
        map(_second, record.sample_expiry),
        map(_second, record.proofs),
    )


def _table_position(
    path: Any, index: int, table: str, first: int, expected: int
) -> None:
    if first != expected:
        raise CheckpointError(
            f"{path}: frame {index} is a {table}-table chunk starting at "
            f"entry {first}, expected {expected} (a chunk is duplicated, "
            "missing or out of order)"
        )


def read_checkpoint(path: Any, keys: Iterable[Any] = ()) -> List[Any]:
    """Parse, decode and validate a checkpoint file into its record list.

    Raises :class:`~repro.errors.CheckpointError` for bad magic, a
    frame length over :data:`~repro.core.codec.MAX_FRAME_BYTES`, a
    truncated frame (at either the length-prefix or codec level), a
    missing/misplaced header or footer, another format version, a
    table chunk out of sequence, a reference to a table entry no
    earlier chunk holds, and a footer count that disagrees with the
    file.

    The descriptor table decodes through one :class:`FastDecoder` and
    one fresh :class:`InternTable` — one shell per entry, keys and hops
    interned as on the wire — into each chunk's ``descriptors``.
    Public keys in ``keys`` (restore passes the engine's node ids) seed
    that table, so decoded descriptors and key-table entries hold the
    engine's own key objects.
    """
    path = pathlib.Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not data.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    intern = InternTable()
    known = intern.keys
    known.update((key.digest, key) for key in keys if isinstance(key, PublicKey))
    decoder = FastDecoder(intern)
    entries = 0
    key_count = 0
    offset = len(MAGIC)
    records: List[Any] = []
    while offset < len(data):
        index = len(records)
        if offset + _LEN.size > len(data):
            raise CheckpointError(f"{path}: truncated frame length prefix")
        (size,) = _LEN.unpack_from(data, offset)
        offset += _LEN.size
        if size > MAX_FRAME_BYTES:
            raise CheckpointError(
                f"{path}: frame {index} declares {size} bytes, over the "
                f"{MAX_FRAME_BYTES}-byte frame ceiling"
            )
        if size > len(data) - offset:
            raise CheckpointError(f"{path}: truncated frame")
        payload = data[offset : offset + size]
        offset += size
        try:
            record = decode_message(payload)
            if isinstance(record, DescriptorTableChunk):
                _table_position(path, index, "descriptor", record.first, entries)
                record = replace(
                    record,
                    descriptors=decoder.decode_descriptor_run(
                        record.records, record.count
                    ),
                )
                entries += record.count
        except CheckpointError:
            raise
        except CodecError as exc:
            raise CheckpointError(
                f"{path}: frame {index} is malformed: {exc}"
            ) from exc
        if not records:
            if not isinstance(record, CheckpointHeader):
                raise CheckpointError(f"{path}: first record is not a header")
            if record.format_version != FORMAT_VERSION:
                raise CheckpointError(
                    f"{path}: checkpoint format version "
                    f"{record.format_version} is not readable by this "
                    f"build, which reads version {FORMAT_VERSION} only"
                )
        elif isinstance(record, KeyTableChunk):
            _table_position(path, index, "key", record.first, key_count)
            record = replace(
                record,
                keys=tuple(
                    known.setdefault(key.digest, key)
                    if isinstance(key, PublicKey)
                    else key
                    for key in record.keys
                ),
            )
            key_count += len(record.keys)
        elif isinstance(record, (NodeState, CoordinatorState)):
            highest = max(_descriptor_refs(record), default=-1)
            if highest >= entries:
                raise CheckpointError(
                    f"{path}: frame {index} references descriptor-table "
                    f"entry {highest}, but only {entries} entries precede it"
                )
            highest = max(_key_refs(record), default=-1)
            if highest >= key_count:
                raise CheckpointError(
                    f"{path}: frame {index} references key-table entry "
                    f"{highest}, but only {key_count} entries precede it"
                )
        records.append(record)
    if not records:
        raise CheckpointError(f"{path}: first record is not a header")
    if not isinstance(records[-1], CheckpointFooter):
        raise CheckpointError(
            f"{path}: footer record missing (file truncated?)"
        )
    if records[-1].record_count != len(records):
        raise CheckpointError(
            f"{path}: footer declares {records[-1].record_count} records, "
            f"file holds {len(records)}"
        )
    return records


def inspect_checkpoint(path: Any) -> Dict[str, Any]:
    """A JSON-friendly summary of a checkpoint file (the CLI's view)."""
    records = read_checkpoint(path)
    header = records[0]
    kinds: Dict[str, int] = {}
    streams: List[str] = []
    record_types: Dict[str, int] = {}
    entries = references = 0
    for record in records:
        name = type(record).__name__
        record_types[name] = record_types.get(name, 0) + 1
        if isinstance(record, NodeState):
            kinds[record.kind] = kinds.get(record.kind, 0) + 1
        elif isinstance(record, RngStreamState):
            streams.append(record.name)
        elif isinstance(record, DescriptorTableChunk):
            entries += record.count
        if isinstance(record, (NodeState, CoordinatorState)):
            references += sum(1 for _ in _descriptor_refs(record))
    return {
        "path": str(path),
        "format_version": header.format_version,
        "master_seed": header.master_seed,
        "cycle": header.cycle,
        "now_s": header.now_s,
        "period_s": header.period_s,
        "node_count": header.node_count,
        "records": record_types,
        "node_kinds": kinds,
        "rng_streams": streams,
        "descriptor_table": {
            "entries": entries,
            "references": references,
            "dedupe_ratio": references / entries if entries else 0.0,
        },
    }


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------


def _apply_node(
    node: Any,
    state: NodeState,
    table: List[SecureDescriptor],
    keys: List[Any],
) -> None:
    if state.kind in ("cyclon", "cyclon-hub"):
        node.current_cycle = state.current_cycle
        view = node.view
        records = [
            [descriptor, epoch]
            for descriptor, epoch in state.cyclon_records
        ]
        view._records = records
        view._by_id = {record[0].node_id: record for record in records}
        view._epoch = state.cyclon_epoch
        view._oldest_record = None
        return
    node.current_cycle = state.current_cycle
    node._last_mint_cycle = state.last_mint_cycle
    node._last_mint_time_s = state.last_mint_time_s
    node._nonswap_accepted_this_cycle = state.nonswap_accepted
    node._nonswap_redeemed_identities = set(state.nonswap_redeemed)
    node._redeemed_own_timestamps = set(state.redeemed_own)
    node._sessions.clear()

    view = node.view
    view._entries = [
        _new_entry(table[ref], non_swappable)
        for ref, non_swappable in state.view_entries
    ]
    view._reindex()

    cache = node.sample_cache
    by_creator: Dict[Any, list] = {}
    pairs = state.sample_pairs
    start = 0
    for key, count in state.sample_slots:
        run = pairs[start : start + count]
        start += count
        by_creator[keys[key]] = [
            [ts for ts, _ in run],
            {ts: table[ref] for ts, ref in run},
        ]
    cache._by_creator = by_creator
    cache._count = len(pairs)
    cache._expiry = deque(
        (expiry_cycle, keys[key], ts)
        for expiry_cycle, key, ts in state.sample_expiry
    )

    redemption = node.redemption_cache
    redemption._entries.clear()
    redemption._entries.extend(
        (cycle, table[ref]) for cycle, ref in state.redemptions
    )
    redemption._contents_cache = None

    # In place: node._blacklist_map aliases blacklist.by_culprit, and
    # re-adding in discovery order rebuilds both structures exactly.
    blacklist = node.blacklist
    blacklist.by_culprit.clear()
    blacklist._proofs_tuple = ()
    for kind, culprit, first, second in state.proofs:
        blacklist.add(
            PROOF_TYPES[kind](
                first=table[first], second=table[second], culprit=keys[culprit]
            )
        )

    if state.kind == "secure-hub":
        node._cycle_mint = (
            None if state.cycle_mint is None else table[state.cycle_mint]
        )
    elif state.kind == "cloning":
        node._stash = [
            _StashEntry(descriptor=table[ref], target_age=target_age)
            for ref, target_age in state.stash
        ]
        node.clone_events = [
            CloneEvent(
                identity=DescriptorId(creator=creator, timestamp=timestamp),
                age_at_duplication=age,
                cycle=cycle,
            )
            for creator, timestamp, age, cycle in state.clone_events
        ]


def _apply_peer_health(ledger: Any, state: PeerHealthState) -> None:
    ledger._cycle = state.cycle
    ledger._scores.clear()
    ledger._scores.update(state.scores)
    ledger._quarantined.clear()
    ledger._quarantined.update(state.quarantined)
    ledger.offences.clear()
    for peer, kinds in state.offences:
        ledger.offences[peer] = dict(kinds)
    ledger.quarantined_at.clear()
    ledger.quarantined_at.update(state.quarantined_at)
    ledger.quarantine_events = state.quarantine_events
    ledger.release_events = state.release_events
    ledger._adversary = frozenset(state.adversary)
    ledger.adversary_bytes_sent = state.adversary_bytes_sent
    ledger.adversary_bytes_scanned = state.adversary_bytes_scanned
    ledger.honest_bytes_to_adversary = state.honest_bytes_to_adversary


def restore_checkpoint(engine: Any, path: Any) -> CheckpointHeader:
    """Overlay the state saved at ``path`` onto a freshly built twin.

    Everything is validated against the engine *before* any state is
    touched — a mismatched checkpoint (different seed, period, node
    population, or node classes) raises
    :class:`~repro.errors.CheckpointError` and leaves the engine as it
    was.  Runs under the engine's GC scope.  Returns the checkpoint
    header.
    """
    with engine._tuned_gc():
        return _restore(engine, path)


def _restore(engine: Any, path: Any) -> CheckpointHeader:
    records = read_checkpoint(path, keys=engine.nodes)
    header: CheckpointHeader = records[0]

    rng_states: Dict[str, tuple] = {}
    node_states: Dict[Any, NodeState] = {}
    coordinator_states: List[CoordinatorState] = []
    table: List[SecureDescriptor] = []
    keys: List[Any] = []
    trusted_digests: List[bytes] = []
    network_state: Optional[NetworkState] = None
    health_state: Optional[PeerHealthState] = None
    blobs: Dict[str, List[bytes]] = {}
    for record in records[1:-1]:
        if isinstance(record, NodeState):
            node_states[record.node_id] = record
        elif isinstance(record, DescriptorTableChunk):
            table.extend(record.descriptors)
        elif isinstance(record, KeyTableChunk):
            keys.extend(record.keys)
        elif isinstance(record, RngStreamState):
            rng_states[record.name] = record.state
        elif isinstance(record, CoordinatorState):
            coordinator_states.append(record)
        elif isinstance(record, RegistryState):
            trusted_digests.extend(record.trusted_digests)
        elif isinstance(record, NetworkState):
            network_state = record
        elif isinstance(record, PeerHealthState):
            health_state = record
        elif isinstance(record, BlobState):
            blobs.setdefault(record.slot, []).append(record.payload)
        else:
            raise CheckpointError(
                f"unexpected record type {type(record).__name__} "
                "in checkpoint body"
            )

    # --- validate against the rebuilt engine (no mutation yet) --------
    if header.master_seed != engine.rng_hub.master_seed:
        raise CheckpointError(
            f"checkpoint was taken with master seed {header.master_seed}, "
            f"engine was built with {engine.rng_hub.master_seed}"
        )
    if header.period_s != engine.clock.period_seconds:
        raise CheckpointError(
            "checkpoint and engine disagree on the gossip period"
        )
    if engine.clock.cycle > header.cycle:
        raise CheckpointError(
            f"engine already at cycle {engine.clock.cycle}, past the "
            f"checkpoint's cycle {header.cycle}; resume into a freshly "
            "built overlay"
        )
    if header.node_count != len(node_states):
        raise CheckpointError(
            f"header declares {header.node_count} nodes, checkpoint "
            f"holds {len(node_states)}"
        )
    if set(node_states) != set(engine.nodes):
        raise CheckpointError(
            "checkpoint and engine node populations differ (a run "
            "checkpointed mid-churn must be resumed into an overlay "
            "built with the same churn prefix)"
        )
    for node_id, state in node_states.items():
        actual = _node_kind(engine.nodes[node_id])
        if actual != state.kind:
            raise CheckpointError(
                f"node {node_id!r} is a {actual!r} in the engine but a "
                f"{state.kind!r} in the checkpoint"
            )
    coordinators = _discover_coordinators(engine)
    if len(coordinators) != len(coordinator_states):
        raise CheckpointError(
            f"engine has {len(coordinators)} adversary coordinator(s), "
            f"checkpoint has {len(coordinator_states)}"
        )
    for coordinator, state in zip(coordinators, coordinator_states):
        if coordinator._pool.maxlen != state.pool_maxlen:
            raise CheckpointError(
                "coordinator pool capacity differs from the checkpoint"
            )
    if health_state is not None and engine.network.peer_health is None:
        raise CheckpointError(
            "checkpoint carries a peer-health ledger but the engine was "
            "built without one"
        )
    saved_series: List[Dict[str, Any]] = (
        pickle.loads(b"".join(blobs["observer-series"]))
        if "observer-series" in blobs
        else []
    )
    series_observers = [
        observer
        for observer in engine._observers
        if hasattr(observer, "restore_series")
    ]
    if len(saved_series) != len(series_observers):
        raise CheckpointError(
            f"checkpoint holds {len(saved_series)} observer series, "
            f"engine has {len(series_observers)} series observers "
            "attached (attach the same observers before resuming)"
        )

    # --- apply --------------------------------------------------------
    engine.rng_hub.restore_stream_states(rng_states)
    engine.clock.advance_to(header.now_s, cycle=header.cycle)
    trusted = engine.registry.trusted_chain_digests
    trusted.clear()
    trusted.update(dict.fromkeys(trusted_digests))
    if network_state is not None:
        network = engine.network
        network.dialogues_opened = network_state.dialogues_opened
        network.pushes_sent = network_state.pushes_sent
        network.push_bytes = network_state.push_bytes
        network.dialogue_bytes_forward = network_state.dialogue_bytes_forward
        network.dialogue_bytes_backward = network_state.dialogue_bytes_backward
        network.dialogue_seconds = network_state.dialogue_seconds
        network.undecodable_frames = network_state.undecodable_frames
        network.quarantine_refusals = network_state.quarantine_refusals
        network._push_encode_memo = None
    if health_state is not None:
        _apply_peer_health(engine.network.peer_health, health_state)
    if "trace" in blobs:
        events = pickle.loads(b"".join(blobs["trace"]))
        engine.trace._events[:] = events
    for coordinator, state in zip(coordinators, coordinator_states):
        coordinator._pool.clear()
        coordinator._pool.extend(table[ref] for ref in state.pool)
        coordinator._circulating.clear()
        for ref in state.circulating:
            descriptor = table[ref]
            coordinator._circulating[descriptor.identity] = descriptor
    for node_id, state in node_states.items():
        _apply_node(engine.nodes[node_id], state, table, keys)
    for observer, series in zip(series_observers, saved_series):
        observer.restore_series(series)
    return header


# ----------------------------------------------------------------------
# checkpoint policy (scheduler hook)
# ----------------------------------------------------------------------


class CheckpointPolicy:
    """When to checkpoint during a run: every N cycles, on demand, or both.

    Install on an engine (``engine.checkpoint_policy = policy``); both
    schedulers call :meth:`after_cycle` at every completed cycle
    boundary.  ``every_cycles=None`` makes the policy purely
    on-demand: nothing is written until :meth:`request` arms it.
    Written paths accumulate in :attr:`saved`.
    """

    def __init__(
        self, directory: Any, every_cycles: Optional[int] = None
    ) -> None:
        if every_cycles is not None and every_cycles < 1:
            raise ConfigError("every_cycles must be >= 1 (or None)")
        self.directory = pathlib.Path(directory)
        self.every_cycles = every_cycles
        self.saved: List[pathlib.Path] = []
        self._requested = False

    def request(self) -> None:
        """Arm a one-shot checkpoint at the next cycle boundary."""
        self._requested = True

    def after_cycle(self, engine: Any, cycle: int) -> None:
        """Scheduler hook: ``cycle`` just completed, clock is past it."""
        completed = cycle + 1
        due = self._requested or (
            self.every_cycles is not None
            and completed % self.every_cycles == 0
        )
        if not due:
            return
        self._requested = False
        self.saved.append(
            save_checkpoint(
                engine, self.directory / f"cycle-{completed:06d}.ckpt"
            )
        )


# ----------------------------------------------------------------------
# split runs (the experiments CLI's --checkpoint / --resume flags)
# ----------------------------------------------------------------------


@contextmanager
def split_runs(directory: Any, mode: str) -> Iterator[pathlib.Path]:
    """Intercept every ``Engine.run`` to checkpoint or resume half-way.

    ``mode="checkpoint"``: each ``run(cycles)`` executes the first
    ``cycles // 2`` cycles, saves ``run-<k>.ckpt`` (``k`` counts run
    calls under this context), then executes the rest — output is
    bit-identical to an unbroken run because saving is pure reads.

    ``mode="resume"``: each ``run(cycles)`` restores ``run-<k>.ckpt``
    into the freshly built engine and executes only the remaining
    ``cycles - cycles // 2`` cycles.  Combined with the identical
    experiment code having produced the checkpoints, the rendered
    output matches the unbroken run bit for bit (the golden-guarded
    25+25-vs-50 contract).

    Runs of fewer than 2 cycles pass through unsplit in both modes.
    """
    from repro.sim import engine as engine_module

    if mode not in ("checkpoint", "resume"):
        raise ConfigError(f"split_runs mode must be checkpoint/resume, got {mode!r}")
    if engine_module._RUN_HOOK is not None:
        raise SimulationError("a split-run context is already active")
    directory = pathlib.Path(directory)
    counter = itertools.count()

    if mode == "checkpoint":
        directory.mkdir(parents=True, exist_ok=True)

        def hook(engine: Any, cycles: int) -> None:
            index = next(counter)
            if cycles < 2:
                engine.scheduler.run(engine, cycles)
                return
            half = cycles // 2
            engine.scheduler.run(engine, half)
            save_checkpoint(engine, directory / f"run-{index}.ckpt")
            engine.scheduler.run(engine, cycles - half)

    else:

        def hook(engine: Any, cycles: int) -> None:
            index = next(counter)
            if cycles < 2:
                engine.scheduler.run(engine, cycles)
                return
            path = directory / f"run-{index}.ckpt"
            if not path.exists():
                raise CheckpointError(
                    f"missing {path}; run the same experiment with "
                    "--checkpoint first (run sequences must match)"
                )
            restore_checkpoint(engine, path)
            engine.scheduler.run(engine, cycles - cycles // 2)

    engine_module._RUN_HOOK = hook
    try:
        yield directory
    finally:
        engine_module._RUN_HOOK = None
