"""Fuzz and round-trip coverage for the checkpoint record codecs.

The checkpoint plane's records (codes 32–42) are codec extensions like
the dialogue messages, so they get the same treatment the wire codecs
get in ``tests/properties/test_codec_roundtrip.py``: every record type
round-trips exactly, and truncations, bit flips, garbage, unknown
version tags, and malformed files surface as the typed
:class:`~repro.errors.CodecError` / :class:`~repro.errors.CheckpointError`
— never ``struct.error`` or a silent wrong answer.  File-level damage
to the table structure (dangling references, chunks out of sequence,
a body record ahead of its table, a frame over the ceiling) is
rejected before a restore touches the engine.
"""

import hashlib
import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import MAX_FRAME_BYTES, decode_message, encode_message
from repro.core.descriptor import mint
from repro.crypto.registry import KeyRegistry
from repro.cyclon.descriptor import CyclonDescriptor
from repro.errors import CheckpointError, CodecError
from repro.experiments.scenarios import build_secure_overlay
from repro.ops.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    descriptor_table,
    read_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from repro.ops.records import (
    PAIR_ROW,
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
)
from repro.sim.network import NetworkAddress

_REGISTRY = KeyRegistry()
_RNG = random.Random(99)
_KEYPAIRS = [_REGISTRY.new_keypair(_RNG) for _ in range(5)]


@st.composite
def descriptors(draw):
    creator = draw(st.integers(0, 4))
    descriptor = mint(
        _KEYPAIRS[creator],
        NetworkAddress(
            host=draw(st.integers(0, 2**32 - 1)),
            port=draw(st.integers(0, 2**16 - 1)),
        ),
        draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
    )
    current = creator
    for nxt in draw(st.lists(st.integers(0, 4), max_size=3)):
        descriptor = descriptor.transfer(
            _KEYPAIRS[current], _KEYPAIRS[nxt].public
        )
        current = nxt
    return descriptor


@st.composite
def node_refs(draw):
    tag = draw(st.integers(0, 2))
    if tag == 0:
        return _KEYPAIRS[draw(st.integers(0, 4))].public
    if tag == 1:
        return draw(st.integers(-(2**63), 2**63 - 1))
    return draw(st.text(max_size=12))


@st.composite
def rng_states(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rng.gauss(0.0, 1.0)  # may leave gauss_next set
    return rng.getstate()


@st.composite
def secure_node_states(draw):
    kind = draw(st.sampled_from(["secure", "secure-hub", "cloning"]))
    timestamps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            max_size=3,
        )
    )
    refs = st.integers(0, 2**32 - 1)
    slot_sizes = draw(st.lists(st.integers(0, 3), max_size=3))
    return NodeState(
        kind=kind,
        node_id=draw(node_refs()),
        current_cycle=draw(st.integers(0, 10_000)),
        last_mint_cycle=draw(st.one_of(st.none(), st.integers(0, 10_000))),
        last_mint_time_s=draw(
            st.one_of(
                st.none(),
                st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            )
        ),
        nonswap_accepted=draw(st.booleans()),
        nonswap_redeemed=tuple(sorted(timestamps)),
        redeemed_own=tuple(sorted(timestamps)),
        view_entries=tuple(
            (ref, draw(st.booleans()))
            for ref in draw(st.lists(refs, max_size=3))
        ),
        sample_slots=tuple(
            (draw(refs), size) for size in slot_sizes
        ),
        sample_pairs=tuple(
            (draw(st.floats(allow_nan=False)), draw(refs))
            for _ in range(sum(slot_sizes))
        ),
        sample_expiry=tuple(
            (draw(st.integers(0, 2**32 - 1)), draw(refs), ts)
            for ts in timestamps
        ),
        redemptions=tuple(
            (draw(st.integers(-(2**63), 2**63 - 1)), ref)
            for ref in draw(st.lists(refs, max_size=2))
        ),
        proofs=tuple(
            (draw(st.integers(0, 1)), draw(refs), draw(refs), draw(refs))
            for _ in range(draw(st.integers(0, 2)))
        ),
        cycle_mint=draw(st.one_of(st.none(), refs)),
        stash=tuple(
            (ref, draw(st.integers(0, 100)))
            for ref in draw(st.lists(refs, max_size=2))
        ),
        clone_events=tuple(
            (d.creator, d.timestamp, draw(st.integers(0, 100)), cycle)
            for cycle, d in enumerate(
                draw(st.lists(descriptors(), max_size=2))
            )
        ),
    )


@st.composite
def cyclon_node_states(draw):
    kind = draw(st.sampled_from(["cyclon", "cyclon-hub"]))
    return NodeState(
        kind=kind,
        node_id=draw(node_refs()),
        current_cycle=draw(st.integers(0, 10_000)),
        cyclon_epoch=draw(st.integers(0, 10_000)),
        cyclon_records=tuple(
            (
                CyclonDescriptor(
                    node_id=draw(node_refs()),
                    address=NetworkAddress(
                        host=draw(st.integers(0, 2**32 - 1)),
                        port=draw(st.integers(0, 2**16 - 1)),
                    ),
                    age=draw(st.integers(0, 1000)),
                ),
                draw(st.integers(0, 10_000)),
            )
            for _ in range(draw(st.integers(0, 3)))
        ),
    )


@st.composite
def records(draw):
    kind = draw(st.integers(0, 11))
    if kind == 0:
        return CheckpointHeader(
            format_version=draw(st.integers(0, 2**16 - 1)),
            master_seed=draw(st.integers(-(2**63), 2**63 - 1)),
            cycle=draw(st.integers(0, 2**32 - 1)),
            now_s=draw(
                st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
            ),
            period_s=draw(
                st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)
            ),
            node_count=draw(st.integers(0, 2**32 - 1)),
        )
    if kind == 1:
        return RngStreamState(
            name=draw(st.text(max_size=20)), state=draw(rng_states())
        )
    if kind == 2:
        return RegistryState(
            trusted_digests=tuple(
                draw(st.lists(st.binary(min_size=8, max_size=32), max_size=4))
            )
        )
    if kind == 3:
        return NetworkState(
            dialogues_opened=draw(st.integers(0, 2**40)),
            pushes_sent=draw(st.integers(0, 2**40)),
            push_bytes=draw(st.integers(0, 2**40)),
            dialogue_bytes_forward=draw(st.integers(0, 2**40)),
            dialogue_bytes_backward=draw(st.integers(0, 2**40)),
            dialogue_seconds=draw(
                st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
            ),
            undecodable_frames=draw(st.integers(0, 2**40)),
            quarantine_refusals=draw(st.integers(0, 2**40)),
        )
    if kind == 4:
        return PeerHealthState(
            cycle=draw(st.integers(0, 2**32)),
            scores=tuple(
                (draw(node_refs()), score)
                for score in draw(
                    st.lists(
                        st.floats(
                            min_value=-100.0,
                            max_value=100.0,
                            allow_nan=False,
                        ),
                        max_size=3,
                    )
                )
            ),
            quarantined=tuple(draw(st.lists(node_refs(), max_size=3))),
            offences=tuple(
                (
                    draw(node_refs()),
                    tuple(
                        (kind_name, draw(st.integers(0, 1000)))
                        for kind_name in draw(
                            st.lists(
                                st.sampled_from(
                                    ["decode_failure", "oversize_frame",
                                     "timeout"]
                                ),
                                max_size=3,
                                unique=True,
                            )
                        )
                    ),
                )
                for _ in range(draw(st.integers(0, 2)))
            ),
            quarantined_at=tuple(
                (draw(node_refs()), draw(st.integers(0, 10_000)))
                for _ in range(draw(st.integers(0, 2)))
            ),
            quarantine_events=draw(st.integers(0, 10_000)),
            release_events=draw(st.integers(0, 10_000)),
            adversary=tuple(draw(st.lists(node_refs(), max_size=3))),
            adversary_bytes_sent=draw(st.integers(0, 2**40)),
            adversary_bytes_scanned=draw(st.integers(0, 2**40)),
            honest_bytes_to_adversary=draw(st.integers(0, 2**40)),
        )
    if kind == 5:
        return BlobState(
            slot=draw(st.sampled_from(["trace", "observer-series"])),
            payload=draw(st.binary(max_size=256)),
        )
    if kind == 6:
        return draw(secure_node_states())
    if kind == 7:
        return draw(cyclon_node_states())
    if kind == 8:
        refs = st.lists(st.integers(0, 2**32 - 1), max_size=3)
        return CoordinatorState(
            pool_maxlen=draw(st.one_of(st.none(), st.integers(1, 1000))),
            pool=tuple(draw(refs)),
            circulating=tuple(draw(refs)),
        )
    if kind == 9:
        return KeyTableChunk(
            first=draw(st.integers(0, 2**32 - 1)),
            keys=tuple(draw(st.lists(node_refs(), max_size=4))),
        )
    if kind == 10:
        (chunk,) = descriptor_table(draw(st.lists(descriptors(), max_size=3)))
        return replace(chunk, first=draw(st.integers(0, 2**32 - 1)))
    return CheckpointFooter(record_count=draw(st.integers(0, 2**32 - 1)))


@given(record=records())
@settings(max_examples=150, deadline=None)
def test_record_roundtrip(record):
    """Every checkpoint record decodes back exactly equal."""
    assert decode_message(encode_message(record)) == record


@given(record=records(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_truncated_records_are_typed(record, data):
    """Any strict prefix of a valid record raises CodecError."""
    frame = encode_message(record)
    cut = data.draw(st.integers(0, len(frame) - 1))
    with pytest.raises(CodecError):
        decode_message(frame[:cut])


@given(record=records(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_bit_flipped_records_decode_or_raise_typed(record, data):
    """Corruption either decodes (to something) or raises CodecError."""
    frame = bytearray(encode_message(record))
    position = data.draw(st.integers(0, len(frame) - 1))
    frame[position] ^= 1 << data.draw(st.integers(0, 7))
    try:
        decode_message(bytes(frame), max_frame_bytes=None)
    except CodecError:
        pass
    except struct.error:  # pragma: no cover - the regression this guards
        pytest.fail("struct.error leaked through the record codec")


def test_unknown_rng_version_rejected():
    state = (4, tuple(range(625)), None)
    with pytest.raises(CodecError):
        encode_message(RngStreamState(name="x", state=state))


def test_unknown_blob_slot_rejected():
    with pytest.raises(CodecError):
        encode_message(BlobState(slot="arbitrary-pickle", payload=b""))


def test_bool_node_id_rejected():
    record = NodeState(kind="secure", node_id=True, current_cycle=0)
    with pytest.raises(CodecError):
        encode_message(record)


def test_unknown_node_kind_rejected():
    record = NodeState(kind="brahms", node_id=1, current_cycle=0)
    with pytest.raises(CodecError):
        encode_message(record)


# ----------------------------------------------------------------------
# file-level validation
# ----------------------------------------------------------------------


def _build():
    return build_secure_overlay(n=12, malicious=2, seed=5)


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    overlay = _build()
    overlay.run(3)
    path = tmp_path_factory.mktemp("ckpt") / "small.ckpt"
    save_checkpoint(overlay.engine, path)
    return path


def _write(path, records):
    """Frame records (or already encoded frames) plus a matching footer."""
    frames = [r if isinstance(r, bytes) else encode_message(r) for r in records]
    frames.append(encode_message(CheckpointFooter(record_count=len(frames) + 1)))
    path.write_bytes(
        MAGIC + b"".join(struct.pack(">I", len(f)) + f for f in frames)
    )
    return path


def _engine_digest(engine):
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(engine.clock.cycle).encode())
    digest.update(repr(sorted(engine.rng_hub.stream_states().items())).encode())
    for node_id, node in engine.nodes.items():
        digest.update(node_id.digest)
        for entry in node.view:
            digest.update(
                entry.creator.digest
                + struct.pack("<d?", entry.timestamp, entry.non_swappable)
            )
        digest.update(
            struct.pack("<II", len(node.sample_cache), len(node.blacklist))
        )
    return digest.hexdigest()


def _assert_rejected(path, match):
    """Typed rejection by the reader, and by a restore that then leaves
    the freshly built twin exactly as it was."""
    with pytest.raises(CheckpointError, match=match):
        read_checkpoint(path)
    twin = _build().engine
    before = _engine_digest(twin)
    with pytest.raises(CheckpointError, match=match):
        restore_checkpoint(twin, path)
    assert _engine_digest(twin) == before


def _body(checkpoint_file):
    """The file's records without the footer, and the descriptor-table
    size."""
    body = read_checkpoint(checkpoint_file)[:-1]
    entries = sum(r.count for r in body if isinstance(r, DescriptorTableChunk))
    return body, entries


def _index(body, predicate):
    return next(i for i, record in enumerate(body) if predicate(record))


def test_file_roundtrip_parses(checkpoint_file):
    records_list = read_checkpoint(checkpoint_file)
    assert isinstance(records_list[0], CheckpointHeader)
    assert isinstance(records_list[-1], CheckpointFooter)
    assert records_list[-1].record_count == len(records_list)


def test_bad_magic_rejected(tmp_path, checkpoint_file):
    data = checkpoint_file.read_bytes()
    bad = tmp_path / "bad-magic.ckpt"
    bad.write_bytes(b"ZZZZ" + data[len(MAGIC):])
    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(bad)


@pytest.mark.parametrize("keep_fraction", [0.1, 0.5, 0.9, 0.999])
def test_truncated_file_rejected(tmp_path, checkpoint_file, keep_fraction):
    data = checkpoint_file.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(data[: max(len(MAGIC), int(len(data) * keep_fraction))])
    with pytest.raises(CheckpointError):
        read_checkpoint(cut)


def test_unknown_format_version_rejected(tmp_path):
    header = CheckpointHeader(
        format_version=FORMAT_VERSION + 1,
        master_seed=0,
        cycle=0,
        now_s=0.0,
        period_s=10.0,
        node_count=0,
    )
    frames = [
        encode_message(header),
        encode_message(CheckpointFooter(record_count=2)),
    ]
    path = tmp_path / "future.ckpt"
    path.write_bytes(
        MAGIC
        + b"".join(struct.pack(">I", len(f)) + f for f in frames)
    )
    with pytest.raises(CheckpointError, match="version"):
        read_checkpoint(path)


def test_wrong_footer_count_rejected(tmp_path):
    header = CheckpointHeader(
        format_version=FORMAT_VERSION,
        master_seed=0,
        cycle=0,
        now_s=0.0,
        period_s=10.0,
        node_count=0,
    )
    frames = [
        encode_message(header),
        encode_message(CheckpointFooter(record_count=7)),
    ]
    path = tmp_path / "miscounted.ckpt"
    path.write_bytes(
        MAGIC
        + b"".join(struct.pack(">I", len(f)) + f for f in frames)
    )
    with pytest.raises(CheckpointError, match="declares"):
        read_checkpoint(path)


def test_missing_footer_rejected(tmp_path):
    header = CheckpointHeader(
        format_version=FORMAT_VERSION,
        master_seed=0,
        cycle=0,
        now_s=0.0,
        period_s=10.0,
        node_count=0,
    )
    frame = encode_message(header)
    path = tmp_path / "headless.ckpt"
    path.write_bytes(MAGIC + struct.pack(">I", len(frame)) + frame)
    with pytest.raises(CheckpointError, match="footer"):
        read_checkpoint(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        read_checkpoint(tmp_path / "nope.ckpt")


def test_version_1_file_rejected_naming_both_versions(tmp_path):
    header = CheckpointHeader(
        format_version=1,
        master_seed=0,
        cycle=0,
        now_s=0.0,
        period_s=10.0,
        node_count=1,
    )
    # A node frame laid out the way version 1 embedded descriptors: it
    # does not parse as a version-2 record, and must not need to.
    v1_node = bytes([38]) + b"\x00" * 40
    path = _write(tmp_path / "v1.ckpt", [header, v1_node])
    with pytest.raises(
        CheckpointError, match=rf"version 1 .*version {FORMAT_VERSION}"
    ):
        read_checkpoint(path)


def test_frame_over_the_ceiling_rejected_before_parsing(tmp_path, checkpoint_file):
    data = bytearray(checkpoint_file.read_bytes())
    struct.pack_into(">I", data, len(MAGIC), MAX_FRAME_BYTES + 1)
    path = tmp_path / "oversize.ckpt"
    path.write_bytes(bytes(data))
    _assert_rejected(path, "ceiling")


def test_save_refuses_a_frame_over_the_ceiling(tmp_path, monkeypatch):
    import repro.ops.checkpoint as checkpoint

    # An RNG stream record is ~2.5 KB; no chunking can split it.
    monkeypatch.setattr(checkpoint, "MAX_FRAME_BYTES", 1024)
    with pytest.raises(CheckpointError, match="ceiling"):
        save_checkpoint(_build().engine, tmp_path / "never.ckpt")
    assert not (tmp_path / "never.ckpt").exists()


def test_dangling_table_reference_rejected(tmp_path, checkpoint_file):
    body, entries = _body(checkpoint_file)
    at = _index(body, lambda r: isinstance(r, NodeState) and r.view_entries)
    node = body[at]
    body[at] = replace(
        node, view_entries=((entries, False),) + node.view_entries[1:]
    )
    _assert_rejected(
        _write(tmp_path / "dangling.ckpt", body), "descriptor-table entry"
    )


def test_out_of_range_key_reference_rejected(tmp_path, checkpoint_file):
    body, _ = _body(checkpoint_file)
    keys = sum(len(r.keys) for r in body if isinstance(r, KeyTableChunk))
    at = _index(body, lambda r: isinstance(r, NodeState) and r.sample_slots)
    node = body[at]
    _, count = node.sample_slots[0]
    body[at] = replace(
        node, sample_slots=((keys, count),) + node.sample_slots[1:]
    )
    _assert_rejected(_write(tmp_path / "key.ckpt", body), "key-table entry")


def test_node_record_ahead_of_its_table_rejected(tmp_path, checkpoint_file):
    body, _ = _body(checkpoint_file)
    node = body.pop(
        _index(body, lambda r: isinstance(r, NodeState) and r.view_entries)
    )
    body.insert(_index(body, lambda r: isinstance(r, DescriptorTableChunk)), node)
    _assert_rejected(
        _write(tmp_path / "early.ckpt", body), "descriptor-table entry"
    )


def _split_table(body, monkeypatch):
    """Re-chunk the descriptor table into at least three chunks."""
    import repro.ops.checkpoint as checkpoint

    at = _index(body, lambda r: isinstance(r, DescriptorTableChunk))
    chunk = body[at]
    with monkeypatch.context() as patch:
        patch.setattr(checkpoint, "_CHUNK_BUDGET", len(chunk.records) // 3)
        pieces = descriptor_table(chunk.descriptors)
    assert len(pieces) >= 3
    return at, pieces


def test_chunked_table_reads_back_whole(tmp_path, checkpoint_file, monkeypatch):
    body, entries = _body(checkpoint_file)
    original = body[_index(body, lambda r: isinstance(r, DescriptorTableChunk))]
    at, pieces = _split_table(body, monkeypatch)
    body[at : at + 1] = pieces
    path = _write(tmp_path / "split.ckpt", body)
    table = [
        descriptor
        for record in read_checkpoint(path)
        if isinstance(record, DescriptorTableChunk)
        for descriptor in record.descriptors
    ]
    assert len(table) == entries
    assert table == list(original.descriptors)
    twin = _build().engine
    restore_checkpoint(twin, path)
    reference = _build().engine
    restore_checkpoint(reference, checkpoint_file)
    assert _engine_digest(twin) == _engine_digest(reference)


@pytest.mark.parametrize("damage", ["duplicated", "missing"])
def test_table_chunk_out_of_sequence_rejected(
    tmp_path, checkpoint_file, monkeypatch, damage
):
    body, _ = _body(checkpoint_file)
    at, pieces = _split_table(body, monkeypatch)
    if damage == "duplicated":
        pieces.insert(2, pieces[1])
    else:
        del pieces[1]
    body[at : at + 1] = pieces
    _assert_rejected(
        _write(tmp_path / f"{damage}.ckpt", body),
        "duplicated, missing or out of order",
    )


def test_ragged_packed_run_rejected(tmp_path, checkpoint_file):
    body, _ = _body(checkpoint_file)
    at = _index(body, lambda r: isinstance(r, NodeState) and r.sample_pairs)
    node = body[at]
    frame = encode_message(node)
    run = b"".join(PAIR_ROW.pack(*pair) for pair in node.sample_pairs)
    framed = struct.pack(">I", len(run)) + run
    assert frame.count(framed) == 1
    ragged = frame.replace(framed, struct.pack(">I", len(run) - 1) + run[:-1])
    with pytest.raises(CodecError, match="multiple"):
        decode_message(ragged)
    body[at] = ragged
    _assert_rejected(_write(tmp_path / "ragged.ckpt", body), "multiple")


def test_checkpoint_error_is_a_codec_error():
    assert issubclass(CheckpointError, CodecError)
