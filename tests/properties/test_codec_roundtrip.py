"""Property-based round-trip tests for the whole-message codec.

Covers every dialogue message type the wire transport can carry — the
eight SecureCyclon messages (``GossipOpen`` … ``ProofFlood``) plus the
registered legacy-Cyclon shuffle messages — including empty sequences
and max-hop ownership chains, and fuzzes the error paths: truncations,
random byte prefixes, unknown type bytes, *mutations* of valid frames
(bit flips and cross-frame splices — what the wire-plane attackers
actually produce), and the frame-size ceiling must raise the typed
:class:`~repro.errors.CodecError`, never leak ``struct.error``.
"""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import (
    MAX_FRAME_BYTES,
    decode_message,
    encode_message,
    encoded_message_size,
    register_message_codec,
)
from repro.core.codec_batch import (
    BatchEncoder,
    FastDecoder,
    InternTable,
    split_frames,
)
from repro.core.descriptor import mint, verify_descriptor
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
from repro.core.blacklist import Blacklist
from repro.core.proofs import (
    CloningProof,
    FrequencyProof,
    build_cloning_proof,
    build_frequency_proof,
)
from repro.core.wire import encode_proof
from repro.crypto.registry import KeyRegistry
from repro.cyclon import CyclonDescriptor, CyclonReply, CyclonRequest
from repro.errors import CodecError, DescriptorError, FrameOversizeError
from repro.sim.network import NetworkAddress

_REGISTRY = KeyRegistry()
_RNG = random.Random(7)
_KEYPAIRS = [_REGISTRY.new_keypair(_RNG) for _ in range(5)]
_PERIOD = 10.0


@st.composite
def descriptors(draw):
    creator = draw(st.integers(0, 4))
    timestamp = draw(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    )
    descriptor = mint(
        _KEYPAIRS[creator],
        NetworkAddress(
            host=draw(st.integers(0, 2**32 - 1)),
            port=draw(st.integers(0, 2**16 - 1)),
        ),
        timestamp,
    )
    current = creator
    for nxt in draw(st.lists(st.integers(0, 4), max_size=4)):
        descriptor = descriptor.transfer(
            _KEYPAIRS[current], _KEYPAIRS[nxt].public
        )
        current = nxt
    return descriptor


@st.composite
def cloning_proofs(draw):
    base = draw(descriptors())
    owner_index = next(
        index
        for index, keypair in enumerate(_KEYPAIRS)
        if keypair.public == base.current_owner
    )
    owner = _KEYPAIRS[owner_index]
    branch_a = base.transfer(owner, _KEYPAIRS[(owner_index + 1) % 5].public)
    branch_b = base.transfer(owner, _KEYPAIRS[(owner_index + 2) % 5].public)
    proof = build_cloning_proof(branch_a, branch_b)
    assert proof is not None
    return proof


@st.composite
def frequency_proofs(draw):
    """Two one-hop-or-longer mints by one creator, closer than a period."""
    creator = draw(st.integers(0, 4))
    timestamp = draw(st.floats(min_value=0.0, max_value=1e6))
    gap = draw(st.floats(min_value=0.5, max_value=_PERIOD / 2))
    minted = []
    for stamp in (timestamp, timestamp + gap):
        descriptor = mint(
            _KEYPAIRS[creator],
            NetworkAddress(
                host=draw(st.integers(0, 2**32 - 1)),
                port=draw(st.integers(0, 2**16 - 1)),
            ),
            stamp,
        )
        current = creator
        for nxt in draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)):
            descriptor = descriptor.transfer(
                _KEYPAIRS[current], _KEYPAIRS[nxt].public
            )
            current = nxt
        minted.append(descriptor)
    proof = build_frequency_proof(minted[0], minted[1], _PERIOD)
    assert proof is not None
    return proof


def proofs():
    """Both proof kinds, so both kind bytes (0 and 1) ride every frame."""
    return st.one_of(cloning_proofs(), frequency_proofs())


def proof_sections():
    # Up to eight: under the hub attack every opening and reply carries
    # the sender's whole blacklist, so multi-proof sections are the norm.
    return st.lists(proofs(), max_size=8).map(tuple)


@st.composite
def cyclon_node_ids(draw):
    """Node IDs across all three encodable tags (key/int/str)."""
    tag = draw(st.integers(0, 2))
    if tag == 0:
        return _KEYPAIRS[draw(st.integers(0, 4))].public
    if tag == 1:
        return draw(st.integers(-(2**63), 2**63 - 1))
    return draw(st.text(max_size=20))


@st.composite
def cyclon_descriptors(draw):
    return CyclonDescriptor(
        node_id=draw(cyclon_node_ids()),
        address=NetworkAddress(
            host=draw(st.integers(0, 2**32 - 1)),
            port=draw(st.integers(0, 2**16 - 1)),
        ),
        age=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def messages(draw):
    kind = draw(st.integers(1, 10))
    if kind == 9:
        return CyclonRequest(
            descriptors=tuple(
                draw(st.lists(cyclon_descriptors(), max_size=4))
            )
        )
    if kind == 10:
        return CyclonReply(
            descriptors=tuple(
                draw(st.lists(cyclon_descriptors(), max_size=4))
            )
        )
    if kind == 1:
        return GossipOpen(
            redemption=draw(descriptors()),
            non_swappable=draw(st.booleans()),
            samples=tuple(draw(st.lists(descriptors(), max_size=3))),
            proofs=draw(proof_sections()),
        )
    if kind == 2:
        return GossipAccept(
            samples=tuple(draw(st.lists(descriptors(), max_size=3))),
            proofs=draw(proof_sections()),
        )
    if kind == 3:
        return GossipReject(
            reason=draw(st.text(max_size=30)),
            proofs=draw(proof_sections()),
        )
    if kind == 4:
        return TransferMessage(
            descriptor=draw(descriptors()),
            round_index=draw(st.integers(0, 2**16 - 1)),
        )
    if kind == 5:
        return TransferReply(
            descriptor=draw(st.one_of(st.none(), descriptors()))
        )
    if kind == 6:
        return BulkSwapMessage(
            descriptors=tuple(draw(st.lists(descriptors(), max_size=4)))
        )
    if kind == 7:
        return BulkSwapReply(
            descriptors=tuple(draw(st.lists(descriptors(), max_size=4)))
        )
    return ProofFlood(proof=draw(proofs()))


@given(message=messages())
@settings(max_examples=120, deadline=None)
def test_message_roundtrip(message):
    data = encode_message(message)
    decoded = decode_message(data)
    assert decoded == message
    assert encoded_message_size(message) == len(data)


@given(message=messages(), flip=st.data())
@settings(max_examples=60, deadline=None)
def test_truncated_messages_are_rejected(message, flip):
    """Every strict prefix of a valid frame raises the typed error."""
    data = encode_message(message)
    if len(data) < 2:
        return
    cut = flip.draw(st.integers(min_value=1, max_value=len(data) - 1))
    with pytest.raises(CodecError):
        decode_message(data[:cut])


@given(garbage=st.binary(max_size=300))
@settings(max_examples=200, deadline=None)
def test_random_bytes_never_leak_struct_error(garbage):
    """Decoding arbitrary bytes either succeeds or raises CodecError.

    The decoder must be total over byte strings: no ``struct.error``,
    no bare ``ValueError``, no ``IndexError`` — anything less and a
    malicious peer could crash a receiver instead of being rejected.
    (A random blob that happens to parse is astronomically unlikely
    but legal, hence the try/except shape.)
    """
    try:
        decode_message(garbage)
    except CodecError:
        pass


@given(message=messages(), corruption=st.data())
@settings(max_examples=100, deadline=None)
def test_corrupted_prefix_of_valid_frame_is_typed(message, corruption):
    """Random prefixes grafted onto random garbage stay typed errors."""
    data = encode_message(message)
    cut = corruption.draw(st.integers(min_value=0, max_value=len(data)))
    tail = corruption.draw(st.binary(max_size=40))
    mutated = data[:cut] + tail
    try:
        decoded = decode_message(mutated)
    except CodecError:
        return
    # If the mutation happened to produce a parseable frame, it must
    # round-trip like any other message.
    assert decode_message(encode_message(decoded)) == decoded


@given(message=messages(), mutation=st.data())
@settings(max_examples=100, deadline=None)
def test_bit_flipped_frames_decode_or_raise_typed(message, mutation):
    """Mutation fuzz: bit flips in valid frames stay inside the contract.

    This is exactly what the wire-plane MalformedFrameAttacker does to
    its frames; whatever comes out, the receiver must either get a
    message that round-trips or a typed :class:`CodecError` — never an
    untyped crash.
    """
    data = bytearray(encode_message(message))
    flips = mutation.draw(st.integers(min_value=1, max_value=8))
    for _ in range(flips):
        index = mutation.draw(
            st.integers(min_value=0, max_value=len(data) - 1)
        )
        bit = mutation.draw(st.integers(min_value=0, max_value=7))
        data[index] ^= 1 << bit
    try:
        decoded = decode_message(bytes(data))
    except CodecError:
        return
    assert decode_message(encode_message(decoded)) == decoded


@given(first=messages(), second=messages(), splice=st.data())
@settings(max_examples=60, deadline=None)
def test_spliced_frames_decode_or_raise_typed(first, second, splice):
    """Mutation fuzz: grafting two valid frames stays inside the contract.

    Models a truncation-plus-replay on the wire: the head of one
    legitimate frame welded onto the tail of another.
    """
    head = encode_message(first)
    tail = encode_message(second)
    cut_head = splice.draw(st.integers(min_value=0, max_value=len(head)))
    cut_tail = splice.draw(st.integers(min_value=0, max_value=len(tail)))
    spliced = head[:cut_head] + tail[cut_tail:]
    try:
        decoded = decode_message(spliced)
    except CodecError:
        return
    assert decode_message(encode_message(decoded)) == decoded


def test_unknown_type_code_rejected():
    with pytest.raises(CodecError):
        decode_message(b"\xff")


def test_frame_size_ceiling_boundary():
    """Frames at the ceiling decode; one byte past it is refused."""
    frame = encode_message(GossipReject(reason="x" * 100, proofs=()))
    # Exactly at a ceiling equal to the frame's own size: accepted.
    assert decode_message(frame, max_frame_bytes=len(frame)) is not None
    # One byte under: refused with the oversize subclass, before any
    # parsing could notice the frame is otherwise perfectly valid.
    with pytest.raises(FrameOversizeError):
        decode_message(frame, max_frame_bytes=len(frame) - 1)


def test_default_ceiling_rejects_megaframe():
    """An attacker-inflated frame is refused by one length check."""
    frame = encode_message(GossipReject(reason="x", proofs=()))
    inflated = frame + b"\x00" * MAX_FRAME_BYTES
    with pytest.raises(FrameOversizeError):
        decode_message(inflated)
    # The oversize error is still a CodecError: every receive boundary
    # that survives garbage survives volume.
    assert issubclass(FrameOversizeError, CodecError)
    # Disabling the ceiling restores the old behaviour (trailing bytes
    # are then rejected by parsing, not by the ceiling).
    with pytest.raises(CodecError):
        decode_message(inflated, max_frame_bytes=None)
    assert decode_message(frame, max_frame_bytes=None) is not None


def test_declared_length_cannot_force_allocation():
    """A u32 record length far past the real payload is rejected cheaply.

    The declared length is checked against the bytes actually present
    before slicing — a 4 GiB claim inside a 13-byte frame must die by
    arithmetic (and stay a typed error), not by materialising anything.
    """
    # Type byte 8 (ProofFlood) followed by a u32 blob length of
    # 0xFFFFFFFF and no payload to back it up.
    frame = bytes([8]) + struct.pack(">I", 0xFFFFFFFF) + b"\x00" * 8
    with pytest.raises(CodecError):
        decode_message(frame)


def test_non_message_rejected_on_encode():
    with pytest.raises(CodecError):
        encode_message(object())


def test_empty_bytes_rejected():
    with pytest.raises(CodecError):
        decode_message(b"")


def test_codec_error_is_a_descriptor_error():
    """Pre-CodecError callers caught DescriptorError; they still do."""
    assert issubclass(CodecError, DescriptorError)
    with pytest.raises(DescriptorError):
        decode_message(b"\x01\x00")


def test_empty_sequences_roundtrip():
    """Zero-length sample/proof/descriptor sequences frame cleanly."""
    for message in (
        GossipAccept(samples=(), proofs=()),
        GossipReject(reason="", proofs=()),
        BulkSwapMessage(descriptors=()),
        BulkSwapReply(descriptors=()),
        TransferReply(descriptor=None),
        CyclonRequest(descriptors=()),
        CyclonReply(descriptors=()),
    ):
        assert decode_message(encode_message(message)) == message


def test_max_hop_chain_roundtrips():
    """A chain at the practical hop ceiling survives the wire intact.

    Descriptors live ~view_length cycles and gain roughly two hops per
    cycle, so 2·ℓ (with the paper's largest ℓ = 50) bounds honest
    chains; encode at that depth and prove the decoded copy still
    *verifies*, not just compares equal.
    """
    descriptor = mint(_KEYPAIRS[0], NetworkAddress(host=9, port=9), 1.0)
    current = 0
    for hop in range(100):
        nxt = (current + 1) % 5
        descriptor = descriptor.transfer(
            _KEYPAIRS[current], _KEYPAIRS[nxt].public
        )
        current = nxt
    message = TransferMessage(descriptor=descriptor, round_index=3)
    decoded = decode_message(encode_message(message))
    assert decoded == message
    assert decoded.descriptor is not descriptor
    assert len(decoded.descriptor.hops) == 100
    assert verify_descriptor(decoded.descriptor, _REGISTRY)


def test_extension_registration_is_idempotent_and_guarded():
    """Re-registering the same type/code is a no-op; conflicts raise."""
    import repro.cyclon.codec as cyclon_codec

    # Same type, same code: importing twice must not blow up.
    register_message_codec(
        CyclonRequest,
        cyclon_codec.CYCLON_REQUEST_CODE,
        cyclon_codec._encode_shuffle,
        cyclon_codec._decode_request,
    )
    with pytest.raises(CodecError):
        register_message_codec(
            CyclonRequest, 200, cyclon_codec._encode_shuffle,
            cyclon_codec._decode_request,
        )
    with pytest.raises(CodecError):
        register_message_codec(
            TransferReply, cyclon_codec.CYCLON_REPLY_CODE,
            cyclon_codec._encode_shuffle, cyclon_codec._decode_reply,
        )
    with pytest.raises(CodecError):
        register_message_codec(
            GossipOpen, 4, cyclon_codec._encode_shuffle,
            cyclon_codec._decode_request,
        )


def test_encode_side_range_violations_are_typed():
    """Out-of-width fields raise CodecError at encode, never struct.error."""
    address = NetworkAddress(host=1, port=1)
    with pytest.raises(CodecError):
        encode_message(
            CyclonRequest(
                descriptors=(
                    CyclonDescriptor(node_id=1, address=address, age=2**32),
                )
            )
        )
    with pytest.raises(CodecError):
        encode_message(
            CyclonRequest(
                descriptors=(
                    CyclonDescriptor(
                        node_id="x" * 70000, address=address, age=0
                    ),
                )
            )
        )
    with pytest.raises(CodecError):
        encode_message(
            CyclonRequest(
                descriptors=(
                    CyclonDescriptor(node_id=2**70, address=address, age=0),
                )
            )
        )


def test_unencodable_cyclon_node_id_rejected():
    """IDs outside PublicKey/int/str cannot travel a real wire."""
    message = CyclonRequest(
        descriptors=(
            CyclonDescriptor(
                node_id=(1, 2), address=NetworkAddress(host=1, port=1), age=0
            ),
        )
    )
    with pytest.raises(CodecError):
        encode_message(message)
    with pytest.raises(CodecError):
        encode_message(
            CyclonRequest(
                descriptors=(
                    CyclonDescriptor(
                        node_id=True,
                        address=NetworkAddress(host=1, port=1),
                        age=0,
                    ),
                )
            )
        )


# ----------------------------------------------------------------------
# Batch-codec fast path: byte identity and decode equivalence
# ----------------------------------------------------------------------
#
# The WireTransport runs repro.core.codec_batch, not the reference
# codec, so everything the properties above pin about the reference
# must also be pinned *between* the two implementations: the batch
# encoder's bytes are the reference bytes, and the fast decoder's
# accept/reject set (including exception types) is the reference set.


@given(message=messages())
@settings(max_examples=120, deadline=None)
def test_batch_encoder_bytes_identical_to_reference(message):
    """Batch-encoded frames are byte-for-byte the reference encoding.

    Covers all ten registered message types, including the
    extension-registry Cyclon shuffles (which the batch encoder must
    delegate, not re-implement).
    """
    assert BatchEncoder().encode(message) == encode_message(message)


@given(batch=st.lists(messages(), max_size=6))
@settings(max_examples=60, deadline=None)
def test_encode_frames_identical_to_framed_concatenation(batch):
    """A batched fan-out is the concatenation of u32-prefixed frames."""
    encoder = BatchEncoder()
    expected = b"".join(
        struct.pack(">I", len(frame)) + frame
        for frame in map(encode_message, batch)
    )
    buffer = encoder.encode_frames(batch)
    assert buffer == expected
    assert split_frames(buffer) == [encode_message(m) for m in batch]


@given(message=messages(), cycles=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_batch_encoder_memo_and_cycle_tick_preserve_bytes(message, cycles):
    """Memoised re-encodes stay byte-identical across cycle boundaries.

    The first encode fills the id-keyed memos; the second must hit them
    (same object) and return the same bytes; a begin_cycle tick drops
    the memos and a third encode must rebuild the identical frame.
    """
    encoder = BatchEncoder(InternTable())
    reference = encode_message(message)
    assert encoder.encode(message) == reference
    assert encoder.encode(message) == reference
    for cycle in range(cycles):
        encoder.begin_cycle(cycle)
        assert encoder.encode(message) == reference


@given(message=messages())
@settings(max_examples=120, deadline=None)
def test_fast_decoder_equivalent_on_valid_frames(message):
    """FastDecoder(frame) == decode_message(frame) on every valid frame."""
    frame = encode_message(message)
    decoded = FastDecoder().decode(frame)
    assert decoded == decode_message(frame)
    assert decoded == message


def _assert_decoders_agree(data, warm=()):
    """Both decoders accept with equal results or raise the same type.

    The fast side runs twice: on a cold decoder, and on one whose
    intern table already holds the records of the ``warm`` frames (the
    unmutated originals), so the record-hit paths are pinned too.
    """
    reference_error = reference_message = None
    try:
        reference_message = decode_message(data)
    except CodecError as exc:
        reference_error = exc
    warmed = FastDecoder()
    for frame in warm:
        warmed.decode(frame)
    for decoder in (FastDecoder(), warmed):
        fast_error = fast_message = None
        try:
            fast_message = decoder.decode(data)
        except CodecError as exc:
            fast_error = exc
        if reference_error is None:
            assert fast_error is None, (
                f"reference accepted, fast raised {fast_error!r}"
            )
            assert fast_message == reference_message
        else:
            assert fast_error is not None, (
                f"reference raised {reference_error!r}, fast accepted"
            )
            assert type(fast_error) is type(reference_error)


@given(message=messages(), mutation=st.data())
@settings(max_examples=100, deadline=None)
def test_fast_decoder_equivalent_under_bit_flips(message, mutation):
    """Mutation fuzz: both decoders agree on bit-flipped valid frames.

    Byte-level agreement on the *reject* side matters as much as the
    accept side: the fault-injection suite counts typed rejections, so
    a fast path that rejected more (or less, or differently) would
    change measured robustness numbers.
    """
    original = encode_message(message)
    data = bytearray(original)
    flips = mutation.draw(st.integers(min_value=1, max_value=8))
    for _ in range(flips):
        index = mutation.draw(
            st.integers(min_value=0, max_value=len(data) - 1)
        )
        bit = mutation.draw(st.integers(min_value=0, max_value=7))
        data[index] ^= 1 << bit
    _assert_decoders_agree(bytes(data), warm=(original,))


@given(message=messages(), cut=st.data())
@settings(max_examples=60, deadline=None)
def test_fast_decoder_equivalent_under_truncation(message, cut):
    """Every strict prefix is rejected by both decoders, same type."""
    data = encode_message(message)
    if len(data) < 2:
        return
    prefix = cut.draw(st.integers(min_value=0, max_value=len(data) - 1))
    _assert_decoders_agree(data[:prefix], warm=(data,))


@given(first=messages(), second=messages(), splice=st.data())
@settings(max_examples=60, deadline=None)
def test_fast_decoder_equivalent_under_splices(first, second, splice):
    """Head-of-one-frame + tail-of-another: both decoders agree."""
    head = encode_message(first)
    tail = encode_message(second)
    cut_head = splice.draw(st.integers(min_value=0, max_value=len(head)))
    cut_tail = splice.draw(st.integers(min_value=0, max_value=len(tail)))
    spliced = head[:cut_head] + tail[cut_tail:]
    _assert_decoders_agree(spliced, warm=(head, tail))


@given(garbage=st.binary(max_size=300))
@settings(max_examples=150, deadline=None)
def test_fast_decoder_equivalent_on_random_bytes(garbage):
    _assert_decoders_agree(garbage)


def _fork_proof(creator):
    """A cloning proof against ``_KEYPAIRS[creator]``, which forks its mint."""
    keypair = _KEYPAIRS[creator]
    base = mint(keypair, NetworkAddress(host=creator, port=creator), 50.0)
    return build_cloning_proof(
        base.transfer(keypair, _KEYPAIRS[(creator + 1) % 5].public),
        base.transfer(keypair, _KEYPAIRS[(creator + 2) % 5].public),
    )


def _mint_proof(creator):
    """A frequency proof against ``_KEYPAIRS[creator]``: mints 1 s apart."""
    keypair = _KEYPAIRS[creator]
    address = NetworkAddress(host=creator, port=creator)
    first = mint(keypair, address, 100.0)
    second = mint(keypair, address, 101.0)
    return build_frequency_proof(
        first.transfer(keypair, _KEYPAIRS[(creator + 1) % 5].public),
        second.transfer(keypair, _KEYPAIRS[(creator + 2) % 5].public),
        _PERIOD,
    )


def _proof_frames(record):
    """``record`` as a ProofFlood frame and as a one-proof GossipAccept."""
    blob = struct.pack(">I", len(record)) + record
    return (
        bytes([8]) + blob,
        bytes([2]) + struct.pack(">HH", 0, 1) + blob,
    )


def _assert_both_decoders_reject(record, valid_record):
    warmed = FastDecoder()
    for frame in _proof_frames(valid_record):
        warmed.decode(frame)
    for frame in _proof_frames(record):
        with pytest.raises(CodecError):
            decode_message(frame)
        with pytest.raises(CodecError):
            FastDecoder().decode(frame)
        with pytest.raises(CodecError):
            warmed.decode(frame)


@pytest.mark.parametrize("make_proof", [_fork_proof, _mint_proof])
def test_unknown_proof_kind_byte_rejected_by_both_decoders(make_proof):
    valid = encode_proof(make_proof(0))
    assert valid[0] == (0 if make_proof is _fork_proof else 1)
    _assert_both_decoders_reject(bytes([2]) + valid[1:], valid)


@pytest.mark.parametrize("length", [0, 1, 32])
def test_proof_record_shorter_than_prelude_rejected_by_both_decoders(length):
    valid = encode_proof(_fork_proof(0))
    _assert_both_decoders_reject(valid[:length], valid)


def test_proof_record_with_trailing_bytes_rejected_by_both_decoders():
    valid = encode_proof(_mint_proof(2))
    _assert_both_decoders_reject(valid + b"\x00", valid)


def test_interned_proof_decode_shares_atoms_but_not_shells():
    """Proof records follow the descriptor contract: atoms shared, shells not.

    Every opening and reply re-delivers the sender's blacklist, so the
    second decode below is answered from the proof intern map — and
    must still hand out its own proof and descriptor objects, with
    verification slots no other decode can touch.
    """
    proofs = (_fork_proof(0), _mint_proof(1))
    assert (type(proofs[0]), type(proofs[1])) == (CloningProof, FrequencyProof)
    frame = encode_message(GossipAccept(samples=(), proofs=proofs))
    decoder = FastDecoder()
    first = decoder.decode(frame).proofs
    second = decoder.decode(frame).proofs
    assert decoder.intern.stats()["proofs"] == 2
    assert first == second == proofs
    for a, b in zip(first, second):
        assert a is not b
        shells = (a.first, a.second, b.first, b.second)
        assert len({id(shell) for shell in shells}) == 4
        assert all(shell._verified_by is None for shell in shells)
        # Atoms are interned by content...
        assert a.culprit is b.culprit
        assert a.first.hops is b.first.hops
        assert a.second.hops is b.second.hops
        # ...and validating one proof marks its own shells only.
        assert a.validate(_REGISTRY, _PERIOD)
        assert a.first._verified_by is _REGISTRY
        for shell in (b.first, b.second):
            assert shell._verified_by is None
            assert shell._base_digest is None
            assert shell._chain_digest is None
            assert shell._attested_digest is None


def test_encoder_proof_section_follows_blacklist_versions():
    """The section memo re-encodes after Blacklist.add and after a tick."""
    blacklist = Blacklist()
    encoder = BatchEncoder(InternTable())
    blacklist.add(_fork_proof(0))
    before = GossipAccept(samples=(), proofs=blacklist.proofs_tuple())
    assert encoder.encode(before) == encode_message(before)
    blacklist.add(_mint_proof(1))
    for cycle in (None, 1):
        if cycle is not None:
            encoder.begin_cycle(cycle)
        reply = GossipAccept(samples=(), proofs=blacklist.proofs_tuple())
        frame = encoder.encode(reply)
        assert frame == encode_message(reply)
        assert decode_message(frame).proofs == blacklist.proofs_tuple()
        assert len(decode_message(frame).proofs) == 2
        # A different message carrying the same blacklist version
        # reuses the memoised section and still matches the reference.
        reject = GossipReject(reason="x", proofs=blacklist.proofs_tuple())
        assert encoder.encode(reject) == encode_message(reject)


def test_fast_decoder_oversize_before_parsing():
    """The frame ceiling fires first, as the oversize subclass."""
    frame = encode_message(GossipReject(reason="x" * 100, proofs=()))
    decoder = FastDecoder()
    assert decoder.decode(frame, max_frame_bytes=len(frame)) is not None
    with pytest.raises(FrameOversizeError):
        decoder.decode(frame, max_frame_bytes=len(frame) - 1)
    with pytest.raises(FrameOversizeError):
        decoder.decode(frame + b"\x00" * MAX_FRAME_BYTES)
    # And with the ceiling disabled, trailing garbage is a parse error.
    with pytest.raises(CodecError):
        decoder.decode(frame + b"\x00", max_frame_bytes=None)


def test_fast_decoder_accepts_bytearray_frames():
    """Fault injectors hand bytearray frames; both decoders take them."""
    message = BulkSwapMessage(descriptors=())
    frame = bytearray(encode_message(message))
    assert FastDecoder().decode(frame) == message


def test_interned_decode_shares_atoms_but_not_shells():
    """Two decodes share immutable atoms, never descriptor objects.

    The wire-mode contract (pinned for the reference decoder in
    tests/sim/test_transport.py) is that receivers never share
    descriptor instances or verification state.  The intern table must
    only ever share the *immutable* atoms below the shell: keys, hops,
    identities.
    """
    descriptor = mint(_KEYPAIRS[0], NetworkAddress(host=5, port=5), 2.0)
    descriptor = descriptor.transfer(_KEYPAIRS[0], _KEYPAIRS[1].public)
    frame = encode_message(TransferMessage(descriptor=descriptor, round_index=0))
    decoder = FastDecoder()
    first = decoder.decode(frame).descriptor
    second = decoder.decode(frame).descriptor
    assert first == second
    assert first is not second
    assert first is not descriptor
    # Atoms are interned by content...
    assert first.creator is second.creator
    assert first.identity is second.identity
    assert first.hops is second.hops
    # ...and the verification cache slots start clean on every shell.
    assert first._verified_by is None and second._verified_by is None
    assert first._chain_digest is None and second._chain_digest is None
    assert verify_descriptor(first, _REGISTRY)
    # Verifying one shell must not have marked the other.
    assert second._verified_by is None


def test_decoded_content_key_feeds_encoder_memo():
    """Decode fills _content_key; re-encoding the copy is a dict probe."""
    intern = InternTable()
    decoder = FastDecoder(intern)
    encoder = BatchEncoder(intern)
    descriptor = mint(_KEYPAIRS[2], NetworkAddress(host=6, port=6), 3.0)
    frame = encode_message(TransferMessage(descriptor=descriptor, round_index=1))
    decoded = decoder.decode(frame).descriptor
    assert decoded._content_key is not None
    # Re-sending the received descriptor reproduces the reference bytes
    # through the content-key memo the decoder filled.
    reply = TransferReply(descriptor=decoded)
    assert encoder.encode(reply) == encode_message(reply)
    assert encoder.descriptor_hits >= 1


def test_intern_table_persists_across_cycles_and_stays_bounded():
    """Content-addressed maps survive the cycle tick; clear() drops them."""
    intern = InternTable()
    decoder = FastDecoder(intern)
    descriptor = mint(_KEYPAIRS[3], NetworkAddress(host=7, port=7), 4.0)
    frame = encode_message(TransferMessage(descriptor=descriptor, round_index=2))
    decoder.decode(frame)
    assert intern.stats()["records"] == 1
    intern.begin_cycle(1)
    # A content-addressed entry cannot go stale, so the tick retains it:
    # cycle-N receives are re-sent in cycle N+1.
    assert intern.stats()["records"] == 1
    before_hits = intern.hits
    decoder.decode(frame)
    assert intern.hits > before_hits
    intern.clear()
    assert intern.stats()["records"] == 0
    assert 0.0 <= intern.hit_rate <= 1.0
