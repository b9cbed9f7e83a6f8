"""Round-tripped state must *behave* identically, not just compare equal.

Equality of dataclasses is necessary but not sufficient for the resume
contract: a descriptor that decodes equal but verifies differently (or
a proof that validates differently) would silently corrupt blacklists
after a resume.  These properties pin behaviour: for every descriptor
and proof carried through a checkpoint file — descriptor table, key
table and the body records referencing them, read back by
:func:`~repro.ops.checkpoint.read_checkpoint` — verification against a
*fresh* registry (no memos, no prefix-trust cache) gives the same
verdict before and after the round trip, including for proofs doctored
to be invalid.
"""

import dataclasses
import random
import struct
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.codec import encode_message
from repro.core.descriptor import mint, verify_descriptor
from repro.core.proofs import build_cloning_proof, build_frequency_proof
from repro.core.wire import PROOF_TYPES
from repro.crypto.registry import KeyRegistry
from repro.ops.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    descriptor_table,
    read_checkpoint,
)
from repro.ops.records import (
    CheckpointFooter,
    CheckpointHeader,
    CoordinatorState,
    DescriptorTableChunk,
    KeyTableChunk,
    NodeState,
)
from repro.sim.network import NetworkAddress

PERIOD = 10.0

_REGISTRY = KeyRegistry()
_RNG = random.Random(41)
_KEYPAIRS = [_REGISTRY.new_keypair(_RNG) for _ in range(5)]


def _fresh_registry() -> KeyRegistry:
    """All five keys registered, no verification memos."""
    registry = KeyRegistry()
    for keypair in _KEYPAIRS:
        registry.register(keypair)
    return registry


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
    # Sometimes doctor the culprit: the proof then *fails* validation,
    # and the round trip must preserve that failure.
    if draw(st.booleans()):
        wrong = _KEYPAIRS[(owner_index + 3) % 5].public
        proof = dataclasses.replace(proof, culprit=wrong)
    return proof


@st.composite
def frequency_proofs(draw):
    creator = draw(st.integers(0, 4))
    address = NetworkAddress(host=1, port=9000)
    base_ts = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    # Within one period -> genuine violation; far apart -> invalid proof.
    gap = draw(st.sampled_from([PERIOD / 2, PERIOD * 10]))
    def _minted(timestamp: float):
        # A frequency proof needs at least one hop on each descriptor
        # (the creator's own transfer signature pins the mint).
        descriptor = mint(_KEYPAIRS[creator], address, timestamp)
        return descriptor.transfer(
            _KEYPAIRS[creator], _KEYPAIRS[(creator + 1) % 5].public
        )

    first = _minted(base_ts)
    second = _minted(base_ts + gap)
    proof = build_frequency_proof(first, second, PERIOD)
    if proof is None:
        # Far-apart mints: doctor a genuine proof so it carries the
        # non-conflicting second descriptor and fails validation.
        proof = dataclasses.replace(
            build_frequency_proof(
                _minted(base_ts), _minted(base_ts + 1.0), PERIOD
            ),
            second=second,
        )
    return proof


def _through_file(descriptors, keys=(), body=()):
    """Write ``descriptors`` and ``keys`` as a checkpoint's tables, with
    ``body`` records after them, and read the file back.

    Returns the decoded descriptor table, the key table and the body
    records as :func:`read_checkpoint` hands them to a restore.
    """
    records = [
        CheckpointHeader(
            format_version=FORMAT_VERSION,
            master_seed=0,
            cycle=0,
            now_s=0.0,
            period_s=PERIOD,
            node_count=0,
        ),
        KeyTableChunk(first=0, keys=tuple(keys)),
        *descriptor_table(descriptors),
        *body,
    ]
    records.append(CheckpointFooter(record_count=len(records) + 1))
    frames = [encode_message(record) for record in records]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.ckpt"
        path.write_bytes(
            MAGIC + b"".join(struct.pack(">I", len(f)) + f for f in frames)
        )
        read = read_checkpoint(path)
    table = [
        descriptor
        for record in read
        if isinstance(record, DescriptorTableChunk)
        for descriptor in record.descriptors
    ]
    key_table = [
        key
        for record in read
        if isinstance(record, KeyTableChunk)
        for key in record.keys
    ]
    decoded = [
        record
        for record in read
        if isinstance(record, (NodeState, CoordinatorState))
    ]
    return table, key_table, decoded


@given(descriptor=descriptors())
@settings(max_examples=100, deadline=None)
def test_descriptor_roundtrip_verifies_identically(descriptor):
    (restored,), _, _ = _through_file([descriptor])
    # The restored object is a distinct instance with no carried-over
    # verification memo — behaviour, not cache, must match.
    assert restored is not descriptor
    assert restored._verified_by is None
    assert restored == descriptor
    assert verify_descriptor(restored, _fresh_registry()) == verify_descriptor(
        descriptor, _fresh_registry()
    )


@given(proof=st.one_of(cloning_proofs(), frequency_proofs()))
@settings(max_examples=100, deadline=None)
def test_proof_roundtrip_validates_identically(proof):
    record = NodeState(
        kind="secure",
        node_id=_KEYPAIRS[0].public,
        current_cycle=0,
        proofs=((PROOF_TYPES.index(type(proof)), 0, 0, 1),),
    )
    table, keys, (decoded,) = _through_file(
        [proof.first, proof.second], [proof.culprit], [record]
    )
    ((kind, culprit, first, second),) = decoded.proofs
    restored = PROOF_TYPES[kind](
        first=table[first], second=table[second], culprit=keys[culprit]
    )
    assert restored == proof
    assert restored.validate(_fresh_registry(), PERIOD) == proof.validate(
        _fresh_registry(), PERIOD
    )


@given(pool=st.lists(descriptors(), max_size=3))
@settings(max_examples=60, deadline=None)
def test_coordinator_pool_roundtrip_verifies_identically(pool):
    refs = tuple(range(len(pool)))
    record = CoordinatorState(pool_maxlen=64, pool=refs, circulating=refs)
    table, _, (decoded,) = _through_file(pool, body=[record])
    assert decoded == record
    for original, ref in zip(pool, decoded.pool):
        restored = table[ref]
        assert verify_descriptor(
            restored, _fresh_registry()
        ) == verify_descriptor(original, _fresh_registry())
        # Circulation keys are rebuilt from descriptor identity on
        # restore; identity must survive the trip exactly.
        assert restored.identity == original.identity


@given(
    samples=st.lists(descriptors(), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_sample_cache_entries_roundtrip_verifies_identically(samples, data):
    record = NodeState(
        kind="secure",
        node_id=_KEYPAIRS[0].public,
        current_cycle=data.draw(st.integers(0, 1000)),
        sample_slots=((0, len(samples)),),
        sample_pairs=tuple(
            (descriptor.timestamp, ref)
            for ref, descriptor in enumerate(samples)
        ),
    )
    table, keys, (decoded,) = _through_file(
        samples, [samples[0].creator], [record]
    )
    assert keys == [samples[0].creator]
    for (timestamp, ref), original in zip(decoded.sample_pairs, samples):
        restored = table[ref]
        assert timestamp == original.timestamp
        assert verify_descriptor(
            restored, _fresh_registry()
        ) == verify_descriptor(original, _fresh_registry())
        assert restored.chain_digest() == original.chain_digest()
