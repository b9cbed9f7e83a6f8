"""Wire encoding and size accounting (paper §VI-A).

Two distinct services live here:

* **Size accounting** with the paper's exact budget — 368 bits of node
  info plus 512 bits per ownership transfer — used by the network-cost
  experiment to reproduce the §VI-A table.
* **Binary serialisation** of descriptors and proofs, used by
  round-trip tests and to report *measured* (as opposed to budgeted)
  message sizes.  The measured format carries one extra byte per hop
  (the transfer kind) and small framing headers, which is why measured
  sizes run a few percent above the paper's back-of-the-envelope
  numbers.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.core.descriptor import (
    OwnershipHop,
    SecureDescriptor,
    TransferKind,
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
from repro.core.proofs import CloningProof, FrequencyProof, ViolationProof
from repro.crypto.keys import PublicKey
from repro.crypto.signing import Signature
from repro.errors import DescriptorError
from repro.sim.network import NetworkAddress

NODE_INFO_BITS = 256 + 32 + 16 + 64
"""Public key + IPv4 + port + timestamp, as budgeted in §VI-A."""

HOP_BITS = 256 + 256
"""One ownership transfer: appended public key + signature (§VI-A)."""

_HEADER_BITS = 16  # small per-message framing allowance


def descriptor_bits(descriptor: SecureDescriptor) -> int:
    """Paper-budget size of one descriptor: ``368 + 512·t`` bits."""
    return NODE_INFO_BITS + HOP_BITS * len(descriptor.hops)


def proof_bits(proof: ViolationProof) -> int:
    """A proof is two conflicting descriptors."""
    return descriptor_bits(proof.first) + descriptor_bits(proof.second)


def payload_bits(payload: Any) -> int:
    """Paper-budget size of any SecureCyclon message."""
    if isinstance(payload, GossipOpen):
        return (
            _HEADER_BITS
            + descriptor_bits(payload.redemption)
            + sum(descriptor_bits(d) for d in payload.samples)
            + sum(proof_bits(p) for p in payload.proofs)
        )
    if isinstance(payload, GossipAccept):
        return (
            _HEADER_BITS
            + sum(descriptor_bits(d) for d in payload.samples)
            + sum(proof_bits(p) for p in payload.proofs)
        )
    if isinstance(payload, GossipReject):
        return _HEADER_BITS + sum(proof_bits(p) for p in payload.proofs)
    if isinstance(payload, TransferMessage):
        return _HEADER_BITS + descriptor_bits(payload.descriptor)
    if isinstance(payload, TransferReply):
        if payload.descriptor is None:
            return _HEADER_BITS
        return _HEADER_BITS + descriptor_bits(payload.descriptor)
    if isinstance(payload, BulkSwapMessage):
        return _HEADER_BITS + sum(
            descriptor_bits(d) for d in payload.descriptors
        )
    if isinstance(payload, BulkSwapReply):
        return _HEADER_BITS + sum(
            descriptor_bits(d) for d in payload.descriptors
        )
    if isinstance(payload, ProofFlood):
        return _HEADER_BITS + proof_bits(payload.proof)
    return _HEADER_BITS


def payload_bytes(payload: Any) -> int:
    """Paper-budget size of a message in whole bytes."""
    return (payload_bits(payload) + 7) // 8


# ----------------------------------------------------------------------
# binary serialisation
# ----------------------------------------------------------------------

_KIND_CODES = {
    TransferKind.TRANSFER: 0,
    TransferKind.REDEEM: 1,
    TransferKind.NONSWAP_REDEEM: 2,
}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}

# Hop kinds are a closed three-element set; pre-encoding the kind byte
# per kind turns the per-hop ``struct.pack`` into a dict probe.
_KIND_BYTES = {kind: bytes([code]) for kind, code in _KIND_CODES.items()}

# Precompiled Structs for the record layout (see repro.core.codec for
# the rationale): the birth fields, the hop count, and the single
# leading byte of a proof record.
_BIRTH = struct.Struct(">IHd")
_BIRTH_SIZE = _BIRTH.size
_HOP_COUNT = struct.Struct(">H")
_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")

#: Proof classes in kind-code order: a proof record's leading byte is
#: an index into this tuple.
PROOF_TYPES = (CloningProof, FrequencyProof)


def encode_descriptor(descriptor: SecureDescriptor) -> bytes:
    """Serialise a descriptor to a canonical byte string."""
    parts = [
        descriptor.creator.digest,
        _BIRTH.pack(descriptor.address.host, descriptor.address.port,
                    descriptor.timestamp),
        _HOP_COUNT.pack(len(descriptor.hops)),
    ]
    append = parts.append
    kind_bytes = _KIND_BYTES
    for hop in descriptor.hops:
        # The signature's signer is implied by chain position (it is
        # the previous owner), so it is not serialised — matching the
        # paper's 512-bits-per-hop budget.
        append(hop.owner.digest)
        append(kind_bytes[hop.kind])
        append(hop.signature.mac)
    return b"".join(parts)


def decode_descriptor(data: bytes) -> SecureDescriptor:
    """Inverse of :func:`encode_descriptor`."""
    try:
        offset = 0
        creator = PublicKey(data[offset : offset + 32])
        offset += 32
        host, port, timestamp = _BIRTH.unpack_from(data, offset)
        offset += _BIRTH_SIZE
        (hop_count,) = _HOP_COUNT.unpack_from(data, offset)
        offset += 2
        hops = []
        signer = creator
        for _ in range(hop_count):
            owner = PublicKey(data[offset : offset + 32])
            offset += 32
            (kind_code,) = _U8.unpack_from(data, offset)
            offset += 1
            mac = data[offset : offset + 32]
            offset += 32
            if len(mac) != 32:
                raise DescriptorError("truncated hop signature")
            hops.append(
                OwnershipHop(
                    owner=owner,
                    kind=_CODE_KINDS[kind_code],
                    signature=Signature(signer=signer, mac=mac),
                )
            )
            signer = owner
        if offset != len(data):
            raise DescriptorError("trailing bytes after descriptor")
        return SecureDescriptor(
            creator=creator,
            address=NetworkAddress(host=host, port=port),
            timestamp=timestamp,
            hops=tuple(hops),
        )
    except (struct.error, ValueError, KeyError, IndexError) as exc:
        raise DescriptorError(f"malformed descriptor bytes: {exc}") from exc


def encoded_descriptor_size(descriptor: SecureDescriptor) -> int:
    """Measured wire size in bytes of the serialised descriptor."""
    return len(encode_descriptor(descriptor))


def encode_proof(proof: ViolationProof) -> bytes:
    """Serialise a proof (kind byte + two length-prefixed descriptors)."""
    kind_code = PROOF_TYPES.index(type(proof))
    first = encode_descriptor(proof.first)
    second = encode_descriptor(proof.second)
    return b"".join(
        [
            _U8.pack(kind_code),
            proof.culprit.digest,
            _U32.pack(len(first)),
            first,
            _U32.pack(len(second)),
            second,
        ]
    )


def decode_proof(data: bytes) -> ViolationProof:
    """Inverse of :func:`encode_proof`."""
    try:
        (kind_code,) = _U8.unpack_from(data, 0)
        cls = PROOF_TYPES[kind_code]
        culprit = PublicKey(data[1:33])
        offset = 33
        (first_len,) = _U32.unpack_from(data, offset)
        offset += 4
        first = decode_descriptor(data[offset : offset + first_len])
        offset += first_len
        (second_len,) = _U32.unpack_from(data, offset)
        offset += 4
        second = decode_descriptor(data[offset : offset + second_len])
        offset += second_len
        if offset != len(data):
            raise DescriptorError("trailing bytes after proof")
    except (struct.error, ValueError, IndexError) as exc:
        raise DescriptorError(f"malformed proof bytes: {exc}") from exc
    return cls(first=first, second=second, culprit=culprit)
