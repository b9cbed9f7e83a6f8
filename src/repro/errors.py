"""Exception hierarchy shared across the repro packages.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without also swallowing programming
errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration object failed validation."""


class CryptoError(ReproError):
    """A cryptographic operation failed (unknown key, bad signature...)."""


class SignatureError(CryptoError):
    """A signature did not verify against the claimed signer and message."""


class UnknownKeyError(CryptoError):
    """An operation referenced a public key absent from the key registry."""


class ProtocolError(ReproError):
    """A peer violated the protocol in a way the local node rejects."""


class DescriptorError(ProtocolError):
    """A node descriptor is malformed or failed validation."""


class CodecError(DescriptorError):
    """Bytes received from the wire could not be decoded.

    Subclasses :class:`DescriptorError` because to the protocol a frame
    that does not parse and a descriptor that does not validate are the
    same failure: untrusted input that must be rejected.  Raised for
    truncated input, trailing garbage, unknown type bytes, and any
    malformed record inside a frame — decoders never leak
    ``struct.error`` or bare ``ValueError`` to callers.
    """


class FrameOversizeError(CodecError):
    """A frame exceeded the decoder's maximum accepted size.

    Raised *before* any parsing of declared counts or lengths, so a
    deliberately inflated frame costs the receiver one length check
    instead of a proportional scan — the cheap rejection the
    DoS-amplification budget counts on.  Distinguished from the base
    :class:`CodecError` so per-peer health accounting can weight
    oversize frames separately from ordinary garbage.
    """


class CheckpointError(CodecError):
    """A checkpoint file could not be read back or applied.

    Raised by :mod:`repro.ops.checkpoint` for bad magic bytes, an
    unknown format version, truncated, trailing or oversize frames,
    table chunks out of sequence, references to table entries the file
    does not hold, a footer record count that disagrees with the file,
    and for restore targets
    that do not match the checkpoint (different seed, node population,
    or node classes).  Subclasses :class:`CodecError` because a state
    file that does not parse and a wire frame that does not parse are
    rejected the same way: typed, before any partial state is applied.
    """


class RedemptionError(ProtocolError):
    """A descriptor redemption was rejected by the creator."""


class ExchangeAborted(ProtocolError):
    """A gossip exchange terminated before completing all rounds."""


class ChannelError(ReproError):
    """A simulated network channel failed."""


class ChannelDropped(ChannelError):
    """A simulated message was dropped in transit."""


class PeerUnreachable(ChannelError):
    """The remote peer did not accept the connection (dead or departed)."""


class PeerQuarantined(PeerUnreachable):
    """A dialogue was refused because one endpoint is quarantined.

    Raised by :meth:`~repro.sim.network.Network.connect` when the
    per-peer health ledger (:mod:`repro.sim.peerhealth`) has put either
    endpoint under quarantine: persistently-faulty links are dropped
    instead of parsed.  Subclasses :class:`PeerUnreachable` because to
    the initiating protocol code the outcome is identical — the
    dialogue never opens, the cycle moves on.
    """


class SimulationError(ReproError):
    """The simulation engine detected an inconsistent state."""


class ShardFailure(SimulationError):
    """A sharded run lost a worker or hit a protocol violation.

    Raised by the shard coordinator (:mod:`repro.sim.shardcoord`) when
    a worker process dies mid-run, reports an exception, or the
    control-plane handshake is violated.  The coordinator tears the
    whole fleet down before raising, so a failed sharded capture never
    leaves half-written results or orphan processes behind.
    """


class ShardTimeout(ShardFailure):
    """A shard went silent past the coordinator's deadline.

    Subclasses :class:`ShardFailure` because callers handle both the
    same way — the run is dead; the distinction only matters for
    diagnostics (a hung worker vs a crashed one).
    """


class ShardRemoteError(ShardFailure):
    """A cross-shard request raised on the remote shard.

    Carries the remote exception's type name and message; the original
    traceback lives in the worker that raised it.
    """
