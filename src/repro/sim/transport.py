"""Pluggable message transports: how payloads cross the simulated wire.

The paper's system model (§II-A) is a routed network moving *bytes*;
historically the simulator moved *references* — the sender's Python
objects were handed straight to the receiver.  That is fast, but it
silently memoises work (a receiver holding the exact object the sender
verified skips re-verification through per-object caches) and it can
never catch a serialisation bug.  This module makes the choice explicit:

* :class:`ObjectTransport` — the classic in-process semantics,
  bit-for-bit identical to the historical behaviour: payloads pass by
  reference, sizes come from the budgeted ``payload_sizer`` when one is
  configured.
* :class:`WireTransport` — wire fidelity: every dialogue leg and every
  one-way push is framed through :mod:`repro.core.codec`, so each
  receiver decodes **fresh objects from real bytes**, and all traffic
  accounting switches from budgeted to *measured* frame sizes.  The
  codec is lossless and consumes no randomness, so seeded runs produce
  byte-identical outputs under both transports (golden-guarded); what
  changes is the *work*: shared-object identity no longer short-circuits
  verification, so :meth:`~repro.sim.engine.Engine.add_node` binds
  wire-transport nodes to the engine's batched verification plan.

Both protocol configs carry ``transport=`` (``"object"``/``"wire"``/
``None``), ``None`` resolves through the ``REPRO_TRANSPORT``
environment variable, and the default stays ``object``.
:func:`make_transport` turns the resolved
mode (or an already-built :class:`Transport`) into an instance for
:class:`~repro.sim.network.Network`.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigError

#: Accepted values of the ``transport=`` knob.
TRANSPORT_MODES = ("object", "wire")

#: Environment override for the knob, mirroring ``REPRO_SCALE``:
#: a config whose ``transport`` is ``None`` resolves through this
#: variable, so the whole harness (and the golden equivalence guard)
#: can flip transports without touching any call site.
ENV_TRANSPORT = "REPRO_TRANSPORT"


def resolve_transport(mode: Optional[str]) -> str:
    """Resolve a ``transport=`` knob value to a concrete mode.

    An explicit value wins; otherwise the ``REPRO_TRANSPORT``
    environment variable; otherwise ``"object"`` — the default must
    stay the in-process semantics so existing runs are untouched
    unless a run opts in.
    """
    if mode is not None:
        return mode
    raw = os.environ.get(ENV_TRANSPORT, "").strip().lower()
    if not raw:
        return TRANSPORT_MODES[0]
    if raw not in TRANSPORT_MODES:
        valid = ", ".join(TRANSPORT_MODES)
        raise ConfigError(
            f"invalid {ENV_TRANSPORT}={raw!r}; expected one of: {valid}"
        )
    return raw


def validate_transport(mode: Optional[str]) -> None:
    """Config-time validation shared by both protocol configs."""
    if mode is not None and mode not in TRANSPORT_MODES:
        valid = ", ".join(TRANSPORT_MODES)
        raise ConfigError(
            f"transport must be one of: {valid} (or None); got {mode!r}"
        )


class Transport:
    """How a payload crosses one leg of the simulated network.

    The contract is three hooks, called by :class:`~repro.sim.channel.
    Channel` for both dialogue legs and by :class:`~repro.sim.network.
    Network` for one-way pushes:

    * :meth:`encode` turns the sender's payload into its on-wire form;
    * :meth:`decode` rebuilds the receiver-side payload from that form;
    * :meth:`wire_size` prices the on-wire form in bytes, or returns
      ``None`` to defer to the budgeted ``payload_sizer`` (object mode).

    Transports must be deterministic and consume no randomness: the
    simulator's seeded RNG streams are required to be transport-
    independent so the golden figure series stay bit-for-bit identical
    across modes.
    """

    name = "abstract"

    def encode(self, payload: Any) -> Any:
        raise NotImplementedError

    def decode(self, wire: Any) -> Any:
        raise NotImplementedError

    def wire_size(self, wire: Any) -> Optional[int]:
        raise NotImplementedError


class ObjectTransport(Transport):
    """Shared-object message passing (the historical semantics).

    Payloads cross the network by reference: the receiver gets the
    sender's object, object-identity fast paths stay hot, and traffic
    accounting uses the budgeted sizer (when configured) exactly as
    before the transport abstraction existed.
    """

    name = "object"

    def encode(self, payload: Any) -> Any:
        return payload

    def decode(self, wire: Any) -> Any:
        return wire

    def wire_size(self, wire: Any) -> Optional[int]:
        return None


class WireTransport(Transport):
    """Byte-accurate message passing through :mod:`repro.core.codec`.

    Every payload is framed to bytes at the sender and decoded into
    fresh objects at the receiver, so nothing downstream can depend on
    object identity — the state a real deployment is always in.  Sizes
    are the *measured* frame lengths.  Messages the framing layer does
    not know raise :class:`~repro.errors.CodecError` at the sender;
    protocols outside the SecureCyclon/legacy-Cyclon dialogue register
    their messages via :func:`repro.core.codec.register_message_codec`
    before opting into wire mode.
    """

    name = "wire"

    def __init__(self) -> None:
        # Deferred import: the codec lives in the protocol layer, which
        # transitively imports repro.sim; binding at construction time
        # keeps this module import-light and cycle-free.
        from repro.core.codec import decode_message, encode_message
        from repro.core.codec_batch import (
            BatchEncoder,
            FastDecoder,
            InternTable,
        )

        # Reference codec, kept addressable for tests and subclasses
        # that want the unmemoised per-frame path.
        self._encode = encode_message
        self._decode = decode_message
        # Fast path (repro.core.codec_batch): byte-identical frames,
        # cycle-scoped encode memos and a shared atom intern table.
        # Frames stay ``bytes`` — never memoryview — because the
        # FaultInjector's byte faults apply only to real byte frames.
        self.intern = InternTable()
        self.encoder = BatchEncoder(self.intern)
        self.decoder = FastDecoder(self.intern)

    def encode(self, payload: Any) -> bytes:
        return self.encoder.encode(payload)

    def decode(self, wire: bytes) -> Any:
        return self.decoder.decode(wire)

    def wire_size(self, wire: bytes) -> int:
        return len(wire)

    def begin_cycle(self, cycle: int) -> None:
        """Start a codec cycle: drop the previous cycle's memos.

        Called once per cycle from ``Network.health_tick`` (both
        schedulers tick it); idempotent per cycle number.  Harnesses
        that never tick cycles are still safe — every memo is
        size-capped and content- or identity-addressed, so clearing
        late affects memory, never bytes.
        """
        self.encoder.begin_cycle(cycle)
        self.intern.begin_cycle(cycle)


#: Sentinel returned by :meth:`FaultInjector.apply` when the frame is
#: silently dropped in transit (distinct from any legal payload,
#: including ``None`` replies).
DROPPED = object()

#: The fault decision kinds, in the order the injector draws them.
FAULT_KINDS = ("drop", "replay", "truncate", "corrupt", "inflate")


@dataclass(frozen=True)
class FaultPlan:
    """Per-frame fault probabilities for one sender (or a whole network).

    Mirrors :class:`~repro.sim.latency.LinkTiming`'s timing strategies,
    but for frame *content*: each probability is the chance that the
    corresponding mutation hits a frame on its way out.  At most one
    fault applies per frame, drawn in :data:`FAULT_KINDS` order.

    * ``drop``     — the frame vanishes in transit (works under any
      transport; the only fault that does).
    * ``replay``   — the frame is replaced by a previously-seen frame
      (stale but well-formed bytes: decodes fine, then fails protocol
      validation — e.g. an already-redeemed ``GossipOpen``).
    * ``truncate`` — the frame is cut at a random byte.
    * ``corrupt``  — up to ``max_bit_flips`` random bits are flipped.
    * ``inflate``  — ``inflate_bytes`` of padding are appended; sized
      past the decoder's frame ceiling this triggers the cheap
      :class:`~repro.errors.FrameOversizeError` rejection.

    The byte-level faults (everything but ``drop``) require the frame
    to actually *be* bytes — i.e. the wire transport; under object
    passing there is nothing to flip and they no-op.
    """

    drop: float = 0.0
    replay: float = 0.0
    truncate: float = 0.0
    corrupt: float = 0.0
    inflate: float = 0.0
    max_bit_flips: int = 8
    inflate_bytes: int = 1 << 16

    def __post_init__(self) -> None:
        for name in FAULT_KINDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(
                    f"{name} must be a probability, got {value}"
                )
        if self.max_bit_flips < 1:
            raise ConfigError("max_bit_flips must be positive")
        if self.inflate_bytes < 1:
            raise ConfigError("inflate_bytes must be positive")

    @property
    def inert(self) -> bool:
        """True when no fault can ever fire (zero probabilities)."""
        return not any(getattr(self, name) for name in FAULT_KINDS)


class FaultInjector:
    """Mutates frames in flight, per sender, from a dedicated RNG stream.

    The wire-plane analogue of the :class:`~repro.sim.latency.
    LinkTiming` timing-strategy hook: installed on the
    :class:`~repro.sim.network.Network` (``use_fault_injector``), it is
    consulted by :class:`~repro.sim.channel.Channel` for both dialogue
    legs and by ``Network.push`` for one-way pushes.  ``plan`` applies
    network-wide (link noise); :meth:`register_plan` overrides it for
    one sender (a wire attacker corrupting only frames *it* sends),
    optionally gated on an ``active`` callable (the coordinator's
    attack schedule).

    Determinism discipline: all fault decisions draw from ``rng`` — a
    dedicated stream (``"wire-faults"``) — and a frame whose resolved
    plan is absent or inert consumes **zero** randomness, so installing
    the injector with faults disabled leaves every protocol RNG stream,
    and therefore every golden series, bit-for-bit unchanged.
    """

    def __init__(
        self,
        rng,
        plan: Optional[FaultPlan] = None,
        history: int = 64,
    ) -> None:
        self.rng = rng
        self.plan = plan
        self._plans: Dict[
            Any, Tuple[FaultPlan, Optional[Callable[[], bool]]]
        ] = {}
        # Previously-seen frames, the replay fault's ammunition.  Only
        # byte frames are remembered; bounded so a long run cannot hoard
        # the whole traffic history.
        self._seen: "deque[bytes]" = deque(maxlen=history)
        self.injected = {kind: 0 for kind in FAULT_KINDS}

    def register_plan(
        self,
        sender_id: Any,
        plan: FaultPlan,
        active: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Bind ``plan`` to frames sent by ``sender_id``.

        ``active`` (e.g. a coordinator schedule check) gates the plan:
        while it returns ``False`` the sender's frames pass untouched —
        and consume no fault randomness, exactly like an unregistered
        sender.
        """
        self._plans[sender_id] = (plan, active)

    def plan_for(self, src: Any) -> Optional[FaultPlan]:
        """The plan governing frames sent by ``src`` right now."""
        entry = self._plans.get(src)
        if entry is not None:
            plan, active = entry
            if active is None or active():
                return plan
            return None
        return self.plan

    def apply(self, wire: Any, src: Any, dst: Any, leg: str) -> Any:
        """Pass one outgoing frame through the fault plane.

        Returns the (possibly mutated) frame, or :data:`DROPPED` when
        the frame is silently lost.  ``leg`` is one of the
        :mod:`~repro.sim.latency` leg labels (``request``/``reply``/
        ``push``) — recorded per fault for accounting.
        """
        del dst, leg
        is_bytes = isinstance(wire, (bytes, bytearray))
        if is_bytes:
            self._seen.append(bytes(wire))
        plan = self.plan_for(src)
        if plan is None or plan.inert:
            return wire
        rng = self.rng
        if plan.drop and rng.random() < plan.drop:
            self.injected["drop"] += 1
            return DROPPED
        if not is_bytes:
            # Object passing: there are no bytes to mutate.  The drop
            # fault above is the only one that survives the transport.
            return wire
        if plan.replay and rng.random() < plan.replay and len(self._seen) > 1:
            # Exclude the frame itself (appended above): replaying the
            # frame just sent would be a no-op, not a fault.
            stale = self.rng.choice(tuple(self._seen)[:-1])
            self.injected["replay"] += 1
            return stale
        if plan.truncate and rng.random() < plan.truncate and len(wire) > 1:
            self.injected["truncate"] += 1
            return bytes(wire)[: rng.randrange(1, len(wire))]
        if plan.corrupt and rng.random() < plan.corrupt:
            self.injected["corrupt"] += 1
            mutated = bytearray(wire)
            for _ in range(rng.randint(1, plan.max_bit_flips)):
                mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            return bytes(mutated)
        if plan.inflate and rng.random() < plan.inflate:
            self.injected["inflate"] += 1
            # Zero padding, not random bytes: the decoder rejects on
            # *size*, so the content is irrelevant and the simulator
            # need not pay to generate garbage.
            return bytes(wire) + b"\x00" * plan.inflate_bytes
        return wire

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())


def make_transport(transport: Any = None) -> Transport:
    """Resolve a ``transport=`` knob into a transport instance.

    ``transport`` is a mode name (``"object"``/``"wire"``), ``None``
    (resolved through ``REPRO_TRANSPORT``, default object), or an
    already-built :class:`Transport` (returned as-is).
    """
    if isinstance(transport, Transport):
        return transport
    validate_transport(transport)
    mode = resolve_transport(transport)
    if mode == "wire":
        return WireTransport()
    return ObjectTransport()
