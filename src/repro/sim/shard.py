"""Shard-side machinery for the multi-process engine.

One sharded run splits an overlay's nodes across N worker processes
(:class:`ShardPlan`, consistent node-id hashing).  Each worker owns a
full replica of the built engine — under the fork backend it inherits
the parent's memory copy-on-write, under the thread backend it gets an
identically-seeded rebuild — but *runs* only its own partition.  The
network directory entries of every foreign node are replaced with
:class:`RemoteNode` proxies, so intra-shard messages stay on the
engine's in-process transport while cross-shard dialogue legs and
pushes travel as length-prefixed :meth:`BatchEncoder.encode_frames`
buffers over ``socket.socketpair`` links, decoded by a
:class:`FastDecoder` on the receiving shard.

Two execution modes, driven by the coordinator
(:mod:`repro.sim.shardcoord`):

* **deterministic** — every worker independently replicates the
  ``activation-order`` stream (identical shuffles over the identical
  full node list, zero coordination), and activations execute
  one-at-a-time globally via a token walked along the shuffled
  permutation.  Together with the single-writer rule for adversary
  state (all malicious nodes pinned to shard 0) this makes an N-shard
  run bit-for-bit identical to the single-process engine — the
  contract docs/SHARDING.md spells out and
  ``tests/sim/test_shard_equivalence.py`` enforces against the
  committed fig2/3/5/6/7 goldens.

* **free-running** — each worker begins and runs its own partition
  without intra-cycle coordination (cycles stay aligned so descriptor
  timestamps never jump ahead of a slower shard's clock by more than
  one period, which would read as §IV-B frequency forgery), serving
  cross-shard traffic between activations.  Throughput-oriented; no
  bit-exactness promise.

Every blocking wait pumps the inbox: while a worker waits for a reply,
token, or acknowledgement it keeps serving inbound requests and
pushes.  The active call graph of a deterministic cycle is a chain, so
re-entrant serving is what resolves A⇄B waits — there is no message a
blocked worker can wait on whose producer is not itself able to make
progress (see docs/SHARDING.md, "Why the pump loop cannot deadlock").
"""

from __future__ import annotations

import hashlib
import pickle
import selectors
import struct
from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ShardFailure, ShardRemoteError

# ----------------------------------------------------------------------
# envelope opcodes (one byte on the wire)
# ----------------------------------------------------------------------

# control plane (coordinator <-> worker)
OP_HELLO = 1        # worker -> parent: replica ready
OP_BEGIN = 2        # parent -> worker: (cycle,) begin-phase of one cycle
OP_BEGIN_DONE = 3   # worker -> parent: (cycle,)
OP_CYCLE_DONE = 4   # last-owner worker -> parent: (cycle,)
OP_END_CYCLE = 5    # parent -> worker: (cycle, want_snapshot)
OP_END_DONE = 6     # worker -> parent: (cycle,)
OP_SNAPSHOT = 7     # worker -> parent: (cycle, {node_id: state})
OP_FREE = 8         # parent -> worker: (cycle,) free-running cycle
OP_FREE_DONE = 9    # worker -> parent: (cycle,)
OP_FINISH = 10      # parent -> worker: ()
OP_FINAL = 11       # worker -> parent: (final_state,)
OP_SHUTDOWN = 12    # parent -> worker: ()
OP_ERROR = 13       # worker -> parent: (type_name, message, traceback)
OP_CHECKPOINT = 14  # parent -> worker: (path,) save engine state to path
OP_CHECKPOINT_DONE = 15  # worker -> parent: (shard_index,)
OP_RESTORE = 16     # parent -> worker: (path,) overlay saved state
OP_RESTORE_DONE = 17     # worker -> parent: (shard_index,)

# data plane (worker <-> worker; TOKEN may also come from the parent)
OP_TOKEN = 20       # (cycle, position)
OP_REQ = 21         # (src_shard, seq, sender_id, target_id, frames)
OP_REP = 22         # (seq, kind, payload)  kind in {"frames", "none", "raise"}
OP_PUSH = 23        # (src_shard, seq, sender_id, target_id, frames)
OP_PUSH_ACK = 24    # (seq,)

_HEADER = struct.Struct(">BI")

#: Commands a worker's top-level serve loop dispatches on.  Everything
#: else is either served inline (REQ/PUSH) or parked in the pending
#: queue until a wait asks for it (REP/PUSH_ACK raced by other traffic).
_SERVE_OPS = frozenset(
    (OP_BEGIN, OP_TOKEN, OP_END_CYCLE, OP_FREE, OP_FINISH, OP_SHUTDOWN,
     OP_CHECKPOINT, OP_RESTORE)
)

#: Test hook: a positive value makes every worker sleep this long at
#: each BEGIN/FREE command.  Monkeypatched (pre-fork, so children
#: inherit it) by the crash-robustness tests to exercise the
#: coordinator's silent-shard deadline without a real hang.
_TEST_STALL_S = 0.0


class FrameChannel:
    """One buffered envelope endpoint over a stream socket.

    Envelopes are ``u8 opcode + u32 length + body``; bodies are pickled
    tuples (node ids, cycle numbers, snapshot state) whose message
    payloads — the protocol bytes themselves — are embedded
    ``encode_frames`` buffers, so the codec owns the data plane and
    pickle only carries shard bookkeeping.
    """

    __slots__ = ("sock", "_buf")

    def __init__(self, sock: Any) -> None:
        self.sock = sock
        self._buf = bytearray()

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, op: int, body: Any = ()) -> None:
        payload = pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
        self.sock.sendall(_HEADER.pack(op, len(payload)) + payload)

    def feed(self) -> bool:
        """Read whatever the socket has; ``False`` on a closed peer."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            return False
        self._buf += chunk
        return True

    def pop(self) -> Optional[Tuple[int, Any]]:
        """Parse one complete envelope out of the buffer, if present."""
        buf = self._buf
        if len(buf) < _HEADER.size:
            return None
        op, length = _HEADER.unpack_from(buf)
        end = _HEADER.size + length
        if len(buf) < end:
            return None
        body = pickle.loads(bytes(buf[_HEADER.size:end]))
        del buf[:end]
        return op, body

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------


def _key_bytes(node_id: Any) -> bytes:
    """A stable byte key for any node id the simulator uses."""
    digest = getattr(node_id, "digest", None)
    if isinstance(digest, bytes):
        return digest
    if isinstance(node_id, bytes):
        return node_id
    if isinstance(node_id, str):
        return node_id.encode("utf-8")
    if isinstance(node_id, int):
        return node_id.to_bytes((node_id.bit_length() + 8) // 8, "big", signed=True)
    raise ShardFailure(
        f"cannot derive a stable shard key from node id {node_id!r}"
    )


def _ring_point(data: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


class ShardPlan:
    """Consistent node-id hashing over ``shards`` workers.

    Each shard owns ``vnodes`` points on a 64-bit hash ring; a node id
    maps to the shard owning the first ring point at or after the id's
    own hash.  Three properties the Hypothesis suite pins:

    * **total** — every id maps to exactly one shard in ``range(shards)``;
    * **stable** — an id's shard depends only on the id and the ring,
      never on what other ids exist (joins/leaves move nobody);
    * **monotone** — growing the ring from N to N+1 shards only moves
      ids *to* the new shard, never between old ones.

    ``pinned`` overrides the ring for specific ids.  The coordinator
    pins every malicious node to shard 0: the adversary's
    :class:`~repro.adversary.coordinator.MaliciousCoordinator` is
    shared mutable state, and the single-writer rule keeps its fork
    replicas from diverging (docs/SHARDING.md, "RNG-splitting rules").
    """

    def __init__(
        self,
        shards: int,
        vnodes: int = 128,
        pinned: Optional[Dict[Any, int]] = None,
    ) -> None:
        if shards < 1:
            raise ShardFailure("a shard plan needs at least one shard")
        if vnodes < 1:
            raise ShardFailure("a shard plan needs at least one vnode")
        self.shards = shards
        self.vnodes = vnodes
        self.pinned = dict(pinned or {})
        for node_id, shard in self.pinned.items():
            if not 0 <= shard < shards:
                raise ShardFailure(
                    f"pin of {node_id!r} to shard {shard} is out of range"
                )
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for vnode in range(vnodes):
                label = f"shard-{shard}/vnode-{vnode}".encode("ascii")
                points.append((_ring_point(label), shard))
        points.sort()
        self._ring_keys = [point for point, _ in points]
        self._ring_shards = [shard for _, shard in points]

    def with_pinned(self, pinned: Dict[Any, int]) -> "ShardPlan":
        merged = dict(self.pinned)
        merged.update(pinned)
        return ShardPlan(self.shards, vnodes=self.vnodes, pinned=merged)

    def shard_of(self, node_id: Any) -> int:
        override = self.pinned.get(node_id)
        if override is not None:
            return override
        if self.shards == 1:
            return 0
        point = _ring_point(_key_bytes(node_id))
        index = bisect_right(self._ring_keys, point)
        if index == len(self._ring_keys):
            index = 0
        return self._ring_shards[index]

    def partition(self, node_ids: Iterable[Any]) -> List[List[Any]]:
        """Split ``node_ids`` into one list per shard (order-preserving)."""
        parts: List[List[Any]] = [[] for _ in range(self.shards)]
        for node_id in node_ids:
            parts[self.shard_of(node_id)].append(node_id)
        return parts


# ----------------------------------------------------------------------
# remote peers
# ----------------------------------------------------------------------


class RemoteNode:
    """Directory stand-in for a node that lives on another shard.

    Installed into the worker's :class:`~repro.sim.network.Network`
    under the foreign node's id, so the unchanged ``connect``/``push``
    machinery delivers to it like to any local node.  ``receive``
    relays the dialogue leg to the owning shard and blocks (pumping)
    for the reply; ``receive_push`` relays and blocks for the
    acknowledgement, so by the time a push "lands" its remote effects
    — including any cascaded re-floods — have settled, preserving the
    deterministic mode's activation atomicity.
    """

    __slots__ = ("node_id", "_worker", "_shard")

    def __init__(self, node_id: Any, worker: "ShardWorker", shard: int) -> None:
        self.node_id = node_id
        self._worker = worker
        self._shard = shard

    def receive(self, sender_id: Any, payload: Any) -> Any:
        return self._worker.remote_request(
            self._shard, sender_id, self.node_id, payload
        )

    def receive_push(self, sender_id: Any, payload: Any) -> None:
        self._worker.remote_push(
            self._shard, sender_id, self.node_id, payload
        )


# ----------------------------------------------------------------------
# the worker
# ----------------------------------------------------------------------


class ShardWorker:
    """One shard: a full engine replica driving its own partition.

    Construction patches the replica's network directory (foreign ids
    become :class:`RemoteNode` proxies) but deliberately leaves
    ``engine.nodes`` untouched: the full node table is what lets every
    worker replicate the global activation shuffle, and under the fork
    backend not touching foreign node objects keeps their pages shared
    copy-on-write with the parent.
    """

    def __init__(
        self,
        engine: Any,
        index: int,
        plan: ShardPlan,
        control: FrameChannel,
        peers: Dict[int, FrameChannel],
    ) -> None:
        # Local import: codec_batch is the wire layer, and shard.py
        # must stay importable in environments that only use the plan.
        from repro.core.codec_batch import BatchEncoder, FastDecoder, InternTable

        self.engine = engine
        self.index = index
        self.plan = plan
        self.control = control
        self.peers = peers
        intern = InternTable()
        self._enc = BatchEncoder(intern)
        self._dec = FastDecoder(intern)
        self._seq = 0
        self._pending: List[Tuple[int, Any]] = []
        self._inbox: List[Tuple[int, Any]] = []
        self._selector = selectors.DefaultSelector()
        self._selector.register(control, selectors.EVENT_READ, control)
        for channel in peers.values():
            self._selector.register(channel, selectors.EVENT_READ, channel)
        # Ownership of the full id space, fixed at session start (no
        # churn in sharded runs — the coordinator refuses schedules).
        self._owner = {
            node_id: plan.shard_of(node_id)
            for node_id in engine._alive_list
        }
        self.local_ids = [
            node_id
            for node_id in engine._alive_list
            if self._owner[node_id] == index
        ]
        self._trace_base = len(engine.trace)
        self._run_order: List[Any] = []
        self._install_proxies()
        # Cyclon's extension codec registers its frame codes on import;
        # a shard serving a legacy-Cyclon overlay needs them even when
        # nothing else imported the module in this process yet.
        import repro.cyclon.codec  # noqa: F401

    def _install_proxies(self) -> None:
        network = self.engine.network
        for node_id, shard in self._owner.items():
            if shard != self.index:
                network.attach(node_id, RemoteNode(node_id, self, shard))

    # ------------------------------------------------------------------
    # serve loop
    # ------------------------------------------------------------------

    def serve(self) -> None:
        """Run the worker until the coordinator says SHUTDOWN."""
        try:
            self.control.send(OP_HELLO, (self.index,))
            with self.engine._tuned_gc():
                while True:
                    op, body = self._wait(lambda o, b: o in _SERVE_OPS)
                    if op == OP_BEGIN:
                        self._begin_cycle(body[0])
                    elif op == OP_TOKEN:
                        self._on_token(body[0], body[1])
                    elif op == OP_END_CYCLE:
                        self._end_cycle(body[0], body[1])
                    elif op == OP_FREE:
                        self._free_cycle(body[0])
                    elif op == OP_FINISH:
                        self.control.send(OP_FINAL, (self._final_state(),))
                    elif op == OP_CHECKPOINT:
                        self._checkpoint(body[0])
                    elif op == OP_RESTORE:
                        self._restore(body[0])
                    elif op == OP_SHUTDOWN:
                        return
        except BaseException as exc:  # noqa: BLE001 - relayed to parent
            import traceback

            try:
                self.control.send(
                    OP_ERROR,
                    (type(exc).__name__, str(exc), traceback.format_exc()),
                )
            except OSError:
                pass
            raise

    # -- deterministic mode --------------------------------------------

    def _begin_cycle(self, cycle: int) -> None:
        if _TEST_STALL_S > 0.0:
            import time

            time.sleep(_TEST_STALL_S)
        engine = self.engine
        if engine._churn.events_at(cycle):
            raise ShardFailure("sharded runs do not support churn schedules")
        # Replicate CycleScheduler._run_one_cycle's RNG consumption
        # exactly: two shuffles of the full alive list per cycle, from
        # the same buffer state, on every shard.
        order = engine._order_buffer
        order[:] = engine._alive_list
        order_rng = engine._order_rng
        order_rng.shuffle(order)
        owner = self._owner
        me = self.index
        nodes = engine.nodes
        for node_id in order:
            if owner[node_id] == me:
                nodes[node_id].begin_cycle(cycle)
        order_rng.shuffle(order)
        self._run_order = list(order)
        self.control.send(OP_BEGIN_DONE, (cycle,))

    def _on_token(self, cycle: int, position: int) -> None:
        """Run the consecutive stretch of activations this shard owns."""
        order = self._run_order
        owner = self._owner
        me = self.index
        nodes = self.engine.nodes
        network = self.engine.network
        total = len(order)
        q = position
        while q < total and owner[order[q]] == me:
            nodes[order[q]].run_cycle(network)
            q += 1
        if q >= total:
            self.control.send(OP_CYCLE_DONE, (cycle,))
        else:
            self.peers[owner[order[q]]].send(OP_TOKEN, (cycle, q))

    def _end_cycle(self, cycle: int, want_snapshot: bool) -> None:
        engine = self.engine
        for observer in engine._observers:
            observer.on_cycle_end(engine, cycle)
        engine.network.health_tick(cycle)
        engine.clock.advance()
        # New cycle scope for the shard codec's memos, mirroring what
        # Network.health_tick just did for the in-process transport.
        self._enc.begin_cycle(cycle + 1)
        self._dec.intern.begin_cycle(cycle + 1)
        if want_snapshot:
            self.control.send(OP_SNAPSHOT, (cycle, self._snapshot()))
        else:
            self.control.send(OP_END_DONE, (cycle,))

    # -- free-running mode ---------------------------------------------

    def _free_cycle(self, cycle: int) -> None:
        """Begin + run the local partition without global serialisation."""
        if _TEST_STALL_S > 0.0:
            import time

            time.sleep(_TEST_STALL_S)
        engine = self.engine
        if engine._churn.events_at(cycle):
            raise ShardFailure("sharded runs do not support churn schedules")
        order = list(self.local_ids)
        order_rng = engine._order_rng
        order_rng.shuffle(order)
        nodes = engine.nodes
        for node_id in order:
            nodes[node_id].begin_cycle(cycle)
        order_rng.shuffle(order)
        network = engine.network
        for node_id in order:
            nodes[node_id].run_cycle(network)
            # Keep cross-shard latency bounded: serve whatever arrived
            # while this activation computed before starting the next.
            self._pump()
        self.control.send(OP_FREE_DONE, (cycle,))

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------

    def remote_request(
        self, shard: int, sender_id: Any, target_id: Any, payload: Any
    ) -> Any:
        self._seq += 1
        seq = self._seq
        self.peers[shard].send(
            OP_REQ,
            (self.index, seq, sender_id, target_id,
             self._enc.encode_frames((payload,))),
        )
        _, body = self._wait(
            lambda o, b: o == OP_REP and b[0] == seq
        )
        _, kind, result = body
        if kind == "frames":
            return self._dec.decode_frames(result)[0]
        if kind == "none":
            return None
        type_name, message = result
        raise ShardRemoteError(
            f"{type_name} on shard {shard} while handling a dialogue "
            f"for {target_id!r}: {message}"
        )

    def remote_push(
        self, shard: int, sender_id: Any, target_id: Any, payload: Any
    ) -> None:
        self._seq += 1
        seq = self._seq
        self.peers[shard].send(
            OP_PUSH,
            (self.index, seq, sender_id, target_id,
             self._enc.encode_frames((payload,))),
        )
        self._wait(lambda o, b: o == OP_PUSH_ACK and b[0] == seq)

    def _serve_request(self, body: Tuple) -> None:
        src, seq, sender_id, target_id, frames = body
        payload = self._dec.decode_frames(frames)[0]
        channel = self.peers[src]
        try:
            reply = self.engine.nodes[target_id].receive(sender_id, payload)
        except Exception as exc:  # noqa: BLE001 - relayed to the caller
            channel.send(
                OP_REP, (seq, "raise", (type(exc).__name__, str(exc)))
            )
            return
        if reply is None:
            channel.send(OP_REP, (seq, "none", None))
        else:
            channel.send(
                OP_REP, (seq, "frames", self._enc.encode_frames((reply,)))
            )

    def _serve_push(self, body: Tuple) -> None:
        src, seq, sender_id, target_id, frames = body
        payload = self._dec.decode_frames(frames)[0]
        # Delivered directly (the sending shard's network already did
        # the loss draw and accounting); a handler that re-floods goes
        # through *this* shard's network and its own proxies.
        self.engine.nodes[target_id].receive_push(sender_id, payload)
        self.peers[src].send(OP_PUSH_ACK, (seq,))

    # ------------------------------------------------------------------
    # inbox
    # ------------------------------------------------------------------

    def _wait(self, want) -> Tuple[int, Any]:
        """Block until an envelope matching ``want(op, body)`` arrives.

        Everything else that arrives meanwhile is either served inline
        (requests, pushes — possibly recursively, which is what lets
        two mutually-waiting shards resolve each other) or parked in
        the pending queue for an outer wait to claim.
        """
        pending = self._pending
        while True:
            # Rescan before every blocking read, not just on entry: a
            # served request can nest an inner wait, and the inner wait
            # may read *this* wait's envelope and park it — blocking
            # again without looking at the parked queue would then wait
            # forever for bytes that already arrived.
            for i, (op, body) in enumerate(pending):
                if want(op, body):
                    del pending[i]
                    return op, body
            op, body = self._next_envelope(block=True)
            if want(op, body):
                return op, body
            if op == OP_REQ:
                self._serve_request(body)
            elif op == OP_PUSH:
                self._serve_push(body)
            elif op == OP_SHUTDOWN:
                raise ShardFailure(
                    f"shard {self.index}: coordinator shut the run down "
                    "mid-wait"
                )
            else:
                pending.append((op, body))

    def _pump(self) -> None:
        """Serve everything already readable, without blocking."""
        while True:
            envelope = self._next_envelope(block=False)
            if envelope is None:
                return
            op, body = envelope
            if op == OP_REQ:
                self._serve_request(body)
            elif op == OP_PUSH:
                self._serve_push(body)
            else:
                self._pending.append((op, body))

    def _next_envelope(self, block: bool) -> Optional[Tuple[int, Any]]:
        if self._inbox:
            return self._inbox.pop(0)
        while True:
            progressed = False
            for key, _ in self._selector.select(timeout=None if block else 0):
                channel: FrameChannel = key.data
                try:
                    alive = channel.feed()
                except OSError:
                    alive = False
                if not alive:
                    if channel is self.control:
                        raise ShardFailure(
                            f"shard {self.index}: control link closed "
                            "unexpectedly"
                        )
                    # A peer closing its end is how a clean shutdown
                    # looks from a sibling that has not yet read its own
                    # SHUTDOWN — stop watching that link.  A peer dying
                    # *mid-cycle* surfaces at the coordinator (control
                    # EOF / dead process), which tears everyone down.
                    self._selector.unregister(channel)
                    channel.close()
                    continue
                progressed = True
                while True:
                    envelope = channel.pop()
                    if envelope is None:
                        break
                    self._inbox.append(envelope)
            if self._inbox:
                return self._inbox.pop(0)
            if not block and not progressed:
                return None

    # ------------------------------------------------------------------
    # checkpoint / restore (coordinator-driven, at cycle boundaries)
    # ------------------------------------------------------------------

    def _checkpoint(self, path: str) -> None:
        """Save this replica's full engine state to ``path``.

        The replica holds every node (foreign ones just never ran
        here), so each shard's checkpoint is a complete engine
        checkpoint of which only the local partition's state is
        meaningful — restore pairs each file with the same shard.
        """
        from repro.ops.checkpoint import save_checkpoint

        save_checkpoint(self.engine, path)
        self.control.send(OP_CHECKPOINT_DONE, (self.index,))

    def _restore(self, path: str) -> None:
        """Overlay the state saved at ``path`` onto this replica."""
        from repro.ops.checkpoint import restore_checkpoint

        restore_checkpoint(self.engine, path)
        # Saved counters describe a whole engine; final_state() must
        # keep reporting only what happened *on this shard* afterwards.
        self._trace_base = len(self.engine.trace)
        self._enc.begin_cycle(self.engine.clock.cycle)
        self._dec.intern.begin_cycle(self.engine.clock.cycle)
        self.control.send(OP_RESTORE_DONE, (self.index,))

    # ------------------------------------------------------------------
    # state shipping
    # ------------------------------------------------------------------

    def _snapshot(self) -> Dict[Any, Dict[str, Any]]:
        """Per-local-node state the parent mirrors for metric probes."""
        out: Dict[Any, Dict[str, Any]] = {}
        nodes = self.engine.nodes
        for node_id in self.local_ids:
            node = nodes[node_id]
            state: Dict[str, Any] = {"view": node.view}
            blacklist = getattr(node, "blacklist", None)
            if blacklist is not None:
                state["blacklist"] = blacklist
            clone_events = getattr(node, "clone_events", None)
            if clone_events is not None:
                state["clone_events"] = clone_events
            out[node_id] = state
        return out

    def _final_state(self) -> Dict[str, Any]:
        engine = self.engine
        return {
            "nodes": self._snapshot(),
            "trace": list(engine.trace)[self._trace_base:],
            "counters": {
                "dialogues_opened": engine.network.dialogues_opened,
                "pushes_sent": engine.network.pushes_sent,
                "dialogue_bytes_forward": engine.network.dialogue_bytes_forward,
                "dialogue_bytes_backward": engine.network.dialogue_bytes_backward,
                "push_bytes": engine.network.push_bytes,
            },
        }
