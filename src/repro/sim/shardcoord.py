"""Coordinator for the sharded multi-process engine.

The parent process keeps the fully-built overlay as a **mirror**: it
never runs protocol code itself, but it replicates the activation-order
RNG stream (to know who owns the first token of each cycle), applies
the per-node state snapshots workers ship back at sampling boundaries,
and runs the *unchanged* metric probes / figure renderers against its
own node objects — which is what makes an N-shard deterministic run
produce bit-for-bit the same fig2/3/5/6/7 series as the single-process
engine (see docs/SHARDING.md for the full determinism contract).

Three ways in:

* :class:`ShardedSession` — explicit lifecycle (``start`` /
  ``run_cycles`` / ``finish``), used by ``scale_sharded`` and the
  crash-robustness tests.  The fleet stays alive across ``run_cycles``
  calls, so warm-up-then-measure loops shard faithfully.
* :func:`run_overlay_sharded` / :func:`run_with_probes_sharded` —
  one-shot wrappers mirroring ``Overlay.run`` and
  ``repro.experiments.runner.run_with_probes``.
* :func:`sharded` — an ambient context manager: inside ``with
  sharded(shards=4):`` every ``Overlay.run`` and ``run_with_probes``
  call in the process is transparently routed through a sharded
  session, which is how the unmodified figure harnesses (and the
  equivalence tests) run distributed.

Failure policy: any worker death, remote exception, or silence past
``deadline_s`` tears the whole fleet down and raises a typed
:class:`~repro.errors.ShardFailure` (:class:`~repro.errors.ShardTimeout`
for silence) — no hangs, no partially-applied mirrors presented as
results.
"""

from __future__ import annotations

import selectors
import socket
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ShardFailure, ShardTimeout
from repro.sim.scheduler import CycleScheduler
from repro.sim.shard import (
    OP_BEGIN,
    OP_BEGIN_DONE,
    OP_CHECKPOINT,
    OP_CHECKPOINT_DONE,
    OP_CYCLE_DONE,
    OP_END_CYCLE,
    OP_END_DONE,
    OP_ERROR,
    OP_FINAL,
    OP_FINISH,
    OP_FREE,
    OP_FREE_DONE,
    OP_HELLO,
    OP_RESTORE,
    OP_RESTORE_DONE,
    OP_SHUTDOWN,
    OP_SNAPSHOT,
    OP_TOKEN,
    FrameChannel,
    ShardPlan,
    ShardWorker,
)

MODES = ("deterministic", "free")
BACKENDS = ("fork", "thread")

_OP_NAMES = {
    OP_HELLO: "HELLO",
    OP_BEGIN_DONE: "BEGIN_DONE",
    OP_CYCLE_DONE: "CYCLE_DONE",
    OP_END_DONE: "END_DONE",
    OP_SNAPSHOT: "SNAPSHOT",
    OP_FREE_DONE: "FREE_DONE",
    OP_FINAL: "FINAL",
    OP_CHECKPOINT_DONE: "CHECKPOINT_DONE",
    OP_RESTORE_DONE: "RESTORE_DONE",
}

#: Engines already consumed by a context-routed sharded run.  A second
#: ``overlay.run`` would re-fork workers from a mirror that only had
#: views/blacklists applied (not quotas, caches, or plan memos), which
#: silently breaks the determinism contract — refuse instead.
_CONSUMED: "weakref.WeakSet" = weakref.WeakSet()


# ----------------------------------------------------------------------
# ambient context
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardContext:
    """Parameters a ``with sharded(...)`` block applies to every run."""

    shards: int
    mode: str = "deterministic"
    deadline_s: float = 120.0
    backend: str = "fork"
    # Thread-backend contexts need a way to rebuild the overlay once
    # per shard (fork gets replicas for free via copy-on-write).
    replica_factory: Optional[Callable[[int], Any]] = None


_ACTIVE: Optional[ShardContext] = None


@contextmanager
def sharded(
    shards: int,
    mode: str = "deterministic",
    deadline_s: float = 120.0,
    backend: str = "fork",
    replica_factory: Optional[Callable[[int], Any]] = None,
):
    """Route every ``Overlay.run``/``run_with_probes`` in the block
    through a sharded session — the unmodified figure harnesses run
    distributed under it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = ShardContext(
        shards=shards,
        mode=mode,
        deadline_s=deadline_s,
        backend=backend,
        replica_factory=replica_factory,
    )
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def active_context() -> Optional[ShardContext]:
    return _ACTIVE


def _clear_context_for_worker() -> None:
    """Forked workers inherit the parent's ambient context; clear it so
    nothing a worker ever does can recursively spawn fleets."""
    global _ACTIVE
    _ACTIVE = None


# ----------------------------------------------------------------------
# worker process/thread entry
# ----------------------------------------------------------------------


def _worker_entry(
    engine: Any,
    index: int,
    plan: ShardPlan,
    control_sock: socket.socket,
    peer_socks: Dict[int, socket.socket],
    close_sockets: List[socket.socket],
) -> None:
    _clear_context_for_worker()
    for sock in close_sockets:
        try:
            sock.close()
        except OSError:
            pass
    control = FrameChannel(control_sock)
    peers = {j: FrameChannel(s) for j, s in peer_socks.items()}
    worker = ShardWorker(engine, index, plan, control, peers)
    try:
        worker.serve()
    finally:
        control.close()
        for channel in peers.values():
            channel.close()


# ----------------------------------------------------------------------
# the session
# ----------------------------------------------------------------------


class ShardedSession:
    """One fleet of shard workers driving one overlay.

    ``backend="fork"`` (default) forks worker processes *after* the
    overlay is built, so every worker inherits an identical replica
    copy-on-write — no pickling of engines, and foreign nodes' pages
    stay shared because workers never touch them.  ``backend="thread"``
    runs workers as in-process threads over the same socket protocol;
    it needs a ``replica_factory(shard_index) -> overlay`` that
    rebuilds the overlay (identically seeded builds are replicas by
    construction).  Threads see the coverage tracer and need no fork
    support — they are the unit-test backend; processes are the real
    thing.
    """

    def __init__(
        self,
        overlay: Any,
        shards: int,
        *,
        mode: str = "deterministic",
        deadline_s: float = 120.0,
        backend: str = "fork",
        replica_factory: Optional[Callable[[int], Any]] = None,
        plan: Optional[ShardPlan] = None,
    ) -> None:
        if mode not in MODES:
            raise ShardFailure(f"unknown sharded mode {mode!r}")
        if backend not in BACKENDS:
            raise ShardFailure(f"unknown sharded backend {backend!r}")
        if shards < 1:
            raise ShardFailure("a sharded session needs at least one shard")
        if backend == "thread" and replica_factory is None:
            raise ShardFailure(
                "the thread backend needs a replica_factory to rebuild "
                "the overlay once per shard"
            )
        engine = overlay.engine
        if not isinstance(engine.scheduler, CycleScheduler):
            raise ShardFailure(
                "sharded runs support the cycle runtime only (the event "
                "runtime's continuous time has no shard-stable order)"
            )
        if engine._churn._by_cycle or engine._churn._timed:
            raise ShardFailure(
                "sharded runs do not support churn schedules"
            )
        policy = engine.config.drop_policy
        if mode == "deterministic" and (
            policy.request_loss or policy.reply_loss or policy.burst_length
        ):
            raise ShardFailure(
                "deterministic sharding requires a zero-loss drop policy: "
                "per-shard network RNG streams advance independently, so "
                "loss draws would diverge from the single-process engine"
            )
        self.overlay = overlay
        self.mirror = engine
        self.shards = shards
        self.mode = mode
        self.deadline_s = deadline_s
        self.backend = backend
        self.replica_factory = replica_factory
        if plan is None:
            pinned = {
                node.node_id: 0 for node in overlay.malicious_nodes or ()
            }
            plan = ShardPlan(shards, pinned=pinned)
        self.plan = plan
        self.counters: Dict[str, int] = {}
        self._controls: List[FrameChannel] = []
        self._workers: List[Any] = []
        self._started = False
        self._finished = False
        self._selector: Optional[selectors.DefaultSelector] = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ShardedSession":
        if self._started:
            raise ShardFailure("sharded session already started")
        shards = self.shards
        control_pairs = [socket.socketpair() for _ in range(shards)]

        def data_pair() -> Tuple[socket.socket, socket.socket]:
            pair = socket.socketpair()
            # Gossip frames carry whole sample chains (tens of KB per
            # leg), so the ~208KB default buffer holds only a handful
            # of envelopes: a worker whose peer is mid-activation then
            # blocks in sendall until the peer's next pump, and on a
            # single core every such stall is a forced context switch.
            # Big buffers let bursts land asynchronously.
            for sock in pair:
                for opt in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                    try:
                        sock.setsockopt(socket.SOL_SOCKET, opt, 4 << 20)
                    except OSError:  # pragma: no cover - locked-down host
                        break
            return pair

        data_pairs: Dict[Tuple[int, int], Tuple[socket.socket, socket.socket]] = {
            (a, b): data_pair()
            for a in range(shards)
            for b in range(a + 1, shards)
        }

        def worker_sockets(i: int) -> Tuple[socket.socket, Dict[int, socket.socket]]:
            peers = {}
            for (a, b), (end_a, end_b) in data_pairs.items():
                if a == i:
                    peers[b] = end_a
                elif b == i:
                    peers[a] = end_b
            return control_pairs[i][1], peers

        if self.backend == "fork":
            import multiprocessing

            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError as exc:  # pragma: no cover - non-POSIX hosts
                raise ShardFailure(
                    "the fork backend needs a POSIX host; use "
                    'backend="thread" with a replica_factory'
                ) from exc
            all_sockets = [s for pair in control_pairs for s in pair]
            all_sockets += [s for pair in data_pairs.values() for s in pair]
            for i in range(shards):
                control, peers = worker_sockets(i)
                keep = {control.fileno()}
                keep.update(s.fileno() for s in peers.values())
                close = [s for s in all_sockets if s.fileno() not in keep]
                process = ctx.Process(
                    target=_worker_entry,
                    args=(self.mirror, i, self.plan, control, peers, close),
                    daemon=True,
                    name=f"shard-{i}",
                )
                process.start()
                self._workers.append(process)
            # The parent keeps only its control ends.
            for _, child_end in control_pairs:
                child_end.close()
            for end_a, end_b in data_pairs.values():
                end_a.close()
                end_b.close()
        else:
            import threading

            for i in range(shards):
                control, peers = worker_sockets(i)
                replica = self.replica_factory(i)
                thread = threading.Thread(
                    target=_worker_entry,
                    args=(replica.engine, i, self.plan, control, peers, []),
                    daemon=True,
                    name=f"shard-{i}",
                )
                thread.start()
                self._workers.append(thread)

        self._selector = selectors.DefaultSelector()
        for i, (parent_end, _) in enumerate(control_pairs):
            channel = FrameChannel(parent_end)
            self._controls.append(channel)
            self._selector.register(channel, selectors.EVENT_READ, (i, channel))
        self._inboxes: List[List[Tuple[int, Any]]] = [[] for _ in range(shards)]
        self._started = True
        self._collect_all(OP_HELLO)
        return self

    def close(self) -> None:
        """Tear the fleet down unconditionally (idempotent).

        A closed session refuses further driving — ``run_cycles`` and
        ``finish`` raise instead of touching dead links."""
        self._finished = True
        for worker in self._workers:
            terminate = getattr(worker, "terminate", None)
            if terminate is not None and worker.is_alive():
                terminate()
        # Close the control links before joining: a thread worker
        # blocked on its link only exits once it reads EOF there.
        for channel in self._controls:
            channel.close()
        for worker in self._workers:
            join = getattr(worker, "join", None)
            if join is not None:
                worker.join(timeout=5.0)
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        self._controls = []
        self._workers = []

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- driving -------------------------------------------------------

    def run_cycles(
        self,
        cycles: int,
        sample_cycles: Iterable[int] = (),
        on_sample: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Advance the whole fleet by ``cycles`` cycles.

        At each cycle in ``sample_cycles`` the workers ship their
        partition's node state, the mirror applies it, and
        ``on_sample(cycle)`` runs — the hook the probe harness uses to
        sample the unchanged metric functions against merged state.
        """
        if not self._started or self._finished:
            raise ShardFailure("sharded session is not running")
        samples: Set[int] = set(sample_cycles)
        mirror = self.mirror
        for _ in range(cycles):
            cycle = mirror.clock.cycle
            want = cycle in samples
            if self.mode == "deterministic":
                self._broadcast(OP_BEGIN, (cycle,))
                self._collect_all(OP_BEGIN_DONE)
                # Replicate the two per-cycle shuffles on the mirror's
                # own activation-order stream: the mirror never runs
                # nodes, but it must know the run permutation to seed
                # the cycle's first token at the right shard.
                order = mirror._order_buffer
                order[:] = mirror._alive_list
                mirror._order_rng.shuffle(order)
                mirror._order_rng.shuffle(order)
                if order:
                    first = self.plan.shard_of(order[0])
                    self._controls[first].send(OP_TOKEN, (cycle, 0))
                    self._collect_any(OP_CYCLE_DONE)
            else:
                self._broadcast(OP_FREE, (cycle,))
                self._collect_all(OP_FREE_DONE)
            self._broadcast(OP_END_CYCLE, (cycle, want))
            if want:
                merged: Dict[Any, Dict[str, Any]] = {}
                for _, states in self._collect_all(OP_SNAPSHOT):
                    merged.update(states)
                self._apply_node_states(merged)
                if on_sample is not None:
                    on_sample(cycle)
            else:
                self._collect_all(OP_END_DONE)
            mirror.clock.advance()

    def finish(self) -> Dict[str, int]:
        """Ship final state back, merge it into the mirror, shut down.

        Returns the summed per-shard network counters (dialogues,
        pushes, measured bytes)."""
        if not self._started or self._finished:
            raise ShardFailure("sharded session is not running")
        self._broadcast(OP_FINISH)
        finals = self._collect_all(OP_FINAL)
        merged: Dict[Any, Dict[str, Any]] = {}
        counters: Dict[str, int] = {}
        trace_events: List[Any] = []
        for (final,) in finals:
            merged.update(final["nodes"])
            trace_events.extend(final["trace"])
            for name, value in final["counters"].items():
                counters[name] = counters.get(name, 0) + value
        self._apply_node_states(merged)
        self.mirror.trace._events.extend(trace_events)
        self.counters = counters
        self._broadcast(OP_SHUTDOWN)
        self._finished = True
        _CONSUMED.add(self.mirror)
        self.close()
        return counters

    # -- checkpoint / restore ------------------------------------------

    def checkpoint_fleet(self, directory: Any) -> List[Any]:
        """Checkpoint every shard (and the mirror) into ``directory``.

        Must be called at a cycle boundary (i.e. between ``run_cycles``
        calls).  Writes ``shard-<i>.ckpt`` per worker plus
        ``mirror.ckpt`` for the parent's replica, and returns the
        written paths.  Restore with :meth:`restore_fleet` on a freshly
        built session of the same shape.
        """
        import pathlib

        from repro.ops.checkpoint import save_checkpoint

        if not self._started or self._finished:
            raise ShardFailure("sharded session is not running")
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths: List[Any] = []
        try:
            # Not _broadcast: every shard gets its own file path.
            for index, channel in enumerate(self._controls):
                path = directory / f"shard-{index}.ckpt"
                channel.send(OP_CHECKPOINT, (str(path),))
                paths.append(path)
        except (OSError, BrokenPipeError):
            self._fail("a shard closed its control link mid-checkpoint")
        self._collect_all(OP_CHECKPOINT_DONE)
        paths.append(save_checkpoint(self.mirror, directory / "mirror.ckpt"))
        return paths

    def restore_fleet(self, directory: Any) -> None:
        """Overlay a :meth:`checkpoint_fleet` snapshot onto this fleet.

        The session must be freshly started from an identically built
        overlay with the same shard count; each worker restores its own
        ``shard-<i>.ckpt`` and the mirror restores ``mirror.ckpt``, so
        clocks, RNG streams, and node state all resume in lockstep.  A
        shard-count mismatch in either direction raises
        :class:`ShardFailure` before anything is restored.
        """
        import pathlib

        from repro.ops.checkpoint import restore_checkpoint

        if not self._started or self._finished:
            raise ShardFailure("sharded session is not running")
        directory = pathlib.Path(directory)
        saved = len(list(directory.glob("shard-*.ckpt")))
        if saved != len(self._controls):
            self._fail(
                f"{directory} holds {saved} shard checkpoints but this "
                f"session runs {len(self._controls)} shards: the checkpoint "
                "was taken with a different shard count"
            )
        restore_checkpoint(self.mirror, directory / "mirror.ckpt")
        try:
            for index, channel in enumerate(self._controls):
                path = directory / f"shard-{index}.ckpt"
                if not path.exists():
                    self._fail(f"missing {path}")
                channel.send(OP_RESTORE, (str(path),))
        except (OSError, BrokenPipeError):
            self._fail("a shard closed its control link mid-restore")
        self._collect_all(OP_RESTORE_DONE)

    # -- internals -----------------------------------------------------

    def _apply_node_states(self, states: Dict[Any, Dict[str, Any]]) -> None:
        nodes = self.mirror.nodes
        for node_id, state in states.items():
            node = nodes[node_id]
            node.view = state["view"]
            blacklist = state.get("blacklist")
            if blacklist is not None:
                node.blacklist = blacklist
                # SecureCyclonNode aliases the proof map for the hot
                # membership test; keep the alias coherent.
                if hasattr(node, "_blacklist_map"):
                    node._blacklist_map = blacklist.by_culprit
            clone_events = state.get("clone_events")
            if clone_events is not None:
                node.clone_events = clone_events

    def _broadcast(self, op: int, body: Any = ()) -> None:
        try:
            for channel in self._controls:
                channel.send(op, body)
        except (OSError, BrokenPipeError):
            self._fail("a shard closed its control link mid-run")

    def _collect_all(self, op: int) -> List[Any]:
        """One ``op`` body from every worker, in shard order."""
        bodies: List[Optional[Any]] = [None] * self.shards
        missing = set(range(self.shards))
        while missing:
            index, body = self._next_control(op)
            if index in missing:
                missing.discard(index)
                bodies[index] = body
            else:
                self._fail(
                    f"shard {index} sent a duplicate "
                    f"{_OP_NAMES.get(op, op)}"
                )
        return bodies  # type: ignore[return-value]

    def _collect_any(self, op: int) -> Tuple[int, Any]:
        return self._next_control(op)

    def _next_control(self, expected_op: int) -> Tuple[int, Any]:
        """Next ``expected_op`` envelope from any worker.

        Anything else: ERROR aborts with the remote traceback, an
        unexpected opcode aborts as a protocol violation, silence past
        the deadline aborts as :class:`~repro.errors.ShardTimeout`, and
        a closed link or dead worker aborts as a plain failure."""
        for index, inbox in enumerate(self._inboxes):
            for i, (op, body) in enumerate(inbox):
                if op == expected_op:
                    del inbox[i]
                    return index, body
        deadline = time.monotonic() + self.deadline_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._fail(
                    f"no {_OP_NAMES.get(expected_op, expected_op)} within "
                    f"{self.deadline_s:.1f}s",
                    timeout=True,
                )
            assert self._selector is not None
            events = self._selector.select(timeout=min(remaining, 0.25))
            if not events:
                self._check_workers_alive()
                continue
            for key, _ in events:
                index, channel = key.data
                try:
                    alive = channel.feed()
                except OSError:
                    alive = False
                if not alive:
                    self._fail(f"shard {index} closed its control link")
                while True:
                    envelope = channel.pop()
                    if envelope is None:
                        break
                    op, body = envelope
                    if op == OP_ERROR:
                        type_name, message, tb = body
                        self._fail(
                            f"shard {index} raised {type_name}: {message}\n"
                            f"{tb}"
                        )
                    if op == expected_op:
                        return index, body
                    self._inboxes[index].append((op, body))

    def _check_workers_alive(self) -> None:
        for index, worker in enumerate(self._workers):
            if not worker.is_alive():
                self._fail(f"shard {index} died (worker exited mid-run)")

    def _fail(self, message: str, timeout: bool = False) -> None:
        self.close()
        error = ShardTimeout if timeout else ShardFailure
        raise error(f"sharded run failed: {message}")


# ----------------------------------------------------------------------
# one-shot wrappers (the Overlay.run / run_with_probes seams)
# ----------------------------------------------------------------------


def _session_from_context(
    overlay: Any, context: Optional[ShardContext]
) -> ShardedSession:
    if context is None:
        context = active_context()
    if context is None:
        raise ShardFailure("no sharded context is active")
    if overlay.engine in _CONSUMED:
        raise ShardFailure(
            "this overlay already completed a sharded run: the mirror "
            "only carries views/blacklists back, so a second run would "
            "not be deterministic — build a fresh overlay instead"
        )
    return ShardedSession(
        overlay,
        context.shards,
        mode=context.mode,
        deadline_s=context.deadline_s,
        backend=context.backend,
        replica_factory=context.replica_factory,
    )


def run_overlay_sharded(
    overlay: Any, cycles: int, context: Optional[ShardContext] = None
) -> None:
    """Sharded twin of ``Overlay.run(cycles)``: run, merge final state."""
    with _session_from_context(overlay, context) as session:
        session.start()
        session.run_cycles(cycles)
        session.finish()


def run_with_probes_sharded(
    overlay: Any,
    cycles: int,
    probes: Dict[str, Callable[[Any], float]],
    every: int = 1,
    runtime: Optional[Any] = None,
    context: Optional[ShardContext] = None,
) -> Dict[str, Any]:
    """Sharded twin of :func:`repro.experiments.runner.run_with_probes`.

    Samples the same probe functions against the mirror at the same
    cycle boundaries the in-process ``SeriesObserver`` would have used,
    so the returned :class:`~repro.metrics.series.Series` are directly
    (bit-for-bit, in deterministic mode) comparable."""
    from repro.metrics.series import Series
    from repro.sim.observers import SeriesObserver

    if runtime is not None:
        raise ShardFailure(
            "sharded runs support the cycle runtime only"
        )
    engine = overlay.engine
    observer = SeriesObserver(probes, every=every)
    start_cycle = engine.clock.cycle
    sample_cycles = {
        cycle
        for cycle in range(start_cycle, start_cycle + cycles)
        if cycle % every == 0
    }
    with _session_from_context(overlay, context) as session:
        session.start()
        session.run_cycles(
            cycles,
            sample_cycles=sample_cycles,
            on_sample=lambda cycle: observer.on_cycle_end(engine, cycle),
        )
        session.finish()
    result: Dict[str, Series] = {}
    for name in probes:
        series = Series(label=name)
        for cycle, value in observer.series[name]:
            series.append(float(cycle), value)
        result[name] = series
    return result
