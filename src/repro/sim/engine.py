"""The simulation engine: universe state plus a pluggable runtime.

One :class:`Engine` owns a complete simulated universe: the key registry,
the clock, the network directory, the event trace, and every protocol
node.  *How* that universe advances belongs to a
:class:`~repro.sim.scheduler.Scheduler`: the default
:class:`~repro.sim.scheduler.CycleScheduler` reproduces the PeerNet/
PeerSim cycle model used by the paper (per cycle, every alive node is
activated exactly once, in a freshly shuffled order, and initiates at
most one gossip exchange), while the
:class:`~repro.sim.scheduler.EventScheduler` drives the same universe
through a latency-aware event queue.  ``Engine.run`` still counts in
cycles either way, so every experiment and metric works unchanged under
both runtimes.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

from repro.crypto.registry import KeyRegistry
from repro.errors import SimulationError
from repro.sim.channel import DropPolicy
from repro.sim.churn import CRASH, JOIN, LEAVE, ChurnSchedule
from repro.sim.clock import SimClock
from repro.sim.network import Network
from repro.sim.observers import Observer
from repro.sim.rng import RngHub
from repro.sim.scheduler import CycleScheduler, Scheduler
from repro.sim.trace import EventTrace
from repro.sim.transport import WireTransport, make_transport

#: Run-loop interception point for the ops plane.  ``None`` in normal
#: operation; :func:`repro.ops.checkpoint.split_runs` installs a
#: callable ``hook(engine, cycles)`` here that drives the scheduler in
#: place of the plain ``scheduler.run`` call — e.g. run half the
#: cycles, save a checkpoint, run the rest.  Module-global (mirroring
#: ``repro.sim.shardcoord._ACTIVE``) so the experiments CLI can flip a
#: whole run's engines without threading a parameter through every
#: builder.
_RUN_HOOK: Optional[Callable[["Engine", int], None]] = None


@dataclass(frozen=True)
class SimConfig:
    """Engine-level configuration, protocol-agnostic.

    ``period_seconds`` is the gossip period (wall-clock per cycle);
    ``drop_policy`` injects message loss; ``trace`` toggles event
    tracing (cheap, but disable for very large benchmark runs).
    ``gc_generation0_threshold`` raises the cyclic collector's young-
    generation threshold for the duration of :meth:`Engine.run` — the
    simulation allocates tens of thousands of short-lived objects per
    cycle and the default threshold (700) makes the collector re-scan
    long-lived caches so often that it costs ~25% of the run time.
    The previous thresholds are restored when ``run`` returns.  Set to
    ``None`` to leave the collector untouched.

    ``peer_health`` opts into per-peer wire-health scoring and
    quarantine (:mod:`repro.sim.peerhealth`): pass a
    :class:`~repro.sim.peerhealth.HealthPolicy` (a fresh ledger is
    built from it), an already-built
    :class:`~repro.sim.peerhealth.PeerHealthLedger`, or ``True`` for
    the default policy.  ``None`` (the default) leaves the ledger out
    entirely — receive boundaries still convert undecodable frames to
    drops, but nothing is scored and nothing is ever quarantined.

    ``transport`` selects how payloads cross the simulated network: a
    mode name (``"object"``/``"wire"``), an already-built
    :class:`~repro.sim.transport.Transport`, or ``None`` — resolved
    through the ``REPRO_TRANSPORT`` environment variable with the
    classic shared-object semantics as the default.  The scenario
    builders forward the protocol configs' ``transport=`` knob here
    when this field was left unset.  In wire mode every dialogue leg
    and push is framed through the binary codec and traffic accounting
    switches from the budgeted ``payload_sizer`` to measured frame
    sizes (see :mod:`repro.sim.transport`).
    """

    seed: int = 42
    period_seconds: float = 10.0
    drop_policy: DropPolicy = field(default_factory=DropPolicy)
    trace: bool = True
    payload_sizer: Optional[Callable[[Any], int]] = None
    gc_generation0_threshold: Optional[int] = 400_000
    transport: Optional[Any] = None
    peer_health: Optional[Any] = None


class ProtocolNode:
    """Interface every simulated protocol node implements.

    The engine only ever talks to nodes through these five methods, so
    Cyclon, SecureCyclon, adversaries, and any future protocol plug in
    uniformly.
    """

    node_id: Any

    @property
    def is_malicious(self) -> bool:
        """Whether this node belongs to the adversary (for metrics)."""
        return False

    def begin_cycle(self, cycle: int) -> None:
        """Housekeeping at the start of a cycle (ageing, quotas...)."""

    def run_cycle(self, network: Network) -> None:
        """Initiate this cycle's gossip exchange, if any."""

    def receive(self, sender_id: Any, payload: Any) -> Any:
        """Handle one dialogue message and return the reply."""
        raise NotImplementedError

    def receive_push(self, sender_id: Any, payload: Any) -> None:
        """Handle a one-way message (e.g. a flooded violation proof)."""


class Engine:
    """A complete simulated universe and its run loop."""

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        churn: Optional[ChurnSchedule] = None,
        join_factory: Optional[Callable[["Engine"], ProtocolNode]] = None,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        self.config = config or SimConfig()
        self.scheduler = scheduler or CycleScheduler()
        self.rng_hub = RngHub(self.config.seed)
        self.registry = KeyRegistry()
        self.clock = SimClock(period_seconds=self.config.period_seconds)
        self.trace = EventTrace(enabled=self.config.trace)
        self.network = Network(
            rng=self.rng_hub.stream("network"),
            drop_policy=self.config.drop_policy,
            sizer=self.config.payload_sizer,
            transport=make_transport(self.config.transport),
            health=self._resolve_peer_health(self.config.peer_health),
        )
        self.nodes: Dict[Any, ProtocolNode] = {}
        self._observers: List[Observer] = []
        self._churn = churn or ChurnSchedule()
        self._join_factory = join_factory
        self._order_rng = self.rng_hub.stream("activation-order")
        # Membership caches: metrics probes ask for the malicious/legit
        # id sets every cycle, and the run loop needs the alive-id list
        # twice per cycle.  All three are maintained incrementally and
        # invalidated on add/remove instead of re-scanning the node
        # dict on every access.  ``_alive_list`` mirrors the insertion
        # order of ``self.nodes`` exactly, so the shuffled activation
        # order consumes the RNG identically to a fresh ``list(nodes)``.
        self._alive_list: List[Any] = []
        self._malicious_cache: Optional[Set[Any]] = None
        self._legit_cache: Optional[Set[Any]] = None
        self._order_buffer: List[Any] = []
        # Engine-wide batched-verification plan (repro.crypto.batch):
        # created lazily when add_node binds the first wire-transport
        # node, so each distinct ownership chain is verified once
        # network-wide.  Stays None on object-transport runs.
        self._verification_plan: Optional[Any] = None
        # Optional repro.ops.checkpoint.CheckpointPolicy: both
        # schedulers call ``after_cycle`` on it at every completed
        # cycle boundary (every-N-cycles and on-demand checkpoints).
        self.checkpoint_policy: Optional[Any] = None

    @staticmethod
    def _resolve_peer_health(spec: Optional[Any]) -> Optional[Any]:
        """Resolve ``SimConfig.peer_health`` into a ledger (or ``None``).

        Imported lazily for the same layering reason as the
        verification plan: accepting a policy here must not put
        :mod:`repro.sim.peerhealth` on the import path of runs that
        never use it.
        """
        if spec is None:
            return None
        from repro.sim.peerhealth import HealthPolicy, PeerHealthLedger

        if isinstance(spec, PeerHealthLedger):
            return spec
        if isinstance(spec, HealthPolicy):
            return PeerHealthLedger(spec)
        if spec is True:
            return PeerHealthLedger()
        raise SimulationError(
            "peer_health must be None, True, a HealthPolicy, or a "
            f"PeerHealthLedger; got {spec!r}"
        )

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def add_node(self, node: ProtocolNode) -> None:
        """Attach ``node`` to the universe and the network directory.

        This is where the chain verifier is chosen, once per node.  On
        the wire transport every receiver decodes fresh descriptor
        shells, so the per-object verified memo never hits; nodes that
        verify against this engine's registry get the engine-wide
        :class:`~repro.crypto.batch.VerificationPlan`, whose memo keys
        on the chain content the decoder already fingerprinted.  On the
        object transport receivers share the sender's objects and the
        per-object memo already removes repeat work, so nodes keep the
        sequential :func:`~repro.core.descriptor.verify_descriptor`.
        Both verifiers return identical verdicts: a later transport
        swap changes speed, never results.
        """
        if node.node_id in self.nodes:
            raise SimulationError(f"duplicate node id {node.node_id!r}")
        bind = getattr(node, "bind_verification_plan", None)
        if (
            bind is not None
            and isinstance(self.network.message_transport, WireTransport)
            and getattr(node, "registry", None) is self.registry
        ):
            bind(self.verification_plan())
        self.nodes[node.node_id] = node
        self.network.attach(node.node_id, node)
        self._alive_list.append(node.node_id)
        self._malicious_cache = None
        self._legit_cache = None

    def remove_node(self, node_id: Any) -> None:
        """Remove a node (leave/crash); its ID stays known for metrics."""
        if self.nodes.pop(node_id, None) is not None:
            self._alive_list.remove(node_id)
            self._malicious_cache = None
            self._legit_cache = None
        self.network.detach(node_id)

    def alive_ids(self) -> List[Any]:
        """Return the ids of all nodes currently attached to the engine."""
        return list(self._alive_list)

    @property
    def malicious_ids(self) -> Set[Any]:
        cached = self._malicious_cache
        if cached is None:
            cached = {
                nid for nid, node in self.nodes.items() if node.is_malicious
            }
            self._malicious_cache = cached
        return cached

    @property
    def legit_ids(self) -> Set[Any]:
        cached = self._legit_cache
        if cached is None:
            cached = {
                nid for nid, node in self.nodes.items() if not node.is_malicious
            }
            self._legit_cache = cached
        return cached

    def legit_nodes(self) -> List[ProtocolNode]:
        """Return all attached nodes that are not flagged malicious."""
        return [node for node in self.nodes.values() if not node.is_malicious]

    # ------------------------------------------------------------------
    # batched verification
    # ------------------------------------------------------------------

    def verification_plan(self):
        """The engine-wide shared verification plan, created on demand.

        Imported lazily: the plan lives in the crypto/descriptor layer,
        which transitively imports this module.
        """
        if self._verification_plan is None:
            from repro.crypto.batch import VerificationPlan

            self._verification_plan = VerificationPlan(self.registry)
        return self._verification_plan

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------

    def add_observer(self, observer: Observer) -> None:
        """Register an observer invoked after every completed cycle."""
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def use_scheduler(self, scheduler: Scheduler) -> None:
        """Swap the runtime that drives this universe.

        Switch *between* ``run`` calls, not during one.  Switching from
        the event runtime mid-simulation leaves its in-flight messages
        undelivered (they live in the scheduler's queue).
        """
        # Unbind any event-runtime hooks; an event scheduler re-installs
        # its own on the next run, and the cycle runtime needs the
        # synchronous (hook-free) network paths.  The *message*
        # transport is engine state, not a runtime hook, and survives
        # scheduler swaps.
        self.network.set_link_timing(None)
        self.network.use_event_transport(None)
        self.scheduler = scheduler

    def run(self, cycles: int) -> None:
        """Advance the simulation by ``cycles`` cycles.

        The unit stays *cycles* under every runtime: the cycle scheduler
        executes that many lock-step rounds, the event scheduler runs
        its queue until the wall clock reaches ``cycles`` gossip
        periods.
        """
        if cycles < 0:
            raise SimulationError("cycles must be non-negative")
        with self._tuned_gc():
            for observer in self._observers:
                observer.on_start(self)
            hook = _RUN_HOOK
            if hook is not None:
                hook(self, cycles)
            else:
                self.scheduler.run(self, cycles)
            for observer in self._observers:
                observer.on_finish(self)

    def checkpoint(self, path: Any) -> Any:
        """Serialise this universe's full state to a checkpoint file.

        See :mod:`repro.ops.checkpoint` for the format and the
        bit-exact resume contract.  Imported lazily: the ops plane
        sits above the engine and must not be on the import path of
        runs that never checkpoint.
        """
        from repro.ops.checkpoint import save_checkpoint

        return save_checkpoint(self, path)

    def resume(self, path: Any) -> Any:
        """Restore state saved by :meth:`checkpoint` into this engine.

        The engine must be a freshly built twin of the checkpointed
        one (same seed, same scenario builder); restore overlays the
        mutated state — views, caches, blacklists, RNG streams, the
        clock — on top, after which ``run`` continues exactly where
        the checkpointed run left off.
        """
        from repro.ops.checkpoint import restore_checkpoint

        return restore_checkpoint(self, path)

    @contextmanager
    def _tuned_gc(self) -> Iterator[None]:
        """Scope the raised gen-0 GC threshold to one ``run`` call.

        The ``finally`` matters: an observer or protocol exception must
        not leak a 400k gen-0 threshold into the caller's process.
        """
        threshold0 = self.config.gc_generation0_threshold
        previous_thresholds = None
        if threshold0 is not None and gc.isenabled():
            previous_thresholds = gc.get_threshold()
            gc.set_threshold(threshold0, *previous_thresholds[1:])
        try:
            yield
        finally:
            if previous_thresholds is not None:
                gc.set_threshold(*previous_thresholds)

    # ------------------------------------------------------------------
    # churn (invoked by schedulers)
    # ------------------------------------------------------------------

    def _apply_churn(self, cycle: int) -> None:
        for event in self._churn.events_at(cycle):
            self._apply_churn_event(event, cycle)

    def _apply_churn_event(self, event: Any, cycle: int) -> None:
        """Execute one churn event (cycle-based or timed)."""
        if event.action == JOIN:
            if self._join_factory is None:
                raise SimulationError(
                    "churn schedule contains joins but no join_factory "
                    "was provided"
                )
            node = self._join_factory(self)
            self.add_node(node)
            self.trace.emit(cycle, "churn.join", node=node.node_id)
        elif event.action in (LEAVE, CRASH):
            if event.node_id in self.nodes:
                self.remove_node(event.node_id)
                self.trace.emit(
                    cycle, f"churn.{event.action}", node=event.node_id
                )
