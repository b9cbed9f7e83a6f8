"""Pluggable simulation runtimes: who runs next, and when.

Historically ``Engine.run`` *was* the runtime: a hard-coded PeerNet/
PeerSim lock-step loop.  This module splits that decision out into a
:class:`Scheduler` so one simulated universe (the :class:`~repro.sim.engine.Engine`:
nodes, network, clock, trace, observers) can be driven by different
notions of time:

* :class:`CycleScheduler` — the paper's model (§II-A), extracted
  verbatim from the old ``Engine.run`` loop.  Each cycle every alive
  node is activated exactly once in a freshly shuffled order.  It is
  required to consume the engine's RNG streams identically to the
  pre-refactor loop, so seeded runs stay bit-for-bit reproducible
  across the refactor (guarded by ``tests/properties/
  test_scheduler_equivalence.py``).

* :class:`EventScheduler` — a latency-aware discrete-event runtime.
  A binary heap orders node activations (per-node timers with optional
  period jitter), cycle-boundary housekeeping (churn, observer
  sampling), delayed one-way pushes, timed churn, and wall-clock
  observer sampling.  Dialogue legs are priced by a
  :class:`~repro.sim.latency.LatencyModel` and can time out, which
  reproduces the §V-A partial-failure cases from *timing* instead of
  loss.

Both schedulers run the same protocol code through the same
``ProtocolNode`` interface; experiments choose the runtime with one
argument (see :func:`make_scheduler`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.sim.latency import ConstantLatency, LatencyModel, LinkTiming

# Heap tie-break priorities for events that share an instant: boundary
# housekeeping (churn in, samples out) runs before message deliveries,
# which land before the activations they might influence; wall-clock
# sampling observes the dust after it settles.  Deferred callbacks
# (retry backoff) share the activation slot — they are activations a
# node asked for itself.
_P_BOUNDARY = 0
_P_TIMED_CHURN = 1
_P_DELIVERY = 2
_P_ACTIVATE = 3
_P_SAMPLE = 4

_K_BOUNDARY = "boundary"
_K_CHURN = "churn"
_K_DELIVERY = "delivery"
_K_ACTIVATE = "activate"
_K_SAMPLE = "sample"
_K_CALLBACK = "callback"


@dataclass(frozen=True)
class PeriodJitter:
    """How a node's next activation timer deviates from the period.

    ``none``    — strict timers: exactly one activation per period.
    ``uniform`` — each interval is ``period * (1 ± spread)``; nodes
                  drift apart but keep their average rate.
    ``poisson`` — memoryless activation (exponential intervals with
                  mean ``period``): the fully desynchronised gossip
                  regime.
    """

    mode: str = "none"
    spread: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("none", "uniform", "poisson"):
            raise SimulationError(f"unknown jitter mode {self.mode!r}")
        if not 0.0 <= self.spread < 1.0:
            raise SimulationError("jitter spread must be in [0, 1)")

    def next_interval(self, rng, period: float) -> float:
        """Seconds until a node's next activation."""
        if self.mode == "uniform" and self.spread:
            return period * (1.0 + rng.uniform(-self.spread, self.spread))
        if self.mode == "poisson":
            return rng.expovariate(1.0 / period)
        return period


class Scheduler:
    """Interface: advance an engine's universe by ``cycles`` cycles."""

    def run(self, engine: Any, cycles: int) -> None:
        raise NotImplementedError


class CycleScheduler(Scheduler):
    """The paper's lock-step cycle model (extracted from ``Engine.run``).

    Per cycle: apply churn, activate every alive node's ``begin_cycle``
    in one shuffled order, then every ``run_cycle`` in a second shuffled
    order, then fire observers and advance the clock one cycle.  The
    shuffles draw from the engine's ``activation-order`` stream exactly
    as the pre-refactor loop did.
    """

    def run(self, engine: Any, cycles: int) -> None:
        for _ in range(cycles):
            self._run_one_cycle(engine)

    def _run_one_cycle(self, engine: Any) -> None:
        cycle = engine.clock.cycle
        engine._apply_churn(cycle)

        # One shuffled order buffer, reused across cycles: refilled from
        # the alive list (attachment order, matching ``list(engine.nodes)``)
        # so each shuffle starts from the same arrangement — and thus
        # produces the same permutation — as a freshly built list would.
        order = engine._order_buffer
        order[:] = engine._alive_list
        nodes_get = engine.nodes.get
        order_rng = engine._order_rng
        order_rng.shuffle(order)
        for node_id in order:
            node = nodes_get(node_id)
            if node is not None:
                node.begin_cycle(cycle)

        order_rng.shuffle(order)
        for node_id in order:
            node = nodes_get(node_id)
            if node is not None:
                node.run_cycle(engine.network)

        for observer in engine._observers:
            observer.on_cycle_end(engine, cycle)
        engine.network.health_tick(cycle)
        engine.clock.advance()
        policy = engine.checkpoint_policy
        if policy is not None:
            # After the advance: the saved state is exactly the start
            # of cycle ``cycle + 1``, which is where resume continues.
            policy.after_cycle(engine, cycle)


class EventScheduler(Scheduler):
    """Latency-aware discrete-event runtime.

    Every alive node owns an activation timer: it first fires at a
    uniformly staggered offset within the first period (so activations
    spread over the period instead of bunching at boundaries the way
    the cycle model does), then every ``period``-with-``jitter``
    seconds.  An activation runs ``begin_cycle`` + ``run_cycle`` for
    that node alone, with the global clock standing at the activation
    instant — so descriptor timestamps, frequency checks, and cache
    horizons all see continuous time.

    ``latency`` prices every dialogue leg and every one-way push;
    ``timeout_s`` bounds a dialogue round trip (``None`` = wait
    forever).  A round trip whose request leg beat the deadline but
    whose reply leg did not raises
    :class:`~repro.sim.channel.MessageTimeout` with ``delivered=True``
    — the same asymmetric §V-A case-2 outcome as a dropped reply, so
    protocol code treats spent descriptors identically on both paths.

    Cycle-boundary events keep the cycle-oriented machinery working
    unchanged: per-cycle churn applies at each boundary, and observers'
    ``on_cycle_end`` fires with the completed cycle number.  Passing
    ``sample_every_s`` additionally fires every observer's
    ``on_time_sample`` at that wall-clock cadence (left ``None``,
    wall-clock sampling is off and only the per-cycle hooks run).

    The heap persists across ``run`` calls, so consecutive
    ``engine.run(k)`` invocations continue the same timeline exactly
    like the cycle runtime does.
    """

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        jitter: Optional[PeriodJitter] = None,
        timeout_s: Optional[float] = None,
        sample_every_s: Optional[float] = None,
        stagger: bool = True,
    ) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise SimulationError("timeout must be positive (or None)")
        if sample_every_s is not None and sample_every_s <= 0:
            raise SimulationError("sampling interval must be positive")
        self.latency = latency
        self.jitter = jitter or PeriodJitter()
        self.timeout_s = timeout_s
        self.sample_every_s = sample_every_s
        self.stagger = stagger

        self._engine: Any = None
        self._heap: List[Tuple[float, int, int, str, Any]] = []
        self._seq = 0
        self._pending_activation: Set[Any] = set()
        self._next_sample_s: Optional[float] = None
        self._timed_churn_horizon_s = 0.0
        # Highest cycle whose per-cycle churn has been applied; guards
        # against re-applying it when run() is called repeatedly.
        self._churn_done_cycle = -1
        self._rng = None
        self._timing: Optional[LinkTiming] = None
        # Per-sender timing strategies registered before the scheduler
        # attached (wiring happens at build time, attachment at the
        # first run); handed to the LinkTiming when it exists.
        self._pending_strategies: dict = {}

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------

    def _push_event(
        self, time_s: float, priority: int, kind: str, data: Any
    ) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time_s, priority, self._seq, kind, data))

    def schedule_push(self, sender_id: Any, target_id: Any, payload: Any) -> None:
        """Event-transport hook: carry a one-way push with a sampled delay.

        ``payload`` is whatever on-wire form the network's message
        transport produced — the scheduler only times it; decoding
        happens in ``Network.deliver_push`` at the receiver.  Draws
        from the same latency stream as dialogue legs, so every latency
        sample in a run comes from one dedicated RNG.
        """
        delay = 0.0
        if self._timing is not None:
            delay = self._timing.sample(sender_id, target_id)
        self._push_event(
            self._engine.clock.now_s + delay,
            _P_DELIVERY,
            _K_DELIVERY,
            (sender_id, target_id, payload),
        )

    def call_later(self, delay_s: float, callback: Any) -> None:
        """Run ``callback()`` after ``delay_s`` of virtual time.

        The protocol-facing deferral primitive (exposed through
        :meth:`~repro.sim.network.Network.call_later`): retry backoff
        schedules its re-attempt here so "wait, then try again" costs
        virtual time instead of happening in the same instant.
        Callbacks scheduled past the current run's horizon stay queued
        and fire in the next ``run``, like any other future event.
        """
        if delay_s < 0:
            raise SimulationError("callback delay must be non-negative")
        self._push_event(
            self._engine.clock.now_s + delay_s,
            _P_ACTIVATE,
            _K_CALLBACK,
            callback,
        )

    def register_timing_strategy(self, sender_id: Any, strategy: Any) -> None:
        """Bind a per-sender :class:`~repro.adversary.timing.TimingStrategy`.

        Takes effect immediately if the scheduler is already attached to
        an engine, otherwise at attachment.  Strategies require link
        timing; the scheduler builds it whenever latency, a timeout, or
        at least one strategy is configured — including here, when a
        strategy arrives after an attach that needed no timing yet.
        """
        self._pending_strategies[sender_id] = strategy
        if self._timing is not None:
            self._timing.register_strategy(sender_id, strategy)
        elif self._engine is not None:
            self._timing = LinkTiming(
                model=self.latency or ConstantLatency(0.0),
                rng=self._engine.rng_hub.stream("event-latency"),
                timeout_s=self.timeout_s,
            )
            self._timing.register_strategy(sender_id, strategy)
            self._engine.network.set_link_timing(self._timing)

    def _schedule_activation(self, node_id: Any, time_s: float) -> None:
        self._pending_activation.add(node_id)
        self._push_event(time_s, _P_ACTIVATE, _K_ACTIVATE, node_id)

    def _seed_new_activations(self, now_s: float, period: float) -> None:
        """Give every alive node without a timer its first activation."""
        rng = self._rng
        for node_id in self._engine._alive_list:
            if node_id in self._pending_activation:
                continue
            offset = rng.uniform(0.0, period) if self.stagger else 0.0
            self._schedule_activation(node_id, now_s + offset)

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------

    def _attach(self, engine: Any) -> None:
        if self._engine is None:
            self._engine = engine
            self._rng = engine.rng_hub.stream("event-scheduler")
            # Link timing exists whenever anything needs per-leg pricing:
            # a latency model, a dialogue timeout (so stalled legs can
            # expire even on otherwise-instant links), or a registered
            # timing strategy.  A missing model means instant legs.
            if (
                self.latency is not None
                or self.timeout_s is not None
                or self._pending_strategies
            ):
                self._timing = LinkTiming(
                    model=self.latency or ConstantLatency(0.0),
                    rng=engine.rng_hub.stream("event-latency"),
                    timeout_s=self.timeout_s,
                )
                for sender_id, strategy in self._pending_strategies.items():
                    self._timing.register_strategy(sender_id, strategy)
            self._timed_churn_horizon_s = engine.clock.now_s
        elif self._engine is not engine:
            raise SimulationError(
                "an EventScheduler instance is bound to one engine; "
                "build a fresh scheduler per engine"
            )
        engine.network.set_link_timing(self._timing)
        engine.network.use_event_transport(self)

    def run(self, engine: Any, cycles: int) -> None:
        self._attach(engine)
        clock = engine.clock
        period = clock.period_seconds
        start_cycle = clock.cycle
        end_cycle = start_cycle + cycles
        end_time = end_cycle * period

        # Housekeeping owed to the run's first instant: this cycle's
        # churn (the cycle loop applies churn at cycle start), timers
        # for nodes that joined while the scheduler was idle, timed
        # churn up to the new horizon, and the sampling cadence.
        if start_cycle > self._churn_done_cycle:
            engine._apply_churn(start_cycle)
            self._churn_done_cycle = start_cycle
        self._seed_new_activations(clock.now_s, period)
        for event in engine._churn.timed_events_between(
            max(self._timed_churn_horizon_s, clock.now_s), end_time
        ):
            self._push_event(event.time_s, _P_TIMED_CHURN, _K_CHURN, event)
        self._timed_churn_horizon_s = max(self._timed_churn_horizon_s, end_time)
        for cycle in range(start_cycle, end_cycle):
            self._push_event(
                (cycle + 1) * period, _P_BOUNDARY, _K_BOUNDARY, cycle
            )
        if self.sample_every_s is not None and self._next_sample_s is None:
            self._next_sample_s = clock.now_s + self.sample_every_s
        if self._next_sample_s is not None:
            while self._next_sample_s <= end_time:
                self._push_event(
                    self._next_sample_s, _P_SAMPLE, _K_SAMPLE, None
                )
                self._next_sample_s += self.sample_every_s

        heap = self._heap
        while heap:
            time_s, priority, _seq, kind, data = heap[0]
            if time_s > end_time or (
                time_s == end_time and priority > _P_BOUNDARY
            ):
                # Future work (activations beyond the horizon, pushes
                # still in flight) stays queued for the next run.
                break
            heapq.heappop(heap)
            if kind == _K_BOUNDARY:
                # Pin the cycle explicitly: the boundary instant was
                # computed as (cycle + 1) * period, and deriving the
                # cycle back out of the float product by division is
                # exactly the rounding trap advance_to lets us skip.
                clock.advance_to(time_s, cycle=data + 1)
            elif time_s > clock.now_s:
                clock.advance_to(time_s)
            if kind == _K_ACTIVATE:
                self._dispatch_activation(data, time_s, period)
            elif kind == _K_CALLBACK:
                data()
            elif kind == _K_DELIVERY:
                sender_id, target_id, payload = data
                engine.network.deliver_push(sender_id, target_id, payload)
            elif kind == _K_BOUNDARY:
                self._dispatch_boundary(data, time_s, end_time, period)
            elif kind == _K_CHURN:
                engine._apply_churn_event(data, clock.cycle)
                self._seed_new_activations(clock.now_s, period)
            else:  # _K_SAMPLE
                for observer in engine._observers:
                    observer.on_time_sample(engine, time_s)

        clock.advance_to(end_time, cycle=end_cycle)

    def _dispatch_activation(
        self, node_id: Any, time_s: float, period: float
    ) -> None:
        engine = self._engine
        node = engine.nodes.get(node_id)
        if node is None:
            # Left or crashed; its timer dies with it.  A re-join gets a
            # fresh timer from _seed_new_activations.
            self._pending_activation.discard(node_id)
            return
        node.begin_cycle(engine.clock.cycle)
        node.run_cycle(engine.network)
        interval = self.jitter.next_interval(self._rng, period)
        self._push_event(
            time_s + interval, _P_ACTIVATE, _K_ACTIVATE, node_id
        )

    def _dispatch_boundary(
        self, cycle: int, time_s: float, end_time: float, period: float
    ) -> None:
        engine = self._engine
        for observer in engine._observers:
            observer.on_cycle_end(engine, cycle)
        engine.network.health_tick(cycle)
        policy = engine.checkpoint_policy
        if policy is not None:
            # Same boundary the cycle runtime checkpoints at (the clock
            # already reads ``cycle + 1`` here).  Event-runtime resume
            # restores state but not the in-flight event queue — see
            # docs/OPS.md for the (cycle-runtime-only) bit-exactness
            # contract.
            policy.after_cycle(engine, cycle)
        if time_s < end_time and cycle + 1 > self._churn_done_cycle:
            # The next cycle starts now: its churn applies here, exactly
            # where the cycle runtime would apply it.
            engine._apply_churn(cycle + 1)
            self._churn_done_cycle = cycle + 1
            self._seed_new_activations(time_s, period)


def make_scheduler(
    runtime: Any = "cycle",
    *,
    latency: Optional[LatencyModel] = None,
    jitter: Optional[PeriodJitter] = None,
    timeout_s: Optional[float] = None,
    sample_every_s: Optional[float] = None,
    stagger: bool = True,
) -> Scheduler:
    """Resolve a ``runtime=`` knob into a scheduler instance.

    ``runtime`` is ``"cycle"``, ``"event"``, or an already-built
    :class:`Scheduler` (returned as-is, keyword options rejected).
    """
    if isinstance(runtime, Scheduler):
        if any(
            option is not None
            for option in (latency, jitter, timeout_s, sample_every_s)
        ):
            raise SimulationError(
                "runtime options only apply when building by name; "
                "configure the Scheduler instance directly instead"
            )
        return runtime
    if runtime == "cycle":
        return CycleScheduler()
    if runtime == "event":
        return EventScheduler(
            latency=latency,
            jitter=jitter,
            timeout_s=timeout_s,
            sample_every_s=sample_every_s,
            stagger=stagger,
        )
    raise SimulationError(
        f"unknown runtime {runtime!r}; expected 'cycle', 'event', or a "
        "Scheduler instance"
    )
