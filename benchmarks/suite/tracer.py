"""Outside-in layer tracer: spans around the calls into each layer.

The program under test has no timers of its own (ROADMAP item 1), so
the benchmark wraps each layer's public callables from here — class
methods by ``setattr`` on the class, module functions by rebinding
every ``repro.*`` global bound to them — and keeps the open spans on an
in-memory stack.  A span's *self* time is its duration minus the time
its child spans covered, so the buckets partition the traced wall: the
per-layer numbers add up to the end-to-end one.  Totals are aggregated
per bucket as spans close (a 500-node cycle closes ~10^5 spans; keeping
each would cost more memory than the overlay) and read out once, when
the timed region ends.

A seam whose target no longer exists is skipped and named in
``Tracer.missing`` — a later PR may delete an alternative path, and the
frozen benchmark must keep running when it does.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple


def _one(args: tuple) -> int:
    return 1


def _batch_size(args: tuple) -> int:
    """Descriptors handed to ``SampleCache.observe_stream*(self, batch, ...)``."""
    batch = args[1]
    return len(batch) if hasattr(batch, "__len__") else 1


def _is_reject(result: Any) -> bool:
    return type(result).__name__ == "GossipReject"


#: (bucket, target, options).  A target is ``module:attr`` or
#: ``module:Class.attr``; ``@node:method`` means that method on every
#: ``repro`` class in the MRO of every node of the built overlay, and
#: ``@transport:method`` the same on the overlay's message transport
#: class (skipped for the object transport, whose codec layer is idle by
#: definition).  ``weigh`` maps the call's positional arguments to a
#: unit count and ``judge`` its result to one (a bool counts as 0 or 1).
SEAMS: Tuple[Tuple[str, str, Dict[str, Callable]], ...] = (
    ("bootstrap.keys", "repro.crypto.registry:KeyRegistry.new_keypair", {}),
    ("bootstrap.fill", "repro.bootstrap:bootstrap_secure", {}),
    ("bootstrap.build", "repro.experiments.scenarios:build_secure_overlay", {}),
    ("core.node.begin", "@node:begin_cycle", {}),
    ("core.node.initiate", "@node:run_cycle", {}),
    ("core.node.respond", "@node:receive", {"judge": _is_reject}),
    ("core.node.push", "@node:receive_push", {}),
    ("core.view", "repro.core.view:SecureView.oldest", {}),
    ("core.view", "repro.core.view:SecureView.insert", {}),
    ("core.view", "repro.core.view:SecureView.remove_entry", {}),
    ("core.view", "repro.core.view:SecureView.pop_one_random_swappable", {}),
    ("core.view", "repro.core.view:SecureView.descriptors", {}),
    ("core.view", "repro.core.view:SecureView.purge_creator", {}),
    ("core.descriptor.transfer", "repro.core.descriptor:SecureDescriptor.transfer", {}),
    ("core.descriptor.transfer", "repro.core.descriptor:SecureDescriptor.redeem", {}),
    ("core.descriptor.mint", "repro.core.descriptor:mint", {}),
    ("core.samples.observe", "repro.core.samples:SampleCache.observe",
     {"weigh": _one}),
    ("core.samples.observe", "repro.core.samples:SampleCache.observe_stream",
     {"weigh": _batch_size}),
    ("core.samples.observe", "repro.core.samples:SampleCache.observe_stream_planned",
     {"weigh": _batch_size}),
    ("core.samples.expire", "repro.core.samples:SampleCache.expire", {}),
    ("core.samples.forget", "repro.core.samples:SampleCache.forget_creator", {}),
    ("crypto.verify", "repro.core.descriptor:verify_descriptor", {}),
    ("crypto.verify", "repro.crypto.batch:VerificationPlan.verify", {}),
    ("crypto.verify", "repro.crypto.batch:VerificationPlan.verify_batch", {}),
    ("crypto.proof_validate", "repro.core.proofs:CloningProof.validate", {}),
    ("crypto.proof_validate", "repro.core.proofs:FrequencyProof.validate", {}),
    ("codec.encode", "@transport:encode", {}),
    ("codec.decode", "@transport:decode", {}),
    ("sim.channel.request", "repro.sim.channel:Channel.request", {}),
    ("sim.network.connect", "repro.sim.network:Network.connect", {}),
    ("sim.network.push", "repro.sim.network:Network.push", {}),
    ("sim.network.tick", "repro.sim.network:Network.health_tick", {}),
    ("sim.shard.start", "repro.sim.shardcoord:ShardedSession.start", {}),
    ("sim.shard.run", "repro.sim.shardcoord:ShardedSession.run_cycles", {}),
    ("sim.shard.finish", "repro.sim.shardcoord:ShardedSession.finish", {}),
    ("ops.capture", "repro.ops.checkpoint:capture_records", {"judge": len}),
    ("ops.encode_write", "repro.ops.checkpoint:save_checkpoint", {}),
    ("ops.read_decode", "repro.ops.checkpoint:read_checkpoint", {}),
    ("ops.apply", "repro.ops.checkpoint:restore_checkpoint", {}),
)

#: What every bucket counts: self and inclusive time, spans closed,
#: spans that raised, ``weigh`` units and ``judge`` verdicts.
COUNTERS = ("self_ns", "incl_ns", "calls", "errors", "units", "judged")

#: The counters of a bucket no span ever closed into.
NO_SPANS = dict.fromkeys(COUNTERS, 0)


def spans_between(
    before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Bucket counters accumulated between two :meth:`Tracer.totals`."""
    return {
        name: {
            counter: value - before.get(name, NO_SPANS)[counter]
            for counter, value in bucket.items()
        }
        for name, bucket in after.items()
    }


#: The bucket a root span closes into: whatever ``run(C)`` does itself,
#: outside every wrapped layer.
ROOT_BUCKET = "sim.scheduler"


class Tracer:
    """Span stack plus per-bucket totals; install, run, read, uninstall."""

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        # One list per counter, one slot per bucket: list stores are the
        # cheapest thing a span can do on its way out.
        self._columns: Dict[str, List[int]] = {name: [] for name in COUNTERS}
        # One child-time accumulator per open span, innermost last.
        self._stack: List[int] = []
        self._root_t0 = 0
        self._undo: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []
        self.gc_ns = 0
        self.gc_runs = 0
        self._gc_t0 = 0

    # -- buckets -------------------------------------------------------

    def _bucket(self, name: str) -> int:
        k = self._index.get(name)
        if k is None:
            k = self._index[name] = len(self._index)
            for column in self._columns.values():
                column.append(0)
        return k

    def totals(self) -> Dict[str, Dict[str, int]]:
        """A copy of every bucket's counters (see :func:`spans_between`)."""
        return {
            name: {counter: column[k] for counter, column in self._columns.items()}
            for name, k in self._index.items()
        }

    # -- the span ------------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        k: int,
        weigh: Optional[Callable[[tuple], int]] = None,
        judge: Optional[Callable[[Any], bool]] = None,
    ) -> Callable:
        stack = self._stack
        self_ns, incl_ns, calls, errors, units, judged = (
            self._columns[name] for name in COUNTERS
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[k] += 1
            if weigh is not None:
                units[k] += weigh(args)
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[k] += 1
                raise
            finally:
                duration = perf_counter_ns() - t0
                self_ns[k] += duration - stack.pop()
                incl_ns[k] += duration
                if stack:
                    stack[-1] += duration
            if judge is not None:
                judged[k] += judge(result)
            return result

        traced._is_span = True
        return traced

    def open_root(self) -> None:
        """Start a root span: one whole ``run(C)`` as the driver sees it."""
        self._stack.append(0)
        self._root_t0 = perf_counter_ns()

    def close_root(self) -> None:
        k = self._bucket(ROOT_BUCKET)
        duration = perf_counter_ns() - self._root_t0
        self._columns["self_ns"][k] += duration - self._stack.pop()
        self._columns["incl_ns"][k] += duration
        self._columns["calls"][k] += 1

    # -- installing ----------------------------------------------------

    def install(self, layers: Tuple[str, ...], engine: Any = None) -> None:
        """Wrap every seam whose bucket starts with one of ``layers``.

        Static seams resolve without an overlay; ``@node``/``@transport``
        seams need ``engine`` and are skipped (not missing) without one.
        Targets that already are spans are left alone, so calling this
        again after the build adds only the overlay-dependent seams.
        """
        for bucket, target, options in SEAMS:
            if not bucket.startswith(layers):
                continue
            if target.startswith("@"):
                if engine is not None:
                    self._install_dynamic(bucket, target, options, engine)
                continue
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if target not in self.missing:
                    self.missing.append(target)
                continue
            if parents:
                self._patch(owner, attr, bucket, options)
            else:
                self._patch_function(original, bucket, options)
        if self._on_gc not in gc.callbacks:
            gc.callbacks.append(self._on_gc)

    def _install_dynamic(
        self, bucket: str, target: str, options: Dict, engine: Any
    ) -> None:
        kind, _, attr = target.partition(":")
        if kind == "@node":
            classes = {type(node) for node in engine.nodes.values()}
        else:
            transport = type(engine.network.message_transport)
            classes = set() if transport.name == "object" else {transport}
        found = False
        for cls in classes:
            for base in cls.__mro__:
                if base.__module__.startswith("repro.") and attr in vars(base):
                    self._patch(base, attr, bucket, options)
                    found = True
        if classes and not found and target not in self.missing:
            self.missing.append(target)

    def _patch(self, owner: Any, attr: str, bucket: str, options: Dict) -> None:
        original = getattr(owner, attr)
        if getattr(original, "_is_span", False):
            return
        setattr(owner, attr, self._wrap(original, self._bucket(bucket), **options))
        self._undo.append((owner, attr, original))

    def _patch_function(self, original: Callable, bucket: str, options: Dict) -> None:
        """Rebind every ``repro.*`` module global bound to ``original``."""
        if getattr(original, "_is_span", False):
            return
        traced = self._wrap(original, self._bucket(bucket), **options)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
                    self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped callable (the output checks run untraced)."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- garbage collector ---------------------------------------------

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        # A collection interrupts whichever span is open, so its time is
        # already inside that span; it is reported beside the sum.
        if phase == "start":
            self._gc_t0 = perf_counter_ns()
        else:
            self.gc_ns += perf_counter_ns() - self._gc_t0
            self.gc_runs += 1
