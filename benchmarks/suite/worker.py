"""One workload in one fresh process: build, timed region, output checks.

``run.py`` spawns this file with a JSON job as its only argument and
reads one JSON result line from its standard output.  The untraced pass
touches only the frozen surface ROADMAP item 2 will not delete:
``build_secure_overlay``, ``SecureCyclonConfig(view_length, swap_length,
transport)``, ``SimConfig(seed, trace)``, ``Overlay.run``,
``Engine.add_observer/checkpoint/resume``, ``Observer``,
``ShardedSession(start/run_cycles/finish)``, ``repro.audit`` and
``repro.metrics.links`` — and never sets ``verification=`` or any other
mode knob.  The seed reaches the program only through
``build_secure_overlay(seed=)`` and ``SimConfig(seed=)``.
"""

from time import perf_counter

# Subprocess entry, before ``import repro``: ``setup_s`` starts here.
_ENTRY = perf_counter()

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

from repro.audit import audit_engine, check_view_shape  # noqa: E402
from repro.core.config import SecureCyclonConfig  # noqa: E402
from repro.experiments import scenarios  # noqa: E402
from repro.metrics import links  # noqa: E402
from repro.sim.engine import SimConfig  # noqa: E402
from repro.sim.observers import Observer  # noqa: E402
from repro.sim.shardcoord import ShardedSession  # noqa: E402

from tracer import NO_SPANS, Tracer, spans_between  # noqa: E402
from workloads import SWAP_LENGTH, VIEW_LENGTH  # noqa: E402

_IMPORT_S = perf_counter() - _ENTRY


class CycleStamps(Observer):
    """Wall stamps at every cycle end of one ``run(C)`` call.

    One call, not a ``run(1)`` loop: every exit of ``Engine.run``
    restores the default GC thresholds, so a loop forces about one
    collection per cycle that a user's single ``run(C)`` never pays.
    """

    def __init__(self) -> None:
        self.stamps: List[float] = []

    def on_start(self, engine: Any) -> None:
        self.stamps.append(perf_counter())

    def on_cycle_end(self, engine: Any, cycle: int) -> None:
        self.stamps.append(perf_counter())

    def cycle_ms(self) -> List[float]:
        return [
            (after - before) * 1e3
            for before, after in zip(self.stamps, self.stamps[1:])
        ]


def build(spec: Dict[str, Any], seed: int) -> Any:
    config = SecureCyclonConfig(
        view_length=VIEW_LENGTH,
        swap_length=SWAP_LENGTH,
        transport=spec["transport"],
    )
    # Looked up at call time, so the traced pass sees the wrapped seam.
    return scenarios.build_secure_overlay(
        spec["n"],
        config,
        malicious=spec["malicious"],
        attack_start=spec["attack_start"],
        seed=seed,
        sim_config=SimConfig(seed=seed, trace=False),
    )


def state_digest(engine: Any) -> str:
    """BLAKE2b over what the protocol decided, node by node.

    View entries ``(creator, timestamp, non_swappable)``, blacklisted
    culprits and sample-cache size: equal digests mean two runs made the
    same protocol decisions, however the bytes travelled.
    """
    digest = hashlib.blake2b(digest_size=16)
    for node_id, node in engine.nodes.items():
        digest.update(b"n" + node_id.digest)
        for entry in node.view:
            digest.update(
                b"v"
                + entry.creator.digest
                + struct.pack("<d?", entry.timestamp, entry.non_swappable)
            )
        for culprit in sorted(key.digest for key in node.blacklist.members()):
            digest.update(b"b" + culprit)
        digest.update(struct.pack("<I", len(node.sample_cache)))
    return digest.hexdigest()


def start(spec: Dict[str, Any], seed: int) -> Tuple[Any, Any]:
    """Everything before the first cycle: the overlay, and for the
    sharded workload its started session (else ``None``)."""
    overlay = build(spec, seed)
    session = None
    if spec["kind"] == "sharded":
        session = ShardedSession(overlay, shards=spec["shards"], mode="free")
        session.start()
    return overlay, session


def advance(overlay: Any, session: Any, cycles: int, tracer: Any = None) -> List[float]:
    """Run ``cycles`` cycles; the per-cycle wall times in ms.

    In-process: one ``Overlay.run(cycles)`` with stamps from an
    observer.  In the traced pass that call is one root span, so what it
    does outside every wrapped layer (the scheduler's loop, observers,
    the collection the restored GC thresholds trigger on the first
    allocation after the run) closes into ``sim.scheduler``.  The
    sharded session has no per-cycle hook, so it is stepped.
    """
    if session is not None:
        cycle_ms = []
        for _ in range(cycles):
            t0 = perf_counter()
            session.run_cycles(1)
            cycle_ms.append((perf_counter() - t0) * 1e3)
        return cycle_ms
    stamps = CycleStamps()
    overlay.engine.add_observer(stamps)
    if tracer is not None:
        tracer.open_root()
    overlay.run(cycles)
    cycle_ms = stamps.cycle_ms()
    if tracer is not None:
        tracer.close_root()
    return cycle_ms


def peak_rss_mb(with_children: bool) -> float:
    """``ru_maxrss`` of this process, plus the largest reaped child's."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def tail(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with fewer than twenty samples no
    percentile above the median qualifies and the largest sample stands
    in (percentile 100).
    """
    ordered = sorted(samples)
    if len(ordered) < 20:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


@dataclass
class Timed:
    """What one timed region measured, in either pass."""

    overlay: Any
    cycle_ms: List[float]
    wall_s: float
    rss_mb: float
    worker_cpu_s: float
    parent_cpu_s: float
    # Summed per-shard network counters (sharded workload only).
    counters: Dict[str, int]
    save_s: float = 0.0
    restore_s: float = 0.0
    ckpt_mb: float = 0.0
    # Traced pass: bucket totals and collector time over the region.
    spans: Dict[str, Dict[str, int]] = field(default_factory=dict)
    gc_ns: int = 0
    gc_runs: int = 0

    @property
    def dialogues(self) -> int:
        return self.counters.get(
            "dialogues_opened", self.overlay.engine.network.dialogues_opened
        )


def timed_region(
    spec: Dict[str, Any],
    seed: int,
    overlay: Any,
    session: Any,
    tracer: Optional[Tracer],
    ckpt_path: pathlib.Path,
) -> Timed:
    """All cycles from cycle 0 plus the workload's closing phase:
    ``finish()`` for the sharded session; save, twin build and restore
    (and the cycles after it) for the checkpoint workload."""
    kind = spec["kind"]
    if tracer is not None:
        mark, gc_mark = tracer.totals(), (tracer.gc_ns, tracer.gc_runs)
    cpu_mark = os.times()
    save_s = restore_s = ckpt_mb = 0.0
    counters: Dict[str, int] = {}
    t_start = perf_counter()
    cycle_ms = advance(overlay, session, spec["cycles"], tracer)
    if kind == "sharded":
        counters = session.finish()
    elif kind == "ckpt":
        t0 = perf_counter()
        overlay.engine.checkpoint(ckpt_path)
        save_s = perf_counter() - t0
        ckpt_mb = ckpt_path.stat().st_size / 1e6
        overlay = build(spec, seed)
        t0 = perf_counter()
        overlay.engine.resume(ckpt_path)
        restore_s = perf_counter() - t0
        cycle_ms += advance(overlay, None, spec["resume_cycles"], tracer)
    wall_s = perf_counter() - t_start
    cpu = os.times()
    timed = Timed(
        overlay=overlay,
        cycle_ms=cycle_ms,
        wall_s=wall_s,
        rss_mb=peak_rss_mb(with_children=kind == "sharded"),
        worker_cpu_s=(cpu.children_user + cpu.children_system)
        - (cpu_mark.children_user + cpu_mark.children_system),
        parent_cpu_s=(cpu.user + cpu.system) - (cpu_mark.user + cpu_mark.system),
        counters=counters,
        save_s=save_s,
        restore_s=restore_s,
        ckpt_mb=ckpt_mb,
    )
    if tracer is not None:
        timed.spans = spans_between(mark, tracer.totals())
        timed.gc_ns = tracer.gc_ns - gc_mark[0]
        timed.gc_runs = tracer.gc_runs - gc_mark[1]
    return timed


def check_outputs(
    spec: Dict[str, Any],
    seed: int,
    engine: Any,
    dialogues: int,
    expected: Optional[str],
) -> Tuple[Dict[str, bool], Optional[str]]:
    """The untimed, untraced output checks; ``(verdicts, state digest)``."""
    cycles = spec["cycles"] + spec.get("resume_cycles", 0)
    checks = {
        "view_fill": links.view_fill_fraction(engine) >= spec["min_fill"],
        "dialogues": dialogues == spec["n"] * cycles,
    }
    if spec["kind"] == "sharded":
        # Free mode is timing-dependent: shape, not a digest.
        checks["view_shape"] = not list(check_view_shape(engine))
        return checks, None
    checks["audit_clean"] = audit_engine(engine).clean
    digest = state_digest(engine)
    if spec["malicious"]:
        # Not == 1.0 / == 0.0: the last straggler of 80 attackers falls
        # 2 to 10 cycles after the attack starts depending on the seed,
        # and no seed may fail.  An undefended overlay ends near 0 and 1.
        checks["attackers_blacklisted"] = (
            links.blacklisted_malicious_fraction(engine) >= 0.95
        )
        checks["malicious_links_purged"] = (
            links.malicious_link_fraction(engine) <= 0.05
        )
    twin_spec = None
    if spec["transport"] == "wire":
        checks["undecodable_frames"] = engine.network.undecodable_frames == 0
        # The repo's wire == object contract, held on this very run.
        twin_spec = dict(spec, transport="object")
    elif spec["kind"] == "ckpt":
        # The resumed twin must equal the run that never stopped.
        twin_spec = spec
    if twin_spec is not None:
        twin = build(twin_spec, seed)
        twin.run(cycles)
        checks["digest_equals_twin"] = state_digest(twin.engine) == digest
    if expected is not None:
        checks["digest_as_recorded"] = digest == expected
    return checks, digest


def main(argv: List[str]) -> None:
    job = json.loads(argv[1])
    spec, seed, trace = job["spec"], job["seed"], job["trace"]
    kind, cycles = spec["kind"], spec["cycles"]
    total_cycles = cycles + spec.get("resume_cycles", 0)
    # An operation is one requested cycle, plus the save and the
    # restore of the checkpoint workload.
    attempted = total_cycles + (2 if kind == "ckpt" else 0)
    ckpt_path = pathlib.Path(job["workdir"]) / f"{job['workload']}-{os.getpid()}.ckpt"
    result: Dict[str, Any] = {
        "workload": job["workload"],
        "seed": seed,
        "sizes": {key: value for key, value in spec.items() if key != "why"},
        "attempted": attempted,
        "metrics": {},
        "checks": {},
        "digest": None,
        "error": None,
    }
    try:
        overlay = session = tracer = None
        build_s: List[float] = []
        if trace:
            # The untraced reference for trace.overhead_share: the first
            # third of the cycles on a twin, before anything is wrapped.
            overlay, session = start(spec, seed)
            reference_ms = advance(overlay, session, max(1, cycles // 3))
            tracer = Tracer()
            # Forked shard workers would inherit in-process wrappers
            # whose totals nobody could read; they are timed from the
            # parent only.
            layers = ("bootstrap", "sim.shard") if kind == "sharded" else ("",)
            tracer.install(layers)

        # Set-up, several times over for a steadier median.
        for _ in range(1 if trace else spec["setup_reps"]):
            if session is not None:
                session.close()
            overlay = session = None
            gc.collect()
            t0 = perf_counter()
            overlay, session = start(spec, seed)
            build_s.append(perf_counter() - t0)
        if trace and kind != "sharded":
            tracer.install(layers, overlay.engine)

        timed = timed_region(spec, seed, overlay, session, tracer, ckpt_path)
        steady_ms = timed.cycle_ms[spec["steady_from"]:]
        engine = timed.overlay.engine

        if not trace:
            result["metrics"] = {
                "setup_s": {
                    "value": _IMPORT_S + statistics.median(build_s),
                    "samples": len(build_s),
                },
                "activations_per_s": {
                    "value": spec["n"] * total_cycles / timed.wall_s,
                    "samples": total_cycles,
                },
                "cycle_ms_p50": {
                    "value": statistics.median(steady_ms),
                    "samples": len(steady_ms),
                },
                "peak_rss_mb": {"value": timed.rss_mb, "samples": 1},
            }
        else:
            whole = tracer.totals()
            # The output checks below run untraced.
            tracer.uninstall()
            metrics = layer_metrics(spec, timed, whole, steady_ms, reference_ms)
            metrics["ops.collect_row_ms"] = {
                "value": collect_row_ms(engine, tracer.missing), "samples": 1,
            }
            metrics["trace.seams_missing"] = {
                "value": len(tracer.missing), "samples": len(tracer.missing),
            }
            result["metrics"] = metrics
            result["seams_missing"] = tracer.missing

        result["checks"], result["digest"] = check_outputs(
            spec, seed, engine, timed.dialogues, job.get("expected_digest")
        )
    except Exception:
        result["error"] = traceback.format_exc()
        traceback.print_exc()
    finally:
        ckpt_path.unlink(missing_ok=True)

    result["correct"] = result["error"] is None and all(result["checks"].values())
    # A cycle that raised, never ran, or belongs to a run whose output
    # check failed counts as failed.
    result["failed"] = 0 if result["correct"] else attempted
    print(json.dumps(result), flush=True)
    # Skip interpreter teardown: freeing a few million overlay objects
    # one by one costs seconds the driver's time cap has better uses for.
    os._exit(0)


def collect_row_ms(engine: Any, missing: List[str]) -> float:
    """One ``collect_row`` on the final state: what a streaming
    observer would add to every cycle."""
    try:
        from repro.ops.metrics_stream import collect_row
    except ImportError:
        missing.append("repro.ops.metrics_stream:collect_row")
        return 0.0
    t0 = perf_counter()
    collect_row(engine, engine.clock.cycle)
    return (perf_counter() - t0) * 1e3


#: (metric, bucket, counter): the counter's total over the timed region
#: divided by cycles; ``self_ns`` counters are reported in ms.
PER_CYCLE = (
    ("core.node.begin_ms_per_cycle", "core.node.begin", "self_ns"),
    ("core.node.initiate_ms_per_cycle", "core.node.initiate", "self_ns"),
    ("core.node.respond_ms_per_cycle", "core.node.respond", "self_ns"),
    ("core.node.push_ms_per_cycle", "core.node.push", "self_ns"),
    ("core.view.ms_per_cycle", "core.view", "self_ns"),
    ("core.view.calls_per_cycle", "core.view", "calls"),
    ("core.descriptor.transfer_ms_per_cycle", "core.descriptor.transfer", "self_ns"),
    ("core.descriptor.transfers_per_cycle", "core.descriptor.transfer", "calls"),
    ("core.descriptor.mint_ms_per_cycle", "core.descriptor.mint", "self_ns"),
    ("core.samples.observe_ms_per_cycle", "core.samples.observe", "self_ns"),
    ("core.samples.observed_per_cycle", "core.samples.observe", "units"),
    ("core.samples.expire_ms_per_cycle", "core.samples.expire", "self_ns"),
    ("core.samples.forget_ms_per_cycle", "core.samples.forget", "self_ns"),
    ("crypto.verify_ms_per_cycle", "crypto.verify", "self_ns"),
    ("crypto.verify_calls_per_cycle", "crypto.verify", "calls"),
    ("crypto.proof_validate_ms_per_cycle", "crypto.proof_validate", "self_ns"),
    ("crypto.proof_validations_per_cycle", "crypto.proof_validate", "calls"),
    ("codec.encode_ms_per_cycle", "codec.encode", "self_ns"),
    ("codec.decode_ms_per_cycle", "codec.decode", "self_ns"),
    ("codec.frames_per_cycle", "codec.encode", "calls"),
    ("sim.channel.request_ms_per_cycle", "sim.channel.request", "self_ns"),
    ("sim.channel.requests_per_cycle", "sim.channel.request", "calls"),
    ("sim.channel.dropped_per_cycle", "sim.channel.request", "errors"),
    ("sim.network.connect_ms_per_cycle", "sim.network.connect", "self_ns"),
    ("sim.network.push_ms_per_cycle", "sim.network.push", "self_ns"),
    ("sim.network.pushes_per_cycle", "sim.network.push", "calls"),
    ("sim.network.tick_ms_per_cycle", "sim.network.tick", "self_ns"),
    ("sim.scheduler.self_ms_per_cycle", "sim.scheduler", "self_ns"),
    ("sim.shard.run_ms_per_cycle", "sim.shard.run", "self_ns"),
)

#: (metric, bucket, counter) read once over the timed region; ns in ms.
ONCE = (
    ("sim.shard.finish_ms", "sim.shard.finish", "self_ns"),
    ("ops.capture_ms", "ops.capture", "self_ns"),
    ("ops.encode_write_ms", "ops.encode_write", "self_ns"),
    ("ops.read_decode_ms", "ops.read_decode", "self_ns"),
    ("ops.apply_ms", "ops.apply", "self_ns"),
    ("ops.records", "ops.capture", "judged"),
)


def layer_metrics(
    spec: Dict[str, Any],
    timed: Timed,
    whole: Dict[str, Dict[str, int]],
    steady_ms: List[float],
    reference_ms: List[float],
) -> Dict[str, Dict[str, float]]:
    """Turn bucket totals into the named per-layer metrics.

    ``timed.spans`` covers the timed region, ``whole`` the process since
    the tracer was installed — set-up included, which is where
    ``bootstrap`` and ``sim.shard.start`` run.
    """
    n, shards = spec["n"], spec.get("shards", 0)
    cycles = spec["cycles"] + spec.get("resume_cycles", 0)
    network = timed.overlay.engine.network
    metrics: Dict[str, Dict[str, float]] = {}

    def put(name: str, value: float, samples: int) -> None:
        metrics[name] = {"value": value, "samples": samples}

    def share(part: float, total: float) -> float:
        return part / total if total else 0.0

    def per_build(name: str, ns: int, count: int) -> None:
        put(name, ns / 1e6 / max(1, count), count)

    def bucket(source: Dict, name: str) -> Dict[str, int]:
        return source.get(name, NO_SPANS)

    def read(key: str, counter: str) -> float:
        value = bucket(timed.spans, key)[counter]
        return value / 1e6 if counter == "self_ns" else value

    for name, key, counter in PER_CYCLE:
        put(name, read(key, counter) / cycles, bucket(timed.spans, key)["calls"])
    for name, key, counter in ONCE:
        put(name, read(key, counter), 1)

    builds = bucket(whole, "bootstrap.build")
    keys = bucket(whole, "bootstrap.keys")["incl_ns"]
    fill = bucket(whole, "bootstrap.fill")["incl_ns"]
    per_build("bootstrap.keys_ms", keys, builds["calls"])
    per_build("bootstrap.fill_ms", fill, builds["calls"])
    per_build(
        "bootstrap.wire_up_ms", builds["incl_ns"] - keys - fill, builds["calls"]
    )
    starts = bucket(whole, "sim.shard.start")
    per_build("sim.shard.start_ms", starts["incl_ns"], starts["calls"])

    put(
        "core.node.reject_share",
        share(bucket(timed.spans, "core.node.respond")["judged"], timed.dialogues),
        timed.dialogues,
    )
    # Bytes, failures and intern hits come from the program's own
    # public counters, which are all zero under the object transport.
    wire_bytes = (
        network.dialogue_bytes_forward
        + network.dialogue_bytes_backward
        + network.push_bytes
    )
    put("codec.bytes_per_activation", wire_bytes / (n * cycles), n * cycles)
    put("codec.decode_fail_per_cycle", network.undecodable_frames / cycles, cycles)
    intern = getattr(getattr(network.message_transport, "intern", None), "stats", None)
    lookups = intern() if intern is not None else {}
    tried = lookups.get("hits", 0) + lookups.get("misses", 0)
    put("codec.intern_hit_share", share(lookups.get("hits", 0), tried), tried)

    value, percentile = tail(timed.cycle_ms)
    put("sim.scheduler.cycle_ms_tail", value, len(timed.cycle_ms))
    metrics["sim.scheduler.cycle_ms_tail"]["percentile"] = percentile
    # A collection interrupts whichever span is open: these two sit
    # beside the self-time sum, not in it.
    put("sim.engine.gc_ms_per_cycle", timed.gc_ns / 1e6 / cycles, timed.gc_runs)
    put("sim.engine.gc_collections_per_cycle", timed.gc_runs / cycles, cycles)

    put("sim.shard.worker_cpu_s", timed.worker_cpu_s if shards else 0.0, shards)
    put("sim.shard.parent_cpu_s", timed.parent_cpu_s if shards else 0.0, 1)
    # Worker CPU over shards x wall; one minus it is blocked-on-peer.
    put(
        "sim.shard.worker_busy_share",
        share(timed.worker_cpu_s, shards * timed.wall_s),
        shards,
    )
    put("ops.ckpt_save_s", timed.save_s, 1)
    put("ops.ckpt_restore_s", timed.restore_s, 1)
    put("ops.ckpt_mb", timed.ckpt_mb, 1)

    span_count = sum(spans["calls"] for spans in timed.spans.values())
    attributed_ns = sum(spans["self_ns"] for spans in timed.spans.values())
    put("trace.attributed_share", attributed_ns / (timed.wall_s * 1e9), span_count)
    # Measured, cycle by cycle, against the untraced twin's first cycles.
    put(
        "trace.overhead_share",
        statistics.median(
            traced / bare for traced, bare in zip(timed.cycle_ms, reference_ms)
        ) - 1.0,
        len(reference_ms),
    )
    put("trace.cycle_ms_p50", statistics.median(steady_ms), len(steady_ms))
    return metrics


if __name__ == "__main__":
    main(sys.argv)
