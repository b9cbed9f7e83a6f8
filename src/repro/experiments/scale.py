"""Experiment scale presets.

The paper's evaluation runs 1K and 10K-node overlays for up to 500
cycles.  Pure-Python simulation reproduces those shapes at a fraction
of the size in a fraction of the time, so three presets exist:

* ``smoke``   — seconds; used by the test suite;
* ``default`` — minutes; used by the benchmark harness in CI;
* ``full``    — the paper's parameters; set ``REPRO_SCALE=full``.

Every figure module reads the preset through :func:`resolve_scale`, so
``REPRO_SCALE`` uniformly rescales the whole harness.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import Optional

ENV_VAR = "REPRO_SCALE"


class Scale(enum.Enum):
    """How big an experiment run should be."""

    SMOKE = "smoke"
    DEFAULT = "default"
    FULL = "full"


def resolve_scale(scale: Optional[Scale] = None) -> Scale:
    """Explicit argument wins; otherwise the ``REPRO_SCALE`` env var;
    otherwise :data:`Scale.DEFAULT`."""
    if scale is not None:
        return scale
    raw = os.environ.get(ENV_VAR, "").strip().lower()
    if not raw:
        return Scale.DEFAULT
    try:
        return Scale(raw)
    except ValueError:
        valid = ", ".join(member.value for member in Scale)
        raise ValueError(
            f"invalid {ENV_VAR}={raw!r}; expected one of: {valid}"
        ) from None


def pick(scale: Scale, smoke, default, full):
    """Select a per-preset value."""
    if scale is Scale.SMOKE:
        return smoke
    if scale is Scale.FULL:
        return full
    return default


# ----------------------------------------------------------------------
# paper-scale wall-time benchmark (1K / 10K nodes)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PaperScaleRow:
    """One (overlay size, transport) wall-time measurement."""

    nodes: int
    cycles: int
    transport: str
    build_seconds: float
    run_seconds: float
    per_cycle_ms: float
    cycles_per_second: float
    mean_view_fill: float


@dataclass(frozen=True)
class PaperScaleReport:
    """Outcome of one :func:`run_paper_scale` sweep.

    The paper evaluates 1K and 10K-node overlays; this harness times
    exactly those shapes under both transports so the recorded numbers
    in ``BENCH_core.json`` / ``EXPERIMENTS.md`` stay reproducible from
    one command line.
    """

    scale: str
    seed: int
    rows: tuple

    def render(self) -> str:
        lines = [
            f"paper scale [{self.scale}] seed {self.seed}",
            f"{'nodes':>7}  {'cycles':>6}  "
            f"{'transport':>9}  {'build s':>8}  {'run s':>8}  "
            f"{'ms/cycle':>9}  {'cycles/s':>8}  {'view fill':>9}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.nodes:>7}  {row.cycles:>6}  "
                f"{row.transport:>9}  "
                f"{row.build_seconds:>8.2f}  {row.run_seconds:>8.2f}  "
                f"{row.per_cycle_ms:>9.1f}  {row.cycles_per_second:>8.2f}  "
                f"{row.mean_view_fill:>9.3f}"
            )
        return "\n".join(lines)


def measure_paper_scale(
    nodes: int,
    cycles: int,
    seed: int = 42,
    transport: Optional[str] = None,
) -> PaperScaleRow:
    """Build and run one overlay shape; returns its wall-time row.

    ``transport`` selects the message-passing mode (``None`` resolves
    through ``REPRO_TRANSPORT``); wire mode re-frames every message
    through the codec and verifies chains through the engine's batched
    plan.  Tracing is disabled — at 10K nodes a traced full run would
    spend more memory on the event log than on the overlay itself.
    """
    from repro.core.config import SecureCyclonConfig
    from repro.experiments.scenarios import build_secure_overlay
    from repro.metrics.links import view_fill_fraction
    from repro.sim.engine import SimConfig
    from repro.sim.transport import resolve_transport

    import gc
    import time

    # Collection barrier: the previous measurement's run leaves a huge
    # young generation behind (Engine.run raises the gen-0 threshold),
    # and letting its collection land inside this measurement skews
    # build/run times by whole seconds at 1K+ nodes.
    gc.collect()
    transport_mode = resolve_transport(transport)
    config = SecureCyclonConfig(
        view_length=20, swap_length=3, transport=transport_mode
    )
    build_started = time.perf_counter()
    overlay = build_secure_overlay(
        n=nodes,
        config=config,
        seed=seed,
        sim_config=SimConfig(seed=seed, trace=False),
    )
    build_seconds = time.perf_counter() - build_started
    run_started = time.perf_counter()
    overlay.run(cycles)
    run_seconds = time.perf_counter() - run_started
    return PaperScaleRow(
        nodes=nodes,
        cycles=cycles,
        transport=transport_mode,
        build_seconds=round(build_seconds, 3),
        run_seconds=round(run_seconds, 3),
        per_cycle_ms=round(run_seconds / cycles * 1e3, 2),
        cycles_per_second=round(cycles / run_seconds, 3),
        mean_view_fill=round(view_fill_fraction(overlay.engine), 4),
    )


def run_paper_scale(
    scale: Optional[Scale] = None, seed: int = 42
) -> PaperScaleReport:
    """Paper-scale wall-time benchmark: 1K/10K-node overlays under the
    object and the wire transport.

    ``full`` runs the paper's two sizes — 1000 nodes for 50 cycles and
    the repo's headline 10 000-node full-cycle run — once per
    transport; ``default`` runs the 1K shape; ``smoke`` a
    seconds-budget miniature.  Both transports run the same seed, so
    any behavioural divergence (there must be none) would show up as a
    different final view fill.
    """
    scale = resolve_scale(scale)
    shapes = pick(
        scale,
        [(60, 5)],
        [(1000, 50)],
        [(1000, 50), (10000, 5)],
    )
    rows = []
    for nodes, cycles in shapes:
        for transport in ("object", "wire"):
            rows.append(
                measure_paper_scale(
                    nodes, cycles, seed=seed, transport=transport
                )
            )
    return PaperScaleReport(scale=scale.value, seed=seed, rows=tuple(rows))


def render_paper_scale(report: PaperScaleReport) -> str:
    return report.render()


# ----------------------------------------------------------------------
# scale stress scenario
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StressReport:
    """Outcome of one :func:`run_scale_stress` run.

    ``cycles_per_second`` is the headline number: the ROADMAP's north
    star is paper-scale (1K–10K node) runs, and this scenario is the
    treadmill that proves the simulation core keeps up while churn and
    a hub attack are both active.
    """

    scale: str
    nodes: int
    cycles: int
    malicious: int
    crashed: int
    joined: int
    elapsed_seconds: float
    cycles_per_second: float
    final_population: int
    mean_view_fill: float
    blacklisted_fraction: float

    def render(self) -> str:
        lines = [
            f"scale stress [{self.scale}]: {self.nodes} nodes, "
            f"{self.cycles} cycles, {self.malicious} attackers",
            f"  churn: {self.crashed} crashed, {self.joined} joined "
            f"-> {self.final_population} alive",
            f"  wall clock: {self.elapsed_seconds:.2f}s "
            f"({self.cycles_per_second:.1f} cycles/s)",
            f"  mean view fill: {self.mean_view_fill:.3f}",
            f"  attackers blacklisted: {self.blacklisted_fraction:.2f}",
        ]
        return "\n".join(lines)


def run_scale_stress(scale: Optional[Scale] = None, seed: int = 7) -> StressReport:
    """Churn + hub attack at scale: the perf-trajectory stress scenario.

    A SecureCyclon overlay (2K nodes at ``REPRO_SCALE=full``, scaled
    down for the default and smoke presets) runs three phases: a clean
    warm-up, a hub-attack phase with 10% malicious nodes active, and a
    churn phase where a slice of honest nodes crashes and fresh joiners
    bootstrap in via the §V-A non-swappable join while the attack keeps
    running.  Returns wall-clock and health metrics; used by the
    benchmark harness to keep the paper-scale path honest.
    """
    # Imported lazily: scale.py is a leaf module read by every figure
    # harness, and the scenario machinery would make it a heavy import.
    from repro.bootstrap import bootstrap_joiner
    from repro.core.config import SecureCyclonConfig
    from repro.core.node import SecureCyclonNode
    from repro.experiments.scenarios import build_secure_overlay
    from repro.metrics.links import view_fill_fraction

    import time

    scale = resolve_scale(scale)
    n = pick(scale, 40, 400, 2000)
    warmup = pick(scale, 3, 5, 10)
    attack_cycles = pick(scale, 3, 8, 20)
    churn_cycles = pick(scale, 3, 7, 20)
    churn_fraction = 0.05
    malicious = max(2, n // 10)

    config = SecureCyclonConfig(view_length=20, swap_length=3)
    overlay = build_secure_overlay(
        n=n,
        config=config,
        malicious=malicious,
        attack_start=warmup,
        seed=seed,
    )
    engine = overlay.engine

    started = time.perf_counter()
    overlay.run(warmup + attack_cycles)

    # Churn slice: crash 5% of the honest population, then bootstrap
    # the same number of fresh joiners from live donors (§V-A join).
    churn_rng = engine.rng_hub.stream("scale-stress-churn")
    honest = sorted(engine.legit_ids)
    crashed = churn_rng.sample(honest, max(1, int(len(honest) * churn_fraction)))
    for node_id in crashed:
        engine.remove_node(node_id)

    donors = [
        node
        for node in engine.nodes.values()
        if isinstance(node, SecureCyclonNode) and not node.is_malicious
    ]
    joined = 0
    for _ in range(len(crashed)):
        keypair = engine.registry.new_keypair(churn_rng)
        address = engine.network.reserve_address(keypair.public)
        joiner = SecureCyclonNode(
            keypair=keypair,
            address=address,
            config=config,
            clock=engine.clock,
            registry=engine.registry,
            rng=engine.rng_hub.stream(f"joiner-{joined}"),
            trace=engine.trace,
        )
        joiner.bind_network(engine.network)
        engine.add_node(joiner)  # picks the chain verifier
        bootstrap_joiner(joiner, donors, links=3, rng=churn_rng)
        joined += 1

    overlay.run(churn_cycles)
    elapsed = time.perf_counter() - started

    cycles = warmup + attack_cycles + churn_cycles
    malicious_alive = engine.malicious_ids
    blacklisted_votes = [
        sum(
            1
            for mid in malicious_alive
            if node.blacklist.is_blacklisted(mid)
        )
        / max(1, len(malicious_alive))
        for node in engine.nodes.values()
        if isinstance(node, SecureCyclonNode) and not node.is_malicious
    ]
    return StressReport(
        scale=scale.value,
        nodes=n,
        cycles=cycles,
        malicious=malicious,
        crashed=len(crashed),
        joined=joined,
        elapsed_seconds=elapsed,
        cycles_per_second=cycles / elapsed if elapsed > 0 else float("inf"),
        final_population=len(engine.nodes),
        mean_view_fill=view_fill_fraction(engine),
        blacklisted_fraction=(
            sum(blacklisted_votes) / len(blacklisted_votes)
            if blacklisted_votes
            else 0.0
        ),
    )
