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

