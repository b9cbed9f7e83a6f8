"""``scale_sharded`` — throughput and determinism of the sharded engine.

Two questions, one table:

* **Throughput** — free-running mode: N worker processes each drive
  their partition with intra-shard messages on the in-process
  transport and every cross-shard dialogue leg and push framed through
  ``encode_frames`` over sockets.  The per-cycle wall time is directly
  comparable to the ``scale`` experiment's single-process rows (same
  overlay shape, same seed); ``BENCH_core.json`` records it next to
  them.

* **Determinism** — deterministic mode: the same shape runs once
  in-process and once sharded, and the final per-node views must match
  **bit-for-bit** (the contract ``tests/sim/test_shard_equivalence.py``
  enforces against the committed figure goldens; the row here is the
  cheap always-on sanity check of the same property at scale).

Single-core caveat: on a 1-CPU host (this repo's reference container)
free-running sharding cannot win by parallelism — what the headline
row shows instead is that a *distributed* deployment, paying real
serialisation on every cross-shard message, still beats the
single-process all-wire configuration, because consistent hashing
keeps most traffic on the in-process fast path.  See docs/SHARDING.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.experiments.scale import Scale, pick, resolve_scale


@dataclass(frozen=True)
class ShardedScaleRow:
    """One (shape, shard count, mode) measurement."""

    nodes: int
    cycles: int
    shards: int
    mode: str
    build_seconds: float
    run_seconds: float
    per_cycle_ms: float
    cycles_per_second: float
    mean_view_fill: float
    dialogues_opened: int
    deterministic_match: Optional[bool] = None


@dataclass(frozen=True)
class ShardedScaleReport:
    """Outcome of one :func:`run_scale_sharded` sweep."""

    scale: str
    seed: int
    rows: Tuple[ShardedScaleRow, ...]

    def render(self) -> str:
        lines = [
            f"sharded scale [{self.scale}] seed {self.seed}",
            f"{'nodes':>7}  {'cycles':>6}  {'shards':>6}  {'mode':>13}  "
            f"{'build s':>8}  {'run s':>8}  {'ms/cycle':>9}  "
            f"{'cycles/s':>8}  {'view fill':>9}  {'bit-exact':>9}",
        ]
        for row in self.rows:
            match = (
                "-"
                if row.deterministic_match is None
                else ("yes" if row.deterministic_match else "NO")
            )
            lines.append(
                f"{row.nodes:>7}  {row.cycles:>6}  {row.shards:>6}  "
                f"{row.mode:>13}  {row.build_seconds:>8.2f}  "
                f"{row.run_seconds:>8.2f}  {row.per_cycle_ms:>9.1f}  "
                f"{row.cycles_per_second:>8.2f}  "
                f"{row.mean_view_fill:>9.3f}  {match:>9}"
            )
        return "\n".join(lines)


def _build_overlay(nodes: int, seed: int):
    from repro.core.config import SecureCyclonConfig
    from repro.experiments.scenarios import build_secure_overlay
    from repro.sim.engine import SimConfig

    return build_secure_overlay(
        n=nodes,
        config=SecureCyclonConfig(view_length=20, swap_length=3),
        seed=seed,
        sim_config=SimConfig(seed=seed, trace=False),
    )


def _view_fingerprint(engine) -> dict:
    return {
        node_id: tuple(
            (entry.creator, entry.timestamp, entry.non_swappable)
            for entry in node.view
        )
        for node_id, node in engine.nodes.items()
    }


def measure_sharded(
    nodes: int,
    cycles: int,
    shards: int,
    mode: str = "free",
    seed: int = 42,
    deadline_s: float = 600.0,
    check_determinism: bool = False,
) -> ShardedScaleRow:
    """Build one overlay and run it across ``shards`` worker processes.

    With ``check_determinism`` (deterministic mode only) a second,
    identically-seeded overlay runs in-process and the final views are
    compared bit-for-bit.
    """
    from repro.metrics.links import view_fill_fraction
    from repro.sim.shardcoord import ShardedSession

    import gc
    import time

    # Same collection barrier as measure_paper_scale: the previous
    # measurement's garbage must not bill this one.
    gc.collect()
    build_started = time.perf_counter()
    overlay = _build_overlay(nodes, seed)
    build_seconds = time.perf_counter() - build_started

    session = ShardedSession(
        overlay, shards, mode=mode, deadline_s=deadline_s
    )
    session.start()
    run_started = time.perf_counter()
    session.run_cycles(cycles)
    counters = session.finish()
    run_seconds = time.perf_counter() - run_started

    deterministic_match: Optional[bool] = None
    if check_determinism and mode == "deterministic":
        reference = _build_overlay(nodes, seed)
        reference.run(cycles)
        deterministic_match = _view_fingerprint(
            overlay.engine
        ) == _view_fingerprint(reference.engine)

    return ShardedScaleRow(
        nodes=nodes,
        cycles=cycles,
        shards=shards,
        mode=mode,
        build_seconds=round(build_seconds, 3),
        run_seconds=round(run_seconds, 3),
        per_cycle_ms=round(run_seconds / cycles * 1e3, 2),
        cycles_per_second=round(cycles / run_seconds, 3),
        mean_view_fill=round(view_fill_fraction(overlay.engine), 4),
        dialogues_opened=counters["dialogues_opened"],
        deterministic_match=deterministic_match,
    )


def run_scale_sharded(
    scale: Optional[Scale] = None, seed: int = 42
) -> ShardedScaleReport:
    """Sharded-engine scale benchmark: free-running throughput rows
    plus one deterministic bit-exactness sanity row per preset."""
    scale = resolve_scale(scale)
    free_shapes = pick(
        scale,
        [(60, 5, 2)],
        [(1000, 50, 2), (1000, 50, 4)],
        [(1000, 50, 2), (1000, 50, 4), (10000, 3, 2)],
    )
    det_shape = pick(scale, (40, 4, 2), (200, 10, 2), (200, 10, 4))

    rows = []
    for nodes, cycles, shards in free_shapes:
        rows.append(
            measure_sharded(nodes, cycles, shards, mode="free", seed=seed)
        )
    nodes, cycles, shards = det_shape
    rows.append(
        measure_sharded(
            nodes,
            cycles,
            shards,
            mode="deterministic",
            seed=seed,
            check_determinism=True,
        )
    )
    return ShardedScaleReport(scale=scale.value, seed=seed, rows=tuple(rows))


def render(report: ShardedScaleReport) -> str:
    return report.render()


def main() -> None:  # pragma: no cover - CLI entry point
    print(render(run_scale_sharded()))


if __name__ == "__main__":  # pragma: no cover
    main()
