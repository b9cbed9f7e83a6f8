"""Extension experiment — the checkpoint/resume bit-exactness contract.

The ops plane (:mod:`repro.ops`) promises that a run which checkpoints
at a cycle boundary and resumes in a *freshly built* engine continues
bit-for-bit as if never interrupted: every RNG stream is
``setstate()``-restored, the clock, views, sample caches, blacklists,
redemption caches, adversary state and network counters are overlaid,
and the attached observers adopt the pre-checkpoint series.

This experiment measures the contract directly under an active hub
attack (the hardest state to carry: coordinator pools, minted
descriptors, growing blacklists):

1. run the overlay unbroken for C cycles, recording the standard
   probe series;
2. rebuild the identical overlay, run C/2 cycles, checkpoint, rebuild
   again from scratch, resume from the file, run the remaining cycles;
3. compare the resumed run's series against the unbroken run's —
   sample by sample, exact equality, no tolerance — and the final
   per-node view/blacklist state.

Every row must read ``exact``; the table also reports the checkpoint's
size, save and restore wall time, record census and descriptor-table
sharing, so regressions in the format show up here.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.config import SecureCyclonConfig
from repro.experiments.report import format_table
from repro.experiments.scale import Scale, pick, resolve_scale
from repro.experiments.scenarios import build_secure_overlay
from repro.metrics.collector import standard_probes
from repro.ops.checkpoint import inspect_checkpoint
from repro.sim.observers import SeriesObserver


@dataclass
class ProbeComparison:
    """One probe series, resumed run vs unbroken run."""

    name: str
    samples: int
    exact: bool
    max_abs_diff: float


@dataclass
class CheckpointResumeResult:
    """The contract check's outcome plus checkpoint-format vitals."""

    nodes: int
    malicious: int
    cycles: int
    checkpoint_cycle: int
    file_bytes: int
    save_s: float
    restore_s: float
    record_census: Dict[str, int]
    descriptor_table: Dict[str, float]
    rng_streams: int
    probes: List[ProbeComparison]
    final_state_exact: bool


def _build(nodes: int, malicious: int, attack_start: int, seed: int):
    overlay = build_secure_overlay(
        n=nodes,
        config=SecureCyclonConfig(view_length=8, swap_length=3),
        malicious=malicious,
        attack_start=attack_start,
        seed=seed,
    )
    observer = SeriesObserver(standard_probes())
    overlay.engine.add_observer(observer)
    return overlay, observer


def _final_state(overlay) -> Dict:
    return {
        node_id: (
            tuple(
                (entry.descriptor, entry.non_swappable)
                for entry in node.view._entries
            ),
            node.blacklist.proofs_tuple(),
        )
        for node_id, node in overlay.engine.nodes.items()
    }


def run_checkpoint_resume(
    scale: Optional[Scale] = None, seed: int = 42
) -> CheckpointResumeResult:
    """Run the checkpoint/resume equivalence check at the given scale."""
    scale = resolve_scale(scale)
    nodes = pick(scale, 60, 300, 1000)
    cycles = pick(scale, 12, 40, 50)
    attack_start = pick(scale, 3, 10, 10)
    malicious = max(2, nodes // 10)
    half = cycles // 2

    # Unbroken reference run.
    unbroken, unbroken_obs = _build(nodes, malicious, attack_start, seed)
    unbroken.run(cycles)

    # Run to the midpoint, checkpoint, then resume into a fresh build.
    first, _ = _build(nodes, malicious, attack_start, seed)
    first.run(half)
    with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as tmp:
        path = Path(tmp) / "mid.ckpt"
        started = perf_counter()
        first.engine.checkpoint(path)
        save_s = perf_counter() - started
        file_bytes = path.stat().st_size
        summary = inspect_checkpoint(path)
        resumed, resumed_obs = _build(nodes, malicious, attack_start, seed)
        started = perf_counter()
        resumed.engine.resume(path)
        restore_s = perf_counter() - started
        resumed.run(cycles - half)

    comparisons: List[ProbeComparison] = []
    for name, reference in unbroken_obs.series.items():
        candidate = resumed_obs.series.get(name, [])
        diffs = [
            abs(a[1] - b[1]) for a, b in zip(reference, candidate)
        ]
        comparisons.append(
            ProbeComparison(
                name=name,
                samples=len(reference),
                exact=reference == candidate,
                max_abs_diff=max(diffs) if diffs else 0.0,
            )
        )
    return CheckpointResumeResult(
        nodes=nodes,
        malicious=malicious,
        cycles=cycles,
        checkpoint_cycle=half,
        file_bytes=file_bytes,
        save_s=save_s,
        restore_s=restore_s,
        record_census=summary["records"],
        descriptor_table=summary["descriptor_table"],
        rng_streams=len(summary["rng_streams"]),
        probes=comparisons,
        final_state_exact=_final_state(unbroken) == _final_state(resumed),
    )


def render(result: CheckpointResumeResult) -> str:
    """The per-probe equivalence table plus checkpoint vitals."""
    rows: List[Tuple] = [
        (
            comparison.name,
            comparison.samples,
            "exact" if comparison.exact else "DIVERGED",
            comparison.max_abs_diff,
        )
        for comparison in sorted(result.probes, key=lambda c: c.name)
    ]
    rows.append(
        (
            "final node state",
            result.nodes,
            "exact" if result.final_state_exact else "DIVERGED",
            0.0,
        )
    )
    table = format_table(
        ["series", "samples", "resumed vs unbroken", "max |diff|"], rows
    )
    shared = result.descriptor_table
    census = ", ".join(
        f"{name}×{count}"
        for name, count in sorted(result.record_census.items())
    )
    header = (
        "Checkpoint/resume — bit-exact continuation from a mid-run "
        "state file\n"
        f"({result.nodes} nodes, {result.malicious} hub attackers, "
        f"checkpoint at cycle {result.checkpoint_cycle} of "
        f"{result.cycles}; resumed into a freshly built engine)\n\n"
        f"checkpoint: {result.file_bytes} bytes, saved in "
        f"{result.save_s:.2f} s, restored in {result.restore_s:.2f} s, "
        f"{result.rng_streams} RNG streams, {census}\n"
        f"descriptor table: {shared['entries']} entries for "
        f"{shared['references']} references "
        f"({shared['dedupe_ratio']:.1f}x shared)\n"
    )
    return header + "\n" + table


def main() -> None:  # pragma: no cover - CLI entry point
    print(render(run_checkpoint_resume()))


if __name__ == "__main__":  # pragma: no cover
    main()
