"""The six workloads: shape, size and the reason each one exists.

Pure data — nothing here imports ``repro``, so the parent driver
(``run.py``) can size and describe workloads without putting the
program under test on its own import path.  ``worker.py`` turns a spec
into a built overlay and a timed region.

Sizes are what fits the driver's per-run budget on a 2-vCPU box (about
25 s per run for everything: imports, builds, the timed region and the
untimed output checks).  The rule when a budget is tighter: cut
``cycles``, never ``n`` — per-cycle cost and memory are functions of
``n``, so a smaller population measures a different program.

Every overlay uses view length 20, swap length 3 and tit-for-tat (the
``SecureCyclonConfig`` defaults), ``SimConfig(trace=False)`` and the
cycle runtime.
"""

from __future__ import annotations

from typing import Any, Dict

VIEW_LENGTH = 20
SWAP_LENGTH = 3

#: name -> spec.  ``kind`` picks the timed region in ``worker.py``:
#: ``run`` is one ``Overlay.run(cycles)``; ``sharded`` drives a
#: two-worker free-mode ``ShardedSession``; ``ckpt`` runs ``cycles``,
#: checkpoints, restores into a fresh twin and runs ``resume_cycles``
#: more.  ``min_cycles`` is the floor ``--seconds`` scaling may not go
#: below, because the workload's output checks need that many cycles to
#: hold (the hub attack must have been prosecuted to the end).
#: ``steady_from`` is the first cycle of the window ``cycle_ms_p50`` is
#: taken over — past the sample horizon, past the onset of the flood,
#: past the resume — so the median sits inside the regime the workload
#: is named after instead of on the edge between two; throughput still
#: counts every cycle from 0.
#: ``setup_reps`` builds the overlay that many times and reports the
#: median, so ``setup_s`` is steadier than one sub-second build.
SPECS: Dict[str, Dict[str, Any]] = {
    "steady_object": {
        "why": "500 honest nodes, object transport, 20 cycles past the "
        "2l=40 sample horizon so expiry runs: core.samples/view/"
        "descriptor/node carry the cycle, codec idle",
        "kind": "run",
        "n": 500,
        "transport": "object",
        "malicious": 0,
        "attack_start": 0,
        "cycles": 60,
        "min_cycles": 2,
        "steady_from": 40,
        "setup_reps": 3,
    },
    "steady_wire": {
        "why": "200 honest nodes, wire transport: every receiver "
        "re-parses and re-verifies sample frames, so crypto and codec "
        "decode carry the cycle",
        "kind": "run",
        "n": 200,
        "transport": "wire",
        "malicious": 0,
        "attack_start": 0,
        "cycles": 30,
        "min_cycles": 2,
        "steady_from": 15,
        "setup_reps": 3,
    },
    "hub40_wire": {
        "why": "200 nodes, 40% SecureHubAttackers from cycle 10, wire: "
        "proof frames and flood pushes instead of samples, purge/forget "
        "instead of accept; a sample cache that wins on steady_wire can "
        "lose here",
        "kind": "run",
        "n": 200,
        "transport": "wire",
        "malicious": 80,
        "attack_start": 10,
        "cycles": 24,
        "min_cycles": 20,
        "steady_from": 14,
        "setup_reps": 3,
        # Honest views lose the 40% of links that pointed at attackers
        # and refill at about one link per cycle: 0.98 by cycle 24,
        # 0.99 only around cycle 35.
        "min_fill": 0.95,
    },
    "sharded2_free": {
        "why": "the steady_object overlay on ShardedSession(shards=2, "
        "mode=free): sockets, cross-shard frames and barrier waits; "
        "like-for-like twin of steady_object",
        "kind": "sharded",
        "n": 500,
        "transport": "object",
        "malicious": 0,
        "attack_start": 0,
        "cycles": 14,
        "min_cycles": 2,
        "steady_from": 7,
        "setup_reps": 3,
        "shards": 2,
    },
    "ckpt_resume": {
        "why": "250 honest nodes: run, Engine.checkpoint, fresh twin "
        "build, Engine.resume, run on; ops does the work and restore "
        "costs several times the cycles it skips",
        "kind": "ckpt",
        "n": 250,
        "transport": "object",
        "malicious": 0,
        "attack_start": 0,
        "cycles": 10,
        "resume_cycles": 10,
        "min_cycles": 2,
        "steady_from": 10,
        "setup_reps": 3,
    },
    "build_4k": {
        "why": "build 4000 honest nodes and run 3 cycles: bootstrap does "
        "the work (quadratic random_targets), the workload a "
        "linear-time build must show on",
        "kind": "run",
        "n": 4000,
        "transport": "object",
        "malicious": 0,
        "attack_start": 0,
        "cycles": 3,
        "min_cycles": 3,
        # Cycle 0 also pays for first-touching the heap; 4 or 5 cycles
        # would be steadier but each costs 2 s and 100 MB more.
        "steady_from": 1,
        # One build is already seconds of work; repeating it would
        # double the run for no steadier a number.
        "setup_reps": 1,
    },
}


def sized(name: str, scale: float = 1.0) -> Dict[str, Any]:
    """The spec of ``name`` with its cycle counts scaled by ``scale``.

    ``scale`` is ``--seconds`` over the benchmark's nominal
    ``run_seconds``: the same value always gives the same work, which
    keeps simulated results exactly reproducible.
    """
    spec = dict(SPECS[name])
    spec.setdefault("min_fill", 0.99)
    floor = spec["min_cycles"]
    spec["cycles"] = max(floor, round(spec["cycles"] * scale))
    total = spec["cycles"]
    if "resume_cycles" in spec:
        spec["resume_cycles"] = max(
            floor, round(spec["resume_cycles"] * scale)
        )
        total += spec["resume_cycles"]
    spec["steady_from"] = min(round(spec["steady_from"] * scale), total - 1)
    return spec
