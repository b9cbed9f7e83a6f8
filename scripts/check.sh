#!/usr/bin/env bash
# CI gate: a budgeted smoke-scale benchmark + tier-1 tests + docs
# consistency + example smoke-runs.
#
#   scripts/check.sh              # perf guard + tests + docs + examples
#   SKIP_PERF=1 scripts/check.sh  # skip the perf guard
#
# The perf guard reruns the 200-node full-cycle benchmark and fails if
# it regresses more than 30% against the most recent entry recorded in
# BENCH_core.json (see benchmarks/baseline.py).  It runs FIRST, in a
# fresh process on a cold box: measuring right after the test suite
# inflates the number up to ~1.45x from burst/thermal throttling alone
# (calibration data in PERFORMANCE.md), which would force a uselessly
# loose budget.  The comparison uses the *min* statistic: on shared CI
# hardware scheduling noise only ever adds time, so the min is the
# stable signal.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [[ "${SKIP_PERF:-0}" == "1" ]]; then
    echo "== perf guard skipped (SKIP_PERF=1) =="
else
    echo "== perf guard (budget: <=1.3x of BENCH_core.json; runs first, on a cold box) =="
    python - <<'PY'
import json
import pathlib
import sys
import time

from repro.core.config import SecureCyclonConfig
from repro.experiments.scale import Scale, run_scale_stress
from repro.experiments.scenarios import build_secure_overlay

# 1.3x absorbs machine drift between the recording and this box (the
# same revision measured within ~1.15x of its fresh recording when
# cold) while still catching real regressions — the seed -> optimized
# delta this gate exists to protect was 2.1x.
BUDGET = 1.30
WALL_CLOCK_BUDGET_S = 120.0

bench_path = pathlib.Path("BENCH_core.json")
if not bench_path.exists():
    sys.exit("BENCH_core.json missing; run benchmarks/baseline.py first")
data = json.loads(bench_path.read_text())
entries = data["entries"]
label, entry = list(entries.items())[-1]
recorded = entry["metrics"]["full_cycle_200_nodes_ms"]["min"]

started = time.perf_counter()

overlay = build_secure_overlay(
    n=200, config=SecureCyclonConfig(view_length=20, swap_length=3), seed=1
)
overlay.run(3)
times = []
for _ in range(5):
    t0 = time.perf_counter()
    overlay.run(1)
    times.append((time.perf_counter() - t0) * 1e3)
measured = min(times)

ratio = measured / recorded
print(f"full cycle: {measured:.1f} ms vs recorded [{label}] {recorded:.1f} ms "
      f"(x{ratio:.2f}, budget x{BUDGET})")

# Batched-verification micro-kernel: re-time the fan-out scenario (the
# kernel's reason to exist) against the recorded number under a 20%
# budget — micro-kernels are far less noisy than full-cycle wall time,
# so the tighter budget holds.
BATCH_BUDGET = 1.20
batch_ratio = None
recorded_batch = entry["metrics"].get("batch_verify_fanout")
if recorded_batch is not None:
    sys.path.insert(0, "benchmarks")
    from bench_batch_verify import bench_fanout

    fanout = bench_fanout(rounds=8)
    batch_ratio = (
        fanout["batched_us_per_sighting"]
        / recorded_batch["batched_us_per_sighting"]
    )
    print(
        f"batch verify fanout: {fanout['batched_us_per_sighting']:.2f} us "
        f"vs recorded [{label}] "
        f"{recorded_batch['batched_us_per_sighting']:.2f} us "
        f"(x{batch_ratio:.2f}, budget x{BATCH_BUDGET})"
    )

# Codec fast path: re-time the fan-out decode (the per-frame cost the
# wire transport actually pays each cycle) against the recorded
# number.  Slightly looser than the verify kernel's budget: the codec
# kernel is dict-probe heavy, so allocator state moves it a bit more.
CODEC_BUDGET = 1.25
codec_ratio = None
recorded_codec = entry["metrics"].get("codec_fanout")
if recorded_codec is not None:
    if "benchmarks" not in sys.path:
        sys.path.insert(0, "benchmarks")
    from bench_codec import bench_fanout as bench_codec_fanout

    codec = bench_codec_fanout(rounds=8)
    codec_ratio = (
        codec["fast_decode_us_per_frame"]
        / recorded_codec["fast_decode_us_per_frame"]
    )
    print(
        f"codec fanout decode: {codec['fast_decode_us_per_frame']:.2f} us "
        f"vs recorded [{label}] "
        f"{recorded_codec['fast_decode_us_per_frame']:.2f} us "
        f"(x{codec_ratio:.2f}, budget x{CODEC_BUDGET}) | "
        f"intern hit rate {codec['intern_hit_rate']:.1%}"
    )

report = run_scale_stress(scale=Scale.SMOKE, seed=7)
print(report.render())

elapsed = time.perf_counter() - started
print(f"perf guard wall clock: {elapsed:.1f}s (budget {WALL_CLOCK_BUDGET_S:.0f}s)")
if elapsed > WALL_CLOCK_BUDGET_S:
    sys.exit("perf guard exceeded its wall-clock budget")
if ratio > BUDGET:
    sys.exit(f"full-cycle benchmark regressed: x{ratio:.2f} > x{BUDGET}")
if batch_ratio is not None and batch_ratio > BATCH_BUDGET:
    sys.exit(
        f"batched verification kernel regressed: x{batch_ratio:.2f} "
        f"> x{BATCH_BUDGET}"
    )
if codec_ratio is not None and codec_ratio > CODEC_BUDGET:
    sys.exit(
        f"codec fast path regressed: x{codec_ratio:.2f} > x{CODEC_BUDGET}"
    )
print("perf guard OK")
PY
fi

echo "== tier-1 tests =="
python -m pytest -x -q

# Gate benchmark self-check: the suite's own tests (tier-1 does not
# collect them), then one untraced pass each of steady_wire, hub40_wire
# and build_4k.  Their exit codes cover the seed-42 digests recorded in
# expected_digests.json and the wire == object twin digest, honest
# (steady_wire, where the verification plan's verdict memo carries the
# most traffic across cycles) and under the hub attack.  build_4k's
# digest pins the bootstrap's RNG stream at a population no golden
# covers (tests/test_bootstrap.py pins the linear cost: its sampler
# test fails if a build compares node ids).
echo "== gate benchmark (suite tests; steady_wire, hub40_wire and build_4k digest and twin checks) =="
python -m pytest benchmarks/suite/tests -q
python3 benchmarks/suite/run.py --workload steady_wire --seed 42 --trace 0 > /dev/null
echo "steady_wire gate pass ok"
python3 benchmarks/suite/run.py --workload hub40_wire --seed 42 --trace 0 > /dev/null
echo "hub40_wire gate pass ok"
python3 benchmarks/suite/run.py --workload build_4k --seed 42 --trace 0 > /dev/null
echo "build_4k gate pass ok"

# Docs gate: every experiment registered in the CLI must appear in the
# README's experiment table — an experiment nobody can discover from
# the front page is an experiment that silently rots.
echo "== docs: README experiment table covers the CLI =="
python - <<'PY'
import pathlib
import sys

from repro.experiments.__main__ import EXPERIMENTS

readme = pathlib.Path("README.md").read_text(encoding="utf-8")
missing = [name for name in sorted(EXPERIMENTS) if f"`{name}`" not in readme]
if missing:
    sys.exit(
        "README.md experiment table is missing CLI-registered "
        f"experiment(s): {', '.join(missing)}"
    )
print(f"all {len(EXPERIMENTS)} registered experiments documented")
PY

# Example gate: every example must actually run end to end at reduced
# scale (the examples honor REPRO_SCALE=smoke).
echo "== examples smoke-run (REPRO_SCALE=smoke) =="
for example in examples/*.py; do
    printf '  %s ... ' "$example"
    REPRO_SCALE=smoke timeout 300 python "$example" > /dev/null
    echo ok
done

# Coverage gate: the verification hot path (crypto + §IV-B modules)
# must not lose test reach.  Uses pytest-cov when installed, otherwise
# a stdlib trace-based fallback; baseline recorded in the script.
echo "== coverage gate (verification modules) =="
python scripts/coverage_gate.py

# The equivalence suite is part of tier-1 above; the dedicated step
# keeps the runtime-refactor safety net visible (and failing loudly by
# name) even if the tests move or tier-1 collection changes.
echo "== scheduler equivalence (CycleScheduler bit-for-bit vs golden; EventScheduler statistics) =="
python -m pytest -q tests/properties/test_scheduler_equivalence.py

# Once more with the whole harness flipped to the wire transport:
# every dialogue leg and push framed through the binary codec, every
# receiver decoding fresh objects from bytes and verifying through the
# engine's batched plan — still bit-for-bit.  Tier-1 already runs wire
# over all five goldens in-file; this step proves the REPRO_TRANSPORT
# escape hatch end to end, on one legacy-Cyclon and one SecureCyclon
# golden.
echo "== wire-transport equivalence (REPRO_TRANSPORT=wire vs golden) =="
REPRO_TRANSPORT=wire python -m pytest -q \
    tests/properties/test_scheduler_equivalence.py \
    -k "pre_refactor and (fig3 or fig5)"

# Wire-fault plane: the fault injector and health ledger must be
# bit-for-bit invisible while inert (tier-1 parametrises this over all
# five goldens x both transports in-file; this step names the guard),
# and the wire_faults experiment itself must run end to end — seven
# fault modes, quarantine engaging, no CodecError ever escaping the
# engine.
echo "== wire-fault plane (inert subsystem vs golden; wire_faults smoke-run) =="
python -m pytest -q tests/properties/test_scheduler_equivalence.py \
    -k "inert_fault_subsystem and object and (fig3 or fig5)"
REPRO_SCALE=smoke timeout 300 python -m repro.experiments wire_faults > /dev/null
echo "wire_faults smoke-run ok"

# Sharded engine: deterministic-mode worker fleets must be bit-for-bit
# the single-process engine.  Tier-1 runs the full fig x shard-count
# matrix (marker: golden_shard); this step names the guard on a cheap
# subset — one multi-overlay capture at 2 shards, one probe capture at
# 4 — and then smoke-runs the scale_sharded experiment end to end
# (which includes its own free-running and bit-exactness-checked rows).
echo "== sharded-engine equivalence (fork fleets vs golden; scale_sharded smoke-run) =="
python -m pytest -q \
    "tests/sim/test_shard_equivalence.py::test_sharded_runs_match_goldens[fig3-2]" \
    "tests/sim/test_shard_equivalence.py::test_sharded_runs_match_goldens[fig2-4]"
REPRO_SCALE=smoke timeout 300 python -m repro.experiments scale_sharded > /dev/null
echo "scale_sharded smoke-run ok"

# Bench-history schema: the recorded perf trajectory the perf guard
# reads must stay well-formed (a merge-mangled BENCH_core.json would
# otherwise feed the guard a silent garbage budget).
echo "== bench history schema (benchmarks/baseline.py --list) =="
python benchmarks/baseline.py --list

# Checkpoint/resume: an experiment checkpointed at its midpoint and
# resumed in a FRESH PROCESS must reproduce the committed golden
# bit-for-bit.  Tier-1 runs the in-process {object,wire} resume
# matrix (tests/ops/); this step proves
# the CLI split end to end — two invocations, two interpreters, one
# golden — on one object-transport and one wire-transport figure.
echo "== resume-golden (25+25 == 50: --checkpoint then --resume vs golden) =="
CKPT_DIR=$(mktemp -d)
trap 'rm -rf "$CKPT_DIR"' EXIT
for fig in fig2 fig5; do
    printf '  %s (object) checkpoint half ... ' "$fig"
    timeout 300 python -m repro.experiments "$fig" --scale smoke --seed 1 \
        --checkpoint "$CKPT_DIR/$fig" --output "$CKPT_DIR/$fig-first" > /dev/null
    diff -q "$CKPT_DIR/$fig-first/$fig.txt" "tests/properties/golden/$fig.txt" > /dev/null
    printf 'resume half ... '
    timeout 300 python -m repro.experiments "$fig" --scale smoke --seed 1 \
        --resume "$CKPT_DIR/$fig" --output "$CKPT_DIR/$fig-second" > /dev/null
    diff -q "$CKPT_DIR/$fig-second/$fig.txt" "tests/properties/golden/$fig.txt" > /dev/null
    echo ok
done
# The goldens cannot see how the state was stored: check that the object-
# mode file is format 2 with a shared descriptor table (fig2's run holds
# legacy-Cyclon nodes only, so fig5's is the one with descriptors).
printf '  fig5 (object) checkpoint is format 2 with a shared descriptor table ... '
python -m repro.ops inspect "$CKPT_DIR/fig5/run-0.ckpt" | python -c '
import json, sys
summary = json.load(sys.stdin)
ratio = summary["descriptor_table"]["dedupe_ratio"]
assert summary["format_version"] == 2, summary["format_version"]
assert ratio > 1, f"descriptor dedupe ratio {ratio} (per-node embedding?)"
print(f"ok (dedupe {ratio:.1f}x)")
'
printf '  fig5 (wire) checkpoint half ... '
REPRO_TRANSPORT=wire timeout 300 python -m repro.experiments fig5 --scale smoke --seed 1 \
    --checkpoint "$CKPT_DIR/fig5-wire" --output "$CKPT_DIR/fig5-wire-first" > /dev/null
diff -q "$CKPT_DIR/fig5-wire-first/fig5.txt" "tests/properties/golden/fig5.txt" > /dev/null
printf 'resume half ... '
REPRO_TRANSPORT=wire timeout 300 python -m repro.experiments fig5 --scale smoke --seed 1 \
    --resume "$CKPT_DIR/fig5-wire" --output "$CKPT_DIR/fig5-wire-second" > /dev/null
diff -q "$CKPT_DIR/fig5-wire-second/fig5.txt" "tests/properties/golden/fig5.txt" > /dev/null
echo ok
echo "resume-golden ok (object: fig2 fig5; wire: fig5)"
