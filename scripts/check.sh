#!/usr/bin/env bash
# CI gate: tier-1 tests + the gate benchmark measured against the
# parent commit + docs consistency + example smoke-runs + the
# equivalence and resume-golden guards.
#
#   scripts/check.sh
#
# The perf step (scripts/perf_vs_parent.py) checks the parent commit
# out into a temporary git worktree and runs the gate suite on both
# trees on the same machine, alternating; the bounds are BENCHMARK.json's.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# One scratch directory and one EXIT trap for everything the steps
# below leave behind: the parent's worktree and the checkpoint files.
SCRATCH=$(mktemp -d)
PARENT_TREE="$SCRATCH/parent"
CKPT_DIR="$SCRATCH/ckpt"
mkdir "$CKPT_DIR"
cleanup() {
    if [[ -d "$PARENT_TREE" ]]; then
        git worktree remove --force "$PARENT_TREE" > /dev/null 2>&1 || true
    fi
    git worktree prune > /dev/null 2>&1 || true
    rm -rf "$SCRATCH"
}
trap cleanup EXIT

echo "== tier-1 tests =="
python -m pytest -x -q

# Gate benchmark: the suite's own tests (tier-1 does not collect them);
# the working tree against its parent commit on steady_object,
# steady_wire and hub40_wire (scripts/perf_vs_parent.py; each pass of
# the working tree also checks the seed-42 digests and the wire ==
# object twin digest); and one build_4k pass, whose digest pins the
# bootstrap's RNG stream at a population no golden covers.
echo "== gate benchmark (suite tests; change vs parent; build_4k digest and twin checks) =="
python -m pytest benchmarks/suite/tests -q
python3 scripts/perf_vs_parent.py --worktree "$PARENT_TREE"
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

# Checkpoint/resume: an experiment checkpointed at its midpoint and
# resumed in a FRESH PROCESS must reproduce the committed golden
# bit-for-bit.  Tier-1 runs the in-process {object,wire} resume
# matrix (tests/ops/); this step proves
# the CLI split end to end — two invocations, two interpreters, one
# golden — on one object-transport and one wire-transport figure.
echo "== resume-golden (25+25 == 50: --checkpoint then --resume vs golden) =="
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
