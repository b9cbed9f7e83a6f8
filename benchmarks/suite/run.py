"""The benchmark suite's one command.

::

    python3 benchmarks/suite/run.py [--workload NAME]... [--seed 42]
        [--seconds S] [--trace [0|1]] [--json OUT]
    python3 benchmarks/suite/run.py --compare A.json B.json

Runs each named workload (default: all six) once, sequentially, each in
a fresh subprocess; checks its outputs; prints every metric by name with
its unit and sample count; and ends each workload with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Metric names, units and regression bounds live in ``BENCHMARK.json`` at
the repository root and nowhere else.

This is a closed loop with one driver: the only concurrency is the two
shard workers of ``sharded2_free``.  Simulated results are
deterministic, so correctness is checked exactly; host time is what is
measured.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
from typing import Any, Dict, List, Optional

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
sys.path.insert(0, str(SUITE))

from workloads import SPECS, sized  # noqa: E402

CONTRACT = ROOT / "BENCHMARK.json"
EXPECTED = SUITE / "expected_digests.json"
#: Checkpoint files land here (inside the checkout, ignored by git) and
#: are deleted by the worker that wrote them.
WORKDIR = SUITE / "_work"
SCHEMA = "repro-bench-suite/1"
#: Ambient mode switches that would silently change what is measured.
SCRUBBED = ("REPRO_TRANSPORT", "REPRO_VERIFICATION", "REPRO_OBSERVE", "REPRO_SCALE")
WORKER_TIMEOUT_S = 170


class SuiteError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def load_contract() -> Dict[str, Any]:
    try:
        return json.loads(CONTRACT.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SuiteError(f"cannot read {CONTRACT}: {exc}") from exc


def expected_digest(name: str, seed: int, spec: Dict[str, Any]) -> Optional[str]:
    """The recorded digest, when this is the recorded seed and size."""
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
    entry = recorded["digests"].get(name)
    if entry is None or seed != recorded["seed"]:
        return None
    if any(spec.get(key) != value for key, value in entry["sizes"].items()):
        return None
    return entry["digest"]


def run_workload(
    name: str,
    seed: int,
    trace: bool,
    spec: Dict[str, Any],
    expected: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload in a fresh, scrubbed subprocess; its result dict."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SuiteError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    WORKDIR.mkdir(exist_ok=True)
    job = {
        "workload": name,
        "spec": spec,
        "seed": seed,
        "trace": trace,
        "expected_digest": expected,
        "workdir": str(WORKDIR),
    }
    worker = subprocess.Popen(
        [sys.executable, str(SUITE / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
        # Its own process group, so a worker that dies or hangs cannot
        # leave shard workers behind.
        start_new_session=True,
    )
    try:
        out, _ = worker.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SuiteError(f"{name}: no result within {WORKER_TIMEOUT_S}s") from exc
    finally:
        try:
            os.killpg(worker.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        worker.wait()
    lines = out.strip().splitlines()
    if worker.returncode != 0 or not lines:
        raise SuiteError(f"{name}: worker exited with code {worker.returncode}")
    return json.loads(lines[-1])


def contract_line(result: Dict[str, Any], declared: List[Dict[str, str]]) -> str:
    """The driver's result line: exactly the declared metrics, with units."""
    metrics = {}
    for metric in declared:
        measured = result["metrics"].get(metric["name"])
        if measured is None:
            raise SuiteError(
                f"{result['workload']}: metric {metric['name']} was not measured"
            )
        metrics[metric["name"]] = {"value": measured["value"], "unit": metric["unit"]}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def print_result(result: Dict[str, Any], declared: List[Dict[str, str]]) -> None:
    sizes = " ".join(f"{key}={value}" for key, value in result["sizes"].items())
    print(f"== {result['workload']}  seed={result['seed']}  {sizes}")
    for metric in declared:
        measured = result["metrics"].get(metric["name"])
        if measured is None:
            continue
        note = f"{measured['samples']} samples"
        if "percentile" in measured:
            note += f", p{measured['percentile']:.0f}"
        print(
            f"   {metric['name']:<40} {measured['value']:>14.4f} "
            f"{metric['unit']:<6} ({note})"
        )
    failed = [name for name, passed in result["checks"].items() if not passed]
    share = result["failed"] / result["attempted"]
    print(
        f"   failed_share {share:.3f} ({result['failed']}/{result['attempted']} "
        f"operations)  checks: {len(result['checks']) - len(failed)} passed"
        + (f", FAILED {', '.join(failed)}" if failed else "")
        + (f"  digest {result['digest']}" if result["digest"] else "")
    )
    if result["error"]:
        print("   error: " + result["error"].strip().splitlines()[-1])
    if result.get("seams_missing"):
        print("   seams missing: " + ", ".join(result["seams_missing"]))


def host_record() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
    }


def compare(path_a: str, path_b: str, contract: Dict[str, Any]) -> int:
    """One row per (end-to-end metric, workload); non-zero when B is
    worse than A by more than the metric's bound, or fails more."""
    first = json.loads(pathlib.Path(path_a).read_text(encoding="utf-8"))
    second = json.loads(pathlib.Path(path_b).read_text(encoding="utf-8"))
    shared = [name for name in first["workloads"] if name in second["workloads"]]
    worse = False
    print(f"{'metric':<20} {'workload':<15} {'A':>12} {'B':>12} {'change':>8} {'bound':>6}")
    for metric in contract["end_to_end"]:
        for name in shared:
            a = first["workloads"][name]["metrics"].get(metric["name"])
            b = second["workloads"][name]["metrics"].get(metric["name"])
            if a is None or b is None:
                continue
            change = (b["value"] - a["value"]) / a["value"]
            regress = -change if metric["better"] == "higher" else change
            exceeded = regress > metric["bound"]
            worse |= exceeded
            print(
                f"{metric['name']:<20} {name:<15} {a['value']:>12.4f} "
                f"{b['value']:>12.4f} {change:>+8.1%} {metric['bound']:>6.2f}"
                + ("  EXCEEDED" if exceeded else "")
            )
    for name in shared:
        a, b = first["workloads"][name], second["workloads"][name]
        share_a = a["failed"] / a["attempted"]
        share_b = b["failed"] / b["attempted"]
        rose = share_b > share_a
        worse |= rose
        print(
            f"{'failed_share':<20} {name:<15} {share_a:>12.4f} {share_b:>12.4f} "
            f"{'':>8} {0:>6.2f}" + ("  ROSE" if rose else "")
        )
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(SPECS), metavar="NAME",
        help="run this workload (repeatable; default: all of them)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long the timed region should last on the reference box; "
        "scales every cycle count (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1: the traced pass, per-layer metrics; 0: end-to-end metrics",
    )
    parser.add_argument("--json", metavar="OUT", help="also write the full record here")
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="compare two --json records against the bounds and exit",
    )
    args = parser.parse_args(argv)

    try:
        contract = load_contract()
        if args.compare:
            return compare(*args.compare, contract)
        seconds = contract["run_seconds"] if args.seconds is None else args.seconds
        declared = contract["per_layer" if args.trace else "end_to_end"]
        record: Dict[str, Any] = {
            "schema": SCHEMA,
            "host": host_record(),
            "seed": args.seed,
            "seconds": seconds,
            "trace": bool(args.trace),
            "workloads": {},
        }
        all_correct = True
        for name in args.workload or list(SPECS):
            spec = sized(name, seconds / contract["run_seconds"])
            result = run_workload(
                name, args.seed, bool(args.trace), spec,
                expected_digest(name, args.seed, spec),
            )
            line = contract_line(result, declared)
            print_result(result, declared)
            print(line, flush=True)
            record["workloads"][name] = result
            all_correct &= result["correct"]
    except SuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8"
        )
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
