"""Measure the working tree against its parent commit on the gate suite.

::

    python3 scripts/perf_vs_parent.py [--worktree DIR]

The parent is ``git merge-base HEAD main`` (HEAD without a ``main``
branch), or ``HEAD~1`` when that is HEAD itself and the tree is clean.
It is checked out into a temporary ``git worktree``.  Both trees run
``RUNS`` untraced passes of the gate workloads, alternating in ABBA
order so that drift on the box lands on both sides, each through that
tree's own ``benchmarks/suite/run.py``.  Each side folds into one record
of per-metric medians, and the working tree's ``run.py --compare``
judges the pair: the bounds and the failed-share rule are
``BENCHMARK.json``'s and are written nowhere else.

Exit status: 0 within bounds; 1 when a median breaches its bound, the
failed share rises, or a pass of the working tree fails its own checks
(a wrong digest or twin digest); 2 when there is no parent to measure
against or the runs are not like for like.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
SUITE_RUN = pathlib.Path("benchmarks", "suite", "run.py")
WORKLOADS = ("steady_object", "steady_wire", "hub40_wire")
SEED = 42
#: Passes per side.  If a no-op change ever fails, raise this; never
#: loosen a bound.
RUNS = 3


class Refused(Exception):
    """There is no parent to measure against, or nothing like for like."""


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise Refused(f"git {' '.join(args)}: {done.stderr.strip() or 'failed'}")
    return done.stdout.strip()


def parent_commit() -> str:
    try:
        head = git("rev-parse", "--verify", "HEAD")
    except Refused as exc:
        raise Refused(f"{ROOT} is not a git checkout with a commit ({exc})") from None
    try:
        base = git("merge-base", "HEAD", "main")
    except Refused:
        base = head
    if base != head or git("status", "--porcelain"):
        return base
    try:
        return git("rev-parse", "--verify", "HEAD~1^{commit}")
    except Refused:
        raise Refused(f"HEAD {head[:12]} is clean and has no parent commit") from None


def shape(record: Dict[str, Any]) -> str:
    """The workloads with their seeds and sizes: what two records must
    share to be compared."""
    return json.dumps(
        {name: [run["seed"], run["sizes"]] for name, run in record["workloads"].items()},
        sort_keys=True,
    )


def fold(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Per workload, each metric's median over the runs, and the failed
    and attempted operations summed over them."""
    workloads = {}
    for name in records[0]["workloads"]:
        runs = [record["workloads"][name] for record in records]
        values: Dict[str, List[float]] = {}
        for run in runs:
            for metric, measured in run["metrics"].items():
                values.setdefault(metric, []).append(measured["value"])
        workloads[name] = {
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": {
                metric: {"value": statistics.median(series), "samples": len(series)}
                for metric, series in values.items()
            },
        }
    return {**records[0], "workloads": workloads}


def compare_runs(
    parent: Sequence[Dict[str, Any]],
    change: Sequence[Dict[str, Any]],
    workdir: pathlib.Path,
) -> int:
    """Fold each side; the exit status of ``run.py --compare`` on the two."""
    if len({shape(record) for record in (*parent, *change)}) != 1:
        raise Refused("the runs differ in workloads, seeds or sizes")
    paths = []
    for side, records in (("parent", parent), ("change", change)):
        path = workdir / f"{side}-median.json"
        path.write_text(json.dumps(fold(records), indent=1) + "\n", encoding="utf-8")
        paths.append(str(path))
    command = [sys.executable, str(ROOT / SUITE_RUN), "--compare", *paths]
    return subprocess.run(command).returncode


def measure(tree: pathlib.Path, workdir: pathlib.Path) -> int:
    trees = {"parent": tree, "change": ROOT}
    records: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
    # Each tree's run.py puts its own src/ first; an inherited path
    # would only add the other tree's modules behind it.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    for index in range(RUNS):
        for side in ("parent", "change")[:: 1 if index % 2 == 0 else -1]:
            out = workdir / f"{side}-{index}.json"
            command = [sys.executable, str(trees[side] / SUITE_RUN), "--seed", str(SEED)]
            command += [f"--workload={name}" for name in WORKLOADS]
            started = time.perf_counter()
            status = subprocess.run(
                command + ["--trace", "0", "--json", str(out)],
                cwd=trees[side], env=env, stdout=subprocess.DEVNULL,
            ).returncode
            if side == "change" and status != 0:
                print(f"perf_vs_parent: the working tree's pass {index + 1} exited "
                      f"{status}: its output or digest checks failed", file=sys.stderr)
                return 1
            if not out.is_file():
                raise Refused(f"the parent's pass {index + 1} exited {status}, no record")
            records[side].append(json.loads(out.read_text(encoding="utf-8")))
            cycles = ", ".join(
                f"{name} {run['metrics']['cycle_ms_p50']['value']:.0f}"
                for name, run in records[side][-1]["workloads"].items()
                if "cycle_ms_p50" in run["metrics"]
            )
            print(f"  {side:<6} pass {index + 1}/{RUNS}: cycle_ms_p50 {cycles} "
                  f"({time.perf_counter() - started:.0f} s)", flush=True)
    print(f"medians of {RUNS} passes per side:", flush=True)
    return compare_runs(records["parent"], records["change"], workdir)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--worktree", type=pathlib.Path, metavar="DIR",
        help="where to check the parent out; must not exist (default: a temporary one)",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="perf-vs-parent-") as scratch:
        workdir = pathlib.Path(scratch)
        tree = args.worktree or workdir / "parent"
        try:
            parent = parent_commit()
            print(f"parent {parent[:12]} vs the working tree of {ROOT}", flush=True)
            git("worktree", "add", "--detach", "--quiet", str(tree), parent)
            try:
                status = measure(tree, workdir)
            finally:
                for command in (("remove", "--force", str(tree)), ("prune",)):
                    subprocess.run(["git", "worktree", *command], cwd=ROOT, capture_output=True)
        except Refused as exc:
            print(f"perf_vs_parent: {exc}", file=sys.stderr)
            return 2
    print(f"perf_vs_parent wall clock: {time.perf_counter() - started:.0f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())
