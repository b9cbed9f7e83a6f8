"""Self-tests of the benchmark suite, at tiny sizes (n = 40).

Run with ``python -m pytest benchmarks/suite/tests -q`` from the
repository root; no ``PYTHONPATH`` needed.  These check the instrument,
not the program: names agree with ``BENCHMARK.json``, the traced self
times add up to the traced wall, a deleted seam is tolerated, a wrong
digest fails the run, and ``--compare`` enforces the bounds.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
import types

import pytest

SUITE = pathlib.Path(__file__).resolve().parents[1]
ROOT = SUITE.parents[1]
sys.path.insert(0, str(SUITE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny(name: str, **sizes) -> dict:
    spec = workloads.sized(name)
    spec.update(n=40, cycles=6, steady_from=2, setup_reps=1)
    spec.update(sizes)
    return spec


def declared(section: str) -> list:
    return [metric["name"] for metric in CONTRACT[section]]


def test_names_match_the_contract():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.SPECS)
    for entry in CONTRACT["workloads"]:
        assert entry["why"] == workloads.SPECS[entry["name"]]["why"]
        assert len(entry["why"]) <= 200
    names = (
        list(workloads.SPECS) + declared("end_to_end") + declared("per_layer")
    )
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert CONTRACT["paths"] == ["benchmarks/suite"]
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize(
    "name, sizes",
    [
        ("steady_object", {}),
        ("sharded2_free", {"cycles": 3}),
        ("ckpt_resume", {"cycles": 3, "resume_cycles": 2}),
    ],
)
def test_untraced_pass_reports_every_end_to_end_metric(name, sizes):
    result = run.run_workload(name, 7, False, tiny(name, **sizes))
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 3
    line = json.loads(run.contract_line(result, CONTRACT["end_to_end"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize(
    "name, sizes",
    [
        ("steady_object", {}),
        ("steady_wire", {}),
        ("ckpt_resume", {"cycles": 3, "resume_cycles": 2}),
    ],
)
def test_traced_self_times_sum_to_the_timed_wall(name, sizes):
    result = run.run_workload(name, 7, True, tiny(name, **sizes))
    assert result["correct"], result
    line = json.loads(run.contract_line(result, CONTRACT["per_layer"]))
    assert list(line["metrics"]) == declared("per_layer")
    value = {k: m["value"] for k, m in line["metrics"].items()}
    assert value["trace.attributed_share"] == pytest.approx(1.0, abs=0.02)
    assert value["trace.seams_missing"] == 0 and result["seams_missing"] == []
    assert value["core.samples.observe_ms_per_cycle"] > 0
    codec = [v for k, v in value.items() if k.startswith("codec.")]
    if name == "steady_wire":
        assert value["codec.decode_ms_per_cycle"] > 0
        assert value["crypto.verify_calls_per_cycle"] > 0
    else:
        # The object transport has no codec layer: exactly zero.
        assert codec == [0] * len(codec)
    if name == "ckpt_resume":
        assert value["ops.read_decode_ms"] > 0 and value["ops.records"] > 40


def test_a_deleted_seam_is_tolerated(monkeypatch):
    from repro.core.view import SecureView

    original = SecureView.insert
    gone = (
        ("core.view", "repro.core.view:SecureView.no_such_method", {}),
        ("ops.capture", "repro.no_such_module:capture_records", {}),
    )
    monkeypatch.setattr(tracer, "SEAMS", tracer.SEAMS + gone)
    spans = tracer.Tracer()
    try:
        spans.install(("",))
        assert spans.missing == [target for _, target, _ in gone]
        assert SecureView.insert is not original
    finally:
        spans.uninstall()
    assert SecureView.insert is original

    # Its metric still appears (as zero), so the driver's "every
    # per-layer metric" holds while trace.seams_missing counts it.
    import worker

    network = types.SimpleNamespace(
        dialogues_opened=240, dialogue_bytes_forward=0, dialogue_bytes_backward=0,
        push_bytes=0, undecodable_frames=0, message_transport=None,
    )
    overlay = types.SimpleNamespace(engine=types.SimpleNamespace(network=network))
    timed = worker.Timed(
        overlay=overlay, cycle_ms=[1.0] * 6, wall_s=1.0, rss_mb=1.0,
        worker_cpu_s=0.0, parent_cpu_s=0.0, counters={},
    )
    metrics = worker.layer_metrics(
        tiny("steady_object"), timed, {}, [1.0] * 4, [1.0]
    )
    assert metrics["ops.capture_ms"]["value"] == 0
    produced = set(metrics) | {"ops.collect_row_ms", "trace.seams_missing"}
    assert produced == set(declared("per_layer"))


def test_a_wrong_expected_digest_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "sized", lambda name, scale: tiny(name))
    monkeypatch.setattr(run, "expected_digest", lambda *args: "0" * 32)
    assert run.main(["--workload", "steady_object", "--seed", "42"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] > 0


def test_recorded_digests_apply_only_to_their_seed_and_size():
    spec = workloads.sized("steady_object")
    assert run.expected_digest("steady_object", 42, spec) is not None
    assert run.expected_digest("steady_object", 43, spec) is None
    assert run.expected_digest("steady_object", 42, dict(spec, cycles=7)) is None
    assert run.expected_digest("sharded2_free", 42, workloads.sized("sharded2_free")) is None


def test_seconds_scale_cycles_but_never_below_the_floor():
    assert workloads.sized("steady_object", 0.5)["cycles"] == 30
    assert workloads.sized("hub40_wire", 0.1)["cycles"] == 20
    assert workloads.sized("steady_object", 0.5)["n"] == 500
    assert workloads.sized("steady_object", 0.5)["steady_from"] == 20
    tiny_ckpt = workloads.sized("ckpt_resume", 0.01)
    assert tiny_ckpt["steady_from"] < tiny_ckpt["cycles"] + tiny_ckpt["resume_cycles"]


def record(tmp_path, label, throughput, failed=0):
    path = tmp_path / f"{label}.json"
    metrics = {
        "setup_s": {"value": 1.0}, "cycle_ms_p50": {"value": 100.0},
        "peak_rss_mb": {"value": 300.0},
        "activations_per_s": {"value": throughput},
    }
    path.write_text(json.dumps({"workloads": {"steady_object": {
        "metrics": metrics, "attempted": 60, "failed": failed}}}))
    return str(path)


def test_compare_enforces_the_bounds(tmp_path, capsys):
    base = record(tmp_path, "a", 1000.0)
    assert run.compare(base, record(tmp_path, "b", 950.0), CONTRACT) == 0
    assert run.compare(base, record(tmp_path, "c", 700.0), CONTRACT) == 1
    assert "EXCEEDED" in capsys.readouterr().out
    assert run.compare(base, record(tmp_path, "d", 1000.0, failed=60), CONTRACT) == 1
    assert run.main(["--compare", base, base]) == 0
