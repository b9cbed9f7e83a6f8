"""scripts/perf_vs_parent.py: each side's runs fold into one median
record, and the gate suite's own ``run.py --compare`` judges the pair."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "perf_vs_parent.py"


@pytest.fixture(scope="module")
def perf():
    spec = importlib.util.spec_from_file_location("perf_vs_parent", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(cycle_ms=360.0, failed=0, seed=42, n=500):
    """A fake ``run.py --json`` record of one untraced steady_object pass."""
    values = {"setup_s": 0.65, "activations_per_s": 1500.0,
              "cycle_ms_p50": cycle_ms, "peak_rss_mb": 358.0}
    run = {"seed": seed, "sizes": {"n": n, "cycles": 60}, "attempted": 60,
           "failed": failed,
           "metrics": {name: {"value": v, "samples": 1} for name, v in values.items()}}
    return {"schema": "repro-bench-suite/1", "seed": seed, "seconds": 12,
            "trace": False, "workloads": {"steady_object": run}}


def test_a_median_past_a_bound_fails(perf, tmp_path, capfd):
    parent = [record(360.0), record(355.0), record(370.0)]
    change = [record(470.0), record(460.0), record(480.0)]
    assert perf.compare_runs(parent, change, tmp_path) == 1
    assert "EXCEEDED" in capfd.readouterr().out


def test_one_outlier_run_is_absorbed_by_the_median(perf, tmp_path, capfd):
    parent = [record(360.0), record(355.0), record(370.0)]
    change = [record(362.0), record(900.0), record(358.0)]
    assert perf.compare_runs(parent, change, tmp_path) == 0
    out = capfd.readouterr().out
    assert "EXCEEDED" not in out
    assert "360.0000" in out and "362.0000" in out


def test_a_rise_in_the_failed_share_fails(perf, tmp_path, capfd):
    change = [record(), record(failed=60), record()]
    assert perf.compare_runs([record()] * 3, change, tmp_path) == 1
    assert "ROSE" in capfd.readouterr().out


@pytest.mark.parametrize("odd", [record(seed=7), record(n=200)], ids=["seed", "sizes"])
@pytest.mark.parametrize("side", ["parent", "change"])
def test_unlike_runs_are_refused(perf, tmp_path, odd, side):
    runs = {"parent": [record()] * 3, "change": [record()] * 3}
    runs[side][1] = odd
    with pytest.raises(perf.Refused, match="seeds or sizes"):
        perf.compare_runs(runs["parent"], runs["change"], tmp_path)
    assert not list(tmp_path.iterdir())
