"""Unit tests for scale resolution."""

import pytest

from repro.experiments.scale import ENV_VAR, Scale, pick, resolve_scale


def test_explicit_argument_wins(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "full")
    assert resolve_scale(Scale.SMOKE) is Scale.SMOKE


def test_env_var(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "full")
    assert resolve_scale() is Scale.FULL
    monkeypatch.setenv(ENV_VAR, "smoke")
    assert resolve_scale() is Scale.SMOKE


def test_default(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert resolve_scale() is Scale.DEFAULT


def test_invalid_env_value(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "gigantic")
    with pytest.raises(ValueError):
        resolve_scale()


def test_pick():
    assert pick(Scale.SMOKE, 1, 2, 3) == 1
    assert pick(Scale.DEFAULT, 1, 2, 3) == 2
    assert pick(Scale.FULL, 1, 2, 3) == 3


def test_scale_stress_smoke():
    """The churn + hub-attack stress scenario runs healthy at SMOKE."""
    from repro.experiments.scale import run_scale_stress

    report = run_scale_stress(scale=Scale.SMOKE, seed=7)
    assert report.nodes == 40
    assert report.crashed >= 1
    assert report.joined == report.crashed
    assert report.final_population == report.nodes  # churn is balanced
    assert report.mean_view_fill > 0.8  # views healed after churn
    assert report.blacklisted_fraction > 0.9  # hub attackers caught
    assert report.cycles_per_second > 0
    assert "scale stress" in report.render()


def test_scale_stress_is_deterministic():
    from repro.experiments.scale import run_scale_stress

    first = run_scale_stress(scale=Scale.SMOKE, seed=11)
    second = run_scale_stress(scale=Scale.SMOKE, seed=11)
    assert first.mean_view_fill == second.mean_view_fill
    assert first.blacklisted_fraction == second.blacklisted_fraction
    assert first.crashed == second.crashed


def test_paper_scale_smoke():
    """Both transports complete and agree on overlay health."""
    from repro.experiments.scale import run_paper_scale

    report = run_paper_scale(scale=Scale.SMOKE, seed=3)
    assert [row.transport for row in report.rows] == ["object", "wire"]
    object_row, wire_row = report.rows
    assert object_row.nodes == wire_row.nodes == 60
    # Same seed, same protocol decisions: the converged health metric
    # must agree exactly across transports (and so across verifiers).
    assert object_row.mean_view_fill == wire_row.mean_view_fill
    assert object_row.cycles_per_second > 0
    assert wire_row.cycles_per_second > 0
    rendered = report.render()
    assert "paper scale" in rendered
    assert "wire" in rendered
