"""Merging the launches of a batch run into one result."""

from __future__ import annotations

import pytest

from perfbench.program import FIG8_OBJECTS, merge


def _fig8_part(setup: float, dense: list[list[float]], sharded: list[list[float]],
               curves: list[list[float]]) -> dict:
    return {"setup_s": setup, "peak_rss_mib": 100.0 + setup, "attempted": 3,
            "failed": 0, "errors": [], "dense": dense, "sharded": sharded,
            "curves": curves}


def test_fig8_takes_each_curves_fastest_repetition_over_launches() -> None:
    curves = [[0.1, 0.2], [0.3, 0.4]]
    parts = [
        _fig8_part(1.0, [[2.0, 1.5], [4.0]], [[10.0], []], curves),
        _fig8_part(3.0, [[1.8], [3.0, 3.5]], [[], [20.0]], curves),
        _fig8_part(2.0, [[1.9], [3.2]], [[], []], curves),
    ]
    out = merge("fig8", parts)
    assert out["primary_ms"] == pytest.approx(1000.0 * (1.5 + 3.0))
    assert out["secondary_ms"] == pytest.approx(1000.0 * (10.0 + 20.0))
    assert out["rate_per_s"] == pytest.approx(2 * 2 * FIG8_OBJECTS / (4.5 + 30.0))
    assert out["setup_s"] == 2.0
    assert out["peak_rss_mib"] == 103.0
    assert out["attempted"] == 9
    assert out["errors"] == [] and out["failed"] == 0


def test_fig8_launches_that_disagree_fail() -> None:
    a = _fig8_part(1.0, [[1.0]], [[5.0]], [[0.1]])
    b = _fig8_part(1.0, [[1.0]], [[]], [[0.2]])
    out = merge("fig8", [a, b])
    assert out["failed"] == 1
    assert out["errors"] == ["launches computed different Fig. 8 curves"]


def _build_part(builds: list[list[float]], reloads: list[list[float]], digest: str) -> dict:
    return {"setup_s": 1.0, "peak_rss_mib": 500.0, "attempted": 4, "failed": 0,
            "errors": [], "builds": builds, "reloads": reloads, "instances": 1000,
            "digest": digest}


def test_build_takes_each_artifacts_fastest_repetition() -> None:
    parts = [
        _build_part([[5.0, 3.0, 1.0]], [[0.2, 0.1, 0.05], [0.1, 0.2, 0.05]], "x"),
        _build_part([[6.0, 2.0, 2.0]], [[0.3, 0.3, 0.01]], "x"),
    ]
    out = merge("build", parts)
    assert out["primary_ms"] == pytest.approx(1000.0 * (5.0 + 2.0 + 1.0))
    assert out["secondary_ms"] == pytest.approx(1000.0 * (0.1 + 0.1 + 0.01))
    assert out["rate_per_s"] == pytest.approx(1000 / 8.0)
    assert out["failed"] == 0
    parts[1]["digest"] = "y"
    assert merge("build", parts)["errors"] == ["launches built different artifacts"]
