"""Windowed quantiles and the tail percentile."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench.stats import (
    TAIL_SAMPLES,
    quantile,
    tail_point,
    window_quantiles,
    windowed_quantile,
)


def test_windowed_quantile_is_median_of_per_window_quantiles() -> None:
    values = np.arange(1, 11, dtype=float)  # windows [1..5], [6..10]
    assert windowed_quantile(values, 0.5, 5) == pytest.approx(5.5)


def test_one_stalled_window_does_not_decide_the_run() -> None:
    calm = np.full(100, 2.0)
    stalled = np.concatenate([calm[:40], np.full(20, 500.0), calm[60:]])
    assert windowed_quantile(stalled, 0.9, 20) == pytest.approx(2.0)
    assert quantile(stalled, 0.9) == pytest.approx(500.0)


def test_trailing_partial_window_joins_the_last_full_one() -> None:
    values = [1.0] * 5 + [2.0] * 5 + [100.0] * 2
    # Two windows: five 1s, then five 2s plus two 100s.
    assert windowed_quantile(values, 0.0, 5) == pytest.approx(1.5)


def test_window_quantiles_lists_every_window_in_order() -> None:
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    # Windows of three: [5, 1, 9] and [3, 7, 2, 8] (the trailing one folded in).
    assert window_quantiles(values, 0.0, 3) == [1.0, 2.0]
    assert window_quantiles(values, 1.0, 3) == [9.0, 8.0]
    # The best window of a run with one slow stretch is a calm one.
    slow_then_calm = [40.0] * 50 + [30.0] * 50
    assert min(window_quantiles(slow_then_calm, 0.5, 25)) == pytest.approx(30.0)


def test_short_sample_is_one_window() -> None:
    assert windowed_quantile([3.0, 1.0, 2.0], 0.5, 10) == pytest.approx(2.0)


def test_tail_point_leaves_enough_samples_beyond() -> None:
    values = np.arange(100, dtype=float)[::-1]
    pct, value = tail_point(values)
    assert value == 89.0
    assert np.count_nonzero(values > value) == TAIL_SAMPLES
    assert pct == pytest.approx(90.0)


def test_tail_point_of_small_sample_is_median() -> None:
    assert tail_point([1.0, 2.0, 3.0]) == (50.0, 2.0)


@pytest.mark.parametrize("bad", [[], np.array([])])
def test_empty_samples_are_rejected(bad: list[float]) -> None:
    with pytest.raises(ValueError):
        quantile(bad, 0.5)
    with pytest.raises(ValueError):
        windowed_quantile(bad, 0.5, 4)
    with pytest.raises(ValueError):
        window_quantiles(bad, 0.5, 4)
