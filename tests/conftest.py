"""Shared fixtures and independent helpers used across the test suite."""
from __future__ import annotations

import json
import os
from datetime import time

import numpy as np
import pytest

import fstclock
from fstclock import (
    ClassFit, ClockCalibration, DayGrid, IntervalClass, PartitionSpec, PriceSeries, ReturnSample,
    SearchConfig,
)
from fstclock.series import synthetic_dates


def child_env() -> dict:
    """The environment of a fresh interpreter that imports this fstclock."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(fstclock.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def calibration_from(durations, d=None) -> ClockCalibration:
    """A hand-built calibration: ``durations`` of the intervals in order, then of the night.

    Each record carries the label a partition's class gets, the D value of
    ``d`` (0 by default) and no cell.
    """
    labels = [f"intraday[{m}..{m + 1}]" for m in range(len(durations) - 1)] + ["overnight"]
    d = [0.0] * len(labels) if d is None else d
    fits = (ClassFit(*f) for f in zip(labels, map(float, durations), map(float, d), strict=True))
    return ClockCalibration(tuple(fits), reference_label="1-day", search=SearchConfig())


def json_roundtrip(cal: ClockCalibration) -> ClockCalibration:
    """``cal`` sent through ``json.dumps(to_json_dict())`` and ``from_json_dict``.

    The partition only labels the records, so any one of ``cal.m_max``
    intervals serves; the result must serialise to the same bytes.
    """
    text = json.dumps(cal.to_json_dict())
    partition = PartitionSpec(boundaries=tuple(range(cal.m_max + 1)), bar_minutes=20)
    back = ClockCalibration.from_json_dict(json.loads(text), partition)
    assert json.dumps(back.to_json_dict()) == text
    return back


@pytest.fixture(autouse=True)
def every_calibration_roundtrips():
    """Every calibration a test builds comes back equal from its own JSON."""
    built, post_init = [], ClockCalibration.__post_init__

    def recording(self):
        post_init(self)
        built.append(self)

    ClockCalibration.__post_init__ = recording
    try:
        yield
    finally:
        ClockCalibration.__post_init__ = post_init
    for cal in built:
        assert json_roundtrip(cal) == cal


def make_sample(values, label="test") -> ReturnSample:
    return ReturnSample(values=np.asarray(values, dtype=float), interval=IntervalClass.sample(label))


def series_from_matrix(matrix, grid=None, dropped=()) -> PriceSeries:
    matrix = np.asarray(matrix, dtype=float)
    if grid is None:
        grid = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=matrix.shape[1])
    dates = synthetic_dates(matrix.shape[0])
    return PriceSeries(grid=grid, dates=dates, log_prices=matrix, dropped_dates=dropped)


def brownian_series(
    n_days: int,
    n_bars: int,
    seed: int,
    sigma: float = 1.0,
    bar_minutes: int = 20,
    ar: float = 0.0,
    night_sigma: float = 0.0,
) -> PriceSeries:
    """Plain or AR(1)-correlated random-walk series, built outside the package.

    AR(1) increments: e_b = ar * e_{b-1} + eta_b with unit-variance
    stationary innovations, so the bar-scale lag-1 correlation is exactly
    ``ar``.  Used as the independent oracle for correlation estimators.
    """
    rng = np.random.default_rng(seed)
    rows = np.empty((n_days, n_bars + 1))
    level = 0.0
    for l in range(n_days):
        if l > 0:
            level += night_sigma * rng.standard_normal()
        eta = rng.standard_normal(n_bars)
        if ar:
            e = np.empty(n_bars)
            prev = rng.standard_normal() * 1.0  # stationary start
            for b in range(n_bars):
                prev = ar * prev + math_sqrt1m(ar) * eta[b]
                e[b] = prev
        else:
            e = eta
        rows[l, 0] = level
        rows[l, 1:] = level + np.cumsum(sigma * e)
        level = rows[l, -1]
    grid = DayGrid(open_time=time(9, 40), bar_minutes=bar_minutes, n_points=n_bars + 1)
    return PriceSeries(grid=grid, dates=synthetic_dates(n_days), log_prices=rows)


def math_sqrt1m(ar: float) -> float:
    return float(np.sqrt(1.0 - ar * ar))


def ar1_block_correlation(phi: float, k: int) -> float:
    """Closed-form correlation of adjacent k-sums of a stationary AR(1).

    cov = phi (1 - phi^k)^2 / (1 - phi)^2
    var = k (1 - phi^2) / (1 - phi)^2 - 2 phi (1 - phi^k) / (1 - phi)^2
        ... written below directly from the geometric sums.
    """
    if phi == 0.0:
        return 0.0
    g = (1.0 - phi**k) / (1.0 - phi)
    cov = phi * g * g
    var = k * (1.0 + phi) / (1.0 - phi) - 2.0 * phi * (1.0 - phi**k) / (1.0 - phi) ** 2
    return cov / var


@pytest.fixture(scope="session")
def default_grid() -> DayGrid:
    return DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=20)


@pytest.fixture(scope="session")
def default_partition(default_grid) -> PartitionSpec:
    return PartitionSpec.equal_spacing(default_grid, interval_minutes=20)


def shared_path_world(name: str):
    """A (series, partition, search window) on which every fit of a call shares one reference.

    ``ticks``: log prices on a 0.05 grid, so most returns are 0 and the rest
    few distinct values (heavy ties).  ``clipped``: a window of [0.5, 0.8]
    that clips every 20-minute class at its low edge and the loud closure at
    its high edge.
    """
    if name == "ticks":
        series = brownian_series(n_days=300, n_bars=19, seed=31, sigma=0.03, night_sigma=0.05)
        series = series_from_matrix(np.round(series.log_prices / 0.05) * 0.05)
        return series, PartitionSpec.equal_spacing(series.grid, interval_minutes=20), None
    series = brownian_series(n_days=300, n_bars=19, seed=32, night_sigma=12.0)
    cfg = SearchConfig(delta_tau_min=0.5, delta_tau_max=0.8)
    return series, PartitionSpec.equal_spacing(series.grid, interval_minutes=20), cfg
