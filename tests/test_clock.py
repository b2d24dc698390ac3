"""Calibration search, assembled clock, time map, additivity diagnostics."""
from __future__ import annotations

import json
from datetime import date, datetime, time

import numpy as np
import pytest

from fstclock import (
    ClassSpecError,
    ClockCalibration,
    DataError,
    DayGrid,
    IntervalClass,
    MapRangeError,
    PartitionSpec,
    PriceSeries,
    SearchConfig,
    additivity_report,
    assemble_time_map,
    calibrate_clock,
    calibrate_interval,
    filter_complete_days,
)

from conftest import brownian_series, make_sample


def gauss(n, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


# --- single-interval search -------------------------------------------------

def test_identity_calibrates_to_one_exactly():
    x = make_sample(gauss(500))
    r = calibrate_interval(x, x)
    assert r.delta_tau == 1.0
    assert r.ks.d == 0.0
    assert not r.boundary_warning


def test_power_of_two_scaling_is_exact():
    x = make_sample(gauss(400, seed=1))
    y = make_sample(2.0 * x.values)
    r = calibrate_interval(y, x)
    assert r.delta_tau == 4.0
    assert r.ks.d == 0.0


@pytest.mark.parametrize("c", [0.1, 0.5, 2.0, 10.0])
def test_generic_scaling_close(c):
    x = make_sample(gauss(2000, seed=2))
    y = make_sample(c * x.values)
    r = calibrate_interval(y, x)
    assert abs(r.delta_tau - c * c) <= 2e-3 * c * c


def test_counts_evaluations():
    x = make_sample(gauss(100, seed=3))
    r = calibrate_interval(x, x, extra_candidates=(0.9, 1.1))
    assert r.delta_tau == 1.0
    assert r.n_evaluations >= SearchConfig().coarse_grid_points + 2


def test_out_of_window_optimum_warns():
    # window chosen so the scale mismatch at the edge still has a clear
    # gradient; with a huge mismatch the empirical objective goes flat
    cfg = SearchConfig(delta_tau_min=0.25, delta_tau_max=4.0)
    x = make_sample(gauss(300, seed=4))
    lo = calibrate_interval(make_sample(0.25 * x.values), x, cfg)
    assert lo.boundary_warning
    assert lo.delta_tau == cfg.delta_tau_min  # smallest-value tie-break pins the edge
    hi = calibrate_interval(make_sample(4.0 * x.values), x, cfg)
    assert hi.boundary_warning
    assert hi.delta_tau >= 0.95 * cfg.delta_tau_max  # edge up to one sample-swap of jitter


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(delta_tau_min=0.0)
    with pytest.raises(ValueError):
        SearchConfig(delta_tau_min=10.0, delta_tau_max=1.0)
    with pytest.raises(ValueError):
        SearchConfig(coarse_grid_points=10)
    with pytest.raises(ValueError):
        SearchConfig(refine_rel_tol=0.0)


def test_grid_is_log_spaced():
    g = SearchConfig(delta_tau_min=1e-2, delta_tau_max=1e2, coarse_grid_points=101).grid()
    assert g.shape == (101,)
    steps = np.diff(np.log(g))
    np.testing.assert_allclose(steps, steps[0], rtol=1e-9)


# --- whole-day calibration --------------------------------------------------

@pytest.fixture(scope="module")
def noisy_series():
    return brownian_series(n_days=1000, n_bars=19, seed=11, night_sigma=2.0)


@pytest.fixture(scope="module")
def noisy_partition(noisy_series):
    return PartitionSpec.equal_spacing(noisy_series.grid, interval_minutes=20)


@pytest.fixture(scope="module")
def noisy_calibration(noisy_series, noisy_partition):
    return calibrate_clock(noisy_series, noisy_partition)


def test_clock_shape_and_scale(noisy_calibration):
    cal = noisy_calibration
    assert cal.m_max == 19
    assert (cal.intraday_durations > 0).all()
    assert cal.overnight_duration > 0
    assert cal.reference_label == "1-day"
    assert cal.day_total == pytest.approx(cal.trading_total + cal.overnight_duration)
    # independent increments: the pieces should roughly tile the reference day
    assert abs(cal.day_total - 1.0) < 0.1
    # night variance is 4x a bar's, so its duration should stand clear of the bars
    assert cal.overnight_duration > 2.0 * cal.intraday_durations.mean()


def test_clock_threads_are_deterministic(noisy_series, noisy_partition, noisy_calibration):
    threaded = calibrate_clock(noisy_series, noisy_partition, threads=4)
    assert (threaded.intraday_durations == noisy_calibration.intraday_durations).all()
    assert threaded.overnight_duration == noisy_calibration.overnight_duration
    assert (threaded.intraday_d == noisy_calibration.intraday_d).all()


def test_calibration_json_roundtrip(noisy_calibration):
    payload = noisy_calibration.to_json_dict()
    assert list(payload.keys()) == [
        "reference_class",
        "delta_tau_intraday",
        "delta_tau_night",
        "d_values",
        "search_config",
        "boundary_warnings",
    ]
    assert len(payload["d_values"]) == noisy_calibration.m_max + 1
    back = ClockCalibration.from_json_dict(json.loads(json.dumps(payload)))
    assert (back.intraday_durations == noisy_calibration.intraday_durations).all()
    assert back.overnight_duration == noisy_calibration.overnight_duration
    assert back.search == noisy_calibration.search


def test_calibration_validation():
    with pytest.raises(DataError):
        ClockCalibration(
            intraday_durations=np.array([0.1, -0.2]),
            overnight_duration=0.5,
            intraday_d=np.zeros(2),
            overnight_d=0.0,
            reference_label="1-day",
            search=SearchConfig(),
        )


# --- time map ---------------------------------------------------------------

def unit_day_calibration():
    # exactly representable durations so anchor arithmetic stays bitwise
    return ClockCalibration(
        intraday_durations=np.array([0.25, 0.25, 0.125]),
        overnight_duration=0.375,
        intraday_d=np.zeros(3),
        overnight_d=0.0,
        reference_label="1-day",
        search=SearchConfig(),
    )


MAP_GRID = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=7)
MAP_PARTITION = PartitionSpec(boundaries=(0, 2, 4, 6), bar_minutes=20)


def test_map_anchors_and_interpolation():
    tm = assemble_time_map(unit_day_calibration(), MAP_PARTITION, MAP_GRID, n_days=3)
    assert tm.n_days == 3
    d0 = tm.dates[0]
    open0 = datetime.combine(d0, time(9, 40))
    assert tm.map_time(open0) == 0.0
    assert tm.map_time(open0.replace(hour=10, minute=20)) == 0.25  # first boundary
    assert tm.map_time(open0.replace(hour=10, minute=0)) == 0.125  # mid-interval
    assert tm.map_time(datetime.combine(tm.dates[1], time(9, 40))) == 1.0
    assert tm.day_open_tau(2) == 2.0


def test_map_round_trip():
    tm = assemble_time_map(unit_day_calibration(), MAP_PARTITION, MAP_GRID, n_days=4)
    for tau in np.linspace(0.0, 4.0, 37):
        assert tm.map_time(tm.map_tau(float(tau))) == pytest.approx(tau, abs=1e-9)
    assert (np.diff(tm.anchor_tau) > 0).all()
    assert (np.diff(tm.anchor_seconds) > 0).all()


def test_map_weekend_compresses_to_one_night():
    dates = (date(2020, 1, 3), date(2020, 1, 6))  # Friday, Monday
    tm = assemble_time_map(unit_day_calibration(), MAP_PARTITION, MAP_GRID, dates=dates)
    assert tm.map_time(datetime.combine(dates[1], time(9, 40))) == 1.0
    saturday_noon = datetime(2020, 1, 4, 12, 0)
    assert 0.625 < tm.map_time(saturday_noon) < 1.0


def test_map_dropped_session_keeps_its_full_day():
    # Thu, Fri, Mon (one missing bar, dropped), Tue
    dates = (date(2020, 1, 2), date(2020, 1, 3), date(2020, 1, 6), date(2020, 1, 7))
    prices = np.zeros((4, MAP_GRID.n_points))
    prices[2, 3] = np.nan
    series = filter_complete_days(PriceSeries(grid=MAP_GRID, dates=dates, log_prices=prices))
    cal = unit_day_calibration()
    tm = assemble_time_map(cal, MAP_PARTITION, MAP_GRID, dates=series)
    assert len(list(tm.to_rows())) == series.n_days * (MAP_PARTITION.m_max + 1) + 1
    friday_close = tm.map_time(datetime(2020, 1, 3, 11, 40))
    tuesday_open = tm.map_time(datetime(2020, 1, 7, 9, 40))
    assert tuesday_open - friday_close == cal.overnight_duration + cal.day_total
    assert [tm.day_open_tau(l) for l in range(4)] == [0.0, 1.0, 3.0, 4.0]
    # the plain date list knows nothing of the dropped Monday
    plain = assemble_time_map(cal, MAP_PARTITION, MAP_GRID, dates=series.dates)
    assert plain.map_time(datetime(2020, 1, 7, 9, 40)) == 2.0


def test_map_range_errors():
    tm = assemble_time_map(unit_day_calibration(), MAP_PARTITION, MAP_GRID, n_days=2)
    with pytest.raises(MapRangeError):
        tm.map_time(datetime.combine(tm.dates[0], time(9, 0)))
    with pytest.raises(MapRangeError):
        tm.map_tau(2.0 + 1e-9)
    with pytest.raises(MapRangeError):
        tm.intraday_offset_minutes(0.7)


def test_map_intraday_offsets():
    tm = assemble_time_map(unit_day_calibration(), MAP_PARTITION, MAP_GRID, n_days=1)
    assert tm.intraday_offset_minutes(0.0) == 0.0
    assert tm.intraday_offset_minutes(0.25) == 40.0
    assert tm.intraday_offset_minutes(0.625) == 120.0
    assert tm.intraday_offset_minutes(0.125) == 20.0  # linear inside the interval


def test_map_rows_enumerate_anchors():
    tm = assemble_time_map(unit_day_calibration(), MAP_PARTITION, MAP_GRID, n_days=2)
    rows = list(tm.to_rows())
    assert len(rows) == 2 * 4 + 1
    assert rows[0][:2] == (0, 0)
    assert rows[4][:2] == (1, 0)
    assert rows[-1][:2] == (2, 0)
    taus = [r[3] for r in rows]
    assert taus == sorted(taus)
    assert taus[-1] == 2.0


def test_map_rejects_mismatched_partition():
    cal = unit_day_calibration()
    other = PartitionSpec(boundaries=(0, 3, 6), bar_minutes=20)
    with pytest.raises(ClassSpecError):
        assemble_time_map(cal, other, MAP_GRID, n_days=1)


# --- additivity -------------------------------------------------------------

def test_additivity_near_one_for_independent_increments(
    noisy_series, noisy_partition, noisy_calibration
):
    rows = additivity_report(noisy_series, noisy_partition, noisy_calibration)
    labels = [r.label for r in rows]
    assert labels == [
        "trading-day vs intraday sum",
        "1-day vs morning+afternoon+night",
        "2-day vs 2x1-day",
    ]
    # the 2-day row rests on a quarter of the windows, so its band is wider
    assert 0.9 < rows[0].ratio < 1.1
    assert 0.9 < rows[1].ratio < 1.1
    assert 0.75 < rows[2].ratio < 1.25


def test_additivity_flags_dependent_increments():
    dep = brownian_series(n_days=400, n_bars=19, seed=12, ar=0.5, night_sigma=1.0)
    part = PartitionSpec.equal_spacing(dep.grid, interval_minutes=20)
    cal = calibrate_clock(dep, part)
    rows = additivity_report(dep, part, cal)
    trading = rows[0]
    # adjacent bars reinforce each other, so the whole session outweighs its tiles
    assert trading.ratio > 1.5
