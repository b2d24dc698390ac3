"""Grid, ingestion, filtering, interval classes, returns, detrending, cache."""
from __future__ import annotations

import io
import math
from datetime import date, time

import numpy as np
import pytest

from fstclock import (
    ClassSpecError,
    ClockCalibration,
    DataError,
    DayGrid,
    GeneratorConfig,
    IntervalClass,
    ParseError,
    PartitionSpec,
    PriceSeries,
    ReturnSample,
    SearchConfig,
    assemble_time_map,
    class_sample,
    detrend,
    filter_complete_days,
    ingest_csv,
    load_cache,
    load_series,
    raw_returns,
    save_cache,
)
from fstclock.analysis import _magnitude_matrix
from fstclock.series import dropped_between, synthetic_dates
from fstclock.synthetic import ActivityProfile, generate_seasonal, write_prices_csv

from conftest import series_from_matrix


GRID3 = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=3)


def csv_of(rows: str) -> io.StringIO:
    return io.StringIO("timestamp,price\n" + rows)


# --- grid ------------------------------------------------------------------

def test_grid_close_time_and_indexing():
    g = DayGrid(open_time=time(9, 40), bar_minutes=1, n_points=381)
    assert g.close_time == time(16, 0)
    assert g.close_index == 380
    assert g.bar_time(0) == time(9, 40)
    assert g.bar_index(time(16, 0)) == 380
    with pytest.raises(DataError):
        g.bar_index(time(9, 39))
    with pytest.raises(DataError):
        g.bar_index(time(16, 1))


def test_grid_rejects_overnight_session():
    with pytest.raises(ValueError):
        DayGrid(open_time=time(23, 0), bar_minutes=30, n_points=4)


def test_grid_off_grid_time_rejected():
    g = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=3)
    with pytest.raises(DataError):
        g.bar_index(time(9, 50))


# --- ingestion -------------------------------------------------------------

def test_ingest_basic_and_day_order():
    text = csv_of(
        "2020-01-03T09:40:00,100.0\n"
        "2020-01-03T10:00:00,101.0\n"
        "2020-01-03T10:20:00,102.0\n"
        "2020-01-02T09:40:00,90.0\n"
        "2020-01-02T10:00:00,91.0\n"
        "2020-01-02T10:20:00,92.0\n"
    )
    s = ingest_csv(text, GRID3)
    assert s.dates == (date(2020, 1, 2), date(2020, 1, 3))
    assert s.log_prices[0, 0] == pytest.approx(math.log(90.0))
    assert s.log_prices[1, 2] == pytest.approx(math.log(102.0))


def test_ingest_missing_bar_kept_as_nan():
    text = csv_of("2020-01-02T09:40:00,100\n2020-01-02T10:20:00,101\n")
    s = ingest_csv(text, GRID3)
    assert np.isnan(s.log_prices[0, 1])
    assert not s.complete_mask.all()


@pytest.mark.parametrize(
    "rows, exc",
    [
        ("not-a-date,100\n", ParseError),
        ("2020-01-02T09:40:00,abc\n", ParseError),
        ("2020-01-02T09:40:00,-5\n", DataError),
        ("2020-01-02T09:40:00,0\n", DataError),
        ("2020-01-02T09:41:00,100\n", DataError),  # off grid
        ("2020-01-02T09:40:00,100\n2020-01-02T09:40:00,101\n", DataError),  # not increasing
    ],
)
def test_ingest_rejects_bad_rows(rows, exc):
    with pytest.raises(exc):
        ingest_csv(csv_of(rows), GRID3)


def test_ingest_reports_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        ingest_csv(csv_of("2020-01-02T09:40:00,100\nbroken,1\n"), GRID3)


def test_ingest_bad_header():
    with pytest.raises(ParseError, match="header"):
        ingest_csv(io.StringIO("time,px\n2020-01-02T09:40:00,100\n"), GRID3)


def test_ingest_roundtrips_generated_increments(tmp_path):
    profile = ActivityProfile.flat(n_bars=19, overnight_mass=0.3)
    grid = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=20)
    series, _ = generate_seasonal(profile, GeneratorConfig(n_days=6, seed=42), grid)
    path = tmp_path / "prices.csv"
    write_prices_csv(series, path)
    back = ingest_csv(path, grid)
    np.testing.assert_allclose(
        np.diff(back.log_prices, axis=1), np.diff(series.log_prices, axis=1), atol=1e-12
    )


# --- filtering -------------------------------------------------------------

def test_filter_drops_and_preserves_bits():
    m = np.arange(12.0).reshape(4, 3)
    m[2, 1] = np.nan
    s = series_from_matrix(m, grid=GRID3)
    f = filter_complete_days(s)
    assert f.n_days == 3
    assert f.dropped_dates == (s.dates[2],)
    kept = [0, 1, 3]
    assert np.array_equal(f.log_prices, s.log_prices[kept])


def test_filter_tolerance():
    m = np.arange(12.0).reshape(4, 3)
    m[2, 1] = np.nan
    s = series_from_matrix(m, grid=GRID3)
    f = filter_complete_days(s, max_missing_bars=1)
    assert f.n_days == 4


def test_filter_everything_dropped_is_an_error():
    m = np.full((2, 3), np.nan)
    s = series_from_matrix(m, grid=GRID3)
    with pytest.raises(DataError):
        filter_complete_days(s)


# --- interval classes and returns ------------------------------------------

def test_intraday_returns_and_telescoping(default_grid, default_partition):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, default_grid.n_points)).cumsum(axis=1)
    s = series_from_matrix(m, grid=default_grid)
    p = default_partition
    first = raw_returns(s, IntervalClass.intraday(0, 1, p))
    second = raw_returns(s, IntervalClass.intraday(1, 2, p))
    union = raw_returns(s, IntervalClass.intraday(0, 2, p))
    np.testing.assert_allclose(first.values + second.values, union.values, atol=1e-12)
    assert first.n == 5


def test_overnight_skips_dropped_days(default_grid):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, default_grid.n_points)).cumsum(axis=1)
    s = series_from_matrix(m, grid=default_grid)
    # drop a middle day and rebuild: the pair straddling it must vanish
    holed = m.copy()
    holed[3, 5] = np.nan
    full = series_from_matrix(holed, grid=default_grid)
    filtered = filter_complete_days(full)
    r = raw_returns(filtered, IntervalClass.overnight())
    assert r.n == 3  # 4 adjacent pairs among the 5 retained days, one straddles the hole
    plain = raw_returns(s, IntervalClass.overnight())
    assert plain.n == 5


def test_overnight_weekend_gap_still_counts(default_grid):
    m = np.zeros((2, default_grid.n_points))
    s = PriceSeries(
        grid=default_grid,
        dates=(date(2020, 1, 3), date(2020, 1, 6)),  # Fri then Mon
        log_prices=m,
    )
    assert raw_returns(s, IntervalClass.overnight()).n == 1
    assert raw_returns(s, IntervalClass.overnight(nights=3)).n == 1
    with pytest.raises(DataError):
        raw_returns(s, IntervalClass.overnight(nights=1))


def test_multiday_nonoverlapping_default(default_grid):
    m = np.arange(7.0)[:, None] * np.ones((1, default_grid.n_points))
    s = series_from_matrix(m, grid=default_grid)
    r = raw_returns(s, IntervalClass.multiday(2))
    np.testing.assert_allclose(r.values, [2.0, 2.0, 2.0])


def test_multiday_skips_windows_spanning_dropped(default_grid):
    m = np.arange(5.0)[:, None] * np.ones((1, default_grid.n_points))
    m[2, 0] = np.nan
    s = filter_complete_days(series_from_matrix(m, grid=default_grid))
    r = raw_returns(s, IntervalClass.multiday(1))
    # retained days 0,1,3,4: pairs (0,1),(1,3)x,(3,4)
    assert r.n == 2


# Reference for the gap rule: the pairwise scan over retained days that
# raw_returns and the autocorrelation night slot used before it was vectorised.
def scan_windows(series, span, step, nights=None):
    out = []
    for i in range(0, series.n_days - span, step):
        d1, d2 = series.dates[i], series.dates[i + span]
        if nights is not None and (d2 - d1).days != nights:
            continue
        if any(d1 < d < d2 for d in series.dropped_dates):
            continue
        out.append(i)
    return out


def gappy_series(grid, seed):
    """Weekdays with random holidays, filtered twice with decreasing tolerance.

    Days missing three bars (second half) go in the first pass, days missing
    one bar (first half) in the second, so ``dropped_dates`` ends up out of
    order; a run of adjacent drops puts two sessions inside one closure.
    """
    rng = np.random.default_rng(seed)
    calendar = [d for d in synthetic_dates(80) if rng.random() > 0.1]
    m = rng.standard_normal((len(calendar), grid.n_points)).cumsum(axis=1)
    n = len(calendar)
    heavy = rng.choice(np.arange(n // 2, n - 1), size=4, replace=False)
    light = rng.choice(np.arange(1, n // 2 - 2), size=3, replace=False)
    for i in heavy:
        m[i, [2, 5, 7]] = np.nan
    for i in list(light) + [light[0] + 1]:
        m[i, 4] = np.nan
    raw = PriceSeries(grid=grid, dates=tuple(calendar), log_prices=m)
    filtered = filter_complete_days(filter_complete_days(raw, max_missing_bars=2))
    assert list(filtered.dropped_dates) != sorted(filtered.dropped_dates)
    return filtered


@pytest.mark.parametrize("seed", range(4))
def test_gap_rule_matches_pairwise_scan(default_grid, default_partition, seed):
    s = gappy_series(default_grid, seed)
    lp, close = s.log_prices, default_grid.close_index
    for span in (1, 2, 3):
        want = [
            sum(s.dates[i] < d < s.dates[i + span] for d in s.dropped_dates)
            for i in range(s.n_days - span)
        ]
        assert dropped_between(s, span).tolist() == want
        assert span > 1 or max(want) >= 2  # the adjacent light drops

    cases = [(IntervalClass.overnight(nights=n), 1, 1, n) for n in (None, 1, 3, 4)]
    cases += [(IntervalClass.multiday(n), n, n, None) for n in (1, 2, 3)]
    for iclass, span, step, nights in cases:
        starts = scan_windows(s, span, step, nights)
        bar = 0 if iclass.kind == "multiday" else close
        want = [lp[i + span, 0] - lp[i, bar] for i in starts]
        if want:
            assert raw_returns(s, iclass).values.tolist() == want, iclass.label
        else:
            with pytest.raises(DataError):
                raw_returns(s, iclass)

    cal = ClockCalibration(
        intraday_durations=np.full(default_partition.m_max, 0.03125),
        overnight_duration=0.40625,
        intraday_d=np.zeros(default_partition.m_max),
        overnight_d=0.0,
        reference_label="1-day",
        search=SearchConfig(),
    )
    tmap = assemble_time_map(cal, default_partition, default_grid, dates=s)
    night = _magnitude_matrix(s, 0.0625, tmap)[:, -1]
    starts = scan_windows(s, 1, 1)
    assert np.flatnonzero(~np.isnan(night)).tolist() == starts
    kept = np.asarray([lp[i + 1, 0] - lp[i, close] for i in starts])
    kept -= kept.mean()
    np.testing.assert_allclose(
        night[starts], np.abs(kept) * math.sqrt(0.0625 / 0.40625), rtol=1e-12
    )


def test_class_validation(default_partition):
    with pytest.raises(ClassSpecError):
        IntervalClass.intraday(2, 2, default_partition)
    with pytest.raises(ClassSpecError):
        IntervalClass.intraday(0, 99, default_partition)
    with pytest.raises(ClassSpecError):
        IntervalClass.multiday(0)
    with pytest.raises(ClassSpecError):
        IntervalClass.overnight(nights=0)


def test_returns_require_complete_days(default_grid, default_partition):
    m = np.zeros((2, default_grid.n_points))
    m[0, 1] = np.nan  # on a boundary the class actually reads
    s = series_from_matrix(m, grid=default_grid)
    with pytest.raises(DataError, match="filter_complete_days"):
        raw_returns(s, IntervalClass.intraday(0, 1, default_partition))
    m[0, 1] = 0.0
    m[1, 0] = np.nan  # the open that the overnight and 1-day windows read
    s = series_from_matrix(m, grid=default_grid)
    for c in (IntervalClass.overnight(), IntervalClass.multiday(1)):
        with pytest.raises(DataError, match="filter_complete_days"):
            raw_returns(s, c)


# --- detrending ------------------------------------------------------------

def test_detrend_centres_and_is_idempotent():
    rng = np.random.default_rng(2)
    raw = ReturnSample(values=rng.standard_normal(500) + 3.0, interval=IntervalClass.sample("x"))
    d1 = detrend(raw)
    assert abs(d1.values.mean()) <= 1e-12 * d1.values.std()
    d2 = detrend(d1)
    np.testing.assert_allclose(d2.values, d1.values, atol=1e-15)


def test_detrend_constant_sample():
    raw = ReturnSample(values=np.full(7, 0.1), interval=IntervalClass.sample("c"))
    d = detrend(raw)
    assert (d.values == 0.0).all()


def test_detrended_tag_is_validated():
    with pytest.raises(DataError):
        ReturnSample(
            values=np.array([1.0, 2.0, 3.0]),
            interval=IntervalClass.sample("bad"),
            detrended=True,
        )


# --- partition -------------------------------------------------------------

def test_partition_equal_spacing(default_grid):
    p = PartitionSpec.equal_spacing(default_grid, interval_minutes=20)
    assert p.m_max == 19
    assert p.boundaries[0] == 0 and p.boundaries[-1] == default_grid.close_index
    assert p.interval_minutes(1) == 20


def test_partition_rejects_below_cutoff():
    g = DayGrid(open_time=time(9, 40), bar_minutes=5, n_points=77)
    with pytest.raises(ClassSpecError):
        PartitionSpec.equal_spacing(g, interval_minutes=10, min_interval_minutes=20)


def test_partition_rejects_bad_boundaries():
    with pytest.raises(ClassSpecError):
        PartitionSpec(boundaries=(1, 5), bar_minutes=20)
    with pytest.raises(ClassSpecError):
        PartitionSpec(boundaries=(0, 5, 5), bar_minutes=20)


def test_partition_grid_mismatch(default_grid):
    p = PartitionSpec(boundaries=(0, 5), bar_minutes=20)
    with pytest.raises(ClassSpecError):
        p.check_grid(default_grid)  # close boundary is not the session close


# --- cache -----------------------------------------------------------------

def test_cache_roundtrip_exact(tmp_path, default_grid):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, default_grid.n_points))
    m[1, 2] = np.nan
    s = series_from_matrix(m, grid=default_grid, dropped=(date(2019, 12, 31),))
    path = tmp_path / "cache.json"
    save_cache(s, path)
    back = load_cache(path)
    assert back.dates == s.dates
    assert back.dropped_dates == s.dropped_dates
    assert np.array_equal(back.log_prices, s.log_prices, equal_nan=True)
    # doubles survive bit for bit
    both = ~np.isnan(s.log_prices)
    assert (back.log_prices[both] == s.log_prices[both]).all()


def test_load_series_dispatch(tmp_path, default_grid):
    m = np.zeros((2, default_grid.n_points))
    s = series_from_matrix(m, grid=default_grid)
    path = tmp_path / "cache.json"
    save_cache(s, path)
    assert load_series(path).n_days == 2
    with pytest.raises(DataError):
        load_series(tmp_path / "prices.csv")  # CSV without a grid
