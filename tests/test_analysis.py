"""Moments, Hurst slopes, collapse, profiles, correlation estimators."""
from __future__ import annotations

import math
import subprocess
import sys
import warnings
from datetime import time

import numpy as np
import pytest

from fstclock import (
    ClassSpecError,
    DataError,
    DayGrid,
    IntervalClass,
    MomentTable,
    PartitionSpec,
    assemble_time_map,
    class_sample,
    clock_returns,
    cutoff_check,
    filter_complete_days,
    hurst_slopes,
    intraday_volatility_profile,
    linear_correlation_contiguous,
    moment_curve,
    pdf_collapse_export,
    pooled_bar_sample,
    span_union_samples,
    volatility_autocorrelation,
)
import fstclock.analysis as analysis_module
from fstclock.analysis import CorrelationCurve
from fstclock.series import demean, dropped_between
from fstclock.synthetic import ActivityProfile, GeneratorConfig, generate_seasonal

from conftest import (
    ar1_block_correlation, brownian_series, calibration_from, child_env, make_sample,
    series_from_matrix,
)


GRID18 = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=19)
PART60 = PartitionSpec.equal_spacing(GRID18, interval_minutes=60)


# --- sample builders --------------------------------------------------------

def test_pooled_bar_sample_counts_and_label(default_grid):
    s = brownian_series(n_days=10, n_bars=19, seed=40)
    pooled = pooled_bar_sample(s, 2)
    assert pooled.interval.label == "pooled[40min]"
    assert pooled.n == 10 * 9  # starts 0,2,...,16
    assert pooled.detrended
    assert (pooled.interval.kind, pooled.interval.bar_start, pooled.interval.bar_end) == ("sample", 0, 2)
    with pytest.raises(ClassSpecError, match="at least 1 bar, got 0"):
        pooled_bar_sample(s, 0)
    with pytest.raises(ClassSpecError, match=r"^class 'pooled\[400min\]' needs bar 20, grid ends at 19$"):
        pooled_bar_sample(s, 20)


def test_span_union_rows(default_grid, default_partition):
    s = brownian_series(n_days=30, n_bars=19, seed=41, night_sigma=1.0)
    rows = span_union_samples(s, default_partition, spans=(1, 2), multiday=(2,))
    assert len(rows) == 19 + 18 + 1 + 1
    assert rows[0].physical_duration == 20.0
    assert rows[19].physical_duration == 40.0
    night = rows[-2]
    assert night.label == "overnight"
    assert night.physical_duration == 24.0 * 60.0 - 380.0
    assert rows[-1].label == "2-day"
    assert rows[-1].physical_duration == 2880.0
    assert all(r.fst_duration is None for r in rows)


def test_span_union_fst_durations_are_additive(default_grid, default_partition):
    s = brownian_series(n_days=30, n_bars=19, seed=42, night_sigma=1.0)
    cal = calibration_from([*np.linspace(0.01, 0.1, 19), 0.2])
    rows = span_union_samples(s, default_partition, spans=(2,), calibration=cal)
    for a, row in enumerate(rows[:-1]):
        assert row.fst_duration == float(cal.intraday_durations[a : a + 2].sum())
    assert rows[-1].fst_duration == cal.overnight_duration


# --- moments and slopes -----------------------------------------------------

def test_moment_curve_frozen_value():
    t = moment_curve([(1.0, make_sample([1.0, -2.0, 3.0]))], orders=(2.0,))
    assert t.moments[0, 0] == pytest.approx(14.0 / 3.0, abs=1e-15)


def test_moment_curve_invariances():
    rng = np.random.default_rng(43)
    v = rng.standard_normal(400)
    base = moment_curve([(1.0, make_sample(v))]).moments
    perm = moment_curve([(1.0, make_sample(rng.permutation(v)))]).moments
    flip = moment_curve([(1.0, make_sample(-v))]).moments
    np.testing.assert_allclose(perm, base, rtol=1e-12)
    np.testing.assert_allclose(flip, base, rtol=0)


@pytest.mark.parametrize("orders,message", [
    ((1.0, 0.0), "moment orders must be positive"),
    ((1.0, math.nan), "moment orders must be finite"),
    ((math.inf,), "moment orders must be finite"),
])
def test_moment_curve_refuses_orders_that_are_not_positive_and_finite(orders, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        moment_curve([(1.0, make_sample([1.0, -2.0, 3.0]))], orders=orders)


def test_moment_curve_takes_each_moment_as_the_sample_alone_does():
    rng = np.random.default_rng(46)
    lengths = [1, 2, 7, 9, 128, 129, 7, 129, 300, 1, 2]
    samples = [(float(i + 1), make_sample(rng.standard_normal(n) * rng.uniform(0.1, 3.0), f"s{i}"))
               for i, n in enumerate(lengths)]
    orders = (0.5, 1.0, 1.7, 2.0, 3.0, 4.0)
    want = np.array([[np.mean(np.abs(s.values) ** q) for q in orders] for _, s in samples])
    got = moment_curve(samples, orders=orders).moments
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("build", [moment_curve, pdf_collapse_export])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_durations_that_are_not_finite_and_positive_are_refused(build, bad):
    samples = [(1.0, make_sample([1.0, -2.0, 3.0], "fine")), (bad, make_sample([0.5, -1.0], "odd"))]
    with pytest.raises(DataError, match=r"^sample 'odd' has duration .*finite and positive$"):
        build(samples)
    with pytest.raises(DataError, match="finite and positive"):
        MomentTable(durations=[1.0, bad], orders=[1.0], moments=[[1.0], [1.0]],
                    clock_tag="physical")


def power_law_table(hurst, lambda2=0.0):
    d = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    q = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    zeta = q * hurst - 0.5 * lambda2 * q * (q - 2.0)
    m = d[:, None] ** zeta[None, :]
    return MomentTable(durations=d, orders=q, moments=m, clock_tag="physical")


def test_hurst_exact_on_power_law():
    spec = hurst_slopes(power_law_table(0.5), fit_range=(1.0, 16.0))
    np.testing.assert_allclose(spec.hurst, 0.5, atol=1e-10)
    np.testing.assert_allclose(spec.rms_residuals, 0.0, atol=1e-10)
    assert spec.spread(1.0, 4.0) == pytest.approx(0.0, abs=1e-10)


def test_hurst_exact_on_bending_spectrum():
    from fstclock.synthetic import cascade_hurst

    spec = hurst_slopes(power_law_table(0.5, lambda2=0.05), fit_range=(1.0, 16.0))
    expect = [cascade_hurst(q, 0.05) for q in spec.orders]
    np.testing.assert_allclose(spec.hurst, expect, atol=1e-10)
    assert spec.spread(1.0, 4.0) == pytest.approx(1.5 * 0.05, abs=1e-10)


def test_hurst_fit_range_excludes_outliers():
    t = power_law_table(0.5)
    bad = t.moments.copy()
    bad[-1] *= 10.0  # corrupt duration 16, then fit below it
    t2 = MomentTable(durations=t.durations, orders=t.orders, moments=bad, clock_tag="physical")
    spec = hurst_slopes(t2, fit_range=(1.0, 8.0))
    np.testing.assert_allclose(spec.hurst, 0.5, atol=1e-10)


def test_hurst_drops_nonpositive_moments():
    t = power_law_table(0.5)
    m = t.moments.copy()
    m[0, 0] = 0.0  # one dead entry leaves 4 usable durations
    t2 = MomentTable(durations=t.durations, orders=t.orders, moments=m, clock_tag="physical")
    with pytest.warns(UserWarning, match="non-positive"):
        spec = hurst_slopes(t2, fit_range=(1.0, 16.0))
    assert spec.hurst[0] == pytest.approx(0.5, abs=1e-10)

    m[1:3, 0] = 0.0  # now only 2 remain at q=0.5
    t3 = MomentTable(durations=t.durations, orders=t.orders, moments=m, clock_tag="physical")
    with pytest.warns(UserWarning) as rec:
        spec3 = hurst_slopes(t3, fit_range=(1.0, 16.0))
    assert any("fewer than 3" in str(w.message) for w in rec)
    assert np.isnan(spec3.hurst[0])
    assert spec3.hurst[2] == pytest.approx(0.5, abs=1e-10)


def test_hurst_range_validation():
    with pytest.raises(DataError):
        hurst_slopes(power_law_table(0.5), fit_range=(1.0, 2.0))
    with pytest.raises(ValueError):
        hurst_slopes(power_law_table(0.5), fit_range=(2.0, 1.0))


# --- collapse ---------------------------------------------------------------

def test_collapse_identity_at_unit_duration():
    v = np.random.default_rng(44).standard_normal(1000)
    rows = pdf_collapse_export([(1.0, make_sample(v))], hurst=0.5)
    assert (rows[0].rescaled_values == v).all()
    width = rows[0].bin_centers[1] - rows[0].bin_centers[0]
    assert rows[0].density.sum() * width <= 1.0 + 1e-12


def test_collapse_exact_for_rescaled_copy():
    v = np.random.default_rng(45).standard_normal(1000)
    rows = pdf_collapse_export(
        [(1.0, make_sample(v)), (4.0, make_sample(2.0 * v))], hurst=0.5
    )
    assert (rows[0].rescaled_values == rows[1].rescaled_values).all()
    assert (rows[0].density == rows[1].density).all()
    assert (rows[0].bin_centers == rows[1].bin_centers).all()


def test_collapse_bins_every_sample_as_np_histogram_does():
    rng = np.random.default_rng(47)
    half = rng.standard_normal(600)
    base = np.concatenate([half, -half])  # median exactly 0
    n_bins = 101
    rsd = 1.4826 * float(np.median(np.abs(base)))
    edges = np.linspace(-6.0 * rsd, 6.0 * rsd, n_bins + 1)
    # Values on edges (the outer ones included) and outside the window.  Each
    # far value comes with a near one on the same side of the median, so
    # neither the median nor the median absolute deviation, nor the edges, move.
    far = [edges[0], edges[-1], edges[1], edges[-2], edges[10], edges[-11], -10 * rsd, 10 * rsd,
           edges[0], edges[-1]]
    near = [edges[50], edges[51], edges[49], edges[52], edges[48], edges[53], edges[47],
            edges[54], edges[50], edges[51]]
    values = rng.permutation(np.concatenate([base, far, near]))
    pooled_rsd = 1.4826 * float(np.median(np.abs(values - np.median(values))))
    assert np.linspace(-6.0 * pooled_rsd, 6.0 * pooled_rsd, n_bins + 1).tobytes() == edges.tobytes()

    parts = np.split(values, [1, 400, 410])
    rows = pdf_collapse_export([(1.0, make_sample(v, f"s{i}")) for i, v in enumerate(parts)],
                               hurst=0.5, n_bins=n_bins)
    width = edges[1] - edges[0]
    for row, v in zip(rows, parts):
        assert row.bin_centers.tobytes() == (0.5 * (edges[:-1] + edges[1:])).tobytes()
        want = np.histogram(v, bins=edges)[0] / (v.size * width)
        assert row.density.tobytes() == want.tobytes()


def test_collapse_validation():
    with pytest.raises(DataError):
        pdf_collapse_export([])
    with pytest.raises(ValueError):
        pdf_collapse_export([(1.0, make_sample([1.0, 2.0]))], n_bins=2)


# --- returns on the calibrated clock ---------------------------------------

@pytest.fixture(scope="module")
def gappy_clock():
    """80 days with four filter-dropped sessions, two of them adjacent, on an uneven clock."""
    m = brownian_series(n_days=80, n_bars=18, seed=52, night_sigma=1.0).log_prices.copy()
    m[[10, 30, 31, 55], 4] = np.nan
    series = filter_complete_days(series_from_matrix(m, grid=GRID18))
    cal = calibration_from([0.05, 0.02, 0.01, 0.015, 0.03, 0.06, 0.4])
    return series, assemble_time_map(cal, PART60, series)


def test_clock_return_nights_are_the_overnight_class(gappy_clock):
    series, tmap = gappy_clock
    _, nights = clock_returns(series, tmap, 0.025)
    gaps = np.flatnonzero(np.append(dropped_between(series) > 0, True))
    assert gaps.tolist() == [9, 28, 51, series.n_days - 1]
    assert np.flatnonzero(np.isnan(nights)).tolist() == gaps.tolist()
    kept = nights[~np.isnan(nights)]
    assert kept.tolist() == class_sample(series, IntervalClass.overnight()).values.tolist()


@pytest.mark.parametrize("n_bins", [1, 6, 7.5, 18])
def test_clock_return_bins_match_a_per_day_interpolation(gappy_clock, n_bins):
    series, tmap = gappy_clock
    cal = tmap.calibration
    delta = cal.trading_total / n_bins
    bins, _ = clock_returns(series, tmap, delta)
    # the map is linear in each interval: clock edges to bar positions
    bounds_tau = np.concatenate([[0.0], np.cumsum(cal.intraday_durations)])
    bounds_bar = np.asarray(PART60.boundaries, dtype=float)
    edges = np.interp(np.arange(int(n_bins) + 1) * delta, bounds_tau, bounds_bar)
    bars = np.arange(series.grid.n_points)
    want = np.asarray([np.diff(np.interp(edges, bars, day)) for day in series.log_prices])
    assert bins.shape == (series.n_days, int(n_bins))
    # a return near zero keeps the absolute rounding of the mean it lost
    np.testing.assert_allclose(bins, demean(want), rtol=1e-12, atol=1e-14)


def test_clock_slots_are_the_bins_and_the_shrunk_night(gappy_clock):
    series, tmap = gappy_clock
    delta = tmap.calibration.trading_total / 6
    bins, nights = clock_returns(series, tmap, delta)
    nights *= math.sqrt(delta / 0.4)
    flat = np.abs(np.column_stack([bins, nights])).ravel()
    curve = volatility_autocorrelation(series, delta, [1, 2, 7], time_map=tmap)
    for h, value, n_pairs in zip(curve.lags, curve.values, curve.n_pairs):
        a, b = flat[:-h], flat[h:]
        ok = ~(np.isnan(a) | np.isnan(b))
        assert n_pairs == ok.sum()
        assert value == pytest.approx(np.corrcoef(a[ok], b[ok])[0, 1], rel=1e-12)


# --- intraday profile -------------------------------------------------------

def test_physical_profile_exact_on_deterministic_series():
    a = np.array([1.0, 2.0, 4.0])
    n_days = 8
    inc = a[None, :] * (-1.0) ** np.arange(n_days)[:, None]
    z = np.concatenate([np.zeros((n_days, 1)), np.cumsum(inc, axis=1)], axis=1)
    grid = DayGrid(open_time=time(9, 40), bar_minutes=30, n_points=4)
    s = series_from_matrix(z, grid=grid)
    part = PartitionSpec.equal_spacing(grid, interval_minutes=30)
    prof = intraday_volatility_profile(s, part)
    np.testing.assert_allclose(prof.sigma, a, atol=0)
    np.testing.assert_allclose(prof.positions, [15.0, 45.0, 75.0])
    assert prof.peak_to_mean() == pytest.approx(4.0 / a.mean())


@pytest.fixture(scope="module")
def stepped():
    prof = ActivityProfile.u_steps(18, 6, edge_boost=8.0)
    series, gt = generate_seasonal(prof, GeneratorConfig(n_days=2000, seed=31), GRID18)
    cal = gt.calibration_for(PART60)
    tmap = assemble_time_map(cal, PART60, series)
    return series, tmap


def test_clock_bins_flatten_seasonality(stepped):
    series, tmap = stepped
    phys = intraday_volatility_profile(series, PART60)
    flat = intraday_volatility_profile(series, PART60, time_map=tmap)
    assert phys.clock_tag == "physical" and flat.clock_tag == "fst"
    assert phys.peak_to_mean() > 1.3
    assert flat.peak_to_mean() < 1.1
    assert flat.peak_to_mean() < phys.peak_to_mean()


def test_clock_bins_are_refused_before_they_are_built(stepped):
    series, tmap = stepped
    total = tmap.calibration.trading_total
    with pytest.raises(ClassSpecError) as err:
        intraday_volatility_profile(series, PART60, time_map=tmap, n_bins=100_000)
    assert str(err.value) == "100000 clock bins exceed the 18 bars of the day"
    for delta, message in (
        (-0.05, "a clock bin must last a positive duration, not -0.05"),
        (0.0, "a clock bin must last a positive duration, not 0.0"),
        (math.nan, "a clock bin must last a positive duration, not nan"),
        (total / 1e9, "1e+09 clock bins exceed the 18 bars of the day"),
        (1e-320, "inf clock bins exceed the 18 bars of the day"),  # the count overflows
        (total / 19, "19 clock bins exceed the 18 bars of the day"),
        (2 * total, "delta exceeds the trading day on the clock"),
    ):
        with pytest.raises(ClassSpecError) as err:
            volatility_autocorrelation(series, delta, [0, 1], time_map=tmap)
        assert str(err.value) == message
    # one bin per bar is the most
    assert intraday_volatility_profile(series, PART60, time_map=tmap, n_bins=18).sigma.size == 18
    curve = volatility_autocorrelation(series, total / 18, [0, 1], time_map=tmap)
    assert curve.n_pairs[0] == series.n_days * 19 - 1  # 18 bins and a night, the last one open


def test_physical_profile_and_slots_refuse_only_the_bars_they_read():
    s = brownian_series(n_days=40, n_bars=18, seed=50)
    m = s.log_prices.copy()
    m[3, 1] = np.nan  # inside the first 60 min interval
    holed = series_from_matrix(m, grid=s.grid)
    np.testing.assert_array_equal(intraday_volatility_profile(holed, PART60).sigma,
                       intraday_volatility_profile(s, PART60).sigma)
    np.testing.assert_array_equal(volatility_autocorrelation(holed, 60.0, [0, 1, 2]).values,
                       volatility_autocorrelation(s, 60.0, [0, 1, 2]).values)
    with pytest.raises(DataError) as err:
        volatility_autocorrelation(holed, 20.0, [0, 1])
    assert str(err.value) == (
        "class 'pooled[20min]' touches missing bars; run filter_complete_days first")


# --- volatility autocorrelation --------------------------------------------

def test_autocorr_iid_is_flat():
    s = brownian_series(n_days=800, n_bars=19, seed=46)
    c = volatility_autocorrelation(s, 20.0, [0, 1, 2, 3, 4, 5])
    assert c.values[0] == 1.0
    assert (np.abs(c.values[1:]) < 0.05).all()
    total = 800 * 19
    np.testing.assert_array_equal(c.n_pairs[1:], total - c.lags[1:])


def test_autocorr_bits_do_not_depend_on_the_blas_thread_count():
    # BLAS dot products split vectors of ~20k pairs over their threads, which
    # changed the last bits with the thread count
    script = (
        "from datetime import time\n"
        "from fstclock import DayGrid, volatility_autocorrelation\n"
        "from fstclock.synthetic import ActivityProfile, GeneratorConfig, generate_seasonal\n"
        "grid = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=19)\n"
        "series, _ = generate_seasonal(ActivityProfile.u_steps(18, 18, edge_boost=1.0), GeneratorConfig(n_days=1200, seed=7), grid)\n"
        "c = volatility_autocorrelation(series, 20.0, [1, 2, 3])\n"
        "print(min(c.n_pairs), [repr(float(v)) for v in c.values])\n"
    )
    outputs = set()
    for threads in ("1", "2"):
        env = child_env() | {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs
    assert int(outputs.pop().split()[0]) >= 20_000


@pytest.fixture(scope="module")
def rippled():
    inten = np.tile([4.0, 1.0], 9)
    prof = ActivityProfile(intraday_intensity=inten / inten.sum(), overnight_mass=0.4)
    series, gt = generate_seasonal(prof, GeneratorConfig(n_days=1500, seed=30), GRID18)
    cal = gt.calibration_for(PART60)
    tmap = assemble_time_map(cal, PART60, series)
    return series, cal, tmap


def test_autocorr_periodic_variance_ripples_in_physical_time(rippled):
    series, _, _ = rippled
    c = volatility_autocorrelation(series, 20.0, [0, 1, 2, 3, 4])
    assert c.values[1] < -0.1 and c.values[3] < -0.1
    assert c.values[2] > 0.1 and c.values[4] > 0.1


def test_autocorr_ciclostationary_removes_seasonal_mean(rippled):
    series, _, _ = rippled
    c = volatility_autocorrelation(series, 20.0, [0, 1, 2], estimator="ciclostationary")
    assert (np.abs(c.values[1:]) < 0.05).all()


def test_autocorr_clock_bins_suppress_ripple(rippled):
    series, cal, tmap = rippled
    delta = cal.trading_total / 18.0
    c = volatility_autocorrelation(series, delta, [0, 1, 2, 3, 4], time_map=tmap)
    # lag 1 keeps a small positive trace of bars shared between adjacent
    # interpolated bins; the alternating seasonal ripple itself is gone
    assert 0.0 <= c.values[1] < 0.15
    assert (np.abs(c.values[2:]) < 0.06).all()


def test_autocorr_drops_starved_lags():
    s = brownian_series(n_days=3, n_bars=19, seed=47)
    with pytest.warns(UserWarning, match="^dropped 1 lag\\(s\\) past the 57-slot sequence, from lag 500$"):
        c = volatility_autocorrelation(s, 20.0, [0, 1, 500])
    assert list(c.lags) == [0, 1]
    # every lag past the sequence goes in one warning, naming the first given
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        c = volatility_autocorrelation(s, 20.0, [900, 0, 57, 1, 56])
    assert [str(w.message) for w in rec] == [
        "lag 56: only 1 pairs, dropped",
        "dropped 2 lag(s) past the 57-slot sequence, from lag 900",
    ]
    assert list(c.lags) == [0, 1]
    with pytest.warns(UserWarning, match="pairs, dropped"):
        c2 = volatility_autocorrelation(s, 20.0, [0, 40])
    assert list(c2.lags) == [0]


def test_autocorr_validation():
    s = brownian_series(n_days=5, n_bars=19, seed=48)
    with pytest.raises(ValueError):
        volatility_autocorrelation(s, 20.0, [0], estimator="mystery")
    with pytest.raises(ValueError):
        volatility_autocorrelation(s, 20.0, [-1])
    with pytest.raises(ClassSpecError):
        volatility_autocorrelation(s, 30.0, [0, 1])
    with pytest.raises(DataError):
        CorrelationCurve(
            lags=np.array([0]),
            values=np.array([1.5]),
            n_pairs=np.array([10]),
            estimator="sliding",
            clock_tag="physical",
            delta=20.0,
        )


# --- contiguous linear correlation and cutoff -------------------------------

def test_contiguous_correlation_matches_ar1_oracle():
    phi = 0.4
    s = brownian_series(n_days=3000, n_bars=19, seed=49, ar=phi)
    got1 = linear_correlation_contiguous(s, 20.0)
    assert got1 == pytest.approx(ar1_block_correlation(phi, 1), abs=0.02)
    got2 = linear_correlation_contiguous(s, 40.0)
    assert got2 == pytest.approx(ar1_block_correlation(phi, 2), abs=0.02)


def test_contiguous_correlation_iid_near_zero():
    s = brownian_series(n_days=3000, n_bars=19, seed=50)
    assert abs(linear_correlation_contiguous(s, 20.0)) < 0.02


@pytest.mark.parametrize("block_cols", [1, 7, analysis_module.CORRELATION_BLOCK_COLS])
def test_contiguous_correlation_blocks_give_the_whole_matrix_bits(monkeypatch, block_cols):
    s = brownian_series(n_days=400, n_bars=95, seed=54, bar_minutes=4, ar=0.3)
    whole = {}
    monkeypatch.setattr(analysis_module, "CORRELATION_BLOCK_COLS", s.grid.n_points)
    for dt in (4.0, 20.0, 188.0):
        whole[dt] = linear_correlation_contiguous(s, dt)
    monkeypatch.setattr(analysis_module, "CORRELATION_BLOCK_COLS", block_cols)
    for dt, value in whole.items():
        assert linear_correlation_contiguous(s, dt) == value, dt


def test_contiguous_correlation_validation():
    s = brownian_series(n_days=10, n_bars=19, seed=51)
    with pytest.raises(ClassSpecError):
        linear_correlation_contiguous(s, 30.0)
    with pytest.raises(ClassSpecError):
        linear_correlation_contiguous(s, 200.0)


def test_cutoff_check_flags_correlated_bars(default_partition):
    clean = brownian_series(n_days=2000, n_bars=19, seed=52)
    ok = cutoff_check(clean, default_partition)
    assert ok.dt_minutes == 20.0
    assert not ok.violated
    sticky = brownian_series(n_days=2000, n_bars=19, seed=53, ar=0.4)
    bad = cutoff_check(sticky, default_partition)
    assert bad.violated
    assert bad.value == pytest.approx(0.4, abs=0.05)
    assert not cutoff_check(sticky, default_partition, threshold=0.9).violated
