"""Synthetic generators: determinism, variance bookkeeping, ground truth."""
from __future__ import annotations

import math
from datetime import datetime, time

import numpy as np
import pytest

from fstclock import DataError, DayGrid, PartitionSpec
from fstclock.synthetic import (
    ActivityProfile,
    GeneratorConfig,
    GroundTruthClock,
    cascade_hurst,
    generate_multifractal,
    generate_seasonal,
    generate_selfsimilar,
    write_prices_csv,
)

GRID20 = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=20)


# --- profiles ---------------------------------------------------------------

def test_flat_profile_normalised():
    p = ActivityProfile.flat(19, overnight_mass=0.3)
    assert p.intraday_intensity.sum() == pytest.approx(1.0)
    assert p.n_bars == 19


def test_u_shape_edges_dominate():
    p = ActivityProfile.u_shape(19, edge_boost=8.0)
    a = p.intraday_intensity
    assert a[0] > 5.0 * a[9]
    assert a[-1] == pytest.approx(a[0])
    assert a.sum() == pytest.approx(1.0)


def test_u_steps_constant_within_blocks():
    p = ActivityProfile.u_steps(18, n_steps=6)
    blocks = p.intraday_intensity.reshape(6, 3)
    assert (blocks == blocks[:, :1]).all()
    with pytest.raises(ValueError):
        ActivityProfile.u_steps(19, n_steps=6)


def test_profile_validation():
    with pytest.raises(ValueError):
        ActivityProfile(intraday_intensity=np.array([0.5, -0.1]), overnight_mass=0.4)
    with pytest.raises(ValueError):
        ActivityProfile(intraday_intensity=np.array([1.0]), overnight_mass=-0.2)


# --- ground-truth clock -----------------------------------------------------

def test_ground_truth_day_is_exactly_one():
    for p in (ActivityProfile.flat(19), ActivityProfile.u_shape(19), ActivityProfile.u_steps(18, 6)):
        gt = GroundTruthClock.from_profile(p)
        assert gt.day_total == 1.0
        assert gt.overnight_tau > 0


def test_ground_truth_interval_sums(default_grid):
    gt = GroundTruthClock.from_profile(ActivityProfile.u_shape(19))
    part = PartitionSpec.equal_spacing(default_grid, interval_minutes=20)
    dur = gt.interval_durations(part)
    assert dur.shape == (19,)
    np.testing.assert_allclose(dur, gt.bar_tau, atol=0)  # one bar per interval here
    cal = gt.calibration_for(part)
    assert cal.reference_label == "ground-truth"
    assert (cal.intraday_d == 0).all() and cal.overnight_d == 0.0


def test_ground_truth_coarser_partition():
    gt = GroundTruthClock.from_profile(ActivityProfile.u_steps(18, 6))
    grid = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=19)
    part = PartitionSpec.equal_spacing(grid, interval_minutes=60)
    dur = gt.interval_durations(part)
    assert dur.shape == (6,)
    assert dur.sum() == pytest.approx(gt.bar_tau.sum(), abs=1e-15)


# --- seasonal generator -----------------------------------------------------

def test_seasonal_is_deterministic():
    p = ActivityProfile.u_shape(19)
    cfg = GeneratorConfig(n_days=20, seed=7)
    a, _ = generate_seasonal(p, cfg, GRID20)
    b, _ = generate_seasonal(p, cfg, GRID20)
    assert (a.log_prices == b.log_prices).all()
    c, _ = generate_seasonal(p, GeneratorConfig(n_days=20, seed=8), GRID20)
    assert not (a.log_prices == c.log_prices).all()


def test_seasonal_prefix_property():
    # day streams key off the day index alone, so a longer run starts the same
    p = ActivityProfile.flat(19)
    short, _ = generate_seasonal(p, GeneratorConfig(n_days=3, seed=9), GRID20)
    long, _ = generate_seasonal(p, GeneratorConfig(n_days=8, seed=9), GRID20)
    assert (long.log_prices[:3] == short.log_prices).all()


def test_seasonal_variances_track_profile():
    p = ActivityProfile.u_shape(19, edge_boost=8.0, overnight_mass_ratio=0.5)
    series, _ = generate_seasonal(p, GeneratorConfig(n_days=4000, seed=10), GRID20)
    z = series.log_prices
    bar_var = np.diff(z, axis=1).var(axis=0)
    # chi-square half-width at n=4000 is about 7 percent at three sigma
    np.testing.assert_allclose(bar_var, p.intraday_intensity, rtol=0.12)
    nights = z[1:, 0] - z[:-1, -1]
    assert nights.var() == pytest.approx(0.5 * p.intraday_intensity.sum(), rel=0.1)


def test_seasonal_student_t_keeps_variances():
    p = ActivityProfile.flat(19)
    cfg = GeneratorConfig(n_days=4000, seed=13, innovation="student-t", nu=6.0)
    series, _ = generate_seasonal(p, cfg, GRID20)
    bar_var = np.diff(series.log_prices, axis=1).var(axis=0)
    np.testing.assert_allclose(bar_var, p.intraday_intensity, rtol=0.2)
    # heavier tails than gaussian at matched variance
    r = np.diff(series.log_prices, axis=1).ravel()
    r = r / r.std()
    assert np.mean(r**4) > 3.5


def test_seasonal_profile_grid_mismatch():
    with pytest.raises(DataError):
        generate_seasonal(ActivityProfile.flat(10), GeneratorConfig(n_days=2, seed=0), GRID20)


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n_days=0, seed=1)
    with pytest.raises(ValueError):
        GeneratorConfig(n_days=5, seed=1, innovation="cauchy")
    with pytest.raises(ValueError):
        GeneratorConfig(n_days=5, seed=1, innovation="student-t", nu=2.0)
    with pytest.raises(ValueError):
        GeneratorConfig(n_days=5, seed=1, cascade_lambda2=-0.1)


# --- self-similar samples ---------------------------------------------------

def test_selfsimilar_moment_identity():
    cfg = GeneratorConfig(n_days=200_000, seed=21)
    pairs = generate_selfsimilar(0.5, cfg, durations=[1.0, 4.0])
    (d1, s1), (d4, s4) = pairs
    assert (d1, d4) == (1.0, 4.0)
    assert s4.interval.label == "selfsim[4]"
    # var scales as duration**(2H) = duration
    assert s4.values.var() / s1.values.var() == pytest.approx(4.0, rel=0.02)


def test_selfsimilar_hurst_exponent_shapes_scaling():
    cfg = GeneratorConfig(n_days=200_000, seed=22)
    (_, s1), (_, s4) = generate_selfsimilar(0.7, cfg, durations=[1.0, 4.0])
    assert s4.values.var() / s1.values.var() == pytest.approx(4.0**1.4, rel=0.03)


def test_selfsimilar_validation():
    cfg = GeneratorConfig(n_days=10, seed=1)
    with pytest.raises(ValueError):
        generate_selfsimilar(1.5, cfg, durations=[1.0])
    with pytest.raises(ValueError):
        generate_selfsimilar(0.5, cfg, durations=[-1.0])


# --- multifractal cascade ---------------------------------------------------

def test_cascade_needs_dyadic_grid():
    cfg = GeneratorConfig(n_days=2, seed=3, cascade_depth=4)
    with pytest.raises(DataError):
        generate_multifractal(cfg, GRID20)  # 19 bars, not 16


def test_cascade_mean_square_is_normalised():
    grid = DayGrid(open_time=time(9, 30), bar_minutes=5, n_points=17)
    cfg = GeneratorConfig(n_days=6000, seed=14, cascade_depth=4, cascade_lambda2=0.05)
    series = generate_multifractal(cfg, grid)
    r2 = np.diff(series.log_prices, axis=1) ** 2
    # log-normal weights have unit mean per bar, so E r^2 = base variance
    assert r2.mean() == pytest.approx(1.0 / 16.0, rel=0.05)


def test_cascade_is_deterministic():
    grid = DayGrid(open_time=time(9, 30), bar_minutes=5, n_points=17)
    cfg = GeneratorConfig(n_days=10, seed=15, cascade_depth=4)
    a = generate_multifractal(cfg, grid)
    b = generate_multifractal(cfg, grid)
    assert (a.log_prices == b.log_prices).all()


def test_cascade_intermittency_raises_kurtosis():
    grid = DayGrid(open_time=time(9, 30), bar_minutes=5, n_points=17)
    tame = GeneratorConfig(n_days=3000, seed=16, cascade_depth=4, cascade_lambda2=0.0)
    wild = GeneratorConfig(n_days=3000, seed=16, cascade_depth=4, cascade_lambda2=0.1)
    rt = np.diff(generate_multifractal(tame, grid).log_prices, axis=1).ravel()
    rw = np.diff(generate_multifractal(wild, grid).log_prices, axis=1).ravel()
    kurt = lambda v: np.mean((v / v.std()) ** 4)
    assert kurt(rw) > kurt(rt) + 1.0


def test_cascade_hurst_formula():
    assert cascade_hurst(2.0, 0.05) == 0.5
    assert cascade_hurst(4.0, 0.05) == pytest.approx(0.45)
    assert cascade_hurst(1.0, 0.05) - cascade_hurst(4.0, 0.05) == pytest.approx(0.075)
    assert cascade_hurst(3.0, 0.0) == 0.5


# --- CSV writer -------------------------------------------------------------

def test_write_prices_csv_matches_row_by_row_writer(tmp_path):
    series, _ = generate_seasonal(
        ActivityProfile.u_shape(19), GeneratorConfig(n_days=12, seed=3), GRID20
    )
    lp = np.array(series.log_prices)
    lp[0, 0] = lp[4, 7] = lp[4, 8] = lp[11, 19] = np.nan
    lp[6] = np.nan  # a day with no bar at all writes no line
    holed = type(series)(grid=GRID20, dates=series.dates, log_prices=lp)
    expected = ["timestamp,price\n"]
    for d, row in zip(holed.dates, holed.log_prices):
        for b, z in enumerate(row):
            if not np.isnan(z):
                ts = datetime.combine(d, GRID20.bar_time(b))
                expected.append(f"{ts.isoformat()},{math.exp(z)!r}\n")
    path = tmp_path / "prices.csv"
    write_prices_csv(holed, path)
    assert path.read_bytes() == "".join(expected).encode()
