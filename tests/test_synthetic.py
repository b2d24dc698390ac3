"""Synthetic generators: determinism, variance bookkeeping, ground truth."""
from __future__ import annotations

import math
import os
import re
import signal
import threading
import tracemalloc
from datetime import datetime, time

import numpy as np
import pytest

import fstclock.synthetic as synthetic_module
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
    p = ActivityProfile.u_steps(19, 19, edge_boost=1.0, overnight_mass_ratio=0.3)
    assert (p.intraday_intensity == p.intraday_intensity[0]).all()
    assert p.intraday_intensity.sum() == pytest.approx(1.0)
    assert p.n_bars == 19


def test_u_shape_edges_dominate():
    p = ActivityProfile.u_steps(19, 19, edge_boost=8.0)
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
    for n_bars, n_steps, edge_boost in ((19, 19, 1.0), (19, 19, 8.0), (18, 6, 8.0)):
        p = ActivityProfile.u_steps(n_bars, n_steps, edge_boost=edge_boost)
        gt = GroundTruthClock.from_profile(p)
        assert gt.day_total == 1.0
        assert gt.overnight_tau > 0


def test_ground_truth_interval_sums(default_grid):
    gt = GroundTruthClock.from_profile(ActivityProfile.u_steps(19, 19))
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
    p = ActivityProfile.u_steps(19, 19)
    cfg = GeneratorConfig(n_days=20, seed=7)
    a, _ = generate_seasonal(p, cfg, GRID20)
    b, _ = generate_seasonal(p, cfg, GRID20)
    assert (a.log_prices == b.log_prices).all()
    c, _ = generate_seasonal(p, GeneratorConfig(n_days=20, seed=8), GRID20)
    assert not (a.log_prices == c.log_prices).all()


def test_seasonal_prefix_property():
    # day streams key off the day index alone, so a longer run starts the same
    p = ActivityProfile.u_steps(19, 19, edge_boost=1.0)
    short, _ = generate_seasonal(p, GeneratorConfig(n_days=3, seed=9), GRID20)
    long, _ = generate_seasonal(p, GeneratorConfig(n_days=8, seed=9), GRID20)
    assert (long.log_prices[:3] == short.log_prices).all()


def test_seasonal_variances_track_profile():
    p = ActivityProfile.u_steps(19, 19, edge_boost=8.0, overnight_mass_ratio=0.5)
    series, _ = generate_seasonal(p, GeneratorConfig(n_days=4000, seed=10), GRID20)
    z = series.log_prices
    bar_var = np.diff(z, axis=1).var(axis=0)
    # chi-square half-width at n=4000 is about 7 percent at three sigma
    np.testing.assert_allclose(bar_var, p.intraday_intensity, rtol=0.12)
    nights = z[1:, 0] - z[:-1, -1]
    assert nights.var() == pytest.approx(0.5 * p.intraday_intensity.sum(), rel=0.1)


def test_seasonal_student_t_keeps_variances():
    p = ActivityProfile.u_steps(19, 19, edge_boost=1.0)
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
        generate_seasonal(ActivityProfile.u_steps(10, 10, edge_boost=1.0),
                          GeneratorConfig(n_days=2, seed=0), GRID20)


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n_days=0, seed=1)
    with pytest.raises(ValueError):
        GeneratorConfig(n_days=5, seed=1, innovation="cauchy")
    with pytest.raises(ValueError):
        GeneratorConfig(n_days=5, seed=1, innovation="student-t", nu=2.0)
    with pytest.raises(ValueError):
        GeneratorConfig(n_days=5, seed=1, cascade_lambda2=-0.1)


@pytest.mark.parametrize("field,kwargs", [
    ("nu", {"innovation": "student-t", "nu": math.nan}),
    ("nu", {"innovation": "student-t", "nu": math.inf}),
    ("cascade_lambda2", {"cascade_lambda2": math.nan}),
    ("cascade_lambda2", {"cascade_lambda2": math.inf}),
    ("cascade_lambda2", {"cascade_lambda2": -math.inf}),
    ("seed", {"seed": -3}),
    ("seed", {"seed": 1.5}),
    ("seed", {"seed": "7"}),
    ("seed", {"seed": True}),
    ("n_days", {"n_days": 2.5}),
    ("n_days", {"n_days": 0}),
    ("n_days", {"n_days": np.float64(3.0)}),
    ("cascade_depth", {"cascade_depth": 2.5}),
    ("cascade_depth", {"cascade_depth": 0}),
])
def test_generator_config_refuses_values_that_give_garbage_or_fail_late(field, kwargs):
    # before, NaN parameters gave an all-NaN series but its first price, and a
    # negative seed, or a fractional n_days or cascade_depth, failed inside
    # numpy without naming the field
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        GeneratorConfig(**{"n_days": 4, "seed": 1, **kwargs})


def test_generator_config_takes_numpy_and_huge_seeds():
    grid = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=5)
    p = ActivityProfile.u_steps(4, 4, edge_boost=1.0)
    a, _ = generate_seasonal(p, GeneratorConfig(n_days=3, seed=np.uint64(9)), grid)
    b, _ = generate_seasonal(p, GeneratorConfig(n_days=3, seed=9), grid)
    assert a.log_prices.tobytes() == b.log_prices.tobytes()
    assert np.isfinite(generate_seasonal(p, GeneratorConfig(n_days=3, seed=2**300), grid)[0].log_prices).all()


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


# --- per-day oracles ---------------------------------------------------------
# The generators as they were written first: one spawned Generator per day and
# one day at a time.  The block generators must draw and sum bit for bit alike.

B = synthetic_module.DAY_BLOCK
DAY_COUNTS = (1, 2, B - 1, B, B + 1, 3 * B + 7)
FAMILIES = ({"innovation": "gaussian"}, {"innovation": "student-t", "nu": 3.5})


def _oracle_streams(seed, n):
    return [np.random.Generator(np.random.PCG64(c)) for c in np.random.SeedSequence(seed).spawn(n)]


def _oracle_draw(rng, size, cfg):
    if cfg.innovation == "gaussian":
        return rng.standard_normal(size)
    return rng.standard_t(cfg.nu, size) * math.sqrt((cfg.nu - 2.0) / cfg.nu)


def _oracle_seasonal(profile, cfg, grid):
    sigma_bar = np.sqrt(profile.intraday_intensity)
    sigma_night = math.sqrt(profile.overnight_mass * float(profile.intraday_intensity.sum()))
    rows = np.empty((cfg.n_days, grid.n_points))
    prev_close = math.log(100.0)
    for l, rng in enumerate(_oracle_streams(cfg.seed, cfg.n_days)):
        open_ = prev_close if l == 0 else prev_close + sigma_night * float(_oracle_draw(rng, None, cfg))
        increments = sigma_bar * _oracle_draw(rng, grid.n_bars, cfg)
        rows[l, 0] = open_
        rows[l, 1:] = open_ + np.cumsum(increments)
        prev_close = rows[l, -1]
    return rows


def _oracle_multifractal(cfg, grid, overnight_mass_ratio):
    n_bars = grid.n_bars
    base_bar_var = 1.0 / n_bars
    s2 = 4.0 * math.log(2.0) * cfg.cascade_lambda2
    sigma_night = math.sqrt(overnight_mass_ratio * base_bar_var * n_bars)
    rows = np.empty((cfg.n_days, grid.n_points))
    prev_close = math.log(100.0)
    for l, rng in enumerate(_oracle_streams(cfg.seed, cfg.n_days)):
        open_ = prev_close if l == 0 else prev_close + sigma_night * float(_oracle_draw(rng, None, cfg))
        log_weight = np.zeros(n_bars)
        for level in range(1, cfg.cascade_depth + 1):
            draws = rng.normal(loc=-0.5 * s2, scale=math.sqrt(s2), size=2**level)
            log_weight += np.repeat(draws, n_bars // 2**level)
        sigma = np.sqrt(base_bar_var * np.exp(log_weight))
        increments = sigma * _oracle_draw(rng, n_bars, cfg)
        rows[l, 0] = open_
        rows[l, 1:] = open_ + np.cumsum(increments)
        prev_close = rows[l, -1]
    return rows


@pytest.mark.parametrize("family", FAMILIES)
def test_seasonal_matches_the_per_day_oracle(family):
    p = ActivityProfile.u_steps(19, 19, overnight_mass_ratio=0.4)
    for n in DAY_COUNTS:
        cfg = GeneratorConfig(n_days=n, seed=2**64 + n, **family)
        series, _ = generate_seasonal(p, cfg, GRID20)
        assert series.log_prices.tobytes() == _oracle_seasonal(p, cfg, GRID20).tobytes(), n


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("depth", range(1, 9))
def test_multifractal_matches_the_per_day_oracle(family, depth):
    grid = DayGrid(open_time=time(9, 30), bar_minutes=1, n_points=2**depth + 1)
    for ratio in (0.0, 0.3):
        for n in DAY_COUNTS if depth in (1, 8) else (B + 1,):
            for lambda2 in (0.05, 0.0):
                cfg = GeneratorConfig(n_days=n, seed=100 * depth + n, cascade_depth=depth,
                                      cascade_lambda2=lambda2, **family)
                got = generate_multifractal(cfg, grid, overnight_mass_ratio=ratio).log_prices
                want = _oracle_multifractal(cfg, grid, ratio)
                assert got.tobytes() == want.tobytes(), (ratio, n, lambda2)


@pytest.mark.parametrize("family", FAMILIES)
def test_selfsimilar_matches_the_per_duration_oracle(family):
    cfg = GeneratorConfig(n_days=1000, seed=23, **family)
    durations = [0.25, 1.0, 3.0, 7.5]
    got = generate_selfsimilar(0.6, cfg, durations)
    for (dur, sample), want_dur, rng in zip(got, durations, _oracle_streams(23, len(durations))):
        want = (want_dur**0.6) * _oracle_draw(rng, cfg.n_days, cfg)
        assert dur == want_dur and sample.values.tobytes() == want.tobytes()


def test_generators_match_the_oracles_across_small_blocks(monkeypatch):
    # every block edge, the last block short or full
    monkeypatch.setattr(synthetic_module, "DAY_BLOCK", 3)
    cascade_grid = DayGrid(open_time=time(9, 30), bar_minutes=5, n_points=17)
    p = ActivityProfile.u_steps(19, 19)
    for n in range(1, 11):
        cfg = GeneratorConfig(n_days=n, seed=n, cascade_depth=4)
        assert generate_seasonal(p, cfg, GRID20)[0].log_prices.tobytes() == (
            _oracle_seasonal(p, cfg, GRID20).tobytes())
        assert generate_multifractal(cfg, cascade_grid, 0.3).log_prices.tobytes() == (
            _oracle_multifractal(cfg, cascade_grid, 0.3).tobytes())


def _seeds_to_check():
    fixed = [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**200]
    rng = np.random.default_rng(2024)
    drawn = [int(rng.integers(0, 2**62)) >> int(rng.integers(0, 62)) for _ in range(25)]
    drawn += [int.from_bytes(rng.bytes(int(rng.integers(9, 40))), "little") for _ in range(25)]
    return fixed + drawn


def test_day_streams_have_the_states_of_spawned_pcg64s():
    for seed in _seeds_to_check():
        n = 2 * B + 3 if seed in (0, 2**200) else 5
        children = np.random.SeedSequence(seed).spawn(n)
        got = [rng.bit_generator.state for rng in synthetic_module._day_streams(seed, n)]
        assert got == [np.random.PCG64(c).state for c in children], seed
        words = synthetic_module._spawned_seed_words(seed, n)
        assert (words == [c.generate_state(4, np.uint64) for c in children]).all(), seed


def test_day_streams_draw_what_spawned_generators_draw():
    # an odd count of 32-bit draws leaves half a 64-bit word buffered: the
    # next day must not start from it
    streams = synthetic_module._day_streams(5, 4)
    for rng, want in zip(streams, _oracle_streams(5, 4)):
        assert rng.standard_t(3.0, 7).tobytes() == want.standard_t(3.0, 7).tobytes()
        assert (rng.integers(0, 2**31, 3, dtype=np.uint32) == want.integers(0, 2**31, 3, dtype=np.uint32)).all()
        assert rng.bit_generator.state["has_uint32"] == 1


# --- memory -----------------------------------------------------------------

# What a generator may allocate beyond its output matrix: block buffers of
# DAY_BLOCK days, a few per-day words and the dates.  A second days x bars
# matrix (15 MB and 6 MB here) does not fit.
GENERATOR_HEADROOM_BYTES = 4 << 20


def _peak_beyond_output(generate) -> tuple[int, int]:
    tracemalloc.start()
    try:
        rows = generate().log_prices
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - rows.nbytes, rows.nbytes


def test_generators_hold_no_second_days_by_bars_matrix():
    grid = DayGrid(open_time=time(9, 40), bar_minutes=1, n_points=381)
    profile = ActivityProfile.u_steps(380, 19, edge_boost=16.0, power=8.0)
    extra, out = _peak_beyond_output(
        lambda: generate_seasonal(profile, GeneratorConfig(n_days=5000, seed=1), grid)[0])
    assert out == 5000 * 381 * 8 and extra < GENERATOR_HEADROOM_BYTES, extra
    cascade_grid = DayGrid(open_time=time(9, 40), bar_minutes=1, n_points=257)
    extra, out = _peak_beyond_output(
        lambda: generate_multifractal(GeneratorConfig(n_days=3000, seed=2, cascade_depth=8), cascade_grid))
    assert out == 3000 * 257 * 8 and extra < GENERATOR_HEADROOM_BYTES, extra


# --- CSV writer -------------------------------------------------------------

def _holed(n_days: int):
    """A seasonal series with holes, as the writer must reproduce it: the first
    and the last bar missing, a day with no bar (from 3 days on), and prices
    that ``repr`` writes in exponent notation."""
    series, _ = generate_seasonal(
        ActivityProfile.u_steps(19, 19), GeneratorConfig(n_days=n_days, seed=3), GRID20
    )
    lp = np.array(series.log_prices)
    lp[0, 0] = lp[-1, -1] = np.nan
    lp[:, 5] += 300.0  # about 1e+132
    lp[:, 6] -= 300.0  # about 1e-128
    lp[n_days // 2, 7:9] = np.nan
    if n_days >= 3:
        lp[1] = np.nan  # a day with no bar at all writes no line
    return type(series)(grid=GRID20, dates=series.dates, log_prices=lp)


def _row_by_row(series) -> bytes:
    expected = ["timestamp,price\n"]
    for d, row in zip(series.dates, series.log_prices):
        for b, z in enumerate(row):
            if not np.isnan(z):
                ts = datetime.combine(d, series.grid.bar_time(b))
                expected.append(f"{ts.isoformat()},{math.exp(z)!r}\n")
    return "".join(expected).encode()


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The helpers this process forks, by pid."""
    forked = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return forked


def _left_clean(directory) -> bool:
    """Whether ``prices.csv`` is all there is in ``directory`` (no temporary
    file is left) and no child process is left unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return os.listdir(directory) == ["prices.csv"]
    return False


def test_write_prices_csv_matches_row_by_row_writer(tmp_path, monkeypatch, forks):
    path = tmp_path / "prices.csv"
    for n_days in (1, 2, 3, 12, 13):
        holed = _holed(n_days)
        for split in (False, True):
            monkeypatch.setattr(synthetic_module, "PRICES_SPLIT_BARS", 0 if split else 1 << 62)
            forks.clear()
            write_prices_csv(holed, path)
            assert path.read_bytes() == _row_by_row(holed), (n_days, split)
            assert len(forks) == split and _left_clean(tmp_path)


def test_write_prices_csv_gives_the_same_bytes_whatever_the_helper_does(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(synthetic_module, "PRICES_SPLIT_BARS", 0)
    holed = _holed(13)
    path = tmp_path / "prices.csv"
    parent, write_days = os.getpid(), synthetic_module._write_days
    here = []  # the days each write formats in this process

    def spy(fh, tods, dates, rows):
        if os.getpid() == parent:
            here.append(len(dates))
        write_days(fh, tods, dates, rows)

    monkeypatch.setattr(synthetic_module, "_write_days", spy)
    write_prices_csv(holed, path)
    assert path.read_bytes() == _row_by_row(holed)
    assert len(forks) == 1 and here == [6] and _left_clean(tmp_path)  # the helper formatted 7 days
    for fault in ("raise", "kill", "exit", "refuse"):
        def helper_write(fh, tods, dates, rows, fault=fault):
            if os.getpid() == parent:
                return spy(fh, tods, dates, rows)
            write_days(fh, tods, dates[:2], rows[:2])  # a partial write
            fh.flush()
            if fault == "raise":
                raise MemoryError
            if fault == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(3)

        def refuse():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(synthetic_module, "_write_days", helper_write)
        forks.clear()
        here.clear()
        with monkeypatch.context() as m:
            if fault == "refuse":
                m.setattr(os, "fork", refuse)
            write_prices_csv(holed, path)
        assert path.read_bytes() == _row_by_row(holed), fault
        assert here == [6, 7] and _left_clean(tmp_path), fault  # this process formatted every day
        assert len(forks) == (fault != "refuse")
    # a failed write stops and reaps the helper
    monkeypatch.setattr(synthetic_module, "_write_days", write_days)
    forks.clear()
    path.unlink()
    path.mkdir()
    with pytest.raises(IsADirectoryError):
        write_prices_csv(holed, path)
    assert len(forks) == 1 and _left_clean(tmp_path)


def test_write_prices_csv_forks_only_beside_one_thread_and_two_cpus(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(synthetic_module, "PRICES_SPLIT_BARS", 0)
    holed = _holed(4)
    path = tmp_path / "prices.csv"
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        write_prices_csv(holed, path)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == [] and path.read_bytes() == _row_by_row(holed) and _left_clean(tmp_path)
    if hasattr(os, "sched_setaffinity"):
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            write_prices_csv(holed, path)
        finally:
            os.sched_setaffinity(0, cpus)
        assert forks == [] and path.read_bytes() == _row_by_row(holed) and _left_clean(tmp_path)
    write_prices_csv(holed, path)
    assert len(forks) == 1 and _left_clean(tmp_path)


def test_write_prices_csv_of_criterion_11_size_runs_in_one_process(tmp_path, forks):
    series, _ = generate_seasonal(
        ActivityProfile.u_steps(19, 19), GeneratorConfig(n_days=120, seed=7), GRID20
    )
    write_prices_csv(series, tmp_path / "prices.csv")
    assert forks == [] and (tmp_path / "prices.csv").read_bytes() == _row_by_row(series)
    assert _left_clean(tmp_path)


@pytest.mark.parametrize("z", [math.inf, -math.inf, -800.0, 800.0, -746.0])
def test_write_prices_csv_refuses_a_price_that_is_not_a_positive_double(tmp_path, z):
    series, _ = generate_seasonal(ActivityProfile.u_steps(19, 19, edge_boost=1.0),
                                  GeneratorConfig(n_days=2, seed=1), GRID20)
    lp = np.array(series.log_prices)
    lp[0, 3] = np.nan
    lp[1, 3] = z
    lp[1, 4] = -z if math.isfinite(z) else np.nan  # the first offending bar is named
    bad = type(series)(grid=GRID20, dates=series.dates, log_prices=lp)
    path = tmp_path / "prices.csv"
    day = series.dates[1].isoformat()
    with pytest.raises(DataError, match=rf"^log price {re.escape(repr(z))} on {day} at 10:40:00 \(bar 3\) "):
        write_prices_csv(bad, path)
    assert not path.exists()
    # the extremes that still give positive finite prices are written
    lp[1, 3], lp[1, 4] = 709.0, -745.0
    ok = type(series)(grid=GRID20, dates=series.dates, log_prices=lp)
    write_prices_csv(ok, path)
    assert path.read_bytes() == _row_by_row(ok)
