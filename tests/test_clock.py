"""Calibration search, assembled clock, time map, additivity diagnostics."""
from __future__ import annotations

import json
import math
import threading
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
    rescaled_ks,
)
import fstclock.clock
from fstclock.clock import ADDITIVITY_UNIONS, _first_divisor, _optimal_cell, class_duration
from fstclock.series import parse_class_spec, parse_class_specs
from fstclock.ks import ks_count

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


def test_zero_width_optimum_is_found_and_reproduced():
    # the smallest count, 18, is reached only at the single scale 0.7/1.7;
    # 1/(s*s) with s = 0.7/1.7 misses that tie in floating point and scores
    # 27, and the best open cell scores 19
    x = make_sample([-2.1, -1, -1, -0.7, -0.7, -0.6, -0.5, -0.2, -0.2, -0.1, 0,
                     0.2, 0.5, 0.7, 0.7, 0.7, 0.8, 0.9, 1.4, 1.7, 2.1])
    y = make_sample([-2.5, -1.7, 1, 1.7, 2.9])
    s = 0.7 / 1.7
    assert round(rescaled_ks(x, y, 1.0 / (s * s)).raw_sup * 105) == 27
    r = calibrate_interval(y, x)
    assert round(r.ks.raw_sup * 105) == 18
    assert r.ks == rescaled_ks(x, y, r.delta_tau)
    assert r.cell == (r.delta_tau, r.delta_tau)


def test_out_of_window_optimum_warns():
    cfg = SearchConfig(delta_tau_min=0.25, delta_tau_max=4.0)
    x = make_sample(gauss(300, seed=4))
    lo = calibrate_interval(make_sample(0.25 * x.values), x, cfg)
    assert lo.boundary_warning
    assert lo.cell[0] == cfg.delta_tau_min
    hi = calibrate_interval(make_sample(4.0 * x.values), x, cfg)
    assert hi.boundary_warning
    assert hi.cell[1] == cfg.delta_tau_max


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(delta_tau_min=0.0)
    with pytest.raises(ValueError):
        SearchConfig(delta_tau_min=10.0, delta_tau_max=1.0)
    for lo, hi in [(1e-4, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (1e-4, math.nan)]:
        with pytest.raises(ValueError, match="finite"):
            SearchConfig(delta_tau_min=lo, delta_tau_max=hi)


def test_calibration_refuses_an_unbounded_window():
    # an infinite upper edge once gave delta_tau = inf and the cell (1e-4, inf)
    y, x = make_sample([0.0, 0.0, 1e-300]), make_sample(gauss(50))
    with pytest.raises(ValueError, match="finite"):
        calibrate_interval(y, x, SearchConfig(delta_tau_min=1e-4, delta_tau_max=math.inf))


def _oracle_case(family, rng):
    """(x, y, window) for one brute-force case of the given family."""
    nx, ny = (int(v) for v in rng.integers(1, 13, size=2))
    cfg = SearchConfig()
    if family == "ties":
        x = rng.integers(-3, 4, size=nx).astype(float)
        y = rng.integers(-3, 4, size=ny).astype(float)
    elif family == "decimal":
        x = np.round(rng.standard_normal(nx), 1)
        y = np.round(rng.standard_normal(ny) * rng.uniform(0.2, 5.0), 1)
    elif family == "signs":
        x = np.abs(rng.standard_normal(nx)) + 0.1
        y = -np.abs(rng.standard_normal(ny)) - 0.1
    elif family == "gauss":
        x = rng.standard_normal(nx)
        y = rng.standard_normal(ny) * rng.uniform(0.05, 20.0)
    else:  # narrow window, rounded samples of similar scale
        x = np.round(rng.standard_normal(nx), 1)
        y = np.round(rng.standard_normal(ny) * rng.uniform(0.5, 2.0), 1)
        cfg = SearchConfig(delta_tau_min=0.5, delta_tau_max=2.0)
    return make_sample(x), make_sample(y), cfg


def _brute_force_min_count(x, y, cfg):
    """Smallest KS count over the window edges, every open cell and every tie.

    The count is constant between consecutive breakpoints delta_tau =
    (y_j / x_i)**2, so one geometric midpoint per gap sees every value the
    open cells take.  A breakpoint itself scores lower when y / q reproduces
    the tie y_j / q == x_i in floating point; the floats q within two ulps of
    y_j / x_i, squared (sqrt gives q back), try that.  Every candidate is
    scored with ``rescaled_ks``.
    """
    lo, hi = cfg.delta_tau_min, cfg.delta_tau_max
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.divide.outer(y.values, x.values).ravel()
    q = q[np.isfinite(q) & (q > 0)]
    below, above = np.nextafter(q, 0.0), np.nextafter(q, np.inf)
    near = np.concatenate([np.nextafter(below, 0.0), below, q, above, np.nextafter(above, np.inf)])
    breaks = np.unique(np.concatenate([[lo, hi], q * q]))
    breaks = breaks[(breaks >= lo) & (breaks <= hi)]
    ties = near * near
    candidates = np.concatenate(
        [[lo, hi], np.sqrt(breaks[:-1] * breaks[1:]), ties[(ties >= lo) & (ties <= hi)]]
    )
    scale = x.n * y.n
    return min(round(rescaled_ks(x, y, float(dt)).raw_sup * scale) for dt in np.unique(candidates))


@pytest.mark.parametrize("family", ["ties", "decimal", "signs", "gauss", "narrow"])
def test_calibration_matches_brute_force_oracle(family):
    rng = np.random.default_rng(["ties", "decimal", "signs", "gauss", "narrow"].index(family))
    for _ in range(250):
        x, y, cfg = _oracle_case(family, rng)
        r = calibrate_interval(y, x, cfg)
        assert r.ks == rescaled_ks(x, y, r.delta_tau)
        assert round(r.ks.raw_sup * x.n * y.n) <= _brute_force_min_count(x, y, cfg)
        assert cfg.delta_tau_min <= r.delta_tau <= cfg.delta_tau_max


# Reference for the KS kernel and its search: the mask-based half-line check
# that builds every pair of both families and selects them with boolean
# masks, in a bisection over [0, n_x n_y].  The sorted-slice kernel and the
# count-guided search must reproduce its cells bit for bit, in far fewer
# checks.
def _mask_first_divisor(a, b, largest):
    q = a / b
    edge = q.max() if largest else q.min()
    near = np.abs(q - edge) <= 1e-14 * edge
    a, b, q = a[near], b[near], q[near]
    while (up := a / q > b).any():
        q[up] = np.nextafter(q[up], np.inf)
    while (down := a / (below := np.nextafter(q, 0.0)) <= b).any():
        q[down] = below[down]
    return float(q.max() if largest else q.min())


def _mask_divisor_bounds(y, x, lo, hi):
    pos, neg = y > 0, y < 0
    if (pos & (x <= 0)).any() or (~(pos | neg) & (x < 0)).any():
        return lo, -math.inf
    if pos.any():
        lo = max(lo, _mask_first_divisor(y[pos], x[pos], largest=True))
    if (both := neg & (x < 0)).any():
        out = _mask_first_divisor(-y[both], np.nextafter(-x[both], 0.0), largest=False)
        hi = min(hi, math.nextafter(out, 0.0))
    return lo, hi


def _mask_optimal_cell(xs, ys, q_min, q_max):
    m, n = xs.size, ys.size
    i_n = np.arange(1, m + 1, dtype=np.int64) * n
    j_m = np.arange(1, n + 1, dtype=np.int64) * m
    k_lo, k_hi, (lo, hi), checks = 0, m * n, (q_min, q_max), 0
    while k_lo < k_hi:
        k = (k_lo + k_hi) // 2
        a, b = k // n, k // m
        j = (i_n[a:] - (k + 1)) // m
        i = (j_m[b:] - (k + 1)) // n
        c = _mask_divisor_bounds(ys[j], xs[a:], q_min, q_max)
        c = _mask_divisor_bounds(-ys[b:], -xs[i], *c)
        checks += 1
        if c[0] <= c[1]:
            k_hi, (lo, hi) = k, c
        else:
            k_lo = k + 1
    return lo, hi, k_hi, checks


def _kernel_case(family, rng):
    """Unsorted (x, y) and a divisor window (q_min, q_max) for one family."""
    nx, ny = (int(v) for v in rng.integers(1, 400, size=2))
    if family == "ticks":  # quantised prices: heavy ties, most returns zero
        x = rng.integers(-2, 3, size=nx) * (rng.random(nx) < 0.3) * 0.01
        y = rng.integers(-3, 4, size=ny) * (rng.random(ny) < 0.4) * 0.01
        return x, y, (0.01, 10.0)
    if family == "one-signed":
        x, y = rng.standard_normal(nx), rng.standard_normal(ny) * rng.uniform(0.2, 5.0)
        sx, sy = rng.choice([-1.0, 0.0, 1.0], size=2)
        x = np.abs(x) * sx if sx else x
        y = np.abs(y) * sy if sy else y
        return x, y, (0.01, 10.0)
    if family == "single":
        x, y = rng.standard_normal(nx), rng.standard_normal(ny)
        if rng.random() < 0.5:
            x = x[:1]
        else:
            y = y[:1]
        return x, y, (0.01, 10.0)
    # clipped: the optimum lies outside the window, on either side
    x = rng.standard_normal(nx)
    scale = rng.choice([0.05, 20.0])
    return x, np.round(rng.standard_normal(ny) * scale, 2), (0.5, 2.0)


def _assert_same_cell(xs, ys, q_min, q_max):
    """The search's cell and count equal the reference's bit for bit; the check counts of both."""
    got = _optimal_cell(xs, ys, q_min, q_max)
    want = _mask_optimal_cell(xs, ys, q_min, q_max)
    assert (got[0].hex(), got[1].hex(), got[2]) == (want[0].hex(), want[1].hex(), want[2])
    # the guided phase stops at bit_length checks, then bisection and one
    # last check of the count found
    assert got[3] <= 2 * (xs.size * ys.size).bit_length() + 1
    return got, want[3]


@pytest.mark.parametrize("family", ["ticks", "one-signed", "single", "clipped"])
def test_kernel_matches_mask_reference_bits(family):
    rng = np.random.default_rng(["ticks", "one-signed", "single", "clipped"].index(family))
    edges, checks, reference_checks = set(), 0, 0
    for _ in range(60):
        x, y, (q_min, q_max) = _kernel_case(family, rng)
        got, want_checks = _assert_same_cell(np.sort(x), np.sort(y), q_min, q_max)
        checks += got[3]
        reference_checks += want_checks
        if got[0] == q_min:
            edges.add("lo")
        if got[1] == q_max:
            edges.add("hi")
    assert family != "clipped" or edges == {"lo", "hi"}
    assert 2 * checks <= reference_checks


@pytest.mark.parametrize("family", ["ticks", "one-signed", "single", "clipped"])
def test_fitted_ks_is_the_distance_measured_at_the_duration(family):
    # the fit reports the count its search certified; measuring the result
    # again at the fitted duration must give the same KsResult
    rng = np.random.default_rng(20 + ["ticks", "one-signed", "single", "clipped"].index(family))
    for _ in range(40):
        x, y, (q_min, q_max) = _kernel_case(family, rng)
        x, y = make_sample(x), make_sample(y)
        r = calibrate_interval(y, x, SearchConfig(q_min * q_min, q_max * q_max))
        assert r.ks == rescaled_ks(x, y, r.delta_tau)


def test_kernel_matches_mask_reference_on_a_pooled_cascade_class():
    rng = np.random.default_rng(96)
    xs = np.sort(rng.standard_normal(3000) * np.exp(0.3 * rng.standard_normal(3000)))
    ys = np.sort(np.round(0.4 * rng.standard_t(4, size=96_000), 3))
    got, want_checks = _assert_same_cell(xs, ys, 0.01, 10.0)
    assert 2 * got[3] <= want_checks


def _edge_case(name):
    """Sorted (xs, ys) and a divisor window for one named edge of the search."""
    rng = np.random.default_rng(7)
    x = np.sort(rng.standard_normal(300))
    if name == "identical":  # the optimal count is 0
        return x, x.copy(), (0.01, 10.0)
    if name == "doubled":
        return x, 2.0 * x, (0.01, 10.0)
    if name == "zero-iqr":  # most ticks are zero, so both quartiles are
        x = rng.integers(-2, 3, size=301) * (rng.random(301) < 0.2) * 0.01
        y = rng.integers(-3, 4, size=257) * (rng.random(257) < 0.3) * 0.01
        return np.sort(x), np.sort(y), (0.01, 10.0)
    if name == "clipped-lo":
        return x, np.sort(0.01 * rng.standard_normal(200)), (0.5, 2.0)
    return x, np.sort(100.0 * rng.standard_normal(200)), (0.5, 2.0)


@pytest.mark.parametrize("name", ["identical", "doubled", "zero-iqr", "clipped-lo", "clipped-hi"])
def test_search_matches_mask_reference_at_its_edges(name):
    xs, ys, (q_min, q_max) = _edge_case(name)
    got, _ = _assert_same_cell(xs, ys, q_min, q_max)
    if name in ("identical", "doubled"):
        # the interquartile ratio is the exact scale, whose count 0 one check
        # certifies
        scale = 1.0 if name == "identical" else 2.0
        assert got == (scale, scale, 0, 1)
    if name == "zero-iqr":
        assert xs[3 * xs.size // 4] == xs[xs.size // 4] == 0.0
    if name.startswith("clipped"):
        assert (got[0] == q_min) == (name == "clipped-lo")
        assert (got[1] == q_max) == (name == "clipped-hi")


def _brute_force_count(xs, ys, q):
    """max over the merged points z of |n_y C_x(z) - n_x C_{y/q}(z)|, by comparison matrices."""
    zs = ys / q
    merged = np.concatenate([xs, zs])
    c_x = (xs[None, :] <= merged[:, None]).sum(axis=1)
    c_z = (zs[None, :] <= merged[:, None]).sum(axis=1)
    return int(np.abs(ys.size * c_x - xs.size * c_z).max())


@pytest.mark.parametrize("family", ["ticks", "one-signed", "single", "clipped"])
def test_ks_count_is_exact(family):
    rng = np.random.default_rng(10 + ["ticks", "one-signed", "single", "clipped"].index(family))
    for _ in range(40):
        x, y, (q_min, q_max) = _kernel_case(family, rng)
        xs, ys = np.sort(x), np.sort(y)
        # a random divisor, and divisors y_(j) / x_(i) at which a y / q meets an x
        with np.errstate(divide="ignore", invalid="ignore"):
            ties = np.divide.outer(ys, xs).ravel()
        ties = ties[np.isfinite(ties) & (ties > 0)]
        qs = [math.exp(rng.uniform(math.log(q_min), math.log(q_max)))]
        qs += list(rng.choice(ties, size=min(3, ties.size), replace=False))
        for q in map(float, qs):
            want = _brute_force_count(xs, ys, q)
            assert ks_count(xs, ys / q) == want
            assert round(rescaled_ks(xs, ys, q * q).raw_sup * xs.size * ys.size) == want


def _scalar_first_divisor(a, b, largest):
    """Each pair's first q with fl(a/q) <= b by one-ulp steps, then the extreme."""
    firsts = []
    for ai, bi in zip(a.tolist(), b.tolist()):
        q = ai / bi
        while ai / q > bi:
            q = math.nextafter(q, math.inf)
        while ai / math.nextafter(q, 0.0) <= bi:
            q = math.nextafter(q, 0.0)
        firsts.append(q)
    return max(firsts) if largest else min(firsts)


# pairs whose extreme a/b is not the pair with the extreme first divisor, so
# only the near-set tolerance keeps the right pair in the refinement
@pytest.mark.parametrize("a, b, largest, want", [
    ([7.575669254945257, 10.99577124394846], [4.90275903932744, 7.116152388180599],
     True, 1.545184903883118),
    ([2.7542280697384336, 30.354650615512107], [0.8365003110284567, 9.219161971378584],
     False, 3.2925607240386765),
])
def test_first_divisor_refines_every_near_tied_pair(a, b, largest, want):
    a, b = np.array(a), np.array(b)
    assert _scalar_first_divisor(a, b, largest) == want
    assert _first_divisor(a, b, largest) == want


def test_first_divisor_matches_scalar_refinement_on_near_ties():
    rng = np.random.default_rng(3)
    for _ in range(500):
        # a = q0 * b rounds differently per pair: every a/b is within an ulp
        # or two of q0
        b = rng.uniform(0.1, 10.0, size=32)
        a = rng.uniform(0.5, 4.0) * b
        for largest in (True, False):
            assert _first_divisor(a, b, largest) == _scalar_first_divisor(a, b, largest)


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


@pytest.mark.parametrize("threads", [None, 1, 4])
def test_clock_fits_on_the_calling_thread(
    threads, noisy_series, noisy_partition, noisy_calibration, monkeypatch
):
    fit = fstclock.clock.calibrate_interval
    seen = []

    def recording(*args, **kwargs):
        # a pool joins its threads on exit, so count them during each fit
        seen.append((threading.get_ident(), threading.active_count()))
        return fit(*args, **kwargs)

    monkeypatch.setattr(fstclock.clock, "calibrate_interval", recording)
    before = threading.active_count()
    cal = calibrate_clock(noisy_series, noisy_partition, threads=threads)
    assert threading.active_count() == before
    assert seen == [(threading.get_ident(), before)] * (noisy_partition.m_max + 1)
    assert cal.intraday_durations.tobytes() == noisy_calibration.intraday_durations.tobytes()
    assert cal.overnight_duration.hex() == noisy_calibration.overnight_duration.hex()
    assert cal.intraday_d.tobytes() == noisy_calibration.intraday_d.tobytes()
    assert cal.overnight_d.hex() == noisy_calibration.overnight_d.hex()
    assert [(lo.hex(), hi.hex()) for lo, hi in cal.cells] == [
        (lo.hex(), hi.hex()) for lo, hi in noisy_calibration.cells
    ]


def test_calibration_json_roundtrip(noisy_calibration):
    payload = noisy_calibration.to_json_dict()
    assert list(payload.keys()) == [
        "reference_class",
        "delta_tau_intraday",
        "delta_tau_night",
        "d_values",
        "search_config",
        "delta_tau_cells",
        "boundary_warnings",
    ]
    assert len(payload["d_values"]) == noisy_calibration.m_max + 1
    # one cell per class, night last, each holding its fitted duration
    durations = [*noisy_calibration.intraday_durations, noisy_calibration.overnight_duration]
    assert len(payload["delta_tau_cells"]) == len(durations)
    for (lo, hi), dt in zip(payload["delta_tau_cells"], durations):
        assert lo <= dt <= hi
    back = ClockCalibration.from_json_dict(json.loads(json.dumps(payload)))
    assert (back.intraday_durations == noisy_calibration.intraday_durations).all()
    assert back.overnight_duration == noisy_calibration.overnight_duration
    assert back.search == noisy_calibration.search
    assert back.cells == noisy_calibration.cells


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


@pytest.mark.parametrize("fields,message", [
    ({"intraday_durations": np.array([math.nan, 0.25])}, "nan is not a finite positive duration"),
    ({"overnight_duration": math.inf}, "inf is not a finite positive duration"),
    ({"intraday_d": np.array([0.1, math.nan])}, "nan is not a finite non-negative D value"),
    ({"overnight_d": -0.5}, "-0.5 is not a finite non-negative D value"),
])
def test_calibration_refuses_non_finite_values(fields, message):
    base = dict(
        intraday_durations=np.array([0.25, 0.25]),
        overnight_duration=0.5,
        intraday_d=np.zeros(2),
        overnight_d=0.0,
        reference_label="1-day",
        search=SearchConfig(),
    )
    with pytest.raises(DataError, match=message):
        ClockCalibration(**{**base, **fields})


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
    assert tm.anchor_tau[2 * (MAP_PARTITION.m_max + 1)] == 2.0


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
    assert tm.anchor_tau.size == series.n_days * (MAP_PARTITION.m_max + 1) + 1
    friday_close = tm.map_time(datetime(2020, 1, 3, 11, 40))
    tuesday_open = tm.map_time(datetime(2020, 1, 7, 9, 40))
    assert tuesday_open - friday_close == cal.overnight_duration + cal.day_total
    assert [tm.anchor_tau[l * (MAP_PARTITION.m_max + 1)] for l in range(4)] == [0.0, 1.0, 3.0, 4.0]
    # the dropped Monday's trading hours, ends included, have no clock value
    for hhmm in ((9, 40), (10, 40), (11, 40)):
        with pytest.raises(MapRangeError, match="dropped session"):
            tm.map_time(datetime(2020, 1, 6, *hhmm))
    # a clock value whose instant lands inside them has no instant either
    wall = (datetime(2020, 1, 7, 9, 40) - datetime(2020, 1, 3, 11, 40)).total_seconds()
    to_monday = (datetime(2020, 1, 6, 10, 40) - datetime(2020, 1, 3, 11, 40)).total_seconds()
    with pytest.raises(MapRangeError, match="dropped session"):
        tm.map_tau(friday_close + (tuesday_open - friday_close) * to_monday / wall)
    # the closure around it still maps, both ways
    for t in (datetime(2020, 1, 4, 12, 0), datetime(2020, 1, 6, 9, 0), datetime(2020, 1, 6, 12, 0)):
        tau = tm.map_time(t)
        assert friday_close < tau < tuesday_open
        assert tm.map_tau(tau) == t
    # the plain date list knows nothing of the dropped Monday
    plain = assemble_time_map(cal, MAP_PARTITION, MAP_GRID, dates=series.dates)
    assert plain.map_time(datetime(2020, 1, 7, 9, 40)) == 2.0
    assert friday_close < plain.map_time(datetime(2020, 1, 6, 10, 40)) < 2.0


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
    l, m, instants = tm.anchor_columns()
    assert l.size == m.size == instants.size == tm.anchor_tau.size == 2 * 4 + 1
    assert (l[0], m[0]) == (0, 0)
    assert (l[4], m[4]) == (1, 0)
    assert (l[-1], m[-1]) == (2, 0)
    assert instants[0] == np.datetime64(datetime.combine(tm.dates[0], time(9, 40)), "s")
    assert instants[-1] == np.datetime64(datetime.combine(tm.dates[-1], time(9, 40)), "s")
    taus = tm.anchor_tau.tolist()
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


def test_additivity_refuses_a_partition_the_calibration_does_not_match(
    noisy_series, noisy_calibration
):
    coarse = PartitionSpec(boundaries=(0, 3, 19), bar_minutes=20)
    with pytest.raises(ClassSpecError, match="calibration has 19 intervals, partition 2"):
        additivity_report(noisy_series, coarse, noisy_calibration)


def test_additivity_unions_are_the_parsers_classes(
    noisy_series, noisy_partition, noisy_calibration
):
    # on the 20-minute partition boundary m sits at bar m
    intervals = [(f"intraday[{m}..{m + 1}]", "intraday", m, m + 1) for m in range(19)]
    day = ("1-day", "multiday", None, None)
    want = [
        (("trading-day", "intraday", 0, 19), intervals),
        (day, [("morning", "intraday", 0, 10), ("afternoon", "intraday", 10, 19),
               ("overnight", "overnight", None, None)]),
        (("2-day", "multiday", None, None), [day, day]),
    ]

    def fields(c):
        return (c.label, c.kind, c.bar_start, c.bar_end)

    grid = noisy_series.grid
    for (_, union, parts), (want_union, want_parts) in zip(ADDITIVITY_UNIONS, want, strict=True):
        assert [fields(c) for c in parse_class_spec(union, noisy_partition, grid)] == [want_union]
        assert [fields(c) for c in parse_class_specs(parts, noisy_partition, grid)] == want_parts

    cal = noisy_calibration
    dur = cal.intraday_durations
    rows = additivity_report(noisy_series, noisy_partition, cal)
    assert [r.parts_sum for r in rows] == [
        sum(map(float, dur)),
        float(dur[:10].sum()) + float(dur[10:].sum()) + cal.overnight_duration,
        cal.day_total + cal.day_total,
    ]


def test_class_duration_of_bars_on_the_boundaries_is_the_intervals_duration():
    cal = unit_day_calibration()  # boundaries (0, 2, 4, 6)
    for (i, j), (a, b) in [((0, 2), (0, 1)), ((2, 6), (1, 3)), ((0, 6), (0, 3))]:
        by_bars = class_duration(IntervalClass.bars(i, j), cal, MAP_PARTITION)
        by_intervals = class_duration(IntervalClass.intraday(a, b, MAP_PARTITION), cal, MAP_PARTITION)
        assert by_bars == by_intervals == float(cal.intraday_durations[a:b].sum())
    assert class_duration(IntervalClass.overnight(nights=3), cal, MAP_PARTITION) == 0.375
    assert class_duration(IntervalClass.multiday(2), cal, MAP_PARTITION) == 2.0
    for off in [IntervalClass.bars(1, 4), IntervalClass.bars(2, 5), IntervalClass.bars(4, 8),
                IntervalClass.sample("60min")]:
        with pytest.raises(ClassSpecError):
            class_duration(off, cal, MAP_PARTITION)
    with pytest.raises(ClassSpecError):
        class_duration(IntervalClass.overnight(), cal, PartitionSpec(boundaries=(0, 3, 6), bar_minutes=20))
