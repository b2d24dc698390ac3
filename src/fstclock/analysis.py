"""Scaling diagnostics: moments, Hurst slopes, density collapse, volatility
profiles, volatility memory, and the contiguous-return correlation gate.

Most estimators exist in two flavours, one on the physical axis and one on a
calibrated clock, so the effect of the time change can be read off directly.
Seasonal means are always removed per ensemble (same intraday anchors, same
day offset) before anything is averaged.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clock import ClockCalibration, TimeMap, class_duration
from .errors import ClassSpecError, DataError
from .series import (
    DayGrid,
    IntervalClass,
    PartitionSpec,
    PriceSeries,
    ReturnSample,
    class_samples,
    demean,
    dropped_between,
)

MIN_PAIRS = 30

# Grid positions per column block in ``linear_correlation_contiguous``: the
# day x position temporaries are bounded to this many columns at a time.
CORRELATION_BLOCK_COLS = 32


def _complete_matrix(series: PriceSeries, what: str) -> np.ndarray:
    z = series.log_prices
    if np.isnan(z).any():
        raise DataError(f"{what} needs a complete series; run filter_complete_days first")
    return z


# ---------------------------------------------------------------------------
# Slot returns: one detrended (day x slot) matrix per kind of slot

def _bar_returns(z: np.ndarray, k_bars: int) -> np.ndarray:
    """k-bar returns over the disjoint windows from the open, detrended per window.

    Windows start at multiples of k, one column each; each column is its own
    ensemble for mean removal.
    """
    n_bars = z.shape[1] - 1
    if not 1 <= k_bars <= n_bars:
        raise ClassSpecError(f"k_bars={k_bars} outside 1..{n_bars}")
    starts = np.arange(0, n_bars - k_bars + 1, k_bars)
    return demean(z[:, starts + k_bars] - z[:, starts])


def _clock_bin_returns(
    z: np.ndarray, grid: DayGrid, time_map: TimeMap, n_bins: int, width: float
) -> np.ndarray:
    """Returns over ``n_bins`` clock bins of ``width`` from the open, detrended per bin.

    Bin edges are pulled back to intraday instants through the map, and
    log-prices at the edges come from linear interpolation between bars.
    """
    edges_tau = np.arange(n_bins + 1) * width
    offsets = [time_map.intraday_offset_minutes(t) for t in edges_tau]
    pos = np.asarray(offsets, dtype=float) / grid.bar_minutes
    if (pos < -1e-9).any() or (pos > grid.n_bars + 1e-9).any():
        raise DataError("offset outside the trading session")
    idx = np.clip(np.floor(pos).astype(int), 0, grid.n_bars - 1)
    frac = pos - idx
    edge_prices = (1.0 - frac) * z[:, idx] + frac * z[:, idx + 1]
    return demean(np.diff(edge_prices, axis=1))


# ---------------------------------------------------------------------------
# Sample builders

def pooled_bar_sample(
    series: PriceSeries,
    k_bars: int,
    label: str | None = None,
) -> ReturnSample:
    """Pool k-bar returns over days and start positions, detrended per position.

    Windows start at multiples of k from the open, so they are disjoint.
    Each start position is its own ensemble for mean removal, then positions
    are pooled into one sample.
    """
    pooled = _bar_returns(_complete_matrix(series, "pooled sampling"), k_bars).ravel()
    name = label or f"pooled[{k_bars * series.grid.bar_minutes}min]"
    return ReturnSample(values=pooled, interval=IntervalClass.sample(name), detrended=True)


@dataclass(frozen=True)
class MomentRow:
    """One interval class ready for moment analysis under either clock."""

    label: str
    physical_duration: float
    fst_duration: float | None
    sample: ReturnSample


def span_union_samples(
    series: PriceSeries,
    partition: PartitionSpec,
    spans: Sequence[int] = (1, 2, 4),
    calibration: ClockCalibration | None = None,
    include_overnight: bool = True,
    multiday: Sequence[int] = (),
) -> list[MomentRow]:
    """Interval-class ensembles with both physical and clock durations.

    For every span in ``spans`` all start positions contribute a row, so the
    physical axis shows the seasonal scatter of same-length intervals while
    the clock axis spreads them by their calibrated durations
    (``class_duration``, additive over the partition by construction).
    Physical durations are the wall-clock minutes of the class's window: a
    day counts 1440 and the closure the night remainder.
    """
    grid = series.grid
    partition.check_grid(grid)
    classes = []
    for span in spans:
        if not 1 <= span <= partition.m_max:
            raise ClassSpecError(f"span {span} outside 1..{partition.m_max}")
        classes += [
            IntervalClass.intraday(a, a + span, partition)
            for a in range(partition.m_max - span + 1)
        ]
    if include_overnight:
        classes.append(IntervalClass.overnight())
    classes += [IntervalClass.multiday(n) for n in multiday]
    rows: list[MomentRow] = []
    for c, sample in zip(classes, class_samples(series, classes)):
        start, end, days = c.window(grid)
        fst = None if calibration is None else class_duration(c, calibration, partition)
        rows.append(
            MomentRow(
                label=c.label,
                physical_duration=days * 1440.0 + (end - start) * grid.bar_minutes,
                fst_duration=fst,
                sample=sample,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Moments and Hurst slopes

@dataclass(frozen=True)
class MomentTable:
    """E|r|^q per (duration, order), under one clock."""

    durations: np.ndarray
    orders: np.ndarray
    moments: np.ndarray
    clock_tag: str

    def __post_init__(self):
        d = np.asarray(self.durations, dtype=float)
        q = np.asarray(self.orders, dtype=float)
        m = np.asarray(self.moments, dtype=float)
        if m.shape != (d.size, q.size):
            raise DataError(f"moment matrix {m.shape} does not match {d.size}x{q.size}")
        if not (np.isfinite(d) & (d > 0)).all():
            raise DataError("durations must be finite and positive")
        if (m < 0).any():
            raise DataError("absolute moments cannot be negative")
        for arr, name in ((d, "durations"), (q, "orders"), (m, "moments")):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _durations(samples: Sequence[tuple[float, ReturnSample]]) -> np.ndarray:
    """The samples' durations as floats.

    A duration that is not finite and positive raises ``DataError`` naming
    its sample.
    """
    d = np.asarray([d for d, _ in samples], dtype=float)
    bad = np.flatnonzero(~(np.isfinite(d) & (d > 0)))
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"sample {samples[i][1].interval.label!r} has duration {float(d[i])!r}; "
            "durations must be finite and positive"
        )
    return d


def moment_curve(
    samples: Sequence[tuple[float, ReturnSample]],
    orders: Sequence[float] = (0.5, 1.0, 2.0, 3.0, 4.0),
    clock_tag: str = "physical",
) -> MomentTable:
    """Empirical absolute moments of each sample at each order.

    The samples of one length are stacked, and each order's means come from
    one reduction over the rows; a row is summed as the sample alone is, so
    every moment is ``np.mean(np.abs(values) ** q)`` bit for bit.
    """
    if not samples:
        raise DataError("moment curve needs at least one sample")
    q = np.asarray(list(orders), dtype=float)
    if (q <= 0).any():
        raise ValueError("moment orders must be positive")
    if not np.isfinite(q).all():
        raise ValueError("moment orders must be finite")
    durations = _durations(samples)
    by_length: dict[int, list[int]] = {}
    for i, (_, sample) in enumerate(samples):
        by_length.setdefault(sample.n, []).append(i)
    rows = np.empty((len(samples), q.size))
    for idx in by_length.values():
        a = np.abs(np.stack([samples[i][1].values for i in idx]))
        for j, qq in enumerate(q):
            rows[idx, j] = (a**qq).mean(axis=1)
    return MomentTable(durations=durations, orders=q, moments=rows, clock_tag=clock_tag)


@dataclass(frozen=True)
class HurstSpectrum:
    """Per-order scaling exponents from log-log least squares."""

    orders: np.ndarray
    hurst: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray
    rms_residuals: np.ndarray
    fit_range: tuple[float, float]
    clock_tag: str

    def spread(self, q_lo: float, q_hi: float) -> float:
        """H(q_lo) - H(q_hi); positive means multiscaling bends downward."""
        i = int(np.argmin(np.abs(self.orders - q_lo)))
        j = int(np.argmin(np.abs(self.orders - q_hi)))
        return float(self.hurst[i] - self.hurst[j])


def _distinct_count(x: np.ndarray) -> int:
    """``np.unique(x).size`` for NaN-free ``x``, without importing ``numpy.ma``."""
    s = np.sort(x)
    return int(s.size and 1 + np.count_nonzero(s[1:] != s[:-1]))


def hurst_slopes(table: MomentTable, fit_range: tuple[float, float]) -> HurstSpectrum:
    """Fit log E|r|^q against log duration inside ``fit_range``.

    H(q) is the fitted slope divided by q.  The fit range is part of the
    result because the choice is substantive, not cosmetic.  Non-positive
    moment entries cannot enter the log fit; they are dropped with a
    warning, and an order left with fewer than three distinct durations
    reports NaN.
    """
    lo, hi = fit_range
    if not (0 < lo < hi):
        raise ValueError(f"bad fit range {fit_range}")
    in_range = (table.durations >= lo) & (table.durations <= hi)
    if _distinct_count(table.durations[in_range]) < 3:
        raise DataError("fit range keeps fewer than 3 distinct durations")

    n_q = table.orders.size
    slopes = np.full(n_q, np.nan)
    inters = np.full(n_q, np.nan)
    rms = np.full(n_q, np.nan)
    for j in range(n_q):
        col = table.moments[:, j]
        usable = in_range & (col > 0)
        if (in_range & (col <= 0)).any():
            warnings.warn(
                f"order q={table.orders[j]:g}: dropping non-positive moments from the fit",
                stacklevel=2,
            )
        if _distinct_count(table.durations[usable]) < 3:
            warnings.warn(
                f"order q={table.orders[j]:g}: fewer than 3 usable durations, reporting NaN",
                stacklevel=2,
            )
            continue
        x = np.log(table.durations[usable])
        y = np.log(col[usable])
        slope, inter = np.polyfit(x, y, 1)
        slopes[j] = slope
        inters[j] = inter
        rms[j] = float(np.sqrt(np.mean((y - (slope * x + inter)) ** 2)))
    return HurstSpectrum(
        orders=table.orders.copy(),
        hurst=slopes / table.orders,
        slopes=slopes,
        intercepts=inters,
        rms_residuals=rms,
        fit_range=(float(lo), float(hi)),
        clock_tag=table.clock_tag,
    )


# ---------------------------------------------------------------------------
# Density collapse

@dataclass(frozen=True)
class CollapseRow:
    label: str
    duration: float
    rescaled_values: np.ndarray
    bin_centers: np.ndarray
    density: np.ndarray


def _median(x: np.ndarray) -> float:
    """``np.median`` of a 1-d float array, bit for bit, without importing ``numpy.ma``."""
    k = x.size // 2
    # np.median takes np.mean of the middle values, whose sum starts from 0.0
    # (so a middle -0.0 comes out as 0.0).
    if x.size % 2:
        part = np.partition(x, [k, -1])
        mid = part[k] + 0.0
    else:
        part = np.partition(x, [k - 1, k, -1])
        mid = (part[k - 1] + part[k] + 0.0) / 2
    return np.nan if np.isnan(part[-1]) else mid


def pdf_collapse_export(
    samples: Sequence[tuple[float, ReturnSample]],
    hurst: float = 0.5,
    n_bins: int = 101,
) -> list[CollapseRow]:
    """Rescale each sample by duration**hurst and histogram on shared bins.

    Under simple scaling all densities land on one curve.  Bins span six
    pooled robust standard deviations (1.4826 * MAD) either side of 0, and the
    densities are normalised against the full sample size, so tail mass
    outside the window is simply absent rather than redistributed.  The
    rescaled raw values are returned too; they, not the histogram, are the
    authoritative product.
    """
    if not samples:
        raise DataError("collapse export needs at least one sample")
    if n_bins < 3:
        raise ValueError("need at least 3 bins")
    _durations(samples)
    rescaled = [(d, s.values / d**hurst, s.interval.label) for d, s in samples]
    pooled = np.concatenate([u for _, u, _ in rescaled])
    med = _median(pooled)
    rsd = 1.4826 * float(_median(np.abs(pooled - med)))
    if rsd == 0.0:
        rsd = float(pooled.std()) or 1.0
    edges = np.linspace(-6.0 * rsd, 6.0 * rsd, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]

    # Every sample's histogram in one pass over the pooled values, with
    # np.histogram's bins: [e_i, e_i+1) each, the last one closed.
    owner = np.repeat(np.arange(len(rescaled)), [u.size for _, u, _ in rescaled])
    cell = owner * n_bins + np.searchsorted(edges[1:-1], pooled, side="right")
    inside = (pooled >= edges[0]) & (pooled <= edges[-1])
    all_counts = np.bincount(cell[inside], minlength=len(rescaled) * n_bins)
    rows = []
    for (d, u, label), counts in zip(rescaled, all_counts.reshape(-1, n_bins)):
        density = counts / (u.size * width)
        rows.append(
            CollapseRow(
                label=label,
                duration=float(d),
                rescaled_values=u,
                bin_centers=centers,
                density=density,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Intraday volatility profile

@dataclass(frozen=True)
class VolatilityProfile:
    """Mean absolute return per intraday position, physical or clock bins."""

    positions: np.ndarray
    sigma: np.ndarray
    n_obs: np.ndarray
    clock_tag: str

    def peak_to_mean(self) -> float:
        return float(self.sigma.max() / self.sigma.mean())


def intraday_volatility_profile(
    series: PriceSeries,
    partition: PartitionSpec,
    time_map: TimeMap | None = None,
    n_bins: int | None = None,
) -> VolatilityProfile:
    """Seasonality of the return magnitude across the trading day.

    Physical flavour: one point per partition interval, sigma as the
    ensemble mean |r| over days, positioned at the interval midpoint in
    minutes after the open.  Clock flavour (``time_map`` given): the day is
    cut into equal clock bins, bin edges are pulled back to physical
    instants through the map, log-prices at the edges come from linear
    interpolation between bars, and the same ensemble statistic follows.
    Flat clock-bin profiles are the stationarity the calibration aims at.
    """
    partition.check_grid(series.grid)
    z = _complete_matrix(series, "volatility profile")

    if time_map is None:
        intervals = partition.intervals()
        samples = class_samples(series, intervals)
        return VolatilityProfile(
            positions=np.asarray(
                [0.5 * (c.bar_start + c.bar_end) * partition.bar_minutes for c in intervals]
            ),
            sigma=np.asarray([float(np.mean(np.abs(s.values))) for s in samples]),
            n_obs=np.asarray([s.n for s in samples]),
            clock_tag="physical",
        )

    bins = n_bins or partition.m_max
    width = time_map.calibration.trading_total / bins
    returns = _clock_bin_returns(z, series.grid, time_map, bins, width)
    return VolatilityProfile(
        positions=np.arange(bins) * width + 0.5 * width,
        sigma=np.abs(returns).mean(axis=0),
        n_obs=np.full(bins, series.n_days),
        clock_tag="fst",
    )


# ---------------------------------------------------------------------------
# Volatility autocorrelation

@dataclass(frozen=True)
class CorrelationCurve:
    lags: np.ndarray
    values: np.ndarray
    n_pairs: np.ndarray
    estimator: str
    clock_tag: str
    delta: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if (np.abs(v[~np.isnan(v)]) > 1.0 + 1e-12).any():
            raise DataError("correlation outside [-1, 1]")


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xm = x - x.mean()
    ym = y - y.mean()
    den = math.sqrt(float(xm @ xm) * float(ym @ ym))
    if den == 0.0:
        return math.nan
    return float(xm @ ym) / den


def _magnitude_matrix(
    series: PriceSeries,
    delta: float,
    time_map: TimeMap | None,
) -> np.ndarray:
    """|return| per (day, slot); clock flavour appends a normalised night slot.

    Physical slots are the ``delta``-minute intervals tiling the session.
    Clock slots are equal-``delta`` clock bins, plus one closure slot whose
    magnitude is shrunk by sqrt(delta / overnight duration) so that, under
    diffusive scaling on the calibrated clock, it is exchangeable with the
    intraday slots.  Nights straddling a filter-dropped day are NaN and the
    pair machinery skips them.
    """
    z = _complete_matrix(series, "volatility autocorrelation")
    grid = series.grid
    if time_map is None:
        return np.abs(_bar_returns(z, grid.bars_in(delta)))

    cal = time_map.calibration
    n_bins = int(cal.trading_total / delta + 1e-9)
    if n_bins < 1:
        raise ClassSpecError("delta exceeds the trading day on the clock")
    intraday = _clock_bin_returns(z, grid, time_map, n_bins, delta)

    starts = np.flatnonzero(dropped_between(series) == 0)
    nights = np.full(series.n_days, np.nan)
    nights[starts] = demean(z[starts + 1, 0] - z[starts, grid.close_index])
    nights *= math.sqrt(delta / cal.classes[-1].delta_tau)

    out = np.empty((series.n_days, n_bins + 1))
    out[:, :n_bins] = np.abs(intraday)
    out[:, n_bins] = np.abs(nights)
    return out


def volatility_autocorrelation(
    series: PriceSeries,
    delta: float,
    lags: Sequence[int],
    time_map: TimeMap | None = None,
    estimator: str = "sliding",
) -> CorrelationCurve:
    """Pearson autocorrelation of |r| at multiples of one base duration.

    Lags count slots of the day-major sequence of ``delta``-sized returns.
    The sliding estimator pools every admissible start; the ciclostationary
    one correlates across days at fixed slot-of-day and averages the
    per-slot coefficients.  Lag 0 is exactly 1.  Lags with fewer than
    ``MIN_PAIRS`` admissible pairs are dropped with a warning.
    """
    if estimator not in ("sliding", "ciclostationary"):
        raise ValueError(f"unknown estimator {estimator!r}")
    mat = _magnitude_matrix(series, delta, time_map)
    n_days, n_slots = mat.shape
    flat = mat.ravel()
    valid = ~np.isnan(flat)
    total = flat.size

    kept_lags, vals, pairs = [], [], []
    for h in lags:
        if h < 0:
            raise ValueError("lags must be non-negative")
        if h == 0:
            kept_lags.append(0)
            vals.append(1.0)
            pairs.append(int(valid.sum()))
            continue
        if h >= total:
            warnings.warn(f"lag {h} exceeds the sequence, dropped", stacklevel=2)
            continue
        a = flat[: total - h]
        b = flat[h:]
        ok = valid[: total - h] & valid[h:]
        if estimator == "sliding":
            n_ok = int(ok.sum())
            if n_ok < MIN_PAIRS:
                warnings.warn(f"lag {h}: only {n_ok} pairs, dropped", stacklevel=2)
                continue
            kept_lags.append(h)
            vals.append(_pearson(a[ok], b[ok]))
            pairs.append(n_ok)
        else:
            per_slot = []
            n_ok_total = 0
            for j0 in range(n_slots):
                sel = np.arange(j0, total - h, n_slots)
                ok_j = ok[sel]
                if int(ok_j.sum()) < MIN_PAIRS:
                    continue
                per_slot.append(_pearson(a[sel][ok_j], b[sel][ok_j]))
                n_ok_total += int(ok_j.sum())
            per_slot = [p for p in per_slot if not math.isnan(p)]
            if not per_slot:
                warnings.warn(f"lag {h}: no slot reaches {MIN_PAIRS} pairs, dropped", stacklevel=2)
                continue
            kept_lags.append(h)
            vals.append(float(np.mean(per_slot)))
            pairs.append(n_ok_total)

    return CorrelationCurve(
        lags=np.asarray(kept_lags, dtype=int),
        values=np.asarray(vals),
        n_pairs=np.asarray(pairs, dtype=int),
        estimator=estimator,
        clock_tag="physical" if time_map is None else "fst",
        delta=float(delta),
    )


# ---------------------------------------------------------------------------
# Contiguous linear correlation and the cutoff gate

def linear_correlation_contiguous(series: PriceSeries, dt_minutes: float) -> float:
    """Correlation between adjacent ``dt``-returns, averaged over the day.

    For each interior grid position the correlation across days between the
    return ending there and the return starting there is computed from
    detrended ensembles, then the positions are averaged with equal weight.
    This is the quantity the interval cutoff gates on: partitions are only
    trustworthy where it is small.
    """
    z = _complete_matrix(series, "contiguous correlation")
    k = series.grid.bars_in(dt_minutes)
    n = series.grid.n_bars
    if 2 * k > n:
        raise ClassSpecError(f"{dt_minutes} min is more than half the session")
    # Column-major differences, demeaned in place: the layout the column
    # means are summed in is part of the result's last bits.  Each position
    # is independent, so blocks of columns give the same bits.
    m = n - 2 * k + 1
    num, den = np.empty(m), np.empty(m)
    for lo in range(0, m, CORRELATION_BLOCK_COLS):
        cols = slice(lo, min(lo + CORRELATION_BLOCK_COLS, m))
        centers = z[:, k:][:, cols]
        before = np.subtract(centers, z[:, cols], order="F")
        after = np.subtract(z[:, 2 * k :][:, cols], centers, order="F")
        demean(before)
        demean(after)
        num[cols] = (before * after).mean(axis=0)
        den[cols] = np.sqrt((before**2).mean(axis=0)) * np.sqrt((after**2).mean(axis=0))
    good = den > 0
    if not good.all():
        warnings.warn("positions with zero variance skipped", stacklevel=2)
    if not good.any():
        raise DataError("every position has zero variance")
    return float(np.mean(num[good] / den[good]))


@dataclass(frozen=True)
class CutoffReport:
    dt_minutes: float
    value: float
    threshold: float

    @property
    def violated(self) -> bool:
        return abs(self.value) > self.threshold


def cutoff_check(
    series: PriceSeries,
    partition: PartitionSpec,
    threshold: float = 0.05,
) -> CutoffReport:
    """Contiguous-return correlation at the finest partition scale.

    The additive-clock construction assumes adjacent interval returns are
    effectively uncorrelated; this measures that assumption at the smallest
    interval the partition uses and flags a violation against ``threshold``.
    """
    partition.check_grid(series.grid)
    dt = min(partition.interval_minutes(m) for m in range(1, partition.m_max + 1))
    value = linear_correlation_contiguous(series, dt)
    return CutoffReport(dt_minutes=dt, value=value, threshold=threshold)
