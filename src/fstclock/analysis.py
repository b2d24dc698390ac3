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

from .clock import ClockCalibration, TimeMap
from .errors import ClassSpecError, DataError
from .series import (
    DayGrid,
    IntervalClass,
    PartitionSpec,
    PriceSeries,
    ReturnSample,
    class_sample,
    dropped_between,
)

MIN_PAIRS = 30


def _demean_columns(m: np.ndarray) -> np.ndarray:
    """Column-wise mean removal, twice to cancel rounding residue."""
    out = m - m.mean(axis=0)
    return out - out.mean(axis=0)


def _complete_matrix(series: PriceSeries, what: str) -> np.ndarray:
    z = series.log_prices
    if np.isnan(z).any():
        raise DataError(f"{what} needs a complete series; run filter_complete_days first")
    return z


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
    z = _complete_matrix(series, "pooled sampling")
    n_bars = series.grid.n_bars
    if not 1 <= k_bars <= n_bars:
        raise ClassSpecError(f"k_bars={k_bars} outside 1..{n_bars}")
    starts = np.arange(0, n_bars - k_bars + 1, k_bars)
    diffs = z[:, starts + k_bars] - z[:, starts]
    pooled = _demean_columns(diffs).ravel()
    name = label or f"pooled[{k_bars * series.grid.bar_minutes}min]"
    return ReturnSample(values=pooled, interval=IntervalClass.sample(name), detrended=True)


def tiled_bar_classes(grid: DayGrid, minutes: float) -> list[IntervalClass]:
    """The contiguous ``minutes``-long intervals tiling the session."""
    step = minutes / grid.bar_minutes
    if step != int(step) or step < 1:
        raise ClassSpecError(f"{minutes} min is not a whole number of bars")
    step = int(step)
    return [
        IntervalClass.bars(j, j + step, label=f"{minutes:g}min[{j}]")
        for j in range(0, grid.n_bars - step + 1, step)
    ]


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
    the clock axis spreads them by their calibrated durations (additive over
    the partition by construction).  Physical durations are wall-clock
    minutes; a day counts 1440 and the closure the night remainder.
    """
    partition.check_grid(series.grid)
    cal = calibration
    if cal is not None and cal.m_max != partition.m_max:
        raise ClassSpecError("calibration does not match the partition")
    rows: list[MomentRow] = []
    for span in spans:
        if not 1 <= span <= partition.m_max:
            raise ClassSpecError(f"span {span} outside 1..{partition.m_max}")
        for a in range(partition.m_max - span + 1):
            c = IntervalClass.intraday(a, a + span, partition)
            fst = float(cal.intraday_durations[a : a + span].sum()) if cal else None
            rows.append(
                MomentRow(
                    label=c.label,
                    physical_duration=(c.bar_end - c.bar_start) * series.grid.bar_minutes,
                    fst_duration=fst,
                    sample=class_sample(series, c),
                )
            )
    if include_overnight:
        c = IntervalClass.overnight()
        rows.append(
            MomentRow(
                label=c.label,
                physical_duration=24.0 * 60.0 - series.grid.session_minutes,
                fst_duration=cal.overnight_duration if cal else None,
                sample=class_sample(series, c),
            )
        )
    for n in multiday:
        c = IntervalClass.multiday(n)
        rows.append(
            MomentRow(
                label=c.label,
                physical_duration=n * 24.0 * 60.0,
                fst_duration=n * cal.day_total if cal else None,
                sample=class_sample(series, c),
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
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        d = np.asarray(self.durations, dtype=float)
        q = np.asarray(self.orders, dtype=float)
        m = np.asarray(self.moments, dtype=float)
        if m.shape != (d.size, q.size):
            raise DataError(f"moment matrix {m.shape} does not match {d.size}x{q.size}")
        if (d <= 0).any():
            raise DataError("durations must be positive")
        if (m < 0).any():
            raise DataError("absolute moments cannot be negative")
        for arr, name in ((d, "durations"), (q, "orders"), (m, "moments")):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def moment_curve(
    samples: Sequence[tuple[float, ReturnSample]],
    orders: Sequence[float] = (0.5, 1.0, 2.0, 3.0, 4.0),
    clock_tag: str = "physical",
) -> MomentTable:
    """Empirical absolute moments of each sample at each order."""
    if not samples:
        raise DataError("moment curve needs at least one sample")
    q = np.asarray(list(orders), dtype=float)
    if (q <= 0).any():
        raise ValueError("moment orders must be positive")
    durations = np.asarray([d for d, _ in samples], dtype=float)
    rows = np.empty((len(samples), q.size))
    for i, (_, sample) in enumerate(samples):
        a = np.abs(sample.values)
        rows[i] = [float(np.mean(a**qq)) for qq in q]
    labels = tuple(s.interval.label for _, s in samples)
    return MomentTable(durations=durations, orders=q, moments=rows, clock_tag=clock_tag, labels=labels)


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
    if np.unique(table.durations[in_range]).size < 3:
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
        if np.unique(table.durations[usable]).size < 3:
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


def pdf_collapse_export(
    samples: Sequence[tuple[float, ReturnSample]],
    hurst: float = 0.5,
    n_bins: int = 101,
    span_robust_sd: float = 6.0,
) -> list[CollapseRow]:
    """Rescale each sample by duration**hurst and histogram on shared bins.

    Under simple scaling all densities land on one curve.  Bins span a
    multiple of the pooled robust standard deviation (1.4826 * MAD), and the
    densities are normalised against the full sample size, so tail mass
    outside the window is simply absent rather than redistributed.  The
    rescaled raw values are returned too; they, not the histogram, are the
    authoritative product.
    """
    if not samples:
        raise DataError("collapse export needs at least one sample")
    if n_bins < 3:
        raise ValueError("need at least 3 bins")
    rescaled = [(d, s.values / d**hurst, s.interval.label) for d, s in samples]
    pooled = np.concatenate([u for _, u, _ in rescaled])
    med = np.median(pooled)
    rsd = 1.4826 * float(np.median(np.abs(pooled - med)))
    if rsd == 0.0:
        rsd = float(pooled.std()) or 1.0
    edges = np.linspace(-span_robust_sd * rsd, span_robust_sd * rsd, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]

    rows = []
    for d, u, label in rescaled:
        counts, _ = np.histogram(u, bins=edges)
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


def _interp_day_edges(z: np.ndarray, grid: DayGrid, offsets_minutes: np.ndarray) -> np.ndarray:
    """Log-prices at intraday minute offsets, linear between bars, all days."""
    pos = np.asarray(offsets_minutes, dtype=float) / grid.bar_minutes
    if (pos < -1e-9).any() or (pos > grid.n_bars + 1e-9).any():
        raise DataError("offset outside the trading session")
    idx = np.clip(np.floor(pos).astype(int), 0, grid.n_bars - 1)
    frac = pos - idx
    return (1.0 - frac) * z[:, idx] + frac * z[:, idx + 1]


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
        sigmas, pos, n_obs = [], [], []
        for m in range(1, partition.m_max + 1):
            s = class_sample(series, IntervalClass.intraday(m - 1, m, partition))
            sigmas.append(float(np.mean(np.abs(s.values))))
            pos.append(partition.midpoint_minutes(m))
            n_obs.append(s.n)
        return VolatilityProfile(
            positions=np.asarray(pos),
            sigma=np.asarray(sigmas),
            n_obs=np.asarray(n_obs),
            clock_tag="physical",
        )

    cal = time_map.calibration
    bins = n_bins or partition.m_max
    width = cal.trading_total / bins
    edges_tau = np.arange(bins + 1) * width
    offsets = np.asarray([time_map.intraday_offset_minutes(t) for t in edges_tau])
    edge_prices = _interp_day_edges(z, series.grid, offsets)
    returns = _demean_columns(np.diff(edge_prices, axis=1))
    return VolatilityProfile(
        positions=edges_tau[:-1] + 0.5 * width,
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
        k = delta / grid.bar_minutes
        if k != int(k) or k < 1:
            raise ClassSpecError(f"{delta} min is not a whole number of bars")
        k = int(k)
        n_slots = grid.n_bars // k
        if n_slots < 1:
            raise ClassSpecError("delta exceeds the session")
        starts = np.arange(n_slots) * k
        diffs = z[:, starts + k] - z[:, starts]
        return np.abs(_demean_columns(diffs))

    cal = time_map.calibration
    n_bins = int(cal.trading_total / delta + 1e-9)
    if n_bins < 1:
        raise ClassSpecError("delta exceeds the trading day on the clock")
    edges_tau = np.arange(n_bins + 1) * delta
    offsets = np.asarray([time_map.intraday_offset_minutes(t) for t in edges_tau])
    edge_prices = _interp_day_edges(z, grid, offsets)
    intraday = _demean_columns(np.diff(edge_prices, axis=1))

    starts = np.flatnonzero(dropped_between(series) == 0)
    kept = z[starts + 1, 0] - z[starts, grid.close_index]
    kept = kept - kept.mean()
    kept = kept - kept.mean()
    nights = np.full(series.n_days, np.nan)
    nights[starts] = kept
    nights *= math.sqrt(delta / cal.overnight_duration)

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
    min_pairs: int = MIN_PAIRS,
) -> CorrelationCurve:
    """Pearson autocorrelation of |r| at multiples of one base duration.

    Lags count slots of the day-major sequence of ``delta``-sized returns.
    The sliding estimator pools every admissible start; the ciclostationary
    one correlates across days at fixed slot-of-day and averages the
    per-slot coefficients.  Lag 0 is exactly 1.  Lags with fewer than
    ``min_pairs`` admissible pairs are dropped with a warning.
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
            if n_ok < min_pairs:
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
                if int(ok_j.sum()) < min_pairs:
                    continue
                per_slot.append(_pearson(a[sel][ok_j], b[sel][ok_j]))
                n_ok_total += int(ok_j.sum())
            per_slot = [p for p in per_slot if not math.isnan(p)]
            if not per_slot:
                warnings.warn(f"lag {h}: no slot reaches {min_pairs} pairs, dropped", stacklevel=2)
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
    k = dt_minutes / series.grid.bar_minutes
    if k != int(k) or k < 1:
        raise ClassSpecError(f"{dt_minutes} min is not a whole number of bars")
    k = int(k)
    n = series.grid.n_bars
    if 2 * k > n:
        raise ClassSpecError(f"{dt_minutes} min is more than half the session")
    centers = np.arange(k, n - k + 1)
    before = _demean_columns(z[:, centers] - z[:, centers - k])
    after = _demean_columns(z[:, centers + k] - z[:, centers])
    num = (before * after).mean(axis=0)
    den = np.sqrt((before**2).mean(axis=0)) * np.sqrt((after**2).mean(axis=0))
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
