"""Clock calibration: per-interval durations that best collapse return CDFs.

Each partition interval (and the overnight closure) gets the duration
``delta_tau`` minimising the rescaled KS distance between its returns, scaled
by 1/sqrt(delta_tau), and a reference ensemble whose duration defines the
unit.  The default reference is the one-day open-to-open class, so a full
day, closure included, measures 1 by construction.  Durations are additive:
the calibrated axis is assembled by summing interval durations within the
day and stacking whole days.
"""
from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from typing import Sequence

import numpy as np

from .errors import ClassSpecError, DataError, MapRangeError
from .ks import KsResult, _ks_sorted, ks_distance
from .series import (
    DayGrid,
    IntervalClass,
    PartitionSpec,
    PriceSeries,
    ReturnSample,
    class_sample,
    dropped_between,
    next_weekday,
    synthetic_dates,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Naive-datetime epoch for the time map, so the mapping never touches the
# process timezone and stays deterministic across machines.
_EPOCH = datetime(1970, 1, 1)


def _to_seconds(t: datetime) -> float:
    return (t - _EPOCH).total_seconds()


def _from_seconds(s: float) -> datetime:
    return _EPOCH + timedelta(seconds=round(s, 6))


@dataclass(frozen=True)
class SearchConfig:
    """Search window and resolution for the duration minimisation.

    The objective is scanned on a log-spaced coarse grid, then the winning
    bracket is narrowed by golden-section in log duration until its log-width
    drops below ``refine_rel_tol`` (log-width is relative width to first
    order).  The coarse grid must stay dense enough to bracket the global
    basin, hence the floor on its size.
    """

    delta_tau_min: float = 1e-4
    delta_tau_max: float = 1e2
    coarse_grid_points: int = 200
    refine_rel_tol: float = 1e-3

    def __post_init__(self):
        if not (0 < self.delta_tau_min < self.delta_tau_max):
            raise ValueError("need 0 < delta_tau_min < delta_tau_max")
        if self.coarse_grid_points < 50:
            raise ValueError("coarse grid below 50 points cannot bracket reliably")
        if self.refine_rel_tol <= 0:
            raise ValueError("refine_rel_tol must be positive")

    def grid(self) -> np.ndarray:
        return np.logspace(
            math.log10(self.delta_tau_min),
            math.log10(self.delta_tau_max),
            self.coarse_grid_points,
        )


@dataclass(frozen=True)
class CalibrationResult:
    """Best duration for one interval class."""

    delta_tau: float
    ks: KsResult
    boundary_warning: bool
    n_evaluations: int


def calibrate_interval(
    y: ReturnSample,
    x_ref: ReturnSample,
    cfg: SearchConfig | None = None,
    extra_candidates: Sequence[float] = (),
) -> CalibrationResult:
    """Duration of one interval class in units of the reference duration.

    Minimises d(delta_tau) = rescaled KS distance of y / sqrt(delta_tau)
    against the reference.  The objective is piecewise constant, so every
    evaluated point is kept and ties resolve to the smallest duration.  The
    mean-square ratio of the two samples is always seeded as a candidate: it
    is the exact optimum whenever the candidate is a rescaled copy of the
    reference, and costs one evaluation otherwise.  ``extra_candidates``
    lets callers seed further trial durations (clipped to the window); any
    candidate that beats the grid gets its own golden-section refinement.

    A warning flag is raised when the best coarse-grid point sits on either
    end of the search window, which means the window is probably
    misconfigured for this class.
    """
    cfg = cfg or SearchConfig()
    xs = np.sort(x_ref.values)
    ys = np.sort(y.values)
    evals: dict[float, float] = {}

    def objective(dt: float) -> float:
        if dt not in evals:
            evals[dt] = _ks_sorted(xs, ys / math.sqrt(dt))[0]
        return evals[dt]

    grid = cfg.grid()
    grid_vals = [objective(float(g)) for g in grid]
    best_grid_idx = int(np.argmin(grid_vals))
    boundary = best_grid_idx in (0, len(grid) - 1)

    def refine(lo: float, hi: float) -> None:
        """Golden-section on log duration; every iterate lands in ``evals``."""
        a, b = math.log(lo), math.log(hi)
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        fc, fd = objective(math.exp(c)), objective(math.exp(d))
        while (b - a) > cfg.refine_rel_tol:
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - GOLDEN * (b - a)
                fc = objective(math.exp(c))
            else:
                a, c, fc = c, d, fd
                d = a + GOLDEN * (b - a)
                fd = objective(math.exp(d))

    lo = grid[max(best_grid_idx - 1, 0)]
    hi = grid[min(best_grid_idx + 1, len(grid) - 1)]
    if lo < hi:
        refine(float(lo), float(hi))

    step = grid[1] / grid[0]
    seeds = [float(np.mean(y.values**2) / np.mean(x_ref.values**2))]
    seeds.extend(float(c) for c in extra_candidates)
    grid_best_val = min(evals.values())
    for seed in seeds:
        if not (seed > 0) or not math.isfinite(seed):
            continue
        seed = min(max(seed, cfg.delta_tau_min), cfg.delta_tau_max)
        if objective(seed) < grid_best_val:
            refine(max(seed / step, cfg.delta_tau_min), min(seed * step, cfg.delta_tau_max))

    best_raw = min(evals.values())
    best_dt = min(dt for dt, raw in evals.items() if raw == best_raw)
    return CalibrationResult(
        delta_tau=best_dt,
        ks=ks_distance(xs, ys / math.sqrt(best_dt)),
        boundary_warning=boundary,
        n_evaluations=len(evals),
    )


@dataclass(frozen=True)
class ClockCalibration:
    """Calibrated durations for every partition interval plus the closure."""

    intraday_durations: np.ndarray
    overnight_duration: float
    intraday_d: np.ndarray
    overnight_d: float
    reference_label: str
    search: SearchConfig
    boundary_warnings: tuple[str, ...] = ()

    def __post_init__(self):
        dur = np.asarray(self.intraday_durations, dtype=float)
        dvals = np.asarray(self.intraday_d, dtype=float)
        if dur.ndim != 1 or dur.size == 0 or dvals.shape != dur.shape:
            raise DataError("calibration arrays malformed")
        if (dur <= 0).any() or self.overnight_duration <= 0:
            raise DataError("calibrated durations must be positive")
        dur = dur.copy(); dur.setflags(write=False)
        dvals = dvals.copy(); dvals.setflags(write=False)
        object.__setattr__(self, "intraday_durations", dur)
        object.__setattr__(self, "intraday_d", dvals)

    @property
    def m_max(self) -> int:
        return int(self.intraday_durations.size)

    @property
    def trading_total(self) -> float:
        return float(self.intraday_durations.sum())

    @property
    def day_total(self) -> float:
        return self.trading_total + self.overnight_duration

    def to_json_dict(self) -> dict:
        return {
            "reference_class": self.reference_label,
            "delta_tau_intraday": [float(x) for x in self.intraday_durations],
            "delta_tau_night": float(self.overnight_duration),
            "d_values": [float(x) for x in self.intraday_d] + [float(self.overnight_d)],
            "search_config": {
                "delta_tau_min": self.search.delta_tau_min,
                "delta_tau_max": self.search.delta_tau_max,
                "coarse_grid_points": self.search.coarse_grid_points,
                "refine_rel_tol": self.search.refine_rel_tol,
            },
            "boundary_warnings": list(self.boundary_warnings),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ClockCalibration":
        sc = payload["search_config"]
        d_values = payload["d_values"]
        return cls(
            intraday_durations=np.asarray(payload["delta_tau_intraday"], dtype=float),
            overnight_duration=float(payload["delta_tau_night"]),
            intraday_d=np.asarray(d_values[:-1], dtype=float),
            overnight_d=float(d_values[-1]),
            reference_label=payload["reference_class"],
            search=SearchConfig(
                delta_tau_min=sc["delta_tau_min"],
                delta_tau_max=sc["delta_tau_max"],
                coarse_grid_points=sc["coarse_grid_points"],
                refine_rel_tol=sc["refine_rel_tol"],
            ),
            boundary_warnings=tuple(payload.get("boundary_warnings", [])),
        )


def calibrate_clock(
    series: PriceSeries,
    partition: PartitionSpec,
    cfg: SearchConfig | None = None,
    reference: IntervalClass | None = None,
    threads: int | None = 1,
) -> ClockCalibration:
    """Calibrate every partition interval and the closure against a reference.

    Per-interval calibrations are independent, so they run in a thread pool
    when ``threads`` exceeds one; results are gathered by interval index, so
    the outcome does not depend on worker count or scheduling.
    """
    cfg = cfg or SearchConfig()
    partition.check_grid(series.grid)
    ref_class = reference or IntervalClass.multiday(1)
    x_ref = class_sample(series, ref_class)

    classes = [
        IntervalClass.intraday(m - 1, m, partition) for m in range(1, partition.m_max + 1)
    ]
    classes.append(IntervalClass.overnight())
    samples = [class_sample(series, c) for c in classes]

    if threads is None or threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda s: calibrate_interval(s, x_ref, cfg), samples))
    else:
        results = [calibrate_interval(s, x_ref, cfg) for s in samples]

    warnings = tuple(c.label for c, r in zip(classes, results) if r.boundary_warning)
    return ClockCalibration(
        intraday_durations=np.asarray([r.delta_tau for r in results[:-1]]),
        overnight_duration=results[-1].delta_tau,
        intraday_d=np.asarray([r.ks.d for r in results[:-1]]),
        overnight_d=results[-1].ks.d,
        reference_label=ref_class.label,
        search=cfg,
        boundary_warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Time map


@dataclass(frozen=True)
class TimeMap:
    """Piecewise-linear bijection between physical instants and clock values.

    Anchor k of day l sits at the partition boundaries; between anchors the
    map interpolates linearly in physical time, overnight closures included
    (a closure spans exactly the calibrated overnight duration regardless of
    its wall-clock length, so weekends compress onto the same span as plain
    nights; each filter-dropped session inside a closure adds one full day).
    Strictly increasing in both directions by construction.
    """

    grid: DayGrid
    partition: PartitionSpec
    calibration: ClockCalibration
    dates: tuple[date, ...]
    anchor_seconds: np.ndarray
    anchor_tau: np.ndarray

    @property
    def n_days(self) -> int:
        return len(self.dates) - 1  # final date only carries the terminal anchor

    def map_time(self, t: datetime) -> float:
        """Clock value of a physical instant inside the mapped span."""
        s = _to_seconds(t)
        if s < self.anchor_seconds[0] or s > self.anchor_seconds[-1]:
            raise MapRangeError(f"{t.isoformat()} outside the mapped span")
        return float(np.interp(s, self.anchor_seconds, self.anchor_tau))

    def map_tau(self, tau: float) -> datetime:
        """Physical instant of a clock value; inverse of ``map_time``."""
        if tau < self.anchor_tau[0] or tau > self.anchor_tau[-1]:
            raise MapRangeError(f"tau={tau} outside the mapped span")
        s = float(np.interp(tau, self.anchor_tau, self.anchor_seconds))
        return _from_seconds(s)

    def day_open_tau(self, l: int) -> float:
        """Clock value at the open of retained day l (l = n_days: terminal)."""
        return float(self.anchor_tau[l * (self.partition.m_max + 1)])

    def intraday_offset_minutes(self, tau_in_day: float) -> float:
        """Minutes after the open at which ``tau_in_day`` falls on any day.

        Valid for 0 <= tau_in_day <= trading_total; every day shares the
        same intraday profile, so the offset is day-independent.
        """
        if not 0 <= tau_in_day <= self.calibration.trading_total + 1e-12:
            raise MapRangeError(f"tau_in_day={tau_in_day} outside the trading session")
        bounds_tau = np.concatenate([[0.0], np.cumsum(self.calibration.intraday_durations)])
        bounds_min = np.asarray(
            [b * self.grid.bar_minutes for b in self.partition.boundaries], dtype=float
        )
        return float(np.interp(tau_in_day, bounds_tau, bounds_min))

    def to_rows(self):
        """(l, m, physical datetime, tau) for every anchor, in order."""
        m_count = self.partition.m_max + 1
        for k, (s, tau) in enumerate(zip(self.anchor_seconds, self.anchor_tau)):
            l, m = divmod(k, m_count) if k < (len(self.dates) - 1) * m_count else (
                len(self.dates) - 1,
                0,
            )
            yield l, m, _from_seconds(float(s)), float(tau)


def assemble_time_map(
    calibration: ClockCalibration,
    partition: PartitionSpec,
    grid: DayGrid,
    n_days: int | None = None,
    dates: Sequence[date] | PriceSeries | None = None,
) -> TimeMap:
    """Lay calibrated durations end to end over a span of trading days.

    Within day l, boundary m sits at the running sum of interval durations;
    each new day adds one full day (trading plus closure), and each session
    that ``filter_complete_days`` dropped between two retained days adds one
    more.  ``dates`` holds the retained days, or is the filtered series
    itself, which also brings its dropped sessions.  A terminal anchor at
    the open of the day after the last one closes the final overnight, so
    the map covers ``n_days`` complete days of clock time plus the dropped
    sessions inside them.
    """
    if calibration.m_max != partition.m_max:
        raise ClassSpecError(
            f"calibration has {calibration.m_max} intervals, partition {partition.m_max}"
        )
    if dates is None:
        if n_days is None:
            raise ValueError("need n_days or dates")
        dates = synthetic_dates(n_days)
    if isinstance(dates, PriceSeries):
        skipped = dropped_between(dates)
        dates = dates.dates
    else:
        dates = tuple(dates)
        skipped = np.zeros(max(len(dates) - 1, 0), dtype=int)
    if n_days is None:
        n_days = len(dates)
    if len(dates) != n_days:
        raise DataError(f"got {len(dates)} dates for {n_days} days")
    if n_days < 1:
        raise DataError("time map needs at least one day")
    all_dates = dates + (next_weekday(dates[-1]),)
    # whole clock days elapsed before each retained open
    day_index = np.arange(n_days) + np.concatenate([[0], np.cumsum(skipped)])

    bounds_tau = np.concatenate([[0.0], np.cumsum(calibration.intraday_durations)])
    seconds = []
    taus = []
    for l in range(n_days):
        day_start = _to_seconds(datetime.combine(all_dates[l], grid.open_time))
        day_tau = day_index[l] * calibration.day_total
        for m, b in enumerate(partition.boundaries):
            seconds.append(day_start + b * grid.bar_minutes * 60.0)
            taus.append(day_tau + bounds_tau[m])
    terminal = _to_seconds(datetime.combine(all_dates[-1], grid.open_time))
    seconds.append(terminal)
    taus.append((day_index[-1] + 1) * calibration.day_total)

    anchor_seconds = np.asarray(seconds)
    anchor_tau = np.asarray(taus)
    if not (np.diff(anchor_seconds) > 0).all():
        raise DataError("anchor instants are not strictly increasing")
    return TimeMap(
        grid=grid,
        partition=partition,
        calibration=calibration,
        dates=all_dates,
        anchor_seconds=anchor_seconds,
        anchor_tau=anchor_tau,
    )


# ---------------------------------------------------------------------------
# Additivity

@dataclass(frozen=True)
class AdditivityRow:
    label: str
    measured: float
    parts_sum: float

    @property
    def ratio(self) -> float:
        return self.measured / self.parts_sum


def _class_duration(c: IntervalClass, calibration: ClockCalibration) -> float:
    """Duration a class inherits from the calibrated, additive clock."""
    if c.kind == "intraday" and c.m_start is not None:
        return float(calibration.intraday_durations[c.m_start : c.m_end].sum())
    if c.kind == "overnight":
        return calibration.overnight_duration
    if c.kind == "multiday":
        return c.n_days * calibration.day_total
    raise ClassSpecError(f"class {c.label!r} has no clock-additive duration")


def additivity_report(
    series: PriceSeries,
    partition: PartitionSpec,
    calibration: ClockCalibration,
    cfg: SearchConfig | None = None,
    unions: Sequence[tuple[str, IntervalClass, Sequence[IntervalClass]]] | None = None,
    reference: IntervalClass | None = None,
) -> list[AdditivityRow]:
    """Directly calibrated union durations against sums of their parts.

    Each row calibrates the union class from scratch and compares with the
    sum the assembled clock assigns to its parts; a ratio above one means
    the union carries more spread than its pieces, the signature of
    positive dependence between them.
    """
    cfg = cfg or calibration.search
    x_ref = class_sample(series, reference or IntervalClass.multiday(1))

    if unions is None:
        m_mid = (partition.m_max + 1) // 2
        morning = IntervalClass.intraday(0, m_mid, partition, label="morning")
        afternoon = IntervalClass.intraday(m_mid, partition.m_max, partition, label="afternoon")
        trading = IntervalClass.intraday(0, partition.m_max, partition, label="trading-day")
        unions = [
            ("trading-day vs intraday sum", trading,
             [IntervalClass.intraday(m - 1, m, partition) for m in range(1, partition.m_max + 1)]),
            ("1-day vs morning+afternoon+night", IntervalClass.multiday(1),
             [morning, afternoon, IntervalClass.overnight()]),
            ("2-day vs 2x1-day", IntervalClass.multiday(2),
             [IntervalClass.multiday(1), IntervalClass.multiday(1)]),
        ]

    rows = []
    for label, union_class, parts in unions:
        measured = calibrate_interval(class_sample(series, union_class), x_ref, cfg).delta_tau
        parts_sum = sum(_class_duration(p, calibration) for p in parts)
        rows.append(AdditivityRow(label=label, measured=measured, parts_sum=parts_sum))
    return rows
