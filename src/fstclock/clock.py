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

import math
from dataclasses import asdict, dataclass
from datetime import date, datetime, timedelta
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ClassSpecError, DataError, MapRangeError
from .ks import KsResult, ks_distance
from .series import (
    DayGrid,
    IntervalClass,
    PartitionSpec,
    PriceSeries,
    ReturnSample,
    class_sample,
    day_numbers,
    dropped_between,
    next_weekday,
    synthetic_dates,
)

# Naive-datetime epoch for the time map, so the mapping never touches the
# process timezone and stays deterministic across machines.
_EPOCH = datetime(1970, 1, 1)


def _to_seconds(t: datetime) -> float:
    return (t - _EPOCH).total_seconds()


def _from_seconds(s: float) -> datetime:
    return _EPOCH + timedelta(seconds=round(s, 6))


@dataclass(frozen=True)
class SearchConfig:
    """Window of durations a class may receive.

    The minimisation inside it is exact (see ``calibrate_interval``), so the
    window is its only setting.
    """

    delta_tau_min: float = 1e-4
    delta_tau_max: float = 1e2

    def __post_init__(self):
        if not (0 < self.delta_tau_min < self.delta_tau_max):
            raise ValueError("need 0 < delta_tau_min < delta_tau_max")


@dataclass(frozen=True)
class CalibrationResult:
    """Best duration for one interval class.

    ``cell`` is the interval (delta_tau_lo, delta_tau_hi) of durations whose
    KS distance is minimal, clipped to the window: how precisely the data pin
    the duration down.  ``delta_tau`` is its geometric midpoint.
    ``n_evaluations`` counts the feasibility checks the search made.
    """

    delta_tau: float
    ks: KsResult
    boundary_warning: bool
    n_evaluations: int
    cell: tuple[float, float]


def _first_divisor(a: np.ndarray, b: np.ndarray, largest: bool) -> float:
    """Largest (or smallest) over pairs a, b > 0 of the first float q with fl(a/q) <= b.

    fl(a/q) never rises with q, and a/b is within an ulp or two of each
    answer, so only pairs near the extreme a/b can hold it; one-ulp steps
    settle those.
    """
    q = a / b
    if largest:  # q - edge is <= 0 here and >= 0 below: no abs needed
        edge = q.max()
        near = np.flatnonzero(q - edge >= -1e-14 * edge)
    else:
        edge = q.min()
        near = np.flatnonzero(q - edge <= 1e-14 * edge)
    a, b, q = a[near], b[near], q[near]
    while (up := a / q > b).any():
        q[up] = np.nextafter(q[up], np.inf)
    while (down := a / (below := np.nextafter(q, 0.0)) <= b).any():
        q[down] = below[down]
    return float(q.max() if largest else q.min())


class _HalfLines(NamedTuple):
    """Sorted tables that one family of half-line pairs reads.

    Pair t is (y[iy[t]], x[ix[t]]) for index sequences iy, ix that never
    fall, so both members ascend along the family.  ``neg_y`` is -y and
    ``prev_neg_x`` the float before -x toward 0, for the pairs that bound q
    from above; ``y_neg``, ``y_nonpos`` and ``x_neg`` count the entries of y
    below 0 and up to 0, and of x below 0.
    """

    y: np.ndarray
    x: np.ndarray
    neg_y: np.ndarray
    prev_neg_x: np.ndarray
    y_neg: int
    y_nonpos: int
    x_neg: int

    @classmethod
    def of(cls, x: np.ndarray, y: np.ndarray, neg_y: np.ndarray) -> "_HalfLines":
        return cls(y, x, neg_y, np.nextafter(-x, 0.0), int(y.searchsorted(0.0, "left")),
                   int(y.searchsorted(0.0, "right")), int(x.searchsorted(0.0, "left")))


def _divisor_bounds(
    h: _HalfLines, iy: np.ndarray, ix: np.ndarray, lo: float, hi: float
) -> tuple[float, float]:
    """Narrow [lo, hi] to the floats q > 0 with fl(y/q) <= x for every pair of ``h``.

    Each pair is a half-line: q >= a bound if y > 0 (none if x <= 0), q <= a
    bound if y < 0 and x < 0, else all q or none.  Along the family the
    pairs with y > 0 form a suffix, those with y < 0 and those with x < 0
    prefixes, so each test reads the one pair at a slice's edge.  lo > hi
    means empty.
    """
    z, p = iy.searchsorted(h.y_neg), iy.searchsorted(h.y_nonpos)
    if (p < iy.size and h.x[ix[p]] <= 0) or (z < p and h.x[ix[z]] < 0):
        return lo, -math.inf
    if p < iy.size:
        lo = max(lo, _first_divisor(h.y[iy[p:]], h.x[ix[p:]], largest=True))
    if (w := min(z, ix.searchsorted(h.x_neg))) > 0:
        # fl(|y|/q) >= |x| up to the float before fl(|y|/q) <= prev(|x|)
        out = _first_divisor(h.neg_y[iy[:w]], h.prev_neg_x[ix[:w]], largest=False)
        hi = min(hi, math.nextafter(out, 0.0))
    return lo, hi


def _optimal_cell(xs, ys, q_min: float, q_max: float) -> tuple[float, float, int]:
    """Divisor cell (lo, hi) of the smallest KS count of sorted xs, ys, and the checks made."""
    m, n = xs.size, ys.size
    i_n = np.arange(1, m + 1, dtype=np.int64) * n
    j_m = np.arange(n, 0, -1, dtype=np.int64) * m
    at_x, at_y = np.arange(m), np.arange(n)
    # the second family's pairs (-y_(j), -x_(i)) fall with j; reversed, they
    # rise.  Each family's -y is the other's y read backwards.
    nxs, nys = -xs[::-1], -ys[::-1]
    first, second = _HalfLines.of(xs, ys, nys[::-1]), _HalfLines.of(nxs, nys, ys[::-1])
    # cells grow with k; the count n_x n_y constrains nothing
    k_lo, k_hi, (lo, hi), checks = 0, m * n, (q_min, q_max), 0
    while k_lo < k_hi:
        k = (k_lo + k_hi) // 2
        a, b = k // n, k // m  # the half-lines start at x_(a+1) and y_(b+1)
        # 0-based: ceil((i n_y - k) / n_x) - 1 = (i n_y - k - 1) // n_x for i > a
        j = (i_n[a:] - (k + 1)) // m
        c = _divisor_bounds(first, j, at_x[a:], q_min, q_max)
        if c[0] <= c[1]:  # an empty cell stays empty
            # for j = n_y down to b + 1, where x_(i) sits in the reversed table
            i = (m - 1) - (j_m[: n - b] - (k + 1)) // n
            c = _divisor_bounds(second, at_y[: n - b], i, *c)
        checks += 1
        if c[0] <= c[1]:
            k_hi, (lo, hi) = k, c
        else:
            k_lo = k + 1
    return lo, hi, checks


def calibrate_interval(
    y: ReturnSample,
    x_ref: ReturnSample,
    cfg: SearchConfig | None = None,
) -> CalibrationResult:
    """Duration of one interval class in units of the reference duration.

    Minimises the rescaled KS distance of y / q, q = sqrt(delta_tau), against
    the reference, exactly.  The KS count sup_z |n_y C_x(z) - n_x C_{y/q}(z)|
    (C counts the points <= z) is at most k exactly when q lies on every
    half-line x_(i) <= y_(j) / q, i = ceil((j n_x - k) / n_y), and
    y_(j) / q <= x_(i), j = ceil((i n_y - k) / n_x), for indices >= 1.  So
    the objective is quasi-convex, and a bisection on k over [0, n_x n_y],
    one vectorised check per step after one sort, finds the smallest count
    whose cell of q meets the window.  The duration is the cell's geometric
    midpoint: exactly 1.0 for identical samples, 4.0 for y = 2x.  The bounds
    are exact in the arithmetic the result is measured with (``y /
    sqrt(delta_tau)``, as in ``rescaled_ks``) and sqrt(q * q) == q, so a cell
    that is one point on tied data is reproduced, and the measured count is
    the optimal one.  ``boundary_warning`` means the window bounds the cell.
    """
    cfg = cfg or SearchConfig()
    xs = np.sort(x_ref.values)
    ys = np.sort(y.values)
    # the divisors whose squares fall inside the duration window
    q_min, q_max = math.sqrt(cfg.delta_tau_min), math.sqrt(cfg.delta_tau_max)
    if q_min * q_min < cfg.delta_tau_min:
        q_min = math.nextafter(q_min, math.inf)
    if q_max * q_max > cfg.delta_tau_max:
        q_max = math.nextafter(q_max, 0.0)
    lo, hi, checks = _optimal_cell(xs, ys, q_min, q_max)
    q = math.sqrt(lo * hi)
    return CalibrationResult(
        delta_tau=q * q,
        ks=ks_distance(xs, ys / math.sqrt(q * q)),
        boundary_warning=lo == q_min or hi == q_max,
        n_evaluations=checks,
        cell=(
            cfg.delta_tau_min if lo == q_min else lo * lo,
            cfg.delta_tau_max if hi == q_max else hi * hi,
        ),
    )


@dataclass(frozen=True)
class ClockCalibration:
    """Calibrated durations for every partition interval plus the closure.

    ``cells`` holds each fitted duration's optimal cell (delta_tau_lo,
    delta_tau_hi) in class order, night last; it is empty for durations that
    were not fitted (a ground-truth clock, a hand-built one).
    """

    intraday_durations: np.ndarray
    overnight_duration: float
    intraday_d: np.ndarray
    overnight_d: float
    reference_label: str
    search: SearchConfig
    boundary_warnings: tuple[str, ...] = ()
    cells: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        dur = np.asarray(self.intraday_durations, dtype=float)
        dvals = np.asarray(self.intraday_d, dtype=float)
        if dur.ndim != 1 or dur.size == 0 or dvals.shape != dur.shape:
            raise DataError("calibration arrays malformed")
        if (dur <= 0).any() or self.overnight_duration <= 0:
            raise DataError("calibrated durations must be positive")
        if self.cells and len(self.cells) != dur.size + 1:
            raise DataError("need one duration cell per interval plus the night")
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
            "search_config": asdict(self.search),
            "delta_tau_cells": [[float(lo), float(hi)] for lo, hi in self.cells],
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
            ),
            boundary_warnings=tuple(payload.get("boundary_warnings", [])),
            cells=tuple((lo, hi) for lo, hi in payload.get("delta_tau_cells", [])),
        )


def calibrate_clock(
    series: PriceSeries,
    partition: PartitionSpec,
    cfg: SearchConfig | None = None,
    reference: IntervalClass | None = None,
    threads: int | None = 1,
) -> ClockCalibration:
    """Calibrate every partition interval and the closure against a reference.

    The classes are fitted one after another on the calling thread, night
    last.  ``threads`` is accepted and ignored: each exact fit takes a few
    milliseconds, less than a thread pool costs to spread them, and the
    keyword stays only because the benchmark in ``perfbench/`` still passes
    it.
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
        cells=tuple(r.cell for r in results),
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
    Strictly increasing in both directions by construction.  The trading
    hours of a dropped session have no clock value of their own: instants
    inside them raise ``MapRangeError`` either way.
    """

    grid: DayGrid
    partition: PartitionSpec
    calibration: ClockCalibration
    dates: tuple[date, ...]
    anchor_seconds: np.ndarray
    anchor_tau: np.ndarray
    dropped_dates: frozenset[date] = frozenset()

    @property
    def n_days(self) -> int:
        return len(self.dates) - 1  # final date only carries the terminal anchor

    def _check_not_dropped(self, t: datetime) -> None:
        if t.date() in self.dropped_dates and (
            self.grid.open_time <= t.time() <= self.grid.close_time
        ):
            raise MapRangeError(f"{t.isoformat()} falls inside a dropped session")

    def map_time(self, t: datetime) -> float:
        """Clock value of a physical instant inside the mapped span."""
        s = _to_seconds(t)
        if s < self.anchor_seconds[0] or s > self.anchor_seconds[-1]:
            raise MapRangeError(f"{t.isoformat()} outside the mapped span")
        self._check_not_dropped(t)
        return float(np.interp(s, self.anchor_seconds, self.anchor_tau))

    def map_tau(self, tau: float) -> datetime:
        """Physical instant of a clock value; inverse of ``map_time``."""
        if tau < self.anchor_tau[0] or tau > self.anchor_tau[-1]:
            raise MapRangeError(f"tau={tau} outside the mapped span")
        t = _from_seconds(float(np.interp(tau, self.anchor_tau, self.anchor_seconds)))
        self._check_not_dropped(t)
        return t

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

    def anchor_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Day index l, boundary index m and instant of every anchor, in order.

        Instants are ``datetime64[s]`` (anchors sit on whole minutes); the
        clock values are ``anchor_tau``.  The terminal anchor is (n_days, 0).
        """
        l, m = np.divmod(np.arange(self.anchor_tau.size), self.partition.m_max + 1)
        return l, m, self.anchor_seconds.astype(np.int64).astype("datetime64[s]")


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
    itself, which also brings its dropped sessions (whose trading hours the
    map then refuses).  A terminal anchor at the open of the day after the
    last one closes the final overnight, so the map covers ``n_days``
    complete days of clock time plus the dropped sessions inside them.
    """
    if calibration.m_max != partition.m_max:
        raise ClassSpecError(
            f"calibration has {calibration.m_max} intervals, partition {partition.m_max}"
        )
    if dates is None:
        if n_days is None:
            raise ValueError("need n_days or dates")
        dates = synthetic_dates(n_days)
    dropped: frozenset[date] = frozenset()
    if isinstance(dates, PriceSeries):
        skipped = dropped_between(dates)
        dropped = frozenset(dates.dropped_dates)
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
    day_total = calibration.day_total

    open_s = grid.open_time.hour * 3600 + grid.open_time.minute * 60
    opens = ((day_numbers(all_dates) - _EPOCH.toordinal()) * 86400 + open_s).astype(float)
    offsets = np.asarray(partition.boundaries) * grid.bar_minutes * 60.0
    bounds_tau = np.concatenate([[0.0], np.cumsum(calibration.intraday_durations)])
    anchor_seconds = np.append((opens[:-1, None] + offsets).ravel(), opens[-1])
    anchor_tau = np.append(
        (day_index[:, None] * day_total + bounds_tau).ravel(), (day_index[-1] + 1) * day_total
    )
    if not (np.diff(anchor_seconds) > 0).all():
        raise DataError("anchor instants are not strictly increasing")
    return TimeMap(
        grid=grid,
        partition=partition,
        calibration=calibration,
        dates=all_dates,
        anchor_seconds=anchor_seconds,
        anchor_tau=anchor_tau,
        dropped_dates=dropped,
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
