"""Intraday price series on a fixed bar grid, interval classes, and return ensembles.

Everything downstream works on log-prices laid out as one row per trading day
over a shared intraday grid.  Missing bars are carried as NaN until
``filter_complete_days`` removes (or tolerates) them; the dates of removed days
are kept on the series so that close-to-open and multi-day ensembles can skip
windows that would silently span a partially traded day.
"""
from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ClassSpecError, DataError, ParseError

log = logging.getLogger(__name__)

# Mean of a detrended sample must vanish to this fraction of its spread.
DETREND_REL_TOL = 1e-12


@dataclass(frozen=True)
class DayGrid:
    """Regular intraday bar grid shared by every trading day.

    The session opens at ``open_time`` and holds ``n_points`` prices spaced
    ``bar_minutes`` apart, so the close lands at index ``n_points - 1``.
    """

    open_time: time
    bar_minutes: int
    n_points: int

    def __post_init__(self):
        if self.bar_minutes <= 0:
            raise ValueError("bar_minutes must be positive")
        if self.n_points < 2:
            raise ValueError("a grid needs at least an open and a close")
        open_min = self.open_time.hour * 60 + self.open_time.minute
        if self.open_time.second or self.open_time.microsecond:
            raise ValueError("grid open must fall on a whole minute")
        if open_min + self.session_minutes >= 24 * 60:
            raise ValueError("session must close within the calendar day")

    @property
    def close_index(self) -> int:
        return self.n_points - 1

    @property
    def n_bars(self) -> int:
        return self.n_points - 1

    @property
    def session_minutes(self) -> int:
        return self.n_bars * self.bar_minutes

    @property
    def close_time(self) -> time:
        minutes = self.open_time.hour * 60 + self.open_time.minute + self.session_minutes
        return time(minutes // 60, minutes % 60)

    def bar_time(self, index: int) -> time:
        if not 0 <= index < self.n_points:
            raise IndexError(f"bar index {index} outside grid")
        minutes = self.open_time.hour * 60 + self.open_time.minute + index * self.bar_minutes
        return time(minutes // 60, minutes % 60)

    def bar_index(self, t: time) -> int:
        """Grid index of an intraday time; off-grid times are a data error."""
        offset = (t.hour * 60 + t.minute) - (self.open_time.hour * 60 + self.open_time.minute)
        if t.second or t.microsecond or offset % self.bar_minutes:
            raise DataError(f"time {t.isoformat()} is not on the bar grid")
        index = offset // self.bar_minutes
        if not 0 <= index < self.n_points:
            raise DataError(f"time {t.isoformat()} is outside the trading session")
        return index


@dataclass(frozen=True)
class PriceSeries:
    """Log-price matrix, one row per retained day, NaN marking missing bars."""

    grid: DayGrid
    dates: tuple[date, ...]
    log_prices: np.ndarray
    dropped_dates: tuple[date, ...] = ()

    def __post_init__(self):
        lp = np.asarray(self.log_prices, dtype=float)
        if lp.ndim != 2 or lp.shape != (len(self.dates), self.grid.n_points):
            raise DataError(
                f"log_prices shape {lp.shape} does not match "
                f"{len(self.dates)} days x {self.grid.n_points} grid points"
            )
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise DataError("dates must be strictly increasing with no duplicates")
        lp = lp.copy()
        lp.setflags(write=False)
        object.__setattr__(self, "log_prices", lp)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "dropped_dates", tuple(self.dropped_dates))

    @property
    def n_days(self) -> int:
        return len(self.dates)

    @property
    def complete_mask(self) -> np.ndarray:
        return ~np.isnan(self.log_prices).any(axis=1)


@dataclass(frozen=True)
class PartitionSpec:
    """Intraday partition: bar indices of the boundaries, open first, close last.

    Interval m (1-based) runs from boundary m-1 to boundary m.  Every interval
    must span at least ``min_interval_minutes``; shorter intervals sit below
    the decorrelation cutoff and are rejected outright.
    """

    boundaries: tuple[int, ...]
    bar_minutes: int
    min_interval_minutes: float = 20.0

    def __post_init__(self):
        b = tuple(int(x) for x in self.boundaries)
        object.__setattr__(self, "boundaries", b)
        if len(b) < 2:
            raise ClassSpecError("a partition needs at least open and close boundaries")
        if b[0] != 0:
            raise ClassSpecError("first boundary must be the session open (bar 0)")
        for lo, hi in zip(b, b[1:]):
            if hi <= lo:
                raise ClassSpecError("boundaries must be strictly increasing")
            if (hi - lo) * self.bar_minutes < self.min_interval_minutes:
                raise ClassSpecError(
                    f"interval [{lo}, {hi}] spans {(hi - lo) * self.bar_minutes} min, "
                    f"below the {self.min_interval_minutes} min cutoff"
                )

    @classmethod
    def equal_spacing(
        cls,
        grid: DayGrid,
        interval_minutes: float,
        min_interval_minutes: float | None = None,
    ) -> "PartitionSpec":
        """Tile the session with equal intervals of ``interval_minutes``."""
        bars_per = interval_minutes / grid.bar_minutes
        if bars_per != int(bars_per):
            raise ClassSpecError(
                f"{interval_minutes} min intervals are not representable on a "
                f"{grid.bar_minutes} min grid"
            )
        bars_per = int(bars_per)
        if grid.n_bars % bars_per:
            raise ClassSpecError(
                f"{interval_minutes} min intervals do not tile the "
                f"{grid.session_minutes} min session"
            )
        bounds = tuple(range(0, grid.n_points, bars_per))
        return cls(
            boundaries=bounds,
            bar_minutes=grid.bar_minutes,
            min_interval_minutes=(
                interval_minutes if min_interval_minutes is None else min_interval_minutes
            ),
        )

    @property
    def m_max(self) -> int:
        return len(self.boundaries) - 1

    def check_grid(self, grid: DayGrid) -> None:
        if self.bar_minutes != grid.bar_minutes:
            raise ClassSpecError("partition bar spacing does not match the grid")
        if self.boundaries[-1] != grid.close_index:
            raise ClassSpecError("last boundary must be the session close")

    def interval_minutes(self, m: int) -> float:
        if not 1 <= m <= self.m_max:
            raise IndexError(f"interval index {m} outside 1..{self.m_max}")
        lo, hi = self.boundaries[m - 1], self.boundaries[m]
        return (hi - lo) * self.bar_minutes

    def midpoint_minutes(self, m: int) -> float:
        lo, hi = self.boundaries[m - 1], self.boundaries[m]
        return 0.5 * (lo + hi) * self.bar_minutes


@dataclass(frozen=True)
class IntervalClass:
    """A family of return intervals sharing intraday anchors and day offset.

    Kinds:
      * ``intraday``: between two bar indices within a day (built either from
        partition boundary indices or directly from bars),
      * ``overnight``: close to next retained open, optionally restricted to a
        fixed number of calendar nights,
      * ``multiday``: open to open, ``n_days`` retained days apart,
      * ``sample``: tag for pooled or generated ensembles; a pooled class
        carries its window as bars ``bar_start..bar_end``.
    """

    kind: str
    label: str
    bar_start: int | None = None
    bar_end: int | None = None
    m_start: int | None = None
    m_end: int | None = None
    nights: int | None = None
    n_days: int | None = None

    @classmethod
    def intraday(
        cls, m_start: int, m_end: int, partition: PartitionSpec, label: str | None = None
    ) -> "IntervalClass":
        if not (0 <= m_start < m_end <= partition.m_max):
            raise ClassSpecError(
                f"intraday class needs 0 <= m_start < m_end <= {partition.m_max}, "
                f"got ({m_start}, {m_end})"
            )
        return cls(
            kind="intraday",
            label=label or f"intraday[{m_start}..{m_end}]",
            bar_start=partition.boundaries[m_start],
            bar_end=partition.boundaries[m_end],
            m_start=m_start,
            m_end=m_end,
        )

    @classmethod
    def bars(cls, bar_start: int, bar_end: int, label: str | None = None) -> "IntervalClass":
        if not 0 <= bar_start < bar_end:
            raise ClassSpecError(f"need 0 <= bar_start < bar_end, got ({bar_start}, {bar_end})")
        return cls(
            kind="intraday",
            label=label or f"bars[{bar_start}..{bar_end}]",
            bar_start=bar_start,
            bar_end=bar_end,
        )

    @classmethod
    def overnight(cls, nights: int | None = None, label: str | None = None) -> "IntervalClass":
        if nights is not None and nights < 1:
            raise ClassSpecError("nights must be >= 1 when given")
        if label is None:
            label = "overnight" if nights is None else f"overnight[{nights}n]"
        return cls(kind="overnight", label=label, nights=nights)

    @classmethod
    def multiday(cls, n_days: int, label: str | None = None) -> "IntervalClass":
        if n_days < 1:
            raise ClassSpecError("multiday span must be >= 1 day")
        return cls(kind="multiday", label=label or f"{n_days}-day", n_days=n_days)

    @classmethod
    def sample(cls, label: str) -> "IntervalClass":
        return cls(kind="sample", label=label)


@dataclass(frozen=True)
class ReturnSample:
    """Ensemble of log-returns drawn from one interval class."""

    values: np.ndarray
    interval: IntervalClass
    detrended: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size == 0:
            raise DataError(f"class {self.interval.label!r} produced no returns")
        if np.isnan(v).any():
            raise DataError(f"class {self.interval.label!r} contains NaN returns")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.detrended:
            spread = float(v.std())
            if spread > 0 and abs(float(v.mean())) > DETREND_REL_TOL * spread:
                raise DataError(
                    f"sample tagged detrended but mean/std = "
                    f"{abs(float(v.mean())) / spread:.3e}"
                )

    @property
    def n(self) -> int:
        return int(self.values.size)


def ingest_csv(source: str | Path | IO[str] | IO[bytes], grid: DayGrid) -> PriceSeries:
    """Parse a ``timestamp,price`` CSV into a grid-aligned series.

    Timestamps are ISO-8601 exchange-local, prices decimal and positive.
    Rows are grouped by calendar date and placed on the grid; a day missing
    bars is retained with NaN holes for ``filter_complete_days`` to judge.
    Malformed rows, off-grid timestamps, non-positive prices, and within-day
    timestamp disorder all raise with the offending line number.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return ingest_csv(fh, grid)
    if isinstance(source, io.BufferedIOBase) or (
        hasattr(source, "read") and "b" in getattr(source, "mode", "")
    ):
        source = io.TextIOWrapper(source, encoding="utf-8")

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input", line=1) from None
    if [h.strip().lower() for h in header[:2]] != ["timestamp", "price"]:
        raise ParseError(f"expected header 'timestamp,price', got {','.join(header)!r}", line=1)

    days: dict[date, np.ndarray] = {}
    last_ts: dict[date, datetime] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            raise ParseError("expected two columns", line=lineno)
        try:
            ts = datetime.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise ParseError(f"bad timestamp {row[0]!r}: {exc}", line=lineno) from None
        if ts.tzinfo is not None:
            raise ParseError("timestamps must be naive exchange-local", line=lineno)
        try:
            price = float(row[1])
        except ValueError:
            raise ParseError(f"bad price {row[1]!r}", line=lineno) from None
        if not np.isfinite(price) or price <= 0:
            raise DataError(f"line {lineno}: non-positive price {row[1]!r}")
        d = ts.date()
        prev = last_ts.get(d)
        if prev is not None and ts <= prev:
            raise DataError(f"line {lineno}: timestamps within {d.isoformat()} not increasing")
        last_ts[d] = ts
        try:
            idx = grid.bar_index(ts.time())
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        if d not in days:
            days[d] = np.full(grid.n_points, np.nan)
        if not np.isnan(days[d][idx]):
            raise DataError(f"line {lineno}: duplicate bar {ts.isoformat()}")
        days[d][idx] = np.log(price)

    if not days:
        raise DataError("input holds no data rows")
    order = sorted(days)
    matrix = np.vstack([days[d] for d in order])
    return PriceSeries(grid=grid, dates=tuple(order), log_prices=matrix)


def filter_complete_days(series: PriceSeries, max_missing_bars: int = 0) -> PriceSeries:
    """Drop days with more than ``max_missing_bars`` missing bars.

    Retained rows are carried over bit-for-bit; dropped dates accumulate on
    the result so gap-aware ensembles can avoid windows spanning them.
    """
    missing = np.isnan(series.log_prices).sum(axis=1)
    keep = missing <= max_missing_bars
    if not keep.any():
        raise DataError("no day survives the completeness filter")
    dropped = tuple(d for d, k in zip(series.dates, keep) if not k)
    if dropped:
        log.info(
            "dropped %d of %d days (more than %d missing bars)",
            len(dropped), series.n_days, max_missing_bars,
        )
    return PriceSeries(
        grid=series.grid,
        dates=tuple(d for d, k in zip(series.dates, keep) if k),
        log_prices=series.log_prices[keep],
        dropped_dates=series.dropped_dates + dropped,
    )


def dropped_between(series: PriceSeries, span: int = 1) -> np.ndarray:
    """Dropped sessions strictly between retained days i and i + span, per i.

    Entry i counts the ``dropped_dates`` d with dates[i] < d < dates[i + span];
    a window with a nonzero count would silently absorb part of a trading
    day.  Calendar gaps that were never in the feed (weekends, holidays)
    count zero.  Repeated filter passes append dropped dates out of order,
    so they are sorted here.
    """
    days = np.array(series.dates, dtype="datetime64[D]")
    dropped = np.unique(np.array(series.dropped_dates, dtype="datetime64[D]"))
    return np.searchsorted(dropped, days[span:], side="left") - np.searchsorted(
        dropped, days[:-span], side="right"
    )


def _column(series: PriceSeries, bar: int, rows: np.ndarray | slice, label: str) -> np.ndarray:
    if bar >= series.grid.n_points:
        raise ClassSpecError(f"class {label!r} needs bar {bar}, grid ends at {series.grid.close_index}")
    col = series.log_prices[rows, bar]
    if np.isnan(col).any():
        raise DataError(
            f"class {label!r} touches missing bars; run filter_complete_days first"
        )
    return col


def raw_returns(series: PriceSeries, iclass: IntervalClass) -> ReturnSample:
    """Collect the raw (non-detrended) log-returns of one interval class.

    Overnight and multi-day windows skip any pair of retained days with a
    filter-dropped day strictly between their dates (``dropped_between``).
    Multi-day windows run open to open and do not overlap.
    """
    label = iclass.label
    if iclass.kind == "intraday":
        rows = slice(None)
        a = _column(series, iclass.bar_start, rows, label)
        b = _column(series, iclass.bar_end, rows, label)
        return ReturnSample(values=b - a, interval=iclass)

    if iclass.kind == "overnight":
        keep = dropped_between(series) == 0
        if iclass.nights is not None:
            nights = np.diff(np.array(series.dates, dtype="datetime64[D]")).astype(int)
            keep &= nights == iclass.nights
        starts = np.flatnonzero(keep)
        opens = _column(series, 0, starts + 1, label)
        closes = _column(series, series.grid.close_index, starts, label)
        return ReturnSample(values=opens - closes, interval=iclass)

    if iclass.kind == "multiday":
        span = iclass.n_days
        starts = np.arange(0, series.n_days - span, span)
        starts = starts[dropped_between(series, span)[starts] == 0]
        values = _column(series, 0, starts + span, label) - _column(series, 0, starts, label)
        return ReturnSample(values=values, interval=iclass)

    raise ClassSpecError(f"cannot build returns for class kind {iclass.kind!r}")


def detrend(sample: ReturnSample) -> ReturnSample:
    """Remove the ensemble mean of the class.

    All returns in a sample share intraday anchors and day offset, so the
    seasonal trend of the class is exactly its ensemble mean.  The mean is
    subtracted twice; the second pass cancels the rounding residue of the
    first, which keeps the detrended-mean invariant honest even for
    pathological samples.  Idempotent up to float rounding.
    """
    v = sample.values - sample.values.mean()
    v = v - v.mean()
    return ReturnSample(values=v, interval=sample.interval, detrended=True)


def class_sample(series: PriceSeries, iclass: IntervalClass) -> ReturnSample:
    """Raw returns followed by detrending; the standard ensemble builder."""
    return detrend(raw_returns(series, iclass))


def next_weekday(d: date) -> date:
    d = d + timedelta(days=1)
    while d.weekday() >= 5:
        d = d + timedelta(days=1)
    return d


def synthetic_dates(n_days: int, start: date = date(1990, 1, 2)) -> tuple[date, ...]:
    """Consecutive weekdays, for series without a real calendar attached."""
    out = [start]
    while len(out) < n_days:
        out.append(next_weekday(out[-1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Lossless cache

def save_cache(series: PriceSeries, path: str | Path) -> None:
    """Write a JSON cache that round-trips doubles exactly (shortest repr)."""
    payload = {
        "grid": {
            "open_time": series.grid.open_time.isoformat(timespec="minutes"),
            "bar_minutes": series.grid.bar_minutes,
            "n_points": series.grid.n_points,
        },
        "dropped_dates": [d.isoformat() for d in series.dropped_dates],
        "days": [
            {
                "date": d.isoformat(),
                "log_prices": [None if np.isnan(x) else x for x in row],
            }
            for d, row in zip(series.dates, series.log_prices)
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")


def load_cache(path: str | Path) -> PriceSeries:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    g = payload["grid"]
    hh, mm = g["open_time"].split(":")
    grid = DayGrid(open_time=time(int(hh), int(mm)), bar_minutes=g["bar_minutes"], n_points=g["n_points"])
    dates = tuple(date.fromisoformat(d["date"]) for d in payload["days"])
    matrix = np.array(
        [[np.nan if x is None else x for x in d["log_prices"]] for d in payload["days"]],
        dtype=float,
    )
    dropped = tuple(date.fromisoformat(d) for d in payload.get("dropped_dates", []))
    return PriceSeries(grid=grid, dates=dates, log_prices=matrix, dropped_dates=dropped)


def load_series(path: str | Path, grid: DayGrid | None = None) -> PriceSeries:
    """Dispatch on extension: ``.json`` cache or ``timestamp,price`` CSV."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        return load_cache(p)
    if grid is None:
        raise DataError("ingesting a CSV needs an explicit grid")
    return ingest_csv(p, grid)
