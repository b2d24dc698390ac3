"""Intraday price series on a fixed bar grid, interval classes, and return ensembles.

Everything downstream works on log-prices laid out as one row per trading day
over a shared intraday grid.  Missing bars are carried as NaN until
``filter_complete_days`` removes (or tolerates) them; the dates of removed days
are kept on the series so that close-to-open and multi-day ensembles can skip
windows that would silently span a partially traded day.
"""
from __future__ import annotations

import base64
import binascii
import csv
import io
import itertools
import json
import operator
import os
import re
import signal
import threading
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import IO, NoReturn, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ClassSpecError, DataError, FstError, ParseError

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

    def bars_in(self, minutes: float) -> int:
        """Number of bars in a span of ``minutes``: a whole number >= 1, or ClassSpecError."""
        k = float(minutes) / self.bar_minutes
        if not (k >= 1 and k.is_integer()):
            fault = "must be a positive" if k < 1 else "is not a"
            raise ClassSpecError(
                f"{minutes:g} min {fault} whole number of bars on a {self.bar_minutes} min grid"
            )
        return int(k)


@dataclass(frozen=True)
class PriceSeries:
    """Log-price matrix, one row per retained day, NaN marking missing bars."""

    grid: DayGrid
    dates: tuple[date, ...]
    log_prices: np.ndarray
    dropped_dates: tuple[date, ...] = ()

    def __post_init__(self):
        self._settle(np.asarray(self.log_prices, dtype=float).copy())

    @classmethod
    def _adopt(
        cls, grid: DayGrid, dates: Sequence[date], log_prices: np.ndarray,
        dropped_dates: Sequence[date] = (),
    ) -> "PriceSeries":
        """A series that keeps ``log_prices`` itself, a matrix nobody else holds.

        The public constructor copies what it is given; a loader that has
        just made the matrix hands it over here and skips that copy.
        """
        series = cls.__new__(cls)
        object.__setattr__(series, "grid", grid)
        object.__setattr__(series, "dates", dates)
        object.__setattr__(series, "dropped_dates", dropped_dates)
        series._settle(np.asarray(log_prices, dtype=float))
        return series

    def _settle(self, lp: np.ndarray) -> None:
        """Check ``lp`` against the dates and grid, then keep it read-only."""
        if lp.ndim != 2 or lp.shape != (len(self.dates), self.grid.n_points):
            raise DataError(
                f"log_prices shape {lp.shape} does not match "
                f"{len(self.dates)} days x {self.grid.n_points} grid points"
            )
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise DataError("dates must be strictly increasing with no duplicates")
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
        bars_per = grid.bars_in(interval_minutes)
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

    def intervals(self) -> list["IntervalClass"]:
        """One intraday class per partition interval, in order."""
        return [IntervalClass.intraday(m - 1, m, self) for m in range(1, self.m_max + 1)]


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
        (``pooled``) carries its first window as bars ``0..k``.
    """

    kind: str
    label: str
    bar_start: int | None = None
    bar_end: int | None = None
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
    def overnight(cls, nights: int | None = None) -> "IntervalClass":
        if nights is not None and nights < 1:
            raise ClassSpecError("nights must be >= 1 when given")
        label = "overnight" if nights is None else f"overnight[{nights}n]"
        return cls(kind="overnight", label=label, nights=nights)

    @classmethod
    def multiday(cls, n_days: int) -> "IntervalClass":
        if n_days < 1:
            raise ClassSpecError("multiday span must be >= 1 day")
        return cls(kind="multiday", label=f"{n_days}-day", n_days=n_days)

    @classmethod
    def sample(cls, label: str) -> "IntervalClass":
        return cls(kind="sample", label=label)

    @classmethod
    def pooled(cls, k_bars: int, label: str) -> "IntervalClass":
        """Day-pooled k-bar returns: the disjoint k-bar windows from the open, each its own ensemble."""
        if k_bars < 1:
            raise ClassSpecError(f"a pooled class needs at least 1 bar, got {k_bars}")
        return cls(kind="sample", label=label, bar_start=0, bar_end=k_bars)

    def window(self, grid: DayGrid) -> tuple[int, int, int]:
        """(start bar, end bar, span in retained days) of the returns ``class_samples``
        takes; a pooled class's first window, which the rest follow up to the close."""
        if self.bar_end is not None:  # intraday or pooled
            return self.bar_start, self.bar_end, 0
        if self.kind == "overnight":
            return grid.close_index, 0, 1
        if self.kind == "multiday":
            return 0, 0, self.n_days
        raise ClassSpecError(f"cannot build returns for class kind {self.kind!r}")


def parse_class_spec(spec: str, partition: PartitionSpec, grid: DayGrid) -> list[IntervalClass]:
    """One class token -> the interval classes it names.

    Tokens: ``intervals`` (every partition interval), ``intraday:a:b``
    (partition boundaries a to b), ``bars:i:j``, ``overnight[:nights]``,
    ``multiday:N`` or ``N-day``, ``morning`` and ``afternoon`` (the
    partition cut at interval (m_max + 1) // 2), ``trading-day``,
    ``first-interval``, and ``Kmin`` (day-pooled K-minute returns, an
    ``IntervalClass.pooled`` class).
    """
    spec = spec.strip()
    m_max = partition.m_max
    if spec == "intervals":
        return partition.intervals()
    if m := re.fullmatch(r"intraday:(\d+):(\d+)", spec):
        return [IntervalClass.intraday(int(m.group(1)), int(m.group(2)), partition)]
    if m := re.fullmatch(r"bars:(\d+):(\d+)", spec):
        return [IntervalClass.bars(int(m.group(1)), int(m.group(2)))]
    if spec == "overnight":
        return [IntervalClass.overnight()]
    if m := re.fullmatch(r"overnight:(\d+)", spec):
        return [IntervalClass.overnight(nights=int(m.group(1)))]
    if m := re.fullmatch(r"multiday:(\d+)", spec) or re.fullmatch(r"(\d+)-day", spec):
        return [IntervalClass.multiday(int(m.group(1)))]
    if spec == "morning":
        return [IntervalClass.intraday(0, (m_max + 1) // 2, partition, label="morning")]
    if spec == "afternoon":
        return [IntervalClass.intraday((m_max + 1) // 2, m_max, partition, label="afternoon")]
    if spec == "trading-day":
        return [IntervalClass.intraday(0, m_max, partition, label="trading-day")]
    if spec == "first-interval":
        return [IntervalClass.intraday(0, 1, partition)]
    if m := re.fullmatch(r"(\d+(?:\.\d+)?)min", spec):
        minutes = float(m.group(1))
        return [IntervalClass.pooled(grid.bars_in(minutes), f"{minutes:g}min")]
    raise ClassSpecError(f"cannot parse class spec {spec!r}")


def parse_class_specs(text: str, partition: PartitionSpec, grid: DayGrid) -> list[IntervalClass]:
    out = []
    for token in text.split(","):
        out.extend(parse_class_spec(token, partition, grid))
    return out


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
        if self.detrended and (faults := _detrend_faults(v[None])):
            raise faults[0]

    @classmethod
    def _adopt(cls, values: np.ndarray, interval: IntervalClass) -> "ReturnSample":
        """A detrended sample that keeps ``values`` itself: a read-only 1-d row already checked.

        ``class_samples`` runs the constructor's checks on a whole matrix of
        rows at once and hands each class's rows over here: one row without
        a copy, a pooled class's rows read day by day.
        """
        sample = cls.__new__(cls)
        object.__setattr__(sample, "values", values)
        object.__setattr__(sample, "interval", interval)
        object.__setattr__(sample, "detrended", True)
        return sample

    @property
    def n(self) -> int:
        return int(self.values.size)


def _detrend_faults(rows: np.ndarray) -> dict[int, DataError]:
    """The rows of a 2-d array whose mean does not vanish to ``DETREND_REL_TOL`` of their spread."""
    spread = rows.std(axis=1)
    drift = np.abs(rows.mean(axis=1))
    return {
        int(j): DataError(f"sample tagged detrended but mean/std = {drift[j] / spread[j]:.3e}")
        for j in np.flatnonzero((spread > 0) & (drift > DETREND_REL_TOL * spread))
    }


# Data rows parsed per batch by ``ingest_csv``: enough that the per-row work
# runs in C, few enough that a long history never sits in memory as Python
# objects.
INGEST_CHUNK_ROWS = 8192
# A file of at least this many bytes has the second half of its lines
# decoded by a forked helper process while this one decodes the first half,
# where the platform forks, no other thread runs, and two CPUs are free.
# Below about 1 MiB the fork costs about what the helper saves.
INGEST_SPLIT_BYTES = 2 << 20

# the naive epoch of every instant, here and in the time map: no process timezone is read
_EPOCH = datetime(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH.toordinal()
_US = timedelta(microseconds=1)
_US_PER_DAY = 86_400_000_000
_INT64_MIN = np.iinfo(np.int64).min

# The one layout decoded by array operations: a header line of exactly
# ``timestamp,price`` and data lines of ``YYYY-MM-DDTHH:MM:SS,<price>\n``.
_BOM = "\ufeff".encode()
_STRICT_HEADER = b"timestamp,price\n"
# Each strict timestamp byte minus its template byte: at most 9 at a digit,
# 0 at a separator.
_STRICT_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00,", dtype=np.uint8)
_STRICT_SPAN = np.where(_STRICT_TEMPLATE == ord("0"), 9, 0).astype(np.uint8)
_PRICE_FIELD = operator.itemgetter(slice(20, None))


def ingest_csv(source: str | Path | IO[bytes], grid: DayGrid) -> PriceSeries:
    """Parse a ``timestamp,price`` CSV, named by its path or read from an
    open binary stream, into a grid-aligned series.

    Timestamps are ISO-8601 exchange-local, prices decimal and positive.
    Rows are grouped by calendar date and placed on the grid; a day missing
    bars is retained with NaN holes for ``filter_complete_days`` to judge.
    Malformed rows (a line that is not UTF-8 among them), off-grid
    timestamps, non-positive prices, and within-day timestamp disorder all
    raise for the first offending row, with the number of the line it
    starts on (blank rows are skipped but counted, and a quoted field that
    spans lines counts each).  One leading byte-order mark is ignored.  A text
    stream raises ``TypeError`` before anything is read.

    Batches of lines in the strict layout ``YYYY-MM-DDTHH:MM:SS,<price>``
    under a ``timestamp,price`` header are decoded by array operations.  The
    first batch that departs from it, or in which a check fires, and every
    later line go through ``csv`` and ``datetime.fromisoformat``; both paths
    give the same series and the same errors.  A file named by its path may
    have the batches of its second half decoded by a forked helper
    (``_Helper``), again with the same series and errors.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return _ingest(fh, grid, source)
    if isinstance(source, io.TextIOBase):
        raise TypeError("ingest_csv reads a path or a binary stream")
    return _ingest(source, grid, None)


def _ingest(source: IO[bytes], grid: DayGrid, path: str | Path | None) -> PriceSeries:
    """``ingest_csv`` of an open binary stream; ``path`` names the file when
    the stream was opened from one, so that a helper can read it too."""
    lines = iter(source)
    first = next(lines, b"").removeprefix(_BOM)

    days: dict[int, np.ndarray] = {}
    last_us: dict[int, int] = {}
    line, batch = 1, [first] if first else []
    if first == _STRICT_HEADER:
        # the second half goes to a helper before this process decodes a line
        split = _split_point(source) if path is not None else None
        helper = None if split is None else _Helper.start(lambda out: _decode_from(path, split, out))
        try:
            line, batch = _place_strict(lines, 2, grid, days, last_us, None if helper is None else split)
            if helper is not None and not batch:
                line, batch = _place_decoded(helper.result(), source, split, line, grid, days, last_us)
        finally:
            if helper is not None:
                helper.close()

    # the general path: the whole input under any other header, or the batch
    # the strict path handed on and every line after it; undecodable bytes
    # become lone surrogates, reported by line
    if line == 1 or batch:
        head = b"".join(batch).decode("utf-8", "surrogateescape")
        wrapper = io.TextIOWrapper(source, "utf-8", "surrogateescape", newline="")
        reader = csv.reader(itertools.chain(io.StringIO(head, newline=""), wrapper))
        first_line, chunk = line, []
        try:
            if line == 1:
                try:
                    row = next(reader)
                except StopIteration:
                    raise ParseError("empty input", line=1) from None
                if not _is_utf8(row):
                    raise ParseError("not valid UTF-8", line=1)
                if [h.strip().lower() for h in row[:2]] != ["timestamp", "price"]:
                    got = ",".join(row)
                    raise ParseError(f"expected header 'timestamp,price', got {got!r}", line=1)
            while True:
                # the next row's line; a quoted field may span lines, which the reader counts
                line = first_line + reader.line_num
                chunk = []  # keeps the rows read before a csv.Error
                chunk.extend(itertools.islice(reader, INGEST_CHUNK_ROWS))
                if not chunk:
                    break
                _place_chunk(chunk, line, grid, days, last_us)
        except csv.Error as exc:  # a field over csv's size limit, among others
            if chunk:  # a faulty row before it is reported first
                _place_chunk(chunk, line, grid, days, last_us)
            raise ParseError(str(exc), line=first_line - 1 + reader.line_num) from None
        finally:
            wrapper.detach()  # a collected wrapper would close the caller's stream

    if not days:
        raise DataError("input holds no data rows")
    order = sorted(days)
    matrix = np.vstack([days[d] for d in order])
    dates = tuple(date.fromordinal(_EPOCH_ORDINAL + d) for d in order)
    return PriceSeries._adopt(grid, dates, matrix)


def _place_strict(lines, line: int, grid: DayGrid, days: dict[int, np.ndarray],
                  last_us: dict[int, int], end: int | None = None) -> tuple[int, list]:
    """Decode and place batches of ``lines`` in the strict layout, the first
    at line number ``line``.  Returns the next line number and the first
    batch that departs from the layout or fails a check (empty if none).
    With ``end``, ``lines`` is a binary file read up to that byte offset, a
    line start: the batch that crosses it is cut, and the file left, there.
    """
    while batch := list(itertools.islice(lines, INGEST_CHUNK_ROWS)):
        over = -1 if end is None else lines.tell() - end
        while over > 0:
            over -= len(batch.pop())
        if over == 0:
            lines.seek(end)
        decoded = _decode_strict(batch)
        if decoded is None or not _place(*decoded, grid, days, last_us):
            return line, batch
        line += len(batch)
        if over == 0:
            break
    return line, []


def _split_point(source: IO[bytes]) -> int | None:
    """Where a helper may take over the rest of ``source``: the first line
    start past the middle of the bytes left, found by one read there.  None
    if ``source`` cannot seek, the rest is under ``INGEST_SPLIT_BYTES``, or
    no line ends within 64 KiB of the middle."""
    if not source.seekable():
        return None
    fd, start = source.fileno(), source.tell()
    middle = (start + os.fstat(fd).st_size) // 2
    if middle - start < INGEST_SPLIT_BYTES // 2:
        return None
    end = os.pread(fd, 1 << 16, middle).find(b"\n")
    return None if end < 0 else middle + end + 1


def _decode_from(path: str | Path, start: int, out: IO[bytes]) -> None:
    """A helper's job: decode the strict batches of ``path`` from byte
    ``start`` up to the first that departs from the layout, and write each
    to ``out`` as it is decoded: its row count and the byte offset after it,
    then its timestamps, then its prices, all native 8-byte words."""
    with open(path, "rb") as fh:
        fh.seek(start)
        while batch := list(itertools.islice(fh, INGEST_CHUNK_ROWS)):
            decoded = _decode_strict(batch)
            if decoded is None:
                return
            out.writelines((np.array([len(batch), fh.tell()], dtype=np.int64), *decoded))


def _place_decoded(decoded: IO[bytes] | None, source: IO[bytes], start: int, line: int,
                   grid: DayGrid, days: dict[int, np.ndarray],
                   last_us: dict[int, int]) -> tuple[int, list]:
    """``_place_strict`` of ``source`` from byte ``start`` and line number
    ``line``, placing first the batches ``_decode_from`` wrote to ``decoded``
    (None if the helper failed).  From the first of them that fails a check,
    or the first line the helper did not decode, lines are decoded here."""
    while decoded is not None and (head := decoded.read(16)):
        n, end = np.frombuffer(head, dtype=np.int64).tolist()
        rows = decoded.read(16 * n)
        us = np.frombuffer(rows, dtype=np.int64, count=n)
        price = np.frombuffer(rows, dtype=np.float64, count=n, offset=8 * n)
        if not _place(us, price, grid, days, last_us):
            break
        line, start = line + n, end
    source.seek(start)
    return _place_strict(source, line, grid, days, last_us)


def helper_may_fork() -> bool:
    """Whether a forked helper process may work beside this one: the platform
    forks, no other thread runs (a fork copies only the calling thread, and
    a lock another thread holds stays held in the child), and two CPUs are
    free to this process."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return hasattr(os, "fork") and threading.active_count() == 1 and (cpus or 1) >= 2


class _Helper:
    """A forked process running ``job(out)``, ``out`` an anonymous temporary
    file in ``directory`` (None: the system's).  ``start`` gives None, with
    nothing forked, where ``helper_may_fork`` refuses or the file or the
    fork cannot be made.  ``result`` waits and gives ``out`` rewound if the
    helper exited with status 0, else None: the caller then does the job
    itself.  ``close`` stops and reaps a helper nobody waited for, and drops
    its file."""

    def __init__(self, pid: int, out: IO[bytes]) -> None:
        self.pid, self.out = pid, out

    @classmethod
    def start(cls, job, directory: str | None = None) -> _Helper | None:
        if not helper_may_fork():
            return None
        import tempfile  # numpy has imported it already

        try:
            out = tempfile.TemporaryFile(dir=directory)
        except OSError:  # a missing or read-only directory: the caller's work will say so
            return None
        try:
            pid = os.fork()
        except OSError:
            out.close()
            return None
        if pid == 0:  # the helper: it never returns
            status = 1
            try:
                job(out)
                out.flush()
                status = 0
            finally:
                os._exit(status)
        return cls(pid, out)

    def result(self) -> IO[bytes] | None:
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        self.out.seek(0)
        return None if status else self.out

    def close(self) -> None:
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        self.out.close()


def _decode_strict(lines: list[bytes]) -> tuple[np.ndarray, np.ndarray] | None:
    """Timestamps (microseconds since 1970-01-01) and prices of strict-layout lines.

    None if any line departs from ``YYYY-MM-DDTHH:MM:SS,<price>\\n``, names a
    date or time that does not exist, or has a price ``float`` refuses.
    """
    buf = b"".join(lines)
    if b"\r" in buf:
        return None
    a = np.frombuffer(buf, dtype=np.uint8)
    ends = np.flatnonzero(a == ord("\n"))
    if ends.size != len(lines) or a[-1] != ord("\n"):
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    if (ends - starts < 20).any():
        return None
    stamps = sliding_window_view(a, 20)[starts]
    if ((stamps - _STRICT_TEMPLATE) > _STRICT_SPAN).any():  # wraps below the template
        return None
    try:  # numpy's ISO-8601 parser refuses a date or time out of range
        us = np.ascontiguousarray(stamps[:, :19]).view("S19")[:, 0].astype("datetime64[us]").view(np.int64)
        price = np.fromiter(map(float, map(_PRICE_FIELD, lines)), dtype=float, count=len(lines))
    except ValueError:
        return None
    # numpy parses the year 0000, which ``datetime`` refuses: instants before 0001-01-01
    return None if us.min() < -62_135_596_800_000_000 else (us, price)


def _is_utf8(row: list[str]) -> bool:
    """False for a row holding bytes that were not UTF-8 (lone surrogates)."""
    try:
        "".join(row).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _is_blank(row: list[str]) -> bool:
    """True for an empty or whitespace-only row, which is skipped but counted."""
    return not row or (len(row) == 1 and not row[0].strip())


def _place_chunk(
    rows: list[list[str]],
    line: int,
    grid: DayGrid,
    days: dict[int, np.ndarray],
    last_us: dict[int, int],
) -> None:
    """Parse one batch of CSV rows, ``rows[0]`` at line ``line``, and place them.

    The rows are parsed column by column.  A batch holding a faulty row is
    placed not at all: ``_refuse`` reads it again row by row and raises for
    the first faulty one.
    """
    kept = rows if min(map(len, rows)) >= 2 else list(itertools.filterfalse(_is_blank, rows))
    text = "".join(itertools.chain.from_iterable(rows))
    try:
        if not text.isascii():
            text.encode("utf-8")  # lone surrogates raise
        # an aware timestamp minus the naive epoch raises TypeError, a short
        # row's missing price IndexError
        ts = map(datetime.fromisoformat, map(str.strip, map(operator.itemgetter(0), kept)))
        us = np.fromiter(map(operator.floordiv, map(operator.sub, ts, itertools.repeat(_EPOCH)),
                             itertools.repeat(_US)), dtype=np.int64, count=len(kept))
        price = np.fromiter(map(float, map(operator.itemgetter(1), kept)), dtype=float, count=len(kept))
    except (ValueError, TypeError, IndexError):
        pass
    else:
        if not kept or _place(us, price, grid, days, last_us):
            return
    _refuse(rows, line, grid, last_us)


def _refuse(rows: list[list[str]], line: int, grid: DayGrid, last_us: dict[int, int]) -> NoReturn:
    """Raise for the first faulty row of a batch ``_place_chunk`` refused.

    Each row in turn must be UTF-8, hold two columns, a timestamp, naive,
    and a price, positive and finite, later than the last timestamp of its
    day (``last_us`` holds those of earlier batches), and on the grid.
    """
    last_us = dict(last_us)
    next_line = line
    for row in rows:
        # a row ends one line, and each line end (LF, CR or CRLF) inside its
        # quoted fields one more, as the reader counts them
        text = "".join(row)
        ends = text.count("\n") + text.count("\r") - text.count("\r\n")
        i, next_line = next_line, next_line + 1 + ends
        if not _is_utf8(row):
            raise ParseError("not valid UTF-8", line=i)
        if len(row) < 2:
            if _is_blank(row):
                continue
            raise ParseError("expected two columns", line=i)
        try:
            ts = datetime.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise ParseError(f"bad timestamp {row[0]!r}: {exc}", line=i) from None
        if ts.tzinfo is not None:
            raise ParseError("timestamps must be naive exchange-local", line=i)
        try:
            price = float(row[1])
        except ValueError:
            raise ParseError(f"bad price {row[1]!r}", line=i) from None
        if not 0 < price < np.inf:
            raise DataError(f"line {i}: non-positive price {row[1]!r}")
        us = (ts - _EPOCH) // _US
        day = us // _US_PER_DAY
        if us <= last_us.get(day, _INT64_MIN):
            raise DataError(f"line {i}: timestamps within {ts.date().isoformat()} not increasing")
        last_us[day] = us
        try:
            grid.bar_index(ts.time())
        except DataError as exc:
            raise DataError(f"line {i}: {exc}") from None
    raise AssertionError(f"no row of lines {line}..{next_line - 1} fails a check")


def _place(
    us: np.ndarray,
    price: np.ndarray,
    grid: DayGrid,
    days: dict[int, np.ndarray],
    last_us: dict[int, int],
) -> bool:
    """Check a batch of rows and write their log-prices into ``days``.

    ``us`` holds each row's timestamp in microseconds since 1970-01-01, and
    days are keyed by their offset from that date; ``last_us`` carries each
    day's latest timestamp across batches.  False, with nothing written, if
    any row has a price that is not positive and finite, a timestamp not
    later than its day's previous one, or one off the grid.
    """
    n = len(us)
    day, tod = np.divmod(us, _US_PER_DAY)
    open_us = (grid.open_time.hour * 60 + grid.open_time.minute) * 60_000_000
    idx, off_grid = np.divmod(tod - open_us, grid.bar_minutes * 60_000_000)

    # within-day order: each row against the previous row of its day, the
    # first row of a day against that day's last row from earlier batches
    by_day = np.argsort(day, kind="stable")
    day_s, us_s = day[by_day], us[by_day]
    starts = np.flatnonzero(np.concatenate(([True], day_s[1:] != day_s[:-1])))
    first_days = day_s[starts].tolist()
    prev = np.empty_like(us_s)
    prev[1:] = us_s[:-1]
    prev[starts] = [last_us.get(d, _INT64_MIN) for d in first_days]
    if not (
        (us_s > prev).all() and (price > 0).all() and np.isfinite(price).all()
        and not off_grid.any() and idx.min() >= 0 and idx.max() < grid.n_points
    ):
        return False

    log_price = np.log(price)
    ends = np.append(starts[1:], n)
    for d, lo, hi in zip(first_days, starts.tolist(), ends.tolist()):
        if d not in days:
            days[d] = np.full(grid.n_points, np.nan)
        rows_of_day = by_day[lo:hi]
        days[d][idx[rows_of_day]] = log_price[rows_of_day]
        last_us[d] = int(us_s[hi - 1])
    return True


def filter_complete_days(series: PriceSeries, max_missing_bars: int = 0) -> PriceSeries:
    """Drop days with more than ``max_missing_bars`` missing bars.

    Retained rows are carried over bit-for-bit; dropped dates accumulate on
    the result so gap-aware ensembles can avoid windows spanning them.  When
    no day is dropped the (frozen, read-only) input itself is returned.
    """
    missing = np.isnan(series.log_prices).sum(axis=1)
    keep = missing <= max_missing_bars
    if not keep.any():
        raise DataError("no day survives the completeness filter")
    if keep.all():
        return series
    dropped = tuple(d for d, k in zip(series.dates, keep) if not k)
    return PriceSeries._adopt(
        series.grid,
        tuple(d for d, k in zip(series.dates, keep) if k),
        series.log_prices[keep],
        series.dropped_dates + dropped,
    )


def day_numbers(dates: Sequence[date]) -> np.ndarray:
    """Proleptic Gregorian ordinals of ``dates``, as int64."""
    return np.fromiter(map(date.toordinal, dates), dtype=np.int64, count=len(dates))


def distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``a`` by bit pattern, and each entry's index
    among them, so ``-0.0`` and ``0.0`` and NaN payloads stay apart.  The
    values come in the order of their bit patterns: ascending for values
    that are all positive.

    A sort, not ``np.unique``, which imports ``numpy.ma`` on its first call.
    """
    bits = a.view(f"u{a.itemsize}")
    order = np.argsort(bits)
    s = bits[order]
    first = np.empty(s.size, dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    inverse = np.empty(s.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return a[order[first]], inverse


def dropped_between(series: PriceSeries, span: int = 1) -> np.ndarray:
    """Dropped sessions strictly between retained days i and i + span, per i.

    Entry i counts the ``dropped_dates`` d with dates[i] < d < dates[i + span];
    a window with a nonzero count would silently absorb part of a trading
    day.  Calendar gaps that were never in the feed (weekends, holidays)
    count zero.  Repeated filter passes append dropped dates out of order,
    so they are sorted and de-duplicated here.
    """
    days = day_numbers(series.dates)
    dropped = distinct(day_numbers(series.dropped_dates))[0]  # ordinals are positive
    return np.searchsorted(dropped, days[span:], side="left") - np.searchsorted(
        dropped, days[:-span], side="right"
    )


def class_samples(series: PriceSeries, classes: Sequence[IntervalClass]) -> list[ReturnSample]:
    """The detrended log-returns of each class of ``classes``, in order.

    One rule serves every kind.  A class's ``window`` gives a start bar, an
    end bar and a span in retained days; windows start on retained days 0,
    s, 2s, ... with s = max(span, 1), so multi-day windows do not overlap.
    A window across days (span > 0) is skipped when a filter-dropped session
    lies strictly between its first and last day (``dropped_between``), and
    a class with ``nights`` keeps only windows that many calendar nights
    long.  A return is the end log-price minus the start one; a NaN return
    (a missing bar) raises ``DataError``.  A class's returns share intraday
    anchors and day offset, so its seasonal trend is exactly their mean.

    Classes with the same span and ``nights`` share one gather into a class
    x window matrix, demeaned a row at a time, each row summed as its class
    alone would be.  A pooled class has a row per k-bar window from the
    open, and its sample reads them day by day.  The first class, in the
    order given, that cannot be built raises the error it raises alone.
    """
    grid = series.grid
    faults: dict[int, FstError] = {}
    families: dict[tuple[int, int | None], list[tuple[int, int, int]]] = {}
    for i, c in enumerate(classes):
        try:
            start_bar, end_bar, span = c.window(grid)
        except ClassSpecError as exc:
            faults[i] = exc
            continue
        if (bar := max(start_bar, end_bar)) > grid.close_index:
            faults[i] = ClassSpecError(
                f"class {c.label!r} needs bar {bar}, grid ends at {grid.close_index}"
            )
            continue
        family = families.setdefault((span, c.nights), [])
        if c.kind == "sample":  # pooled: a row per k-bar window up to the close
            k = end_bar - start_bar
            family += [(i, a, a + k) for a in range(start_bar, grid.n_points - k, k)]
        else:
            family.append((i, start_bar, end_bar))

    samples: list[ReturnSample] = [None] * len(classes)
    gaps: dict[int, np.ndarray] = {}
    for (span, nights), members in families.items():
        starts = np.arange(0, series.n_days - span, max(span, 1))
        if span:
            if span not in gaps:
                gaps[span] = dropped_between(series, span)
            starts = starts[gaps[span][starts] == 0]
        if nights is not None:
            days = day_numbers(series.dates)
            starts = starts[days[starts + span] - days[starts] == nights]
        rows, start_bars, end_bars = (np.asarray(a) for a in zip(*members))
        values = (
            series.log_prices[(starts + span)[None, :], end_bars[:, None]]
            - series.log_prices[starts[None, :], start_bars[:, None]]
        )
        for i in rows[np.isnan(values).any(axis=1)].tolist():
            faults.setdefault(i, DataError(
                f"class {classes[i].label!r} touches missing bars; run filter_complete_days first"
            ))
        if not starts.size:
            for i in rows.tolist():
                faults.setdefault(i, DataError(f"class {classes[i].label!r} produced no returns"))
            continue
        demean(values.T)
        for j, fault in _detrend_faults(values).items():
            faults.setdefault(int(rows[j]), fault)
        values.setflags(write=False)
        for i, row in zip(rows.tolist(), values):
            samples[i] = ReturnSample._adopt(row, classes[i])
        for i in {i for i in rows.tolist() if classes[i].kind == "sample"}:  # its windows, day by day
            at = np.flatnonzero(rows == i)
            v = values[at[0] : at[-1] + 1].T.ravel()
            v.setflags(write=False)
            samples[i] = ReturnSample._adopt(v, classes[i])
    if faults:
        raise faults[min(faults)]
    return samples


def demean(a: np.ndarray) -> np.ndarray:
    """Subtract the mean along axis 0 from ``a`` in place, twice, and return ``a``.

    The second pass cancels the rounding residue of the first, which keeps
    the detrended-mean invariant honest even for pathological samples.  The
    means are summed in ``a``'s own memory layout, which is part of the
    result's last bits.
    """
    a -= a.mean(axis=0)
    a -= a.mean(axis=0)
    return a


def class_sample(series: PriceSeries, iclass: IntervalClass) -> ReturnSample:
    """The detrended returns of one class: ``class_samples`` of it alone."""
    return class_samples(series, [iclass])[0]


def next_weekday(d: date) -> date:
    d = d + timedelta(days=1)
    while d.weekday() >= 5:
        d = d + timedelta(days=1)
    return d


def synthetic_dates(n_days: int) -> tuple[date, ...]:
    """Consecutive weekdays from 1990-01-02, for series without a real calendar attached.

    That day is the Tuesday of the week of Monday 1990-01-01, so day k is
    weekday (k + 1) % 5 of week (k + 1) // 5 after it.
    """
    monday = date(1990, 1, 1).toordinal()
    return tuple(date.fromordinal(monday + 7 * (w // 5) + w % 5) for w in range(1, n_days + 1))


# ---------------------------------------------------------------------------
# Lossless cache

# Matrix rows per base64 block written by ``save_cache``.  A multiple of 3,
# so each block is a whole number of 3-byte base64 groups and the encoded
# blocks concatenate into one unpadded string.
CACHE_BLOCK_ROWS = 3 * 256
_CACHE_DTYPE = "<f8"
# The payload's key and the quote opening its string, JSON whitespace allowed.
_PAYLOAD_KEY = re.compile(rb'"base64"[ \t\n\r]*:[ \t\n\r]*"')


def save_cache(series: PriceSeries, path: str | Path) -> None:
    """Write a JSON cache whose log-price matrix is exact binary.

    One JSON object holds the grid, the retained and dropped dates, and the
    matrix as a single base64 string of row-major little-endian float64
    (NaN holes included), with its dtype and shape.  Every double
    round-trips bit for bit; the string is encoded and written block by
    block, never held whole.
    """
    head = json.dumps(
        {
            "grid": {
                "open_time": series.grid.open_time.isoformat(timespec="minutes"),
                "bar_minutes": series.grid.bar_minutes,
                "n_points": series.grid.n_points,
            },
            "dates": [d.isoformat() for d in series.dates],
            "dropped_dates": [d.isoformat() for d in series.dropped_dates],
            "log_prices": {"dtype": _CACHE_DTYPE, "shape": list(series.log_prices.shape)},
        },
        separators=(",", ":"),
    )
    lp = series.log_prices
    with open_new(path, "wb") as fh:
        fh.write(head[:-2].encode() + b',"base64":"')
        for lo in range(0, lp.shape[0], CACHE_BLOCK_ROWS):
            block = np.ascontiguousarray(lp[lo : lo + CACHE_BLOCK_ROWS], dtype=_CACHE_DTYPE)
            fh.write(base64.b64encode(block))
        fh.write(b'"}}\n')


def _iso_dates(v) -> tuple[date, ...]:
    if not isinstance(v, list):
        raise TypeError(f"expected a list of ISO dates, got {type(v).__name__}")
    return tuple(map(date.fromisoformat, v))


def open_new(path: str | Path, mode: str = "w") -> IO:
    """``path`` opened to write a new file (text: UTF-8, ``\n`` line ends).  An
    existing file is unlinked: on ext4, closing a truncated rewrite waits on the disk."""
    if os.path.lexists(path):
        os.unlink(path)  # a directory raises IsADirectoryError, as open would
    return open(path, mode) if "b" in mode else open(path, mode, encoding="utf-8", newline="\n")


def read_json(path: str | Path):
    """The JSON value in a file; a file that holds no JSON raises ``DataError`` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise DataError(f"{path} is not a JSON file ({exc})") from None


def load_cache(path: str | Path) -> PriceSeries:
    """Read a cache written by ``save_cache``.

    The file is read as bytes.  ``json`` parses every byte of it but those
    of the first ``"base64"`` string, which go as they are to validating
    base64 decoding, so a JSON escape in the payload is refused like any
    other byte outside the alphabet.  A missing or malformed entry raises
    ``DataError`` naming the file and the entry.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    key = _PAYLOAD_KEY.search(buf)
    lo = key.end() if key else len(buf)
    hi = buf.find(b'"', lo)
    # a quote after a backslash may be escaped: then only the whole file can say
    cut = memoryview(buf)[lo:hi] if hi >= 0 and buf[hi - 1] != ord("\\") else None
    try:  # json sees the payload as ""
        payload = json.loads((buf[:lo] + buf[hi:] if cut is not None else buf).decode())
    except ValueError:  # not JSON, or a payload holding a quote: the whole file's verdict
        payload, cut = read_json(path), None
    if not isinstance(payload, dict) or "log_prices" not in payload:
        raise DataError(f"{path} is not a cache this version reads; re-run ingest to rebuild it")
    entry = "grid"
    try:
        g = payload["grid"]
        hh, mm = g["open_time"].split(":")
        grid = DayGrid(open_time=time(int(hh), int(mm)), bar_minutes=g["bar_minutes"], n_points=g["n_points"])
        entry = "dates"
        dates = _iso_dates(payload["dates"])
        entry = "dropped_dates"
        dropped = _iso_dates(payload["dropped_dates"])
        entry = "log_prices"
        lp = payload["log_prices"]
        shape = [len(dates), grid.n_points]
        if lp["dtype"] != _CACHE_DTYPE or lp["shape"] != shape:
            raise DataError(
                f"{path}: matrix {lp['dtype']} {lp['shape']} does not match "
                f"{_CACHE_DTYPE} {shape}"
            )
        data = lp.pop("base64")
        if data == "" and cut is not None:  # the string the cut emptied
            data = cut
        try:
            raw = base64.b64decode(data, validate=True)
        except binascii.Error as exc:
            raise DataError(f"{path}: corrupt matrix payload ({exc})") from None
        if len(raw) != shape[0] * shape[1] * 8:
            raise DataError(f"{path}: matrix payload holds {len(raw)} bytes, expected {shape[0] * shape[1] * 8}")
        matrix = np.frombuffer(raw, dtype=_CACHE_DTYPE).reshape(shape)
    except KeyError as exc:
        raise DataError(f"{path}: the cache has no {exc.args[0]!r} entry; re-run ingest") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{path}: the cache's {entry!r} entry is malformed ({exc}); re-run ingest") from None
    return PriceSeries._adopt(grid, dates, matrix, dropped)


def load_series(path: str | Path, grid: DayGrid | None = None) -> PriceSeries:
    """Dispatch on extension: ``.json`` cache or ``timestamp,price`` CSV."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        return load_cache(p)
    if grid is None:
        raise DataError("ingesting a CSV needs an explicit grid")
    try:
        return ingest_csv(p, grid)
    except (ParseError, DataError) as exc:  # name the file, as load_cache does
        exc.args = (f"{path}: {exc}",)
        raise
