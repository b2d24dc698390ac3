"""Grid, ingestion, filtering, interval classes, returns, detrending, cache."""
from __future__ import annotations

import csv
import gc
import io
import json
import math
import os
import signal
from datetime import date, datetime, time

import numpy as np
import pytest

from fstclock import (
    ClassSpecError,
    DataError,
    DayGrid,
    GeneratorConfig,
    IntervalClass,
    ParseError,
    PartitionSpec,
    PriceSeries,
    ReturnSample,
    assemble_time_map,
    class_sample,
    class_samples,
    detrend,
    filter_complete_days,
    ingest_csv,
    load_cache,
    load_series,
    raw_returns,
    save_cache,
)
import fstclock.cli as cli
import fstclock.series as series_module
from fstclock.analysis import _magnitude_matrix
from fstclock.series import day_numbers, dropped_between, next_weekday, synthetic_dates
from fstclock.synthetic import ActivityProfile, generate_seasonal, write_prices_csv

from conftest import calibration_from, series_from_matrix


GRID3 = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=3)


def csv_of(rows: str) -> io.StringIO:
    return io.StringIO("timestamp,price\n" + rows)


# --- grid ------------------------------------------------------------------

def test_grid_close_time_and_indexing():
    g = DayGrid(open_time=time(9, 40), bar_minutes=1, n_points=381)
    assert g.close_time == time(16, 0)
    assert g.close_index == 380
    assert g.bar_time(0) == time(9, 40)
    assert g.bar_index(time(16, 0)) == 380
    with pytest.raises(DataError):
        g.bar_index(time(9, 39))
    with pytest.raises(DataError):
        g.bar_index(time(16, 1))


def test_bars_in_takes_only_whole_bars():
    g = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=20)
    assert [g.bars_in(m) for m in (20, 60.0, 380)] == [1, 3, 19]
    for minutes in (0, -20, 50, 7.5, math.nan, math.inf):
        with pytest.raises(ClassSpecError, match="not a whole number of bars"):
            g.bars_in(minutes)


def test_grid_rejects_overnight_session():
    with pytest.raises(ValueError):
        DayGrid(open_time=time(23, 0), bar_minutes=30, n_points=4)


def test_grid_off_grid_time_rejected():
    g = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=3)
    with pytest.raises(DataError):
        g.bar_index(time(9, 50))


# --- ingestion -------------------------------------------------------------

def test_ingest_basic_and_day_order():
    text = csv_of(
        "2020-01-03T09:40:00,100.0\n"
        "2020-01-03T10:00:00,101.0\n"
        "2020-01-03T10:20:00,102.0\n"
        "2020-01-02T09:40:00,90.0\n"
        "2020-01-02T10:00:00,91.0\n"
        "2020-01-02T10:20:00,92.0\n"
    )
    s = ingest_csv(text, GRID3)
    assert s.dates == (date(2020, 1, 2), date(2020, 1, 3))
    assert s.log_prices[0, 0] == pytest.approx(math.log(90.0))
    assert s.log_prices[1, 2] == pytest.approx(math.log(102.0))


def test_ingest_missing_bar_kept_as_nan():
    text = csv_of("2020-01-02T09:40:00,100\n2020-01-02T10:20:00,101\n")
    s = ingest_csv(text, GRID3)
    assert np.isnan(s.log_prices[0, 1])
    assert not s.complete_mask.all()


@pytest.mark.parametrize(
    "rows, exc",
    [
        ("not-a-date,100\n", ParseError),
        ("2020-01-02T09:40:00,abc\n", ParseError),
        ("2020-01-02T09:40:00,-5\n", DataError),
        ("2020-01-02T09:40:00,0\n", DataError),
        ("2020-01-02T09:41:00,100\n", DataError),  # off grid
        ("2020-01-02T09:40:00,100\n2020-01-02T09:40:00,101\n", DataError),  # not increasing
    ],
)
def test_ingest_rejects_bad_rows(rows, exc):
    with pytest.raises(exc):
        ingest_csv(csv_of(rows), GRID3)


def test_ingest_rejects_hour_24_on_a_grid_opening_at_midnight():
    grid = DayGrid(open_time=time(0, 0), bar_minutes=60, n_points=3)
    with pytest.raises(ParseError, match="^line 2: bad timestamp"):
        ingest_csv(csv_of("2020-01-01T24:00:00,100\n"), grid)


def test_ingest_reports_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        ingest_csv(csv_of("2020-01-02T09:40:00,100\nbroken,1\n"), GRID3)


def test_ingest_bad_header():
    with pytest.raises(ParseError, match="header"):
        ingest_csv(io.StringIO("time,px\n2020-01-02T09:40:00,100\n"), GRID3)


def test_ingest_roundtrips_generated_increments(tmp_path):
    profile = ActivityProfile.flat(n_bars=19, overnight_mass=0.3)
    grid = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=20)
    series, _ = generate_seasonal(profile, GeneratorConfig(n_days=6, seed=42), grid)
    path = tmp_path / "prices.csv"
    write_prices_csv(series, path)
    back = ingest_csv(path, grid)
    np.testing.assert_allclose(
        np.diff(back.log_prices, axis=1), np.diff(series.log_prices, axis=1), atol=1e-12
    )


def _reference_ingest(text: str, grid: DayGrid) -> PriceSeries:
    """Row-at-a-time ingest, the parser ``ingest_csv`` replaced, as an oracle."""
    reader = csv.reader(io.StringIO(text))
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


# Faulty rows for the parity corpus; "{d}" is a trading date.
FAULTS = [
    "", "   ", ",", "{d}T09:40:00", "{d}T09:40:00,100,extra", "not-a-date,100",
    "{d}T25:00:00,100", "{d}T09:40:00+01:00,100", "{d}T09:40:00Z,100", "{d},100",
    "{d}T09:40:00,nan", "{d}T09:40:00,inf", "{d}T09:40:00,-inf", "{d}T09:40:00,0",
    "{d}T09:40:00,-3.5", "{d}T09:40:00,abc", "{d}T09:40:00,", "{d}T09:41:00,100",
    "{d}T09:40:30,100", "{d}T09:40:00.5,100", "{d}T09:20:00,100", "{d}T10:40:00,100",
    "{d}T23:59:00,100", " {d}T10:00:00 , 1e2 ", "1969-12-31T09:40:00,100",
    # the strict layout, naming a date or time that does not exist
    "2021-02-29T09:40:00,100", "1900-02-29T09:40:00,100", "2021-04-31T09:40:00,100",
    "2020-00-02T09:40:00,100", "2020-13-02T09:40:00,100", "2020-01-00T09:40:00,100",
    "2020-01-32T09:40:00,100", "0000-01-02T09:40:00,100", "{d}T24:00:00,100",
    "{d}T09:60:00,100", "{d}T09:40:60,100", "{d}T09:59:60,100",
    # the strict width with other separators or a letter, on a day of their own
    "2020/01-07T09:40:00,100", "2020-01/07T09:40:00,100", "2020-01-07T09.40:00,100",
    "2020-01-07T09:40.00,100", "2020-01-07T09:40:00;100", "2O20-01-07T09:40:00,100",
]

# Accepted layouts other than the strict YYYY-MM-DDTHH:MM:SS,<price>.
LAYOUTS = ["{d} {t},{p}", "{d}T{t:.5},{p}", '"{d}T{t}","{p}"', "{d}T{t},{p} "]


def _parity_corpus(rng: np.random.Generator) -> str:
    """Interleaved days on GRID3 with skipped bars, repeats and faulty rows.

    A few rows take a non-strict layout, a few end in CRLF, and some corpora
    end without a newline.  2000-02-29 is a leap day.
    """
    dates = ["2020-01-02", "2020-01-03", "2020-01-06", "1969-12-31", "2000-02-29"]
    next_bar = [0] * len(dates)
    rows = []
    for _ in range(int(rng.integers(1, 30))):
        k = int(rng.integers(len(dates)))
        d = dates[k]
        u = rng.random()
        if u < 0.04:
            rows.append(FAULTS[int(rng.integers(len(FAULTS)))].format(d=d))
            continue
        if u < 0.06 and next_bar[k] > 0:  # repeat or step back: out of order
            bar = int(rng.integers(next_bar[k]))
        else:
            bar = next_bar[k] + int(rng.random() < 0.2)  # sometimes skip a bar
            if bar >= GRID3.n_points:
                continue
            next_bar[k] = bar + 1
        price = float(rng.lognormal(4.6, 0.1))
        layout = "{d}T{t},{p}" if rng.random() < 0.97 else LAYOUTS[int(rng.integers(len(LAYOUTS)))]
        rows.append(layout.format(d=d, t=GRID3.bar_time(bar).isoformat(), p=repr(price)))
    text = "timestamp,price\n" + "".join(
        row + ("\r\n" if rng.random() < 0.02 else "\n") for row in rows
    )
    return text[:-1] if rng.random() < 0.1 else text


def _outcome(parse, text: str):
    try:
        s = parse(text)
    except (DataError, ParseError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return s.dates, s.log_prices.tobytes()


def _spy_fast_path(monkeypatch) -> dict[bool, int]:
    """Count the batches the strict-layout path decodes (True) and hands on (False)."""
    counts = {True: 0, False: 0}
    decode_strict = series_module._decode_strict

    def spy(lines):
        decoded = decode_strict(lines)
        counts[decoded is not None] += 1
        return decoded

    monkeypatch.setattr(series_module, "_decode_strict", spy)
    return counts


SOURCES = {"text": io.StringIO, "bytes": lambda t: io.BytesIO(t.encode())}


@pytest.mark.parametrize("chunk_rows", [3, series_module.INGEST_CHUNK_ROWS])
def test_ingest_matches_row_by_row_parser(monkeypatch, chunk_rows):
    """Same series bits, or the same error class, message and line.

    Three-row batches make errors and runs of one day cross batch edges.
    Text and byte sources both reach the strict-layout path.
    """
    monkeypatch.setattr(series_module, "INGEST_CHUNK_ROWS", chunk_rows)
    counts = _spy_fast_path(monkeypatch)
    rng = np.random.default_rng(2024)
    seen = {"ok": 0}
    for _ in range(1500):
        text = _parity_corpus(rng)
        expected = _outcome(lambda t: _reference_ingest(t, GRID3), text)
        for name, source in SOURCES.items():
            got = _outcome(lambda t: ingest_csv(source(t), GRID3), text)
            assert got == expected, (name, text)
        key = "ok" if isinstance(expected[0], tuple) else expected[1].split(": ", 1)[-1][:20]
        seen[key] = seen.get(key, 0) + 1
    # the corpus reaches clean parses and every kind of rejection
    assert seen["ok"] > 100
    assert len(seen) > 12
    # both paths ran
    assert counts[True] > 200 and counts[False] > 200

    # a clean strict corpus: every batch on the strict-layout path
    days = ["2000-02-28", "2000-02-29", "2000-03-01"] + [f"2020-01-{d:02d}" for d in range(2, 30)]
    clean = "timestamp,price\n" + "".join(
        f"{d}T{GRID3.bar_time(b).isoformat()},{100 + b}.25\n" for d in days for b in range(3)
    )
    expected = _outcome(lambda t: _reference_ingest(t, GRID3), clean)
    for name, source in SOURCES.items():
        counts.update({True: 0, False: 0})
        assert _outcome(lambda t: ingest_csv(source(t), GRID3), clean) == expected, name
        assert counts == {True: -(-3 * len(days) // chunk_rows), False: 0}, name


@pytest.mark.parametrize("chunk_rows", [3, series_module.INGEST_CHUNK_ROWS])
def test_ingest_reports_the_first_line_that_is_not_utf8(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(series_module, "INGEST_CHUNK_ROWS", chunk_rows)
    rows = [
        f"2020-01-0{d}T{GRID3.bar_time(b).isoformat()},10{b}\n".encode()
        for d in (2, 3, 6) for b in range(3)
    ]
    path = tmp_path / "prices.csv"
    for k, bad, message in [
        (0, b"timestamp,pr\xe9ce\n", "^line 1: not valid UTF-8$"),
        (6, b"2020-01-03T10:20:00,1\xe90\n", "^line 7: not valid UTF-8$"),
        (9, b"2020-01-06T10:20:00,102,\xff\n", "^line 10: not valid UTF-8$"),
    ]:
        lines = [b"timestamp,price\n"] + rows
        lines[k] = bad
        path.write_bytes(b"".join(lines))
        with pytest.raises(ParseError, match=message):
            ingest_csv(path, GRID3)
        assert cli.main(["ingest", "--input", str(path), "--out", str(tmp_path / "out"),
                         "--points", "3"]) == 2
        # an earlier malformed row is still reported first
        lines[2] = b"2020-01-02T10:00:00,abc\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(ParseError, match="^line 3: bad price" if k else message):
            ingest_csv(path, GRID3)


def test_ingest_accepts_one_leading_bom(tmp_path):
    body = "timestamp,price\n2020-01-02T09:40:00,100\n2020-01-02T10:00:00,101.5\n"
    plain = _outcome(lambda t: ingest_csv(io.StringIO(t), GRID3), body)
    path = tmp_path / "prices.csv"
    path.write_bytes(("\ufeff" + body).encode())
    assert _outcome(lambda t: ingest_csv(path, GRID3), body) == plain
    for name, source in SOURCES.items():
        assert _outcome(lambda t: ingest_csv(source(t), GRID3), "\ufeff" + body) == plain, name
        with pytest.raises(ParseError, match="^line 1: expected header"):
            ingest_csv(source("\ufeff\ufeff" + body), GRID3)
        with pytest.raises(ParseError, match="^line 4: bad timestamp"):
            ingest_csv(source(body + "\ufeff2020-01-02T10:20:00,102\n"), GRID3)


def test_written_csv_is_ingested_entirely_on_the_fast_path(tmp_path, monkeypatch):
    """``write_prices_csv``'s layout stays the one decoded by array operations."""
    monkeypatch.setattr(series_module, "INGEST_CHUNK_ROWS", 7)
    counts = _spy_fast_path(monkeypatch)
    general = []
    monkeypatch.setattr(series_module, "_place_chunk", lambda *args: general.append(args))
    s = _holed_series(tmp_path, n_days=9)  # missing bars, and a day dropped
    text = (tmp_path / "prices.csv").read_text()
    rows = text.count("\n") - 1
    assert rows == 9 * 20 - 8
    assert counts == {True: -(-rows // 7), False: 0} and not general
    want = filter_complete_days(_reference_ingest(text, s.grid), max_missing_bars=2)
    assert s.log_prices.tobytes() == want.log_prices.tobytes()


def test_ingest_blank_rows_count_toward_line_numbers(monkeypatch):
    monkeypatch.setattr(series_module, "INGEST_CHUNK_ROWS", 3)
    text = "timestamp,price\n\n2020-01-02T09:40:00,100\n\n  \n2020-01-02T09:40:00,101\n"
    with pytest.raises(DataError, match="^line 6: timestamps within 2020-01-02 not increasing$"):
        ingest_csv(io.StringIO(text), GRID3)
    with pytest.raises(DataError, match="^input holds no data rows$"):
        ingest_csv(io.StringIO("timestamp,price\n\n\n\n\n"), GRID3)
    # read from bytes, a lone CR ends a line too, as csv reads a file
    data = b"timestamp,price\n2020-01-02T09:40:00,100\r\r\n2020-01-02T10:00:00,101\n"
    data += b"2020-01-02T10:20:00,102\n2020-01-02T10:20:00,103\n"
    with pytest.raises(DataError, match="^line 6: timestamps within 2020-01-02 not increasing$"):
        ingest_csv(io.BytesIO(data), GRID3)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("last", ["2020-01-02T10:20:00,102", "2020-01-02T10:20:00,abc"])
def test_ingest_leaves_a_callers_byte_stream_open(newline, last):
    """LF input stays on the strict path; CRLF and errors reach the general one."""
    rows = ["timestamp,price", "2020-01-02T09:40:00,100", "2020-01-02T10:00:00,101", last]
    stream = io.BytesIO("".join(row + newline for row in rows).encode())
    try:
        ingest_csv(stream, GRID3)
    except ParseError:
        assert last.endswith("abc")
    else:
        assert not last.endswith("abc")
    gc.collect()  # a text wrapper left on the stream closes it when collected
    assert not stream.closed


@pytest.fixture
def split_every_file(monkeypatch) -> list[bool]:
    """Every file ingested from a path has its second half decoded by a
    forked helper; the list records, per file, whether a helper started."""
    monkeypatch.setattr(series_module, "INGEST_SPLIT_BYTES", 0)
    started = []
    start = series_module._SecondHalf.start

    def spy(source, path):
        helper = start(source, path)
        started.append(helper is not None)
        return helper

    monkeypatch.setattr(series_module._SecondHalf, "start", spy)
    return started


def test_ingest_split_with_a_helper_process_matches_the_row_by_row_parser(
        tmp_path, monkeypatch, split_every_file):
    """Errors in either half, or across the middle, are those of one process."""
    monkeypatch.setattr(series_module, "INGEST_CHUNK_ROWS", 3)
    rng = np.random.default_rng(808)
    path = tmp_path / "prices.csv"
    outcomes = set()
    for _ in range(150):
        text = _parity_corpus(rng)
        path.write_bytes(text.encode())
        expected = _outcome(lambda t: _reference_ingest(t, GRID3), text)
        assert _outcome(lambda t: ingest_csv(path, GRID3), text) == expected, text
        outcomes.add(isinstance(expected[0], tuple))
    assert outcomes == {True, False}
    assert sum(split_every_file) > 100


class _ExitingWith3:
    """``os`` for a helper that sends all its rows and then fails."""

    def __getattr__(self, name):
        return getattr(os, name)

    @staticmethod
    def _exit(status):
        os._exit(3)


def test_ingest_gives_the_same_series_whatever_the_helper_does(tmp_path, monkeypatch, split_every_file):
    s = _holed_series(tmp_path, n_days=40)
    path = tmp_path / "prices.csv"
    passes = []
    place_strict = series_module._place_strict
    monkeypatch.setattr(series_module, "_place_strict", lambda *a: passes.append(1) or place_strict(*a))
    whole = ingest_csv(path, s.grid)
    assert split_every_file == [True, True] and len(passes) == 1  # the helper's rows placed
    parent, decode = os.getpid(), series_module._decode_strict
    for fault in ("raise", "kill", "refuse", "exit"):
        def helper_decode(lines, fault=fault):
            if os.getpid() != parent and fault != "exit":
                if fault == "raise":
                    raise MemoryError
                if fault == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                return None
            return decode(lines)

        monkeypatch.setattr(series_module, "_decode_strict", helper_decode)
        if fault == "exit":
            monkeypatch.setattr(series_module, "os", _ExitingWith3())
        passes.clear()
        back = ingest_csv(path, s.grid)
        assert len(passes) == 2, fault  # this process decoded the second half too
        assert back.dates == whole.dates and back.log_prices.tobytes() == whole.log_prices.tobytes()
    monkeypatch.setattr(series_module, "os", os)
    assert split_every_file == [True] * 6
    monkeypatch.setattr(series_module, "INGEST_SPLIT_BYTES", 1 << 40)
    unsplit = ingest_csv(path, s.grid)
    assert split_every_file[-1] is False
    assert unsplit.log_prices.tobytes() == whole.log_prices.tobytes()
    # a stream handed in open is read in this process only
    with open(path, "rb") as fh:
        assert ingest_csv(fh, s.grid).log_prices.tobytes() == whole.log_prices.tobytes()
    assert len(split_every_file) == 7


# --- filtering -------------------------------------------------------------

def test_filter_drops_and_preserves_bits():
    m = np.arange(12.0).reshape(4, 3)
    m[2, 1] = np.nan
    s = series_from_matrix(m, grid=GRID3)
    f = filter_complete_days(s)
    assert f.n_days == 3
    assert f.dropped_dates == (s.dates[2],)
    kept = [0, 1, 3]
    assert np.array_equal(f.log_prices, s.log_prices[kept])
    # a series the filter leaves unchanged is returned as it is
    assert f is not s
    assert filter_complete_days(f) is f


def test_filter_tolerance():
    m = np.arange(12.0).reshape(4, 3)
    m[2, 1] = np.nan
    s = series_from_matrix(m, grid=GRID3)
    f = filter_complete_days(s, max_missing_bars=1)
    assert f.n_days == 4


def test_filter_everything_dropped_is_an_error():
    m = np.full((2, 3), np.nan)
    s = series_from_matrix(m, grid=GRID3)
    with pytest.raises(DataError):
        filter_complete_days(s)


# --- interval classes and returns ------------------------------------------

def test_intraday_returns_and_telescoping(default_grid, default_partition):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, default_grid.n_points)).cumsum(axis=1)
    s = series_from_matrix(m, grid=default_grid)
    p = default_partition
    first = raw_returns(s, IntervalClass.intraday(0, 1, p))
    second = raw_returns(s, IntervalClass.intraday(1, 2, p))
    union = raw_returns(s, IntervalClass.intraday(0, 2, p))
    np.testing.assert_allclose(first.values + second.values, union.values, atol=1e-12)
    assert first.n == 5


def test_overnight_skips_dropped_days(default_grid):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, default_grid.n_points)).cumsum(axis=1)
    s = series_from_matrix(m, grid=default_grid)
    # drop a middle day and rebuild: the pair straddling it must vanish
    holed = m.copy()
    holed[3, 5] = np.nan
    full = series_from_matrix(holed, grid=default_grid)
    filtered = filter_complete_days(full)
    r = raw_returns(filtered, IntervalClass.overnight())
    assert r.n == 3  # 4 adjacent pairs among the 5 retained days, one straddles the hole
    plain = raw_returns(s, IntervalClass.overnight())
    assert plain.n == 5


def test_overnight_weekend_gap_still_counts(default_grid):
    m = np.zeros((2, default_grid.n_points))
    s = PriceSeries(
        grid=default_grid,
        dates=(date(2020, 1, 3), date(2020, 1, 6)),  # Fri then Mon
        log_prices=m,
    )
    assert raw_returns(s, IntervalClass.overnight()).n == 1
    assert raw_returns(s, IntervalClass.overnight(nights=3)).n == 1
    with pytest.raises(DataError):
        raw_returns(s, IntervalClass.overnight(nights=1))


def test_multiday_nonoverlapping_default(default_grid):
    m = np.arange(7.0)[:, None] * np.ones((1, default_grid.n_points))
    s = series_from_matrix(m, grid=default_grid)
    r = raw_returns(s, IntervalClass.multiday(2))
    np.testing.assert_allclose(r.values, [2.0, 2.0, 2.0])


def test_multiday_skips_windows_spanning_dropped(default_grid):
    m = np.arange(5.0)[:, None] * np.ones((1, default_grid.n_points))
    m[2, 0] = np.nan
    s = filter_complete_days(series_from_matrix(m, grid=default_grid))
    r = raw_returns(s, IntervalClass.multiday(1))
    # retained days 0,1,3,4: pairs (0,1),(1,3)x,(3,4)
    assert r.n == 2


# Reference for the gap rule: the pairwise scan over retained days that
# raw_returns and the autocorrelation night slot used before it was vectorised.
def scan_windows(series, span, step, nights=None):
    out = []
    for i in range(0, series.n_days - span, step):
        d1, d2 = series.dates[i], series.dates[i + span]
        if nights is not None and (d2 - d1).days != nights:
            continue
        if any(d1 < d < d2 for d in series.dropped_dates):
            continue
        out.append(i)
    return out


def gappy_series(grid, seed):
    """Weekdays with random holidays, filtered twice with decreasing tolerance.

    Days missing three bars (second half) go in the first pass, days missing
    one bar (first half) in the second, so ``dropped_dates`` ends up out of
    order; a run of adjacent drops puts two sessions inside one closure.
    """
    rng = np.random.default_rng(seed)
    calendar = [d for d in synthetic_dates(80) if rng.random() > 0.1]
    m = rng.standard_normal((len(calendar), grid.n_points)).cumsum(axis=1)
    n = len(calendar)
    heavy = rng.choice(np.arange(n // 2, n - 1), size=4, replace=False)
    light = rng.choice(np.arange(1, n // 2 - 2), size=3, replace=False)
    for i in heavy:
        m[i, [2, 5, 7]] = np.nan
    for i in list(light) + [light[0] + 1]:
        m[i, 4] = np.nan
    raw = PriceSeries(grid=grid, dates=tuple(calendar), log_prices=m)
    filtered = filter_complete_days(filter_complete_days(raw, max_missing_bars=2))
    assert list(filtered.dropped_dates) != sorted(filtered.dropped_dates)
    return filtered


@pytest.mark.parametrize("seed", range(4))
def test_gap_rule_matches_pairwise_scan(default_grid, default_partition, seed):
    s = gappy_series(default_grid, seed)
    lp, close = s.log_prices, default_grid.close_index
    for span in (1, 2, 3):
        want = [
            sum(s.dates[i] < d < s.dates[i + span] for d in s.dropped_dates)
            for i in range(s.n_days - span)
        ]
        assert dropped_between(s, span).tolist() == want
        assert span > 1 or max(want) >= 2  # the adjacent light drops
    # and the calendar-day formula over datetime64 it replaced
    days = np.array(s.dates, dtype="datetime64[D]")
    gone = np.unique(np.array(s.dropped_dates, dtype="datetime64[D]"))
    for span in (1, 2, 5):
        formula = np.searchsorted(gone, days[span:]) - np.searchsorted(
            gone, days[:-span], side="right")
        assert dropped_between(s, span).tolist() == formula.tolist()

    # (class, start bar, end bar, span, step, nights)
    cases = [(IntervalClass.bars(3, 7), 3, 7, 0, 1, None)]
    cases += [(IntervalClass.overnight(nights=n), close, 0, 1, 1, n) for n in (None, 1, 3, 4)]
    cases += [(IntervalClass.multiday(n), 0, 0, n, n, None) for n in (1, 2, 3)]
    for iclass, start_bar, end_bar, span, step, nights in cases:
        starts = scan_windows(s, span, step, nights)
        want = [lp[i + span, end_bar] - lp[i, start_bar] for i in starts]
        if want:
            assert raw_returns(s, iclass).values.tolist() == want, iclass.label
        else:
            with pytest.raises(DataError):
                raw_returns(s, iclass)

    cal = calibration_from([0.03125] * default_partition.m_max + [0.40625])
    tmap = assemble_time_map(cal, default_partition, default_grid, dates=s)
    night = _magnitude_matrix(s, 0.0625, tmap)[:, -1]
    starts = scan_windows(s, 1, 1)
    assert np.flatnonzero(~np.isnan(night)).tolist() == starts
    kept = np.asarray([lp[i + 1, 0] - lp[i, close] for i in starts])
    kept -= kept.mean()
    np.testing.assert_allclose(
        night[starts], np.abs(kept) * math.sqrt(0.0625 / 0.40625), rtol=1e-12
    )


def loop_anchors(cal, partition, grid, s):
    """Time-map anchors one day and one boundary at a time, from datetimes."""
    epoch = datetime(1970, 1, 1)
    skipped = dropped_between(s)
    all_dates = s.dates + (next_weekday(s.dates[-1]),)
    day_index = np.arange(s.n_days) + np.concatenate([[0], np.cumsum(skipped)])
    bounds_tau = np.concatenate([[0.0], np.cumsum(cal.intraday_durations)])
    seconds, taus = [], []
    for l in range(s.n_days):
        start = (datetime.combine(all_dates[l], grid.open_time) - epoch).total_seconds()
        for m, b in enumerate(partition.boundaries):
            seconds.append(start + b * grid.bar_minutes * 60.0)
            taus.append(day_index[l] * cal.day_total + bounds_tau[m])
    seconds.append((datetime.combine(all_dates[-1], grid.open_time) - epoch).total_seconds())
    taus.append((day_index[-1] + 1) * cal.day_total)
    return np.asarray(seconds), np.asarray(taus)


@pytest.mark.parametrize("seed", range(3))
def test_time_map_anchors_match_the_day_by_day_loop(default_grid, default_partition, seed):
    s = gappy_series(default_grid, seed)
    rng = np.random.default_rng(seed)
    m_max = default_partition.m_max
    cal = calibration_from([*rng.uniform(0.01, 0.08, size=m_max), float(rng.uniform(0.1, 0.5))])
    tmap = assemble_time_map(cal, default_partition, default_grid, dates=s)
    seconds, taus = loop_anchors(cal, default_partition, default_grid, s)
    assert tmap.anchor_seconds.tobytes() == seconds.tobytes()
    assert tmap.anchor_tau.tobytes() == taus.tobytes()


def test_class_validation(default_partition):
    with pytest.raises(ClassSpecError):
        IntervalClass.intraday(2, 2, default_partition)
    with pytest.raises(ClassSpecError):
        IntervalClass.intraday(0, 99, default_partition)
    with pytest.raises(ClassSpecError):
        IntervalClass.multiday(0)
    with pytest.raises(ClassSpecError):
        IntervalClass.overnight(nights=0)


def test_returns_require_complete_days(default_grid, default_partition):
    m = np.zeros((2, default_grid.n_points))
    m[0, 1] = np.nan  # on a boundary the class actually reads
    s = series_from_matrix(m, grid=default_grid)
    with pytest.raises(DataError, match="filter_complete_days"):
        raw_returns(s, IntervalClass.intraday(0, 1, default_partition))
    m[0, 1] = 0.0
    m[1, 0] = np.nan  # the open that the overnight and 1-day windows read
    s = series_from_matrix(m, grid=default_grid)
    for c in (IntervalClass.overnight(), IntervalClass.multiday(1)):
        with pytest.raises(DataError, match="filter_complete_days"):
            raw_returns(s, c)


# Reference for ``class_samples``: the one-class sampler it replaced, which
# took each class's returns row by row and then detrended them.
def oracle_sample(series, iclass, detrended=True):
    grid, label = series.grid, iclass.label
    start_bar, end_bar, span = iclass.window(grid)
    if (bar := max(start_bar, end_bar)) > grid.close_index:
        raise ClassSpecError(f"class {label!r} needs bar {bar}, grid ends at {grid.close_index}")
    starts = np.arange(0, series.n_days - span, max(span, 1))
    if span:
        starts = starts[dropped_between(series, span)[starts] == 0]
    if iclass.nights is not None:
        days = day_numbers(series.dates)
        starts = starts[days[starts + span] - days[starts] == iclass.nights]
    values = series.log_prices[starts + span, end_bar] - series.log_prices[starts, start_bar]
    if np.isnan(values).any():
        raise DataError(f"class {label!r} touches missing bars; run filter_complete_days first")
    raw = ReturnSample(values=values, interval=iclass)
    if not detrended:
        return raw
    v = raw.values.copy()
    v -= v.mean(axis=0)
    v -= v.mean(axis=0)
    return ReturnSample(values=v, interval=iclass, detrended=True)


def oracle_outcome(classes, build):
    """The samples ``build(c)`` gives one class at a time, or the (type, message) of the
    first class that raises."""
    samples = []
    for c in classes:
        try:
            samples.append(build(c))
        except (ClassSpecError, DataError) as exc:
            return type(exc), str(exc)
    return samples


def assert_outcome(build, want):
    """``build()`` gives the samples of ``want`` bit for bit, or raises its error."""
    if isinstance(want, tuple):
        with pytest.raises(want[0]) as err:
            build()
        assert str(err.value) == want[1]
        return
    got = build()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.interval == w.interval and g.detrended == w.detrended
        assert g.values.dtype == np.float64 and g.values.ndim == 1
        assert not g.values.flags.writeable
        assert g.values.view(np.uint64).tolist() == w.values.view(np.uint64).tolist()


def fuzz_series(grid, n_days, rng, holes):
    """``n_days`` retained weekdays around random holidays and dropped sessions.

    Two sessions miss three bars and one misses one; ``holes`` keeps the
    last, so its NaN bar reaches the sampler.
    """
    size = n_days + (2 if holes else 3)
    calendar = [d for d in synthetic_dates(2 * size) if rng.random() > 0.2][:size]
    assert len(calendar) == size
    m = (rng.standard_normal((size, grid.n_points)) * 1e-3).cumsum(axis=1)
    m += rng.standard_normal((size, 1))  # a level per day, so means are far from 0
    heavy, heavy2, light = rng.choice(size, size=3, replace=False)
    for i in (heavy, heavy2):
        m[i, rng.choice(grid.n_points, size=3, replace=False)] = np.nan
    m[light, rng.integers(grid.n_points)] = np.nan
    raw = PriceSeries(grid=grid, dates=tuple(calendar), log_prices=m)
    series = filter_complete_days(raw, max_missing_bars=1 if holes else 0)
    assert series.n_days == n_days
    return series


def fuzz_classes(grid, partition, rng):
    pool = partition.intervals() + [
        IntervalClass.bars(0, grid.close_index, label="trading-day"),
        IntervalClass.bars(3, 7),
        IntervalClass.overnight(),
        *(IntervalClass.overnight(nights=n) for n in (1, 2, 3, 4)),
        *(IntervalClass.multiday(n) for n in (1, 2, 3, 5)),
    ]
    picks = rng.choice(len(pool), size=int(rng.integers(1, 12)))
    return [pool[i] for i in picks]  # repeats and any order


@pytest.mark.parametrize("n_days", [*range(1, 10), 127, 128, 129, 4999])
def test_class_samples_match_the_row_by_row_oracle_bit_for_bit(
    default_grid, default_partition, n_days
):
    rng = np.random.default_rng(n_days)
    for trial in range(6):
        series = fuzz_series(default_grid, n_days, rng, holes=trial % 3 == 2)
        classes = fuzz_classes(default_grid, default_partition, rng)
        assert_outcome(lambda: class_samples(series, classes),
                       oracle_outcome(classes, lambda c: oracle_sample(series, c)))
        for c in classes:  # the one-class calls take the same gather
            assert_outcome(lambda: [class_sample(series, c)],
                           oracle_outcome([c], lambda c: oracle_sample(series, c)))
            assert_outcome(lambda: [raw_returns(series, c)],
                           oracle_outcome([c], lambda c: oracle_sample(series, c, False)))


def test_class_samples_raise_the_first_fault_in_the_order_given(default_grid, default_partition):
    m = np.random.default_rng(5).standard_normal((6, default_grid.n_points)).cumsum(axis=1)
    m[2, 4] = np.nan  # read by bars 3..4 only
    s = series_from_matrix(m, grid=default_grid)
    good = IntervalClass.bars(0, 3)
    holed = IntervalClass.bars(3, 4)
    empty = IntervalClass.multiday(9)
    past = IntervalClass.bars(0, default_grid.close_index + 1)
    pooled = IntervalClass.sample("pooled")
    for order, first in (([good, holed, empty, past, pooled], holed),
                         ([empty, holed, pooled, past], empty),
                         ([past, pooled, holed], past),
                         ([pooled, good, empty], pooled),
                         ([good, empty, holed], empty)):
        want = oracle_outcome(order, lambda c: oracle_sample(s, c))
        assert want == oracle_outcome([first], lambda c: oracle_sample(s, c))
        assert_outcome(lambda: class_samples(s, order), want)
    assert class_samples(s, []) == []


# --- detrending ------------------------------------------------------------

def test_detrend_centres_and_is_idempotent():
    rng = np.random.default_rng(2)
    raw = ReturnSample(values=rng.standard_normal(500) + 3.0, interval=IntervalClass.sample("x"))
    d1 = detrend(raw)
    assert abs(d1.values.mean()) <= 1e-12 * d1.values.std()
    d2 = detrend(d1)
    np.testing.assert_allclose(d2.values, d1.values, atol=1e-15)


def test_detrend_constant_sample():
    raw = ReturnSample(values=np.full(7, 0.1), interval=IntervalClass.sample("c"))
    d = detrend(raw)
    assert (d.values == 0.0).all()


def test_detrended_tag_is_validated():
    with pytest.raises(DataError):
        ReturnSample(
            values=np.array([1.0, 2.0, 3.0]),
            interval=IntervalClass.sample("bad"),
            detrended=True,
        )


# --- partition -------------------------------------------------------------

def test_partition_equal_spacing(default_grid):
    p = PartitionSpec.equal_spacing(default_grid, interval_minutes=20)
    assert p.m_max == 19
    assert p.boundaries[0] == 0 and p.boundaries[-1] == default_grid.close_index
    assert p.interval_minutes(1) == 20


def test_partition_rejects_below_cutoff():
    g = DayGrid(open_time=time(9, 40), bar_minutes=5, n_points=77)
    with pytest.raises(ClassSpecError):
        PartitionSpec.equal_spacing(g, interval_minutes=10, min_interval_minutes=20)


def test_partition_rejects_bad_boundaries():
    with pytest.raises(ClassSpecError):
        PartitionSpec(boundaries=(1, 5), bar_minutes=20)
    with pytest.raises(ClassSpecError):
        PartitionSpec(boundaries=(0, 5, 5), bar_minutes=20)


def test_partition_grid_mismatch(default_grid):
    p = PartitionSpec(boundaries=(0, 5), bar_minutes=20)
    with pytest.raises(ClassSpecError):
        p.check_grid(default_grid)  # close boundary is not the session close


# --- cache -----------------------------------------------------------------

def test_cache_roundtrip_exact(tmp_path, default_grid):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, default_grid.n_points))
    m[1, 2] = np.nan
    s = series_from_matrix(m, grid=default_grid, dropped=(date(2019, 12, 31),))
    path = tmp_path / "cache.json"
    save_cache(s, path)
    back = load_cache(path)
    assert back.dates == s.dates
    assert back.dropped_dates == s.dropped_dates
    assert np.array_equal(back.log_prices, s.log_prices, equal_nan=True)
    # doubles survive bit for bit
    both = ~np.isnan(s.log_prices)
    assert (back.log_prices[both] == s.log_prices[both]).all()
    # the loaded series keeps the decoded payload itself, read-only
    assert not back.log_prices.flags.owndata
    assert not back.log_prices.flags.writeable
    # while the public constructor still copies what it is given
    again = PriceSeries(grid=back.grid, dates=back.dates, log_prices=back.log_prices)
    assert again.log_prices.flags.owndata
    assert not np.shares_memory(again.log_prices, back.log_prices)


def _holed_series(tmp_path, n_days: int) -> PriceSeries:
    """A CSV-ingested series with NaN holes kept by ``max_missing_bars > 0``."""
    grid = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=20)
    profile = ActivityProfile.flat(n_bars=19, overnight_mass=0.3)
    series, _ = generate_seasonal(profile, GeneratorConfig(n_days=n_days, seed=5), grid)
    lp = np.array(series.log_prices)
    lp[1, 4] = lp[3, 0] = lp[3, 19] = lp[n_days - 1, 7] = np.nan
    lp[2, 5:9] = np.nan  # beyond the tolerance: dropped
    path = tmp_path / "prices.csv"
    write_prices_csv(PriceSeries(grid=grid, dates=series.dates, log_prices=lp), path)
    return filter_complete_days(ingest_csv(path, grid), max_missing_bars=2)


def test_cache_keeps_nan_holes_bit_exact_and_saves_deterministically(tmp_path):
    s = _holed_series(tmp_path, n_days=9)
    assert np.isnan(s.log_prices).sum() == 4 and len(s.dropped_dates) == 1
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_cache(s, a)
    save_cache(s, b)
    assert a.read_bytes() == b.read_bytes()
    back = load_cache(a)
    assert back.grid == s.grid
    assert back.dates == s.dates
    assert back.dropped_dates == s.dropped_dates
    assert back.log_prices.tobytes() == s.log_prices.tobytes()
    payload = json.loads(a.read_text())
    assert payload["log_prices"]["shape"] == [8, 20]
    assert payload["log_prices"]["dtype"] == "<f8"
    assert payload["dates"] == [d.isoformat() for d in s.dates]


@pytest.mark.parametrize("block_rows", [3, 6])
def test_cache_blocks_concatenate_to_one_encoding(tmp_path, monkeypatch, block_rows):
    s = _holed_series(tmp_path, n_days=9)
    whole = tmp_path / "whole.json"
    save_cache(s, whole)
    monkeypatch.setattr(series_module, "CACHE_BLOCK_ROWS", block_rows)
    blocked = tmp_path / "blocked.json"
    save_cache(s, blocked)
    assert blocked.read_bytes() == whole.read_bytes()


def test_cache_refuses_old_and_damaged_files(tmp_path, default_grid):
    old = {
        "grid": {"open_time": "09:40", "bar_minutes": 20, "n_points": 3},
        "dropped_dates": [],
        "days": [{"date": "2020-01-02", "log_prices": [0.0, None, 1.0]}],
    }
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(old))
    with pytest.raises(DataError, match="re-run ingest"):
        load_cache(path)

    s = series_from_matrix(np.zeros((4, default_grid.n_points)), grid=default_grid)
    save_cache(s, path)
    good = json.loads(path.read_text())
    for damage, message in [
        (lambda p: p["log_prices"].update(base64=p["log_prices"]["base64"][:-8]), "bytes"),
        (lambda p: p["log_prices"].update(base64="@" + p["log_prices"]["base64"][1:]), "corrupt"),
        (lambda p: p["dates"].pop(), "does not match"),
        (lambda p: p["log_prices"].update(dtype=">f8"), "does not match"),
    ]:
        payload = json.loads(json.dumps(good))
        damage(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=message):
            load_cache(path)


def _payload_span(buf: bytes) -> tuple[int, int]:
    """Where the base64 text of a cache written by ``save_cache`` starts and ends."""
    lo = buf.index(b'"base64":"') + len(b'"base64":"')
    return lo, buf.index(b'"', lo)


@pytest.mark.parametrize("indent", [None, 2])
def test_cache_rewritten_with_other_json_spacing_loads_bit_for_bit(tmp_path, indent):
    s = _holed_series(tmp_path, n_days=9)
    path = tmp_path / "cache.json"
    save_cache(s, path)
    path.write_text(json.dumps(json.loads(path.read_text()), indent=indent))
    assert b'"base64": "' in path.read_bytes()
    back = load_cache(path)
    assert (back.grid, back.dates, back.dropped_dates) == (s.grid, s.dates, s.dropped_dates)
    assert back.log_prices.tobytes() == s.log_prices.tobytes()


@pytest.mark.parametrize("damage", [
    lambda p: p[:8] + b"\\u%04x" % p[8] + p[9:],  # the same character, escaped
    lambda p: p[:8] + b'\\"' + p[8:],
    lambda p: p[:8] + b"\\\\" + p[8:],
    lambda p: p[:8] + b"\xff" + p[9:],
    lambda p: p[:8] + b" " + p[9:],
    lambda p: p[:8] + b"=" + p[9:],
])
def test_cache_payload_with_an_escape_or_a_foreign_byte_is_corrupt(tmp_path, default_grid, damage):
    path = tmp_path / "cache.json"
    save_cache(series_from_matrix(np.ones((4, default_grid.n_points)), grid=default_grid), path)
    buf = path.read_bytes()
    lo, hi = _payload_span(buf)
    path.write_bytes(buf[:lo] + damage(buf[lo:hi]) + buf[hi:])
    with pytest.raises(DataError, match="corrupt matrix payload"):
        load_cache(path)


@pytest.mark.parametrize("tail", [b"x", b"{}", b"\n\n]"])
def test_cache_with_bytes_after_the_object_is_refused(tmp_path, default_grid, tail):
    path = tmp_path / "cache.json"
    save_cache(series_from_matrix(np.ones((4, default_grid.n_points)), grid=default_grid), path)
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(DataError, match="is not a JSON file") as got:
        load_cache(path)
    with pytest.raises(DataError) as whole:  # the message names the place in the whole file
        series_module.read_json(path)
    assert str(got.value) == str(whole.value)


def test_cache_whose_payload_never_closes_is_refused(tmp_path, default_grid):
    # the payload's last quote is escaped, so its string runs to the end of the file
    path = tmp_path / "cache.json"
    save_cache(series_from_matrix(np.ones((4, default_grid.n_points)), grid=default_grid), path)
    buf = path.read_bytes()
    lo, hi = _payload_span(buf)
    path.write_bytes(buf[:hi] + b"\\" + buf[hi:])
    with pytest.raises(DataError, match="is not a JSON file") as got:
        load_cache(path)
    with pytest.raises(DataError) as whole:
        series_module.read_json(path)
    assert str(got.value) == str(whole.value)


def test_cache_payload_never_reaches_json(tmp_path, monkeypatch):
    s = _holed_series(tmp_path, n_days=9)
    path = tmp_path / "cache.json"
    save_cache(s, path)
    buf = path.read_bytes()
    lo, hi = _payload_span(buf)
    parsed = []
    real = json.loads

    def spy(text, *args, **kwargs):
        parsed.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    monkeypatch.setattr(json, "load", None)  # nor is the file read whole as JSON
    back = load_cache(path)
    assert back.log_prices.tobytes() == s.log_prices.tobytes()
    assert len(parsed) == 1 and len(parsed[0]) == len(buf) - (hi - lo)
    assert buf[lo:hi].decode() not in parsed[0]


def test_load_series_dispatch(tmp_path, default_grid):
    m = np.zeros((2, default_grid.n_points))
    s = series_from_matrix(m, grid=default_grid)
    path = tmp_path / "cache.json"
    save_cache(s, path)
    assert load_series(path).n_days == 2
    with pytest.raises(DataError):
        load_series(tmp_path / "prices.csv")  # CSV without a grid
