"""The tracing wrappers are transparent and their spans add up.

    PYTHONPATH=src python -m pytest perfbench/tests
"""
from __future__ import annotations

import contextlib
import importlib
import io
import sys
from datetime import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import fstclock.clock as fc_clock  # noqa: E402
import tracing  # noqa: E402
from fstclock import DayGrid, GeneratorConfig, PartitionSpec  # noqa: E402
from fstclock.cli import main as cli_main  # noqa: E402
from fstclock.synthetic import ActivityProfile, generate_seasonal  # noqa: E402
from tracing import Tracer, summarize, traced_main  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def small_series(days=300, seed=2):
    grid = DayGrid(open_time=time(9, 40), bar_minutes=20, n_points=20)
    series, _ = generate_seasonal(
        ActivityProfile.u_steps(19, 19), GeneratorConfig(n_days=days, seed=seed), grid)
    return series, PartitionSpec.equal_spacing(grid, 20.0)


def chain_argv(d: Path):
    prices = str(d / "synth" / "prices.csv")
    cache = str(d / "ingest" / "cache.json")
    return [
        (["synth", "--out", str(d / "synth"), "--days", "50", "--seed", "5", "--points", "20",
          "--profile", "u-steps", "--steps", "19"], d / "synth"),
        (["ingest", "--input", prices, "--out", str(d / "ingest"), "--points", "20"],
         d / "ingest"),
        (["calibrate", "--input", cache, "--out", str(d / "cal")], d / "cal"),
        (["analyze", "--input", cache, "--out", str(d / "an"), "--clock", "fst",
          "--calibration", str(d / "cal" / "calibration.json")], d / "an"),
        (["compare-clocks", "--input", cache, "--out", str(d / "cmp")], d / "cmp"),
    ]


def test_traced_outputs_hash_identically_to_untraced(tmp_path):
    d = tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        for argv, _ in chain_argv(d):
            assert cli_main(argv) == 0
        untraced = checks.snapshot(d)
        t = Tracer()
        t.install()
        try:
            for argv, out in chain_argv(d):
                assert traced_main(t, argv, out) == 0
        finally:
            t.uninstall()
    assert checks.snapshot(d) == untraced
    names = {s["name"] for s in t.spans}
    assert {"cli.synth", "cli.ingest", "cli.calibrate", "cli.analyze", "cli.compare-clocks",
            "series.ingest_csv", "series.load_cache", "clock.calibrate_interval",
            "ks.rescaled_ks", "momentclock.moment_time"} <= names
    m = summarize(t.spans)
    assert m["series.load_cache.calls"] == 3
    assert m["cli.calibrate.bytes_written"] == sum(
        p.stat().st_size for p in (d / "cal").iterdir())
    assert all(m[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)


def test_wrappers_return_the_same_object_and_uninstall_restores():
    originals = {(mod, attr): getattr(importlib.import_module(mod), attr)
                 for mod, attr in tracing.TARGETS}
    series, partition = small_series()
    plain = fc_clock.calibrate_clock(series, partition, threads=1)
    t = Tracer()
    t.install()
    try:
        assert fc_clock.calibrate_interval is not originals[("fstclock.clock",
                                                             "calibrate_interval")]
        traced = fc_clock.calibrate_clock(series, partition, threads=1)
        sentinel = object()
        wrapped = t.wrap(lambda: sentinel)
        assert wrapped() is sentinel
    finally:
        t.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn
    assert np.array_equal(plain.intraday_durations, traced.intraday_durations)
    assert plain.overnight_duration == traced.overnight_duration
    assert np.array_equal(plain.intraday_d, traced.intraday_d)


def test_pool_spans_are_children_of_calibrate_clock(tracer):
    series, partition = small_series()
    cal = fc_clock.calibrate_clock(series, partition, threads=3)
    (clock_span,) = [s for s in tracer.spans if s["name"] == "clock.calibrate_clock"]
    pooled = [s for s in tracer.spans if s["name"] == "clock.calibrate_interval"]
    assert len(pooled) == partition.m_max + 1
    assert all(s["parent"] == clock_span["id"] for s in pooled)
    assert all(clock_span["start"] <= s["start"] <= s["end"] <= clock_span["end"]
               for s in pooled)
    m = summarize(tracer.spans)
    assert 1 <= m["clock.pool_workers"] <= 3
    assert 0 < m["clock.calibrate_clock.parallel_eff"]
    assert m["clock.calibrate_interval.calls"] == partition.m_max + 1
    assert m["clock.boundary_warnings"] == len(cal.boundary_warnings)


def test_evals_count_is_exact_and_repeats():
    series, partition = small_series()
    expected = sum(
        fc_clock.calibrate_interval(
            fc_clock.class_sample(series, c),
            fc_clock.class_sample(series, fc_clock.IntervalClass.multiday(1))).n_evaluations
        for c in [fc_clock.IntervalClass.intraday(m - 1, m, partition)
                  for m in range(1, partition.m_max + 1)] + [fc_clock.IntervalClass.overnight()]
    )
    counts = []
    for _ in range(2):
        t = Tracer()
        t.install()
        try:
            fc_clock.calibrate_clock(series, partition, threads=2)
        finally:
            t.uninstall()
        counts.append(summarize(t.spans)["clock.calibrate_interval.evals"])
    assert counts == [expected, expected]


def test_a_function_reentering_through_its_wrapper_is_one_span(tracer, tmp_path):
    import fstclock.series as fc_series

    series, _ = small_series(days=5)
    path = tmp_path / "prices.csv"
    with open(path, "w") as fh:
        fh.write("timestamp,price\n")
        for d, row in zip(series.dates, series.log_prices):
            for b, z in enumerate(row):
                fh.write(f"{d.isoformat()}T{series.grid.bar_time(b).isoformat()},"
                         f"{float(np.exp(z))!r}\n")
    loaded = fc_series.ingest_csv(path, series.grid)
    assert [s["name"] for s in tracer.spans] == ["series.ingest_csv"]
    assert tracer.spans[0]["rows"] == 5 * 20
    assert loaded.n_days == 5


def test_errors_are_counted_and_reraised(tracer):
    import fstclock.momentclock as fc_moment

    with pytest.raises(ValueError):
        fc_moment.rescaled_ks([1.0, 2.0], [1.0, 3.0], -1.0)
    assert summarize(tracer.spans)["ks.errors"] == 1
