"""Each output check accepts real outputs and rejects a tampered copy.

    PYTHONPATH=src python -m pytest perfbench/tests
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from fstclock.cli import main as cli_main  # noqa: E402

DAYS = 60


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A small synth -> calibrate -> analyze -> compare-clocks run."""
    d = tmp_path_factory.mktemp("chain")
    prices = str(d / "synth" / "prices.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["synth", "--out", str(d / "synth"), "--days", str(DAYS), "--seed", "3",
             "--points", "20", "--profile", "u-steps", "--steps", "19"],
            ["calibrate", "--input", prices, "--out", str(d / "cal"), "--points", "20"],
            ["analyze", "--input", prices, "--out", str(d / "an"), "--points", "20",
             "--clock", "fst", "--calibration", str(d / "cal" / "calibration.json")],
            ["compare-clocks", "--input", prices, "--out", str(d / "cmp"), "--points", "20"],
        ):
            assert cli_main(argv) == 0
    return d


def tampered(src: Path, tmp_path: Path, edit) -> Path:
    """A copy of a CSV with ``edit`` applied to its list of data rows."""
    with open(src, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    edit(header, rows)
    dst = tmp_path / src.name
    with open(dst, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return dst


def test_timemap_accepts_real_and_rejects_reordered_or_short(chain, tmp_path):
    path = chain / "cal" / "timemap.csv"
    checks.check_timemap(path, DAYS)

    def swap(header, rows):
        rows[5], rows[6] = rows[6], rows[5]

    with pytest.raises(CheckFailed, match="not increasing"):
        checks.check_timemap(tampered(path, tmp_path, swap), DAYS)
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_timemap(tampered(path, tmp_path, lambda h, rows: rows.pop()), DAYS)


def test_comparison_rejects_fitted_d_above_a_moment_d(chain, tmp_path):
    path = chain / "cmp" / "comparison.csv"
    checks.check_comparison(path)

    def worsen(header, rows):
        q2 = header.index("q2_D")
        rows[3][header.index("fst_D")] = repr(float(rows[3][q2]) + 1e-9)

    with pytest.raises(CheckFailed, match="above moment-clock D"):
        checks.check_comparison(tampered(path, tmp_path, worsen))


def test_profile_rejects_a_peak_above_the_bound(chain, tmp_path):
    path = chain / "an" / "profile.csv"
    peak = checks.profile_peak_to_mean(path)
    assert checks.check_profile(path, limit=peak) == peak

    def spike(header, rows):
        col = header.index("sigma")
        rows[0][col] = repr(float(rows[0][col]) * 3.0)

    with pytest.raises(CheckFailed, match="peak-to-mean"):
        checks.check_profile(tampered(path, tmp_path, spike), limit=peak)


@pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan"), float("inf")])
def test_durations_reject_non_positive_or_non_finite(chain, tmp_path, bad):
    checks.check_calibration(chain / "cal" / "calibration.json")
    payload = json.loads((chain / "cal" / "calibration.json").read_text())
    payload["delta_tau_intraday"][4] = bad
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckFailed, match="finite and positive"):
        checks.check_calibration(path)


def test_file_set_rejects_missing_and_extra_files(chain, tmp_path):
    checks.check_file_set(chain / "cal", "calibrate")
    copy = tmp_path / "cal"
    shutil.copytree(chain / "cal", copy)
    (copy / "stray.txt").write_text("x")
    with pytest.raises(CheckFailed):
        checks.check_file_set(copy, "calibrate")
    (copy / "stray.txt").unlink()
    (copy / "timemap.csv").unlink()
    with pytest.raises(CheckFailed):
        checks.check_file_set(copy, "calibrate")


def test_dropped_days_must_match_the_punched_count(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"dropped_dates": ["1990-01-03", "1990-02-07"]}))
    assert checks.check_dropped(path, 2) == 2
    with pytest.raises(CheckFailed, match="punched"):
        checks.check_dropped(path, 3)


def test_replay_check_rejects_one_changed_byte(chain, tmp_path):
    before = checks.snapshot(chain / "cal")
    checks.check_same_bytes(before, dict(before))
    after = dict(before)
    data = bytearray(after["cutoff.json"])
    data[-2] ^= 1
    after["cutoff.json"] = bytes(data)
    with pytest.raises(CheckFailed, match="cutoff.json"):
        checks.check_same_bytes(before, after)


def test_ops_count_every_exception_as_a_failed_check():
    ops = checks.Ops()
    assert ops.check("ok", lambda: 7) == 7
    assert ops.check("broken", lambda: {}["missing"]) is None
    ops.record(False, "command exited 2")
    assert (ops.attempted, ops.failed) == (3, 2)
    assert ops.failures[0].startswith("broken:")


def test_realism_pass_drops_exactly_the_punched_sessions():
    grid = workloads.fc_series.DayGrid(
        open_time=workloads.dtime(9, 40), bar_minutes=20, n_points=20)
    series, _ = workloads.fc_synth.generate_seasonal(
        workloads.fc_synth.ActivityProfile.flat(19),
        workloads.fc_synth.GeneratorConfig(n_days=3000, seed=4), grid)
    gappy, holidays, punched = workloads.add_gaps(series, np.random.default_rng(9))
    assert holidays > 0 and punched > 0
    assert gappy.n_days == series.n_days - holidays
    assert int((~gappy.complete_mask).sum()) == punched
    filtered = workloads.fc_series.filter_complete_days(gappy)
    assert len(filtered.dropped_dates) == punched
    # a holiday removes a session and its path: intraday moves are unchanged
    kept = [series.dates.index(d) for d in gappy.dates]
    intraday = gappy.log_prices - gappy.log_prices[:, :1]
    original = series.log_prices[kept] - series.log_prices[kept, :1]
    ok = gappy.complete_mask
    assert np.allclose(intraday[ok], original[ok])


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert workloads.tail([1.0, 2.0])["tail"] is None
    out = workloads.tail([float(x) for x in range(40)])
    assert out["samples"] == 40 and out["tail"] == 29.0 and out["tail_pct"] == 75.0
    assert sum(1 for x in range(40) if x > out["tail"]) == 10
