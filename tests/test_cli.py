"""End-to-end checks of the command-line front end.

Everything funnels through ``main(argv)`` in-process; the pipeline fixtures
build one small synthetic universe per session and the later stages feed on
the earlier stages' files, the same way a user would chain them.
"""
import decimal
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest

import fstclock.cli as cli
from fstclock.clock import ClockCalibration, assemble_time_map
from fstclock.cli import (
    _reference,
    build_parser,
    main,
    parse_class_spec,
    parse_class_specs,
    resolve_config,
)
from fstclock.errors import ClassSpecError
from fstclock.series import DayGrid, PartitionSpec, PriceSeries, synthetic_dates

from datetime import time as dtime

from conftest import calibration_from, child_env

GRID = DayGrid(open_time=dtime(9, 40), bar_minutes=20, n_points=20)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> ingest -> calibrate, shared by the read-only tests below."""
    root = tmp_path_factory.mktemp("cli")
    synth = root / "synth"
    cache = root / "cache"
    cal = root / "cal"
    assert main([
        "synth", "--out", str(synth), "--days", "120", "--seed", "7",
        "--profile", "u-steps", "--steps", "19", "--points", "20",
    ]) == 0
    assert main([
        "ingest", "--input", str(synth / "prices.csv"), "--out", str(cache),
        "--points", "20",
    ]) == 0
    assert main([
        "calibrate", "--input", str(cache / "cache.json"), "--out", str(cal),
        "--skip-additivity",
    ]) == 0
    return root


def test_synth_writes_expected_files(pipeline):
    synth = pipeline / "synth"
    for name in ("prices.csv", "truth.json", "manifest.json", "resolved_config.json"):
        assert (synth / name).exists()
    truth = json.loads((synth / "truth.json").read_text())
    assert truth["kind"] == "seasonal"
    assert len(truth["bar_tau"]) == 19


def test_synth_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main([
            "synth", "--out", str(out), "--days", "30", "--seed", "3", "--points", "20",
        ]) == 0
    assert (a / "prices.csv").read_bytes() == (b / "prices.csv").read_bytes()
    assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()


def test_synth_multifractal_writes_the_cascade_truth_and_replays(tmp_path):
    first, second = tmp_path / "mf1", tmp_path / "mf2"
    argv = ["synth", "--mode", "multifractal", "--points", "9", "--depth", "3", "--bar-minutes", "20"]
    assert main([*argv, "--out", str(first)]) == 0
    truth = json.loads((first / "truth.json").read_text())
    assert (truth["kind"], truth["depth"]) == ("multifractal", 3)
    orders = (1.0, 2.0, 3.0, 4.0)
    assert truth["hurst_by_order"] == {str(q): cli.cascade_hurst(q, truth["lambda2"]) for q in orders}
    assert main(["synth", "--config", str(first / "manifest.json"), "--out", str(second)]) == 0
    for name in ("prices.csv", "truth.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_synth_flat_profile_gives_every_bar_one_duration(tmp_path):
    assert main(["synth", "--profile", "flat", "--days", "5", "--out", str(tmp_path)]) == 0
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert len(truth["bar_tau"]) == 19 and len(set(truth["bar_tau"])) == 1
    assert sum(truth["bar_tau"]) + truth["overnight_tau"] == pytest.approx(1.0)


def _tree_bytes(root):
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


def test_rerun_into_its_own_output_directory_is_byte_identical(tmp_path):
    # every writer unlinks the file it replaces and creates it anew
    chain = [
        ["synth", "--out", str(tmp_path / "synth"), "--days", "30", "--seed", "5", "--points", "20"],
        ["ingest", "--input", str(tmp_path / "synth" / "prices.csv"), "--out",
         str(tmp_path / "cache"), "--points", "20"],
        ["calibrate", "--input", str(tmp_path / "cache" / "cache.json"), "--out",
         str(tmp_path / "cal")],
        ["analyze", "--input", str(tmp_path / "cache" / "cache.json"), "--out",
         str(tmp_path / "an"), "--clock", "fst", "--calibration",
         str(tmp_path / "cal" / "calibration.json")],
    ]
    for argv in chain:
        assert main(argv) == 0
    first = _tree_bytes(tmp_path)
    for argv in chain:
        assert main(argv) == 0
    assert _tree_bytes(tmp_path) == first


def test_a_directory_at_an_output_path_ends_in_one_error_line(tmp_path, capsys):
    out = tmp_path / "synth"
    (out / "prices.csv").mkdir(parents=True)
    assert main(["synth", "--out", str(out), "--days", "2", "--points", "20"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 21] Is a directory: {str(out / 'prices.csv')!r}\n"


def test_a_directory_at_the_manifest_path_ends_in_one_error_line(pipeline, tmp_path, capsys):
    # before, main wrote the manifest outside its error handling: a traceback and exit 1
    out = tmp_path / "cal"
    (out / "manifest.json").mkdir(parents=True)
    argv = ["calibrate", "--input", str(pipeline / "cache" / "cache.json"), "--out", str(out),
            "--skip-additivity"]
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert err == f"error: [Errno 21] Is a directory: {str(out / 'manifest.json')!r}\n"
    # every file the failed run left is named, and nothing else
    written = sorted(f.name for f in out.iterdir() if f.is_file())
    assert written == ["calibration.json", "cutoff.json", "resolved_config.json", "timemap.csv"]
    assert sorted(stdout.splitlines()) == [f"wrote {out / name}" for name in written]


def _write_repeated_price_csv(path, seed: int) -> None:
    """A seeded 120-day prices CSV on a 10-minute grid whose 10:30 price is
    each day's 10:10 price, so the 20-minute returns from 10:10 are all 0."""
    grid = DayGrid(open_time=dtime(9, 40), bar_minutes=10, n_points=39)
    profile = cli.ActivityProfile.u_steps(grid.n_bars, grid.n_bars)
    series, _ = cli.generate_seasonal(profile, cli.GeneratorConfig(n_days=120, seed=seed), grid)
    log_prices = np.array(series.log_prices)
    log_prices[:, 5] = log_prices[:, 3]
    cli.write_prices_csv(PriceSeries(grid=grid, dates=series.dates, log_prices=log_prices), path)


def test_a_library_warning_is_a_warning_line_that_strict_counts(tmp_path, capsys):
    # before, calibrate let cutoff_check's warning reach stderr raw and exited 0 under --strict
    prices = tmp_path / "prices.csv"
    _write_repeated_price_csv(prices, seed=3)
    argv = ["calibrate", "--input", str(prices), "--out", str(tmp_path / "cal"),
            "--bar-minutes", "10", "--points", "39", "--strict"]
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == cli.STRICT_EXIT
    assert "warning: positions with zero variance skipped" in out.splitlines()
    assert err == "" and escaped == []


@pytest.mark.parametrize("command, flags, names", [
    ("synth", ["--days", "5", "--points", "20"], ["prices.csv", "truth.json"]),
    ("ingest", ["--input", "synth/prices.csv", "--points", "20"], ["cache.json"]),
    ("calibrate", ["--input", "cache/cache.json"],
     ["calibration.json", "timemap.csv", "cutoff.json", "additivity.csv"]),
    ("analyze", ["--input", "cache/cache.json", "--clock", "fst", "--calibration",
                 "cal/calibration.json"],
     ["moments.csv", "hurst.csv", "collapse.csv", "profile.csv", "autocorr.csv",
      "contiguous.json"]),
    ("compare-clocks", ["--input", "cache/cache.json"], ["comparison.csv"]),
    ("pairwise-d", ["--input", "cache/cache.json"], ["pairwise.csv"]),
])
def test_a_command_returns_its_outputs_and_writes_nothing(pipeline, tmp_path, command, flags, names):
    # main writes every output, so a refused run has written nothing
    flags = [str(pipeline / f) if f.endswith((".csv", ".json")) else f for f in flags]
    args = build_parser().parse_args([command, *flags, "--out", str(tmp_path)])
    cfg = resolve_config(args, command)
    series = cli._load_filtered(cfg, args) if "input" in cfg else None
    outputs, _ = cli.COMMANDS[command](cfg, series)
    assert os.listdir(tmp_path) == []
    assert [name for name, _ in outputs] == names


def test_an_over_long_csv_field_ends_in_one_error_line(tmp_path, capsys):
    # before, csv's field limit ended ingest in a traceback and exit 1
    path = tmp_path / "prices.csv"
    path.write_bytes(b"timestamp,price\r\n2020-01-02T09:40:00," + b"x" * 200_000 + b"\r\n")
    assert main(["ingest", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: field larger than field limit (131072)\n")


def test_synth_refuses_a_negative_seed_in_one_error_line(tmp_path, capsys):
    # before, numpy's "expected non-negative integer" came out without the flag
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--days", "2", "--points", "20", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be at least 0, not -1\n"
    assert not out.exists()


def test_synth_refuses_prices_beyond_the_doubles_in_one_error_line(tmp_path, monkeypatch, capsys):
    generate = cli.cli.generate_seasonal

    def overflowing(profile, gen, grid):
        series, truth = generate(profile, gen, grid)
        lp = np.array(series.log_prices)
        lp[1, 4] = 800.0  # exp overflows: before, the writer raised after 24 lines
        return type(series)(grid=grid, dates=series.dates, log_prices=lp), truth

    monkeypatch.setattr(cli, "generate_seasonal", overflowing)
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--days", "2", "--points", "20"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: log price 800\.0 on \S+ at 11:00:00 \(bar 4\) has no positive "
                        r"finite price\n", err), err
    assert os.listdir(out) == []


def test_manifest_records_input_hashes(pipeline):
    manifest = json.loads((pipeline / "cal" / "manifest.json").read_text())
    assert manifest["tool"] == "fstclock"
    assert manifest["command"] == "calibrate"
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    (path, digest), = manifest["inputs"].items()
    assert path.endswith("cache.json")
    assert digest.startswith("sha256:") and len(digest) == 7 + 64


def test_calibration_file_roundtrips(pipeline, tmp_path):
    payload = json.loads((pipeline / "cal" / "calibration.json").read_text())
    assert payload["reference_class"] == "1-day"
    assert len(payload["delta_tau_intraday"]) == 19
    # the file re-serialises to its own bytes through the records
    cal = ClockCalibration.from_json_dict(payload, PartitionSpec.equal_spacing(GRID, 20.0))
    cli._write_json(str(tmp_path / "again.json"), cal.to_json_dict())
    assert (tmp_path / "again.json").read_bytes() == (pipeline / "cal" / "calibration.json").read_bytes()
    # timemap covers every anchor of every day plus the terminal one
    lines = (pipeline / "cal" / "timemap.csv").read_text().splitlines()
    assert lines[0] == "l,m,t_iso,tau_fst"
    assert len(lines) == 1 + 120 * 20 + 1


def test_calibrate_from_csv_and_from_cache_writes_identical_files(pipeline, tmp_path):
    # punch bars out of three sessions so both routes drop the same days
    lines = (pipeline / "synth" / "prices.csv").read_text().splitlines(keepends=True)
    holed = tmp_path / "prices.csv"
    holed.write_text("".join(lines[:1] + [
        row for i, row in enumerate(lines[1:]) if i not in (45, 700, 701, 1999)
    ]))
    assert main(["ingest", "--input", str(holed), "--out", str(tmp_path / "cache"),
                 "--points", "20"]) == 0
    assert main(["calibrate", "--input", str(holed), "--out", str(tmp_path / "a"),
                 "--points", "20"]) == 0
    assert main(["calibrate", "--input", str(tmp_path / "cache" / "cache.json"),
                 "--out", str(tmp_path / "b")]) == 0
    assert len(json.loads((tmp_path / "cache" / "cache.json").read_text())["dropped_dates"]) == 3
    for name in ("calibration.json", "timemap.csv", "cutoff.json", "additivity.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_timemap_file_matches_row_by_row_formatting(tmp_path, monkeypatch):
    calibration = calibration_from([0.1, 0.2, 0.3, 0.4000000000000001])
    grid = DayGrid(open_time=dtime(9, 40), bar_minutes=20, n_points=7)
    partition = PartitionSpec(boundaries=(0, 2, 4, 6), bar_minutes=20)
    series = PriceSeries(grid, synthetic_dates(5), np.zeros((5, grid.n_points)))
    tmap = assemble_time_map(calibration, partition, series)
    expected = ["l,m,t_iso,tau_fst"]
    for k, (s, tau) in enumerate(zip(tmap.anchor_seconds, tmap.anchor_tau)):
        t = datetime(1970, 1, 1) + timedelta(seconds=float(s))
        expected.append(f"{k // 4},{k % 4},{t.isoformat()},{float(tau)!r}")
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 7)  # blocks end mid-file and mid-day
    path = tmp_path / "timemap.csv"
    cli._write_csv(str(path), ["l", "m", "t_iso", "tau_fst"], [*tmap.anchor_columns(), tmap.anchor_tau])
    assert path.read_text() == "\n".join(expected) + "\n"


# --- the CSV writer against the row-by-row writer it replaced -----------------

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv_rows(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _nans(bits: list[int], dtype) -> np.ndarray:
    """NaNs with the given payloads, which the writer must keep apart."""
    return np.array(bits, dtype=f"u{np.dtype(dtype).itemsize}").view(dtype)


def _typed_columns(seed: int, n_runs: int) -> dict:
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 6, n_runs)
    n = int(lengths.sum())
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 0.1 + 0.2, -1.5e-300]
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    k = min(n, len(special))
    floats[rng.choice(n, size=k, replace=False)] = special[:k]
    int64 = rng.integers(-2**62, 2**62, n)
    int64[: min(n, 1)] = 2**63 - 1
    labels = [f"class[{j}..{j + 1}]" for j in range(n_runs)]
    f32 = np.concatenate([np.float32([0.0, -0.0, np.inf, 1.1]),
                          _nans([0x7FC00000, 0x7FC00001, 0xFFC00000], np.float32)])
    f64 = np.concatenate([special, _nans([0x7FF8000000000001, 0xFFF8000000000000], np.float64)])
    return {
        "py_bool": [bool(b) for b in rng.integers(0, 2, n)],
        "np_bool": rng.integers(0, 2, n).astype(bool),
        "int32": rng.integers(-2**31, 2**31, n, dtype=np.int32),
        "int64": int64,
        "uint8": rng.integers(0, 256, n, dtype=np.uint8),
        "py_int": [int(v) for v in int64],
        "float32": rng.standard_normal(n).astype(np.float32),
        "float64": floats,
        "py_float": [float(v) for v in floats[::-1]],
        "np_float_list": list(floats),
        "datetime": (1_600_000_000 + np.sort(rng.integers(0, 10**8, n))).astype("datetime64[s]"),
        "label": [labels[j] for j in rng.integers(0, n_runs, n)],
        # runs of repeated values, as the analyze files hold them
        "const": ["fst"] * n,
        "label_runs": np.repeat(labels, lengths),
        "shared_label_runs": cli._repeated_text(labels, lengths),
        "float_runs": np.repeat(rng.choice(special, n_runs), lengths),
        "int_runs": np.repeat(rng.integers(-9, 9, n_runs), lengths),
        # few distinct values scattered over every block
        "float32_few": rng.choice(f32, n),
        "float64_few": rng.choice(f64, n),
        "uint16_few": rng.integers(0, 3, n, dtype=np.uint16),
    }


@pytest.mark.parametrize("block_rows", [1, 2, 3, cli.CSV_BLOCK_ROWS])
@pytest.mark.parametrize("seed,n_runs", [(0, 0), (1, 1), (2, 9), (3, 101), (4, 2000)])
def test_csv_writer_matches_row_by_row_writer(tmp_path, monkeypatch, block_rows, seed, n_runs):
    columns = _typed_columns(seed, n_runs)
    header = list(columns)
    want, got = tmp_path / "rows.csv", tmp_path / "columns.csv"
    _write_csv_rows(str(want), header, zip(*map(list, columns.values())))
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
    cli._write_csv(str(got), header, list(columns.values()))
    assert got.read_bytes() == want.read_bytes()
    assert len(got.read_text().splitlines()) == 1 + len(columns["float64"])


def test_csv_writer_formats_each_distinct_value_once(tmp_path, monkeypatch):
    # 9 bit patterns, 4 of them NaN and 2 of them zeros, over 3 blocks of rows
    values = np.concatenate([[0.0, -0.0, 0.1, 1e300, -np.inf],
                             _nans([0x7FF8000000000000, 0x7FF8000000000001,
                                    0xFFF8000000000000, 0x7FF0000000000001], np.float64)])
    column = np.random.default_rng(8).choice(values, 2 * cli.CSV_BLOCK_ROWS + 5)
    calls = []

    def spy(v):
        calls.append(v)
        return repr(v)

    monkeypatch.setattr(cli, "repr", spy, raising=False)
    got, want = tmp_path / "columns.csv", tmp_path / "rows.csv"
    cli._write_csv(str(got), ["x", "n"], [column, column.view(np.int64) % 7])
    assert len(calls) == len(values)
    _write_csv_rows(str(want), ["x", "n"], zip(column, column.view(np.int64) % 7))
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("block_rows", [1, 5, cli.CSV_BLOCK_ROWS])
def test_csv_writer_formats_each_day_and_time_of_day_once(tmp_path, monkeypatch, block_rows):
    rng = np.random.default_rng(11)
    # 300 days from before 1970 to past 9999, each at a few of 20 times of day
    days = np.sort(rng.choice(np.arange(-800_000, 3_000_000), 300, replace=False))
    times = rng.choice(86_400, 20, replace=False)
    stamps = (86_400 * rng.choice(days, 3000) + rng.choice(times, 3000)).astype("datetime64[s]")
    want = np.datetime_as_string(stamps, unit="s").tolist()
    real = np.datetime_as_string
    formatted = []

    def spy(a, *args, **kwargs):
        formatted.append(np.size(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "datetime_as_string", spy)
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), ["t"], [stamps])
    assert path.read_text().splitlines() == ["t", *want]
    if block_rows >= stamps.size:  # one block: each of 300 days and 20 times once
        assert sum(formatted) <= 320


def test_csv_writer_refuses_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="unequal length"):
        cli._write_csv(str(tmp_path / "x.csv"), ["a", "b"], [[1, 2], [0.5] * 3])


def test_every_csv_goes_through_the_writer(tmp_path, monkeypatch):
    written = []
    real = cli._write_csv

    def spy(path, header, columns):
        written.append(os.path.abspath(path))
        real(path, header, columns)

    monkeypatch.setattr(cli, "_write_csv", spy)
    synth, cache, cal = tmp_path / "synth", tmp_path / "cache", tmp_path / "cal"
    cache_json = str(cache / "cache.json")
    runs = [
        ["synth", "--out", str(synth), "--days", "120", "--seed", "5", "--profile", "u-steps",
         "--steps", "19", "--points", "20"],
        ["ingest", "--input", str(synth / "prices.csv"), "--out", str(cache), "--points", "20"],
        ["calibrate", "--input", cache_json, "--out", str(cal)],
        ["analyze", "--input", cache_json, "--out", str(tmp_path / "physical")],
        ["analyze", "--input", cache_json, "--out", str(tmp_path / "fst"), "--clock", "fst",
         "--calibration", str(cal / "calibration.json"), "--estimator", "ciclostationary"],
        ["compare-clocks", "--input", cache_json, "--out", str(tmp_path / "cmp"),
         "--classes", "first-interval,overnight"],
        ["pairwise-d", "--input", cache_json, "--out", str(tmp_path / "pw")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    csvs = {os.path.abspath(p) for p in tmp_path.rglob("*.csv")}
    assert {os.path.basename(p) for p in csvs} == {
        "prices.csv", "timemap.csv", "additivity.csv", "moments.csv", "hurst.csv",
        "collapse.csv", "profile.csv", "autocorr.csv", "comparison.csv", "pairwise.csv",
    }
    assert sorted(csvs - set(written)) == [str(synth / "prices.csv")]
    assert len(written) == len(set(written)) == len(csvs) - 1


def _loaded_modules(argv: list[str]) -> set[str]:
    """Run one command in a fresh interpreter; the modules it had loaded at the end."""
    script = (
        "import sys\n"
        "from fstclock.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(' '.join(sys.modules))\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=child_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_commands_never_import_numpy_ma(pipeline, tmp_path):
    # np.unique and np.median import numpy.ma on their first call (16-18 ms)
    cache = str(pipeline / "cache" / "cache.json")
    for argv in (
        ["calibrate", "--input", cache, "--out", str(tmp_path / "cal")],
        ["analyze", "--input", cache, "--out", str(tmp_path / "physical")],
        ["analyze", "--input", cache, "--out", str(tmp_path / "fst"), "--clock", "fst",
         "--calibration", str(pipeline / "cal" / "calibration.json")],
        ["compare-clocks", "--input", cache, "--out", str(tmp_path / "cmp")],
    ):
        assert "numpy.ma" not in _loaded_modules(argv), argv


def test_each_command_loads_only_its_modules(pipeline, tmp_path):
    cache = str(pipeline / "cache" / "cache.json")
    base = {"fstclock", "fstclock.cli", "fstclock.errors", "fstclock.series"}
    fits = base | {"fstclock.ks", "fstclock.clock"}
    for argv, modules in [
        (["synth", "--out", str(tmp_path / "synth"), "--days", "30", "--points", "20"],
         fits | {"fstclock.synthetic"}),
        (["ingest", "--input", str(pipeline / "synth" / "prices.csv"),
          "--out", str(tmp_path / "ingest"), "--points", "20"], base),
        (["calibrate", "--input", cache, "--out", str(tmp_path / "cal")],
         fits | {"fstclock.analysis"}),
        (["analyze", "--input", cache, "--out", str(tmp_path / "fst"), "--clock", "fst",
          "--calibration", str(pipeline / "cal" / "calibration.json")],
         fits | {"fstclock.analysis"}),
        (["compare-clocks", "--input", cache, "--out", str(tmp_path / "cmp")],
         fits | {"fstclock.momentclock"}),
    ]:
        loaded = {m for m in _loaded_modules(argv) if m.split(".")[0] == "fstclock"}
        assert loaded == modules, argv[0]


def test_importing_the_package_loads_no_submodule():
    code = "import sys, fstclock; print(sorted(m for m in sys.modules if 'fstclock.' in m))"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    # nor does the CLI load ``logging`` beyond what numpy loads (about 4 ms)
    code = ("import sys, numpy; before = set(sys.modules); import fstclock.cli; "
            "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'logging'))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_exported_name_resolves():
    import fstclock

    assert "__version__" in fstclock.__all__
    for name in set(fstclock.__all__) - {"__version__"}:
        value = getattr(fstclock, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(fstclock.__all__) <= set(dir(fstclock))
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        fstclock.nothing  # noqa: B018
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        cli.nothing  # noqa: B018


def _spy_on(monkeypatch, names) -> list[str]:
    """Wrap each of ``names`` on ``cli``; the list returned names each call, in order."""
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    return calls


def test_commands_call_what_is_set_on_the_module(pipeline, tmp_path, monkeypatch):
    calls = _spy_on(monkeypatch, ("calibrate_clock", "cutoff_check", "compare_clocks"))
    cache = str(pipeline / "cache" / "cache.json")
    assert main(["calibrate", "--input", cache, "--out", str(tmp_path / "cal"),
                 "--skip-additivity"]) == 0
    assert main(["compare-clocks", "--input", cache, "--out", str(tmp_path / "cmp")]) == 0
    assert calls == ["calibrate_clock", "cutoff_check", "compare_clocks"]


@pytest.mark.filterwarnings("ignore:'fstclock.cli' found in sys.modules:RuntimeWarning")
def test_module_run_in_a_fresh_namespace_resolves_its_names(pipeline, tmp_path, monkeypatch):
    # runpy.run_module, as `python -m cProfile -m fstclock.cli` uses it, runs
    # the module's code in a dict that no module in sys.modules owns
    import runpy

    out = tmp_path / "cmp"
    monkeypatch.setattr(sys, "argv", ["fstclock", "compare-clocks", "--input",
                                      str(pipeline / "cache" / "cache.json"), "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("fstclock.cli", run_name="__main__")
    assert exc.value.code == 0
    assert (out / "comparison.csv").exists()


def test_analyze_rerun_from_manifest_is_byte_identical(pipeline, tmp_path):
    first = tmp_path / "an1"
    second = tmp_path / "an2"
    base = [
        "--input", str(pipeline / "cache" / "cache.json"),
        "--clock", "fst", "--calibration", str(pipeline / "cal" / "calibration.json"),
    ]
    assert main(["analyze", "--out", str(first)] + base) == 0
    assert main(["analyze", "--config", str(first / "manifest.json"),
                 "--out", str(second)]) == 0
    for name in ("moments.csv", "hurst.csv", "collapse.csv", "profile.csv",
                 "autocorr.csv", "contiguous.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_manifest_without_environment_fields_replays(pipeline, tmp_path):
    # manifests written before the python and numpy fields still replay
    manifest = json.loads((pipeline / "cal" / "manifest.json").read_text())
    del manifest["python"], manifest["numpy"]
    old = tmp_path / "manifest.json"
    old.write_text(json.dumps(manifest))
    assert main(["calibrate", "--config", str(old), "--out", str(tmp_path / "cal")]) == 0
    for name in ("calibration.json", "timemap.csv"):
        assert (tmp_path / "cal" / name).read_bytes() == (pipeline / "cal" / name).read_bytes()


def test_analyze_fst_without_calibration_fails(pipeline, tmp_path, capsys):
    code = main([
        "analyze", "--input", str(pipeline / "cache" / "cache.json"),
        "--out", str(tmp_path), "--clock", "fst",
    ])
    assert code == 2
    assert "calibration" in capsys.readouterr().err


def test_strict_mode_exits_nonzero_on_boundary_warnings(pipeline, tmp_path, capsys):
    # a window this tight cannot contain the true durations, so every
    # interval pins to an edge and strict mode must refuse to exit clean
    code = main([
        "calibrate", "--input", str(pipeline / "cache" / "cache.json"),
        "--out", str(tmp_path), "--tau-min", "0.2", "--tau-max", "0.9",
        "--skip-additivity", "--strict",
    ])
    assert code == 3
    assert "the optimal cell touches the window edge for intraday[0..1]" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["calibrate", "analyze"])
def test_the_gate_warning_prints_the_magnitude_it_compared(pipeline, tmp_path, capsys, command):
    # the gate flags |value| > threshold; the pipeline's value is negative
    argv = [command, "--input", str(pipeline / "cache" / "cache.json"), "--cutoff-threshold", "0"]
    if command == "calibrate":
        argv.append("--skip-additivity")
    else:
        argv += ["--clock", "fst", "--calibration", str(pipeline / "cal" / "calibration.json")]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    gate_file = "cutoff.json" if command == "calibrate" else "contiguous.json"
    gate = json.loads((tmp_path / "a" / gate_file).read_text())
    assert gate["value"] < 0 and gate["violated"]
    want = f"warning: |contiguous correlation| {-gate['value']:.4f} exceeds 0 at 20 min"
    assert want in capsys.readouterr().out.splitlines()
    assert main([*argv, "--out", str(tmp_path / "b"), "--strict"]) == 3


def test_pairwise_distances_refuse_a_single_class(pipeline, tmp_path, capsys):
    argv = ["pairwise-d", "--input", str(pipeline / "cache" / "cache.json"), "--out", str(tmp_path)]
    assert main([*argv, "--classes", "overnight"]) == 2
    assert capsys.readouterr().err == "error: pairwise distances need at least two classes\n"


def test_pairwise_matrix_is_symmetric_with_zero_diagonal(pipeline, tmp_path):
    assert main([
        "pairwise-d", "--input", str(pipeline / "cache" / "cache.json"),
        "--out", str(tmp_path),
        "--classes", "first-interval,overnight,1-day",
    ]) == 0
    lines = (tmp_path / "pairwise.csv").read_text().splitlines()
    assert lines[0] == "class,intraday[0..1],overnight,1-day"
    cells = [row.split(",") for row in lines[1:]]
    n = len(cells)
    for i in range(n):
        assert float(cells[i][i + 1]) == 0.0
        for j in range(n):
            assert cells[i][j + 1] == cells[j][i + 1]


def test_compare_clocks_emits_dominance_columns(pipeline, tmp_path):
    assert main([
        "compare-clocks", "--input", str(pipeline / "cache" / "cache.json"),
        "--out", str(tmp_path), "--classes", "first-interval,overnight",
        "--orders", "1,2",
    ]) == 0
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert lines[0] == "class,fst_dtau,fst_D,q1_dtau,q1_D,q2_dtau,q2_D"
    for row in lines[1:]:
        cells = row.split(",")
        fst_d = float(cells[2])
        assert fst_d <= float(cells[4]) + 1e-12
        assert fst_d <= float(cells[6]) + 1e-12


def test_compare_clocks_reports_a_dominance_violation_once(pipeline, tmp_path, capsys):
    # a window this narrow leaves moment durations outside it, where they can win
    argv = ["compare-clocks", "--input", str(pipeline / "cache" / "cache.json"),
            "--out", str(tmp_path), "--tau-min", "0.5", "--tau-max", "0.6"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "beat the fitted duration" in line] == [
        "warning: a moment clock beat the fitted duration on the KS objective; "
        "its duration lies outside the search window"]
    assert main([*argv, "--strict"]) == 3


def test_config_file_merges_under_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"days": 15, "seed": 9, "points": 20}))
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg), "--out", str(out), "--seed", "11"]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["days"] == 15       # from the file
    assert resolved["seed"] == 11       # flag wins
    assert resolved["profile"] == "u-shape"  # default fills the rest


@pytest.mark.parametrize("command,config", [
    ("calibrate", {"skip_additivity": "false"}),
    ("calibrate", {"skip_additivity": 0}),
    ("calibrate", {"bar_minutes": 20.9}),
    ("calibrate", {"bar_minutes": 20.0}),
    ("calibrate", {"bar_minutes": True}),
    ("calibrate", {"bar_minutes": "20"}),
    ("calibrate", {"tau_min": False}),
    ("calibrate", {"tau_min": "1e-4"}),
    ("calibrate", {"reference": 1}),
    ("calibrate", {"input": None}),
    ("analyze", {"clock": "fts"}),
    ("calibrate", {"tau_min": 10**370}),  # no double holds it
])
def test_config_refuses_values_of_the_wrong_type(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--input", "prices.csv",
                 "--out", str(tmp_path / "out")]) == 2
    (key,) = config
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_float_option_takes_an_integer(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau_min": 1, "tau_max": 100, "skip_additivity": False}))
    args = build_parser().parse_args(["calibrate", "--config", str(cfg), "--input", "x"])
    resolved = resolve_config(args, "calibrate")
    assert resolved["tau_min"] == 1.0 and type(resolved["tau_min"]) is float
    assert resolved["tau_max"] == 100.0 and type(resolved["tau_max"]) is float
    assert resolved["skip_additivity"] is False


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dayz": 15}))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "dayz" in capsys.readouterr().err
    # manifests from before the exact search name its removed grid settings
    for command in ("calibrate", "compare-clocks"):
        old = tmp_path / f"{command}.json"
        old.write_text(json.dumps({"command": command, "config": {
            "tau_min": 1e-4, "tau_max": 1e2, "grid_points": 200, "refine_tol": 1e-3}}))
        assert main([command, "--config", str(old), "--out", str(tmp_path)]) == 2
        assert "['grid_points', 'refine_tol']" in capsys.readouterr().err
    # calibration has no worker count any more
    old = tmp_path / "threads.json"
    old.write_text(json.dumps({"command": "calibrate", "config": {"threads": 0}}))
    assert main(["calibrate", "--config", str(old), "--out", str(tmp_path)]) == 2
    assert "['threads']" in capsys.readouterr().err


def test_calibrate_has_no_threads_flag(pipeline, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--input", str(pipeline / "cache" / "cache.json"),
              "--out", str(tmp_path), "--threads", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("minutes", ["0", "-20", "50"])
def test_interval_minutes_must_be_whole_bars(pipeline, tmp_path, capsys, minutes):
    code = main(["calibrate", "--input", str(pipeline / "cache" / "cache.json"),
                 "--out", str(tmp_path), f"--interval-minutes={minutes}"])
    assert code == 2
    fault = "is not a" if float(minutes) > 0 else "must be a positive"
    assert f"{fault} whole number of bars on a 20 min grid" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [
    ("calibrate", "--interval-minutes=-40"),
    ("analyze", "--delta=-40"),
])
def test_a_negative_span_is_refused_for_its_sign(pipeline, tmp_path, capsys, command, flag):
    # -40 min is two whole bars: the fault is the sign, not a fraction of a bar
    code = main([command, "--input", str(pipeline / "cache" / "cache.json"),
                 "--out", str(tmp_path), flag])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: -40 min must be a positive whole number of bars on a 20 min grid\n")


@pytest.mark.parametrize("command,flags,message", [
    ("calibrate", ["--tau-min", "0.5", "--tau-max", "0.1"], "need 0 < delta_tau_min < delta_tau_max"),
    ("calibrate", ["--bar-minutes", "0"], "--bar-minutes must be at least 1, not 0"),
    ("analyze", ["--orders=-1"], "moment orders must be positive"),
    ("calibrate", ["--tau-max", "inf"], "need finite delta_tau_min and delta_tau_max"),
    ("calibrate", ["--cutoff-threshold", "nan"], "--cutoff-threshold must be finite, not nan"),
    ("analyze", ["--collapse-hurst", "nan"], "--collapse-hurst must be finite, not nan"),
    ("analyze", ["--delta=-inf"], "--delta must be finite, not -inf"),
    ("analyze", ["--orders", "nan"], "moment orders must be finite"),
    ("analyze", ["--orders", "1,inf"], "moment orders must be finite"),
    ("analyze", ["--profile-bins=-1"], "--profile-bins must be at least 0, not -1"),
    ("calibrate", ["--cutoff-threshold", "-1"], "--cutoff-threshold must be at least 0, not -1.0"),
    ("analyze", ["--cutoff-threshold=-1e-9"], "--cutoff-threshold must be at least 0, not -1e-09"),
    ("ingest", ["--max-missing=-1"], "--max-missing must be at least 0, not -1"),
    ("calibrate", ["--max-missing=-1"], "--max-missing must be at least 0, not -1"),
    ("analyze", ["--max-missing=-2"], "--max-missing must be at least 0, not -2"),
    ("compare-clocks", ["--max-missing=-1"], "--max-missing must be at least 0, not -1"),
    ("pairwise-d", ["--max-missing=-1"], "--max-missing must be at least 0, not -1"),
    ("synth", ["--days", "0"], "--days must be at least 1, not 0"),
    ("synth", ["--mode", "multifractal", "--depth", "0"], "--depth must be at least 1, not 0"),
    ("analyze", ["--orders", "1,x"], "--orders takes numbers, comma separated or a:b, not '1,x'"),
    ("analyze", ["--lags", "1,2.5"], "--lags takes whole numbers, comma separated or a:b, not '1,2.5'"),
    ("analyze", ["--lags", "0:3:1"], "--lags takes whole numbers, comma separated or a:b, not '0:3:1'"),
    ("analyze", ["--spans", "1,x"], "--spans takes whole numbers, comma separated or a:b, not '1,x'"),
    ("analyze", ["--multiday", "2,"], "--multiday takes whole numbers, comma separated or a:b, not '2,'"),
    ("compare-clocks", ["--orders", "1,y"], "--orders takes numbers, comma separated or a:b, not '1,y'"),
    ("synth", ["--points", "1"], "--points must be at least 2, not 1"),
    ("analyze", ["--collapse-bins", "2"], "--collapse-bins must be at least 3, not 2"),
    ("synth", ["--open", "25:00"], "cannot parse session open '25:00'"),
    ("ingest", ["--open", "9:60"], "cannot parse session open '9:60'"),
    *[(command, ["--points", "100"], "--open 09:40 --bar-minutes 20 --points 100 make no grid: "
       "session must close within the calendar day") for command in ("synth", "ingest", "calibrate")],
])
def test_refused_values_end_in_one_error_line(pipeline, tmp_path, capsys, command, flags, message):
    source = [] if command == "synth" else ["--input", str(pipeline / "synth" / "prices.csv")]
    code = main([command, *source, "--points", "20", "--out", str(tmp_path), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "resolved_config.json").exists()


@pytest.mark.parametrize("flags,message", [
    (["--delta", "1e-9"], "clock bins exceed the 19 bars of the day"),
    (["--delta=-0.05"], "a clock bin must last a positive duration, not -0.05"),
    (["--profile-bins", "100000"], "100000 clock bins exceed the 19 bars of the day"),
    (["--profile-bins", "20"], "20 clock bins exceed the 19 bars of the day"),
])
def test_clock_bins_are_bounded_in_one_error_line(pipeline, tmp_path, capsys, flags, message):
    code = main(["analyze", "--input", str(pipeline / "cache" / "cache.json"), "--out", str(tmp_path),
                 "--clock", "fst", "--calibration", str(pipeline / "cal" / "calibration.json"), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_a_list_in_a_config_is_refused_naming_its_flag(pipeline, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"orders": "1,x"}))
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg), "--input", str(pipeline / "cache" / "cache.json"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --orders takes numbers, comma separated or a:b, not '1,x'\n"
    assert os.listdir(out) == []


@pytest.mark.parametrize("command,classes,message", [
    ("compare-clocks", "20min,400min", "class '400min' needs bar 20, grid ends at 19"),
    ("pairwise-d", "400min,nothing", "cannot parse class spec 'nothing'"),
    ("pairwise-d", "20min,overnight,400min", "class '400min' needs bar 20, grid ends at 19"),
])
def test_pooled_classes_are_refused_in_one_error_line(pipeline, tmp_path, capsys, command, classes, message):
    code = main([command, "--input", str(pipeline / "cache" / "cache.json"), "--out", str(tmp_path),
                 "--classes", classes])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_hole_names_the_pooled_class(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "synth"), "--days", "30", "--points", "20"]) == 0
    prices = tmp_path / "synth" / "prices.csv"
    lines = prices.read_text().splitlines(keepends=True)
    prices.write_text("".join(lines[:3] + lines[4:]))  # the first day misses bar 2
    code = main(["pairwise-d", "--input", str(prices), "--points", "20", "--max-missing", "1",
                 "--out", str(tmp_path / "out"), "--classes", "60min,overnight,20min"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: class '20min' touches missing bars; run filter_complete_days first\n")


def test_config_refuses_non_finite_float_values(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoff_threshold": math.nan}))
    assert main(["calibrate", "--config", str(cfg), "--input", "prices.csv",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: --cutoff-threshold must be finite, not nan\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,key,value,message", [
    ("ingest", "max_missing", -1, "--max-missing must be at least 0, not -1"),
    ("calibrate", "cutoff_threshold", -0.5, "--cutoff-threshold must be at least 0, not -0.5"),
    ("analyze", "cutoff_threshold", -1, "--cutoff-threshold must be at least 0, not -1.0"),
    ("analyze", "max_missing", -3, "--max-missing must be at least 0, not -3"),
    ("synth", "days", 0, "--days must be at least 1, not 0"),
    ("synth", "depth", 0, "--depth must be at least 1, not 0"),
    ("analyze", "collapse_bins", 2, "--collapse-bins must be at least 3, not 2"),
    ("analyze", "profile_bins", -1, "--profile-bins must be at least 0, not -1"),
    ("calibrate", "bar_minutes", 0, "--bar-minutes must be at least 1, not 0"),
    ("synth", "points", 1, "--points must be at least 2, not 1"),
])
def test_config_refuses_negative_values(tmp_path, capsys, command, key, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    source = [] if command == "synth" else ["--input", "prices.csv"]
    assert main([command, "--config", str(cfg), *source, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_manifest_for_other_command_is_refused(pipeline, tmp_path, capsys):
    code = main([
        "synth", "--config", str(pipeline / "cal" / "manifest.json"),
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert "calibrate" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [5, [1, 2], "calibrate", {"command": "synth", "config": 5}])
def test_config_that_is_not_an_object_is_refused(tmp_path, capsys, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: the config is not a JSON object\n"
    assert not (tmp_path / "out").exists()


def test_cache_without_an_entry_is_refused(pipeline, tmp_path, capsys):
    payload = json.loads((pipeline / "cache" / "cache.json").read_text())
    del payload["dropped_dates"]
    cache = tmp_path / "cache.json"
    cache.write_text(json.dumps(payload))
    assert main(["calibrate", "--input", str(cache), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {cache}: the cache has no 'dropped_dates' entry; re-run ingest\n"
    )


def test_calibration_without_an_entry_is_refused(pipeline, tmp_path, capsys):
    payload = json.loads((pipeline / "cal" / "calibration.json").read_text())
    del payload["search_config"]
    cal = tmp_path / "calibration.json"
    cal.write_text(json.dumps(payload))
    code = main(["analyze", "--input", str(pipeline / "cache" / "cache.json"),
                 "--out", str(tmp_path / "out"), "--clock", "fst", "--calibration", str(cal)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {cal}: the calibration has no 'search_config' entry\n"
    )


@pytest.mark.parametrize("entry,value", [
    ("dates", 5),
    ("dates", {"2020-01-02": 1}),
    ("dropped_dates", ["not a date"]),
    ("grid", [1]),
    ("grid", {"open_time": 940, "bar_minutes": 20, "n_points": 20}),
    ("grid", {"open_time": "09:40", "bar_minutes": 0, "n_points": 20}),
    ("log_prices", 5),
    ("log_prices", {"dtype": "<f8", "shape": [120, 20], "base64": 5}),
])
def test_cache_with_a_malformed_entry_is_refused(pipeline, tmp_path, capsys, entry, value):
    payload = json.loads((pipeline / "cache" / "cache.json").read_text())
    payload[entry] = value
    cache = tmp_path / "cache.json"
    cache.write_text(json.dumps(payload))
    assert main(["calibrate", "--input", str(cache), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cache}: the cache's {entry!r} entry is malformed (")
    assert err.endswith("); re-run ingest\n") and err.count("\n") == 1


@pytest.mark.parametrize("entry,value,message", [
    (None, [1, 2], "the calibration is not a JSON object"),
    ("search_config", 5, "the calibration's 'search_config' entry is malformed ("),
    ("search_config", {"delta_tau_min": 1.0, "delta_tau_max": 0.5},
     "the calibration's 'search_config' entry is malformed ("),
    ("delta_tau_intraday", [], "the calibration's 'delta_tau_intraday' entry is malformed ("),
    ("delta_tau_intraday", [math.nan] * 19, "the calibration's 'delta_tau_intraday' entry is malformed ("),
    ("delta_tau_night", [1.0], "the calibration's 'delta_tau_night' entry is malformed ("),
    ("delta_tau_night", math.inf, "the calibration's 'delta_tau_night' entry is malformed (inf is not"),
    ("d_values", [], "the calibration's 'd_values' entry is malformed ("),
    ("d_values", [0.1], "the calibration's 'd_values' entry is malformed (1 values for 19 intervals"),
    ("d_values", [[0.1]], "the calibration's 'd_values' entry is malformed ("),
    ("reference_class", 5, "the calibration's 'reference_class' entry is malformed ("),
    ("boundary_warnings", "1-day", "the calibration's 'boundary_warnings' entry is malformed ("),
    ("delta_tau_cells", [[1]], "the calibration's 'delta_tau_cells' entry is malformed ("),
    ("delta_tau_cells", [[math.nan, 1.0]] * 20,
     "the calibration's 'delta_tau_cells' entry is malformed (cell [nan, 1.0] of 'intraday[0..1]'"),
    ("delta_tau_cells", [[0.5, 0.01]] * 20,
     "the calibration's 'delta_tau_cells' entry is malformed (cell [0.5, 0.01] of 'intraday[0..1]'"),
    ("delta_tau_cells", [[1e-4, 1e-3]] * 20,
     "the calibration's 'delta_tau_cells' entry is malformed (cell [0.0001, 0.001] of 'intraday[0..1]'"),
    ("delta_tau_cells", [[1e-5, 1e3]] * 20,
     "the calibration's 'delta_tau_cells' entry is malformed (cell [1e-05, 1000.0] of 'intraday[0..1]'"),
    ("delta_tau_cells", [[0.01, 0.5]] * 3,
     "the calibration's 'delta_tau_cells' entry is malformed (3 cells for 19 intervals and the night)"),
    ("boundary_warnings", ["overnight", "lunch"],
     "the calibration's 'boundary_warnings' entry is malformed ('lunch' names no class)"),
    ("boundary_warnings", ["overnight", "intraday[3..4]", "overnight"],
     "the calibration's 'boundary_warnings' entry is malformed "
     "(['overnight', 'intraday[3..4]', 'overnight'] does not name each class once, in class order)"),
    ("boundary_warnings", ["overnight", "intraday[3..4]"],
     "the calibration's 'boundary_warnings' entry is malformed (['overnight', 'intraday[3..4]'] does not"),
    ("boundary_warnings", ["intraday[3..4]"],
     "the calibration's 'delta_tau_cells' entry is malformed ('intraday[3..4]' is flagged, but its cell "
     "[0.04830646829170164, 0.052117860448466995] touches neither window edge)"),
])
def test_calibration_with_a_malformed_entry_is_refused(pipeline, tmp_path, capsys, entry, value, message):
    payload = json.loads((pipeline / "cal" / "calibration.json").read_text())
    if entry is None:
        payload = value
    else:
        payload[entry] = value
    cal = tmp_path / "calibration.json"
    cal.write_text(json.dumps(payload))
    code = main(["analyze", "--input", str(pipeline / "cache" / "cache.json"),
                 "--out", str(tmp_path / "out"), "--clock", "fst", "--calibration", str(cal)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cal}: {message}") and err.count("\n") == 1


def test_calibration_of_another_partition_is_refused(pipeline, tmp_path, capsys):
    code = main(["analyze", "--input", str(pipeline / "cache" / "cache.json"),
                 "--out", str(tmp_path), "--interval-minutes", "380", "--clock", "fst",
                 "--calibration", str(pipeline / "cal" / "calibration.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {pipeline / 'cal' / 'calibration.json'}: calibration has 19 intervals, partition 1\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("lags", ["10:0", "3:2"])
def test_backward_lag_range_is_refused(pipeline, tmp_path, capsys, lags):
    code = main(["analyze", "--input", str(pipeline / "cache" / "cache.json"),
                 "--out", str(tmp_path), f"--lags={lags}"])
    assert code == 2
    assert capsys.readouterr().err == f"error: range {lags!r} runs backwards\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("clock,slots", [("physical", 120 * 19), ("fst", 120 * 20)])
def test_a_lag_range_far_past_the_sequence_ends_in_one_warning(pipeline, tmp_path, capsys, clock, slots):
    # every lag of the range past the slot sequence is counted, none of them computed
    dropped = {"3000": {"physical": 721, "fst": 601}[clock], "100000000": 100_000_001 - slots}
    argv = ["analyze", "--input", str(pipeline / "cache" / "cache.json"), "--clock", clock,
            "--calibration", str(pipeline / "cal" / "calibration.json")]
    assert main([*argv, "--out", str(tmp_path / "near"), "--lags", f"0:{slots - 1}"]) == 0
    assert "past the" not in capsys.readouterr().out
    for last, count in dropped.items():
        assert main([*argv, "--out", str(tmp_path / last), "--lags", f"0:{last}"]) == 0
        past = [line for line in capsys.readouterr().out.splitlines() if "past the" in line]
        assert past == [f"warning: dropped {count} lag(s) past the {slots}-slot sequence, from lag {slots}"]
        assert (tmp_path / last / "autocorr.csv").read_bytes() == (tmp_path / "near" / "autocorr.csv").read_bytes()


def test_a_delta_inside_the_bin_count_slack_gives_every_clock_slot(pipeline, tmp_path, capsys):
    # trading_total / 19 rounded up at its 11th digit: 19 bins reach a hair
    # past the close, which the bin count admits; before, the map refused it
    cal = pipeline / "cal" / "calibration.json"
    total = float(np.sum(json.loads(cal.read_text())["delta_tau_intraday"]))
    delta = float(decimal.Context(prec=11, rounding=decimal.ROUND_CEILING).create_decimal(total / 19))
    assert 19 * delta > total
    code = main(["analyze", "--input", str(pipeline / "cache" / "cache.json"), "--out", str(tmp_path),
                 "--clock", "fst", "--calibration", str(cal), "--delta", repr(delta), "--lags", "0:3000"])
    assert code == 0
    past = [line for line in capsys.readouterr().out.splitlines() if "past the" in line]
    assert past == [f"warning: dropped 601 lag(s) past the {120 * 20}-slot sequence, from lag 2400"]


def test_a_one_interval_partition_records_the_gate_as_not_checked(pipeline, tmp_path, capsys):
    # before, two 380-min intervals not fitting in the session was an error
    argv = ["calibrate", "--input", str(pipeline / "cache" / "cache.json"), "--out", str(tmp_path),
            "--interval-minutes", "380", "--skip-additivity"]
    assert main(argv) == 0
    warns = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warning:")]
    assert warns == ["warning: contiguous correlation not checked: "
                     "two 380-min intervals do not fit in the session"]
    gate = json.loads((tmp_path / "cutoff.json").read_text())
    assert gate == {"dt_minutes": 380.0, "value": None, "threshold": 0.05, "violated": False}
    assert main([*argv, "--strict"]) == cli.STRICT_EXIT


def test_a_one_interval_partition_leaves_out_the_afternoon_row(pipeline, tmp_path, capsys):
    # before, its empty afternoon ended calibrate in an error that named no option
    argv = ["calibrate", "--input", str(pipeline / "cache" / "cache.json"), "--out", str(tmp_path),
            "--interval-minutes", "380"]
    assert main(argv) == 0
    warns = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warning:")]
    assert warns[0] == ("warning: additivity row '1-day vs morning+afternoon+night' left out: "
                        "a one-interval partition has no afternoon")
    rows = (tmp_path / "additivity.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["label", "trading-day vs intraday sum",
                                                   "2-day vs 2x1-day"]
    assert main([*argv, "--strict"]) == cli.STRICT_EXIT


@pytest.fixture(scope="module")
def minute_cache(tmp_path_factory):
    """A 30-day cache on the 1-minute, 381-point grid, off every grid default."""
    root = tmp_path_factory.mktemp("minute")
    assert main(["synth", "--out", str(root), "--days", "30", "--seed", "2",
                 "--bar-minutes", "1", "--points", "381"]) == 0
    assert main(["ingest", "--input", str(root / "prices.csv"), "--out", str(root),
                 "--bar-minutes", "1", "--points", "381"]) == 0
    return root / "cache.json"


@pytest.mark.parametrize("command, flags", [
    ("calibrate", ["--skip-additivity"]),
    ("analyze", []),
    ("compare-clocks", []),
    ("pairwise-d", []),
])
def test_a_cache_input_records_the_grid_of_the_cache(minute_cache, tmp_path, capsys, command, flags):
    # before, the run recorded the grid options, here the defaults 20 and 20,
    # and took a grid flag that differed from the cache without a word
    out = tmp_path / "out"
    argv = [command, "--input", str(minute_cache), "--out", str(out), *flags]
    assert main(argv) == 0
    grid = {"open": "09:40", "bar_minutes": 1, "points": 381}
    manifest = json.loads((out / "manifest.json").read_text())
    for config in (json.loads((out / "resolved_config.json").read_text()), manifest["config"]):
        assert {k: config[k] for k in grid} == grid
    first = _tree_bytes(out)
    # the manifest replays byte for byte, and so does one that records the defaults
    assert main([command, "--config", str(out / "manifest.json")]) == 0
    assert _tree_bytes(out) == first
    # grid values the cache replaces build no grid, not even one that cannot be built
    for points in (20, 100):
        manifest["config"].update(bar_minutes=20, points=points)
        (tmp_path / "old.json").write_text(json.dumps(manifest))
        assert main([command, "--config", str(tmp_path / "old.json")]) == 0
        assert _tree_bytes(out) == first
    # a grid flag must name the cache's grid
    assert main([*argv, "--open", "9:40", "--bar-minutes", "1", "--points", "381"]) == 0
    capsys.readouterr()
    assert main([*argv, "--bar-minutes", "5", "--points", "77"]) == 2
    assert capsys.readouterr().err == (
        f"error: --bar-minutes 5 differs from the grid of {minute_cache}, which has --bar-minutes 1\n")
    assert main([*argv, "--points", "100"]) == 2
    assert capsys.readouterr().err == (
        f"error: --points 100 differs from the grid of {minute_cache}, which has --points 381\n")
    assert main([*argv, "--open", "10:00"]) == 2
    assert capsys.readouterr().err.startswith("error: --open 10:00 differs from the grid of")


@pytest.fixture(scope="module")
def minute_calibration(minute_cache, tmp_path_factory):
    out = tmp_path_factory.mktemp("minute_cal")
    assert main(["calibrate", "--input", str(minute_cache), "--out", str(out), "--skip-additivity"]) == 0
    return out / "calibration.json"


@pytest.mark.parametrize("command, flags", [
    ("calibrate", []),
    ("analyze", ["--clock", "fst", "--calibration", "CAL"]),
    ("compare-clocks", []),
    ("pairwise-d", []),
])
def test_a_grid_flag_that_contradicts_the_cache_is_refused_before_any_work(
        minute_cache, minute_calibration, tmp_path, capsys, monkeypatch, command, flags):
    # before, the command computed every output and main refused the flag afterwards
    calls = _spy_on(monkeypatch, ("calibrate_clock", "span_union_samples", "compare_clocks", "ks_distance"))
    out = tmp_path / "out"
    flags = [str(minute_calibration) if f == "CAL" else f for f in flags]
    assert main([command, "--input", str(minute_cache), "--out", str(out), *flags, "--points", "100"]) == 2
    assert capsys.readouterr().err == (
        f"error: --points 100 differs from the grid of {minute_cache}, which has --points 381\n")
    assert calls == [] and os.listdir(out) == []


def test_a_contradicting_grid_flag_is_reported_before_a_bad_reference(minute_cache, tmp_path, capsys):
    # before, the command refused the reference first, since main checked the grid flags after it
    argv = ["calibrate", "--input", str(minute_cache), "--out", str(tmp_path),
            "--reference", "no-such-class", "--points", "100"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: --points 100 differs from the grid of {minute_cache}, which has --points 381\n")


def test_the_input_is_hashed_as_loaded(minute_cache, tmp_path, monkeypatch):
    # before, main hashed the inputs after the command had computed
    cache = tmp_path / "cache.json"
    cache.write_bytes(minute_cache.read_bytes())
    want = "sha256:" + hashlib.sha256(cache.read_bytes()).hexdigest()
    calibrate_clock = cli.calibrate_clock

    def appending(*args, **kwargs):
        with open(cache, "ab") as f:
            f.write(b" ")
        return calibrate_clock(*args, **kwargs)

    monkeypatch.setattr(cli, "calibrate_clock", appending)
    out = tmp_path / "out"
    assert main(["calibrate", "--input", str(cache), "--out", str(out), "--skip-additivity"]) == 0
    assert json.loads((out / "manifest.json").read_text())["inputs"] == {str(cache): want}


@pytest.mark.parametrize("damage", ["missing", "truncated"])
@pytest.mark.parametrize("flag", ["--input", "--calibration", "--config"])
def test_unreadable_input_file_ends_in_one_error_line(pipeline, tmp_path, capsys, flag, damage):
    bad = tmp_path / "in.json"
    if damage == "truncated":
        bad.write_text('{"log_prices": ')
    cache = str(pipeline / "cache" / "cache.json")
    argv = {
        "--input": ["calibrate", "--input", str(bad)],
        "--calibration": ["analyze", "--input", cache, "--clock", "fst", "--calibration", str(bad)],
        "--config": ["calibrate", "--config", str(bad)],
    }[flag]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and err.count("\n") == 1
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("command", ["ingest", "calibrate"])
@pytest.mark.parametrize("body,message", [
    ('{"log_prices": ', "line 1: expected header 'timestamp,price', got '{\"log_prices\": '"),
    ("timestamp,price\n2020-01-02T09:40:00,100\n2020-01-02T10:00:00,abc\n", "line 3: bad price 'abc'"),
    ("timestamp,price\n2020-01-02T09:40:00,-1\n", "line 2: non-positive price '-1'"),
    ("timestamp,price\n", "input holds no data rows"),
    ("", "line 1: empty input"),
])
def test_malformed_csv_input_names_the_file(tmp_path, capsys, command, body, message):
    bad = tmp_path / "t.csv"
    bad.write_text(body)
    out = tmp_path / "out"
    assert main([command, "--input", str(bad), "--out", str(out), "--points", "20"]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert os.listdir(out) == []


def test_missing_csv_input_ends_in_one_error_line(tmp_path, capsys):
    bad = tmp_path / "prices.csv"
    assert main(["ingest", "--input", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: {str(bad)!r}\n"


@pytest.mark.parametrize("flags", [
    ["--lags=-1,2"],
    ["--collapse-bins", "2"],
    ["--delta", "30"],
    ["--fit-lo", "100", "--fit-hi", "50"],
])
def test_refused_analyze_writes_nothing(pipeline, tmp_path, flags):
    code = main(["analyze", "--input", str(pipeline / "cache" / "cache.json"),
                 "--out", str(tmp_path), *flags])
    assert code == 2
    assert os.listdir(tmp_path) == []


def test_refused_calibrate_writes_nothing(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "synth"), "--days", "2", "--points", "20"]) == 0
    out = tmp_path / "cal"
    code = main(["calibrate", "--input", str(tmp_path / "synth" / "prices.csv"), "--points", "20",
                 "--out", str(out)])
    assert code == 2
    assert "class '2-day' produced no returns" in capsys.readouterr().err
    assert os.listdir(out) == []


# --- the parser ----------------------------------------------------------------

def _argv_setting_every_option(command: str) -> list[str]:
    argv = [command, "--config", "c.json", "--strict"]
    for o in cli.OPTIONS[command]:
        if o.typ is bool:
            argv.append(cli._flag(o.name))
        else:
            value = o.choices[-1] if o.choices else {int: "3", float: "0.5", str: "x"}[o.typ]
            argv += [cli._flag(o.name), value]
    return argv


@pytest.mark.parametrize("command", list(cli.OPTIONS))
def test_one_command_parser_parses_as_the_full_parser(command):
    for argv in ([command], _argv_setting_every_option(command)):
        assert build_parser(command).parse_args(argv) == build_parser().parse_args(argv)
    assert vars(build_parser().parse_args(_argv_setting_every_option(command))).keys() == {
        "command", "config", "strict", *(o.name for o in cli.OPTIONS[command])}


def _exit_text(parse, argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("command", list(cli.OPTIONS))
@pytest.mark.parametrize("tail", [["--help"], ["--threads", "1"], ["--points", "x"], ["extra"]])
def test_command_help_and_errors_read_as_the_full_parsers(command, tail, capsys):
    argv = [command, *tail]
    want = _exit_text(build_parser().parse_args, argv, capsys)
    assert _exit_text(main, argv, capsys) == want
    assert want[0] == (0 if tail == ["--help"] else 2)


@pytest.mark.parametrize("argv", [["--help"], [], ["bogus"], ["cal"]])
def test_top_level_help_and_errors_name_every_command(argv, capsys):
    code, out, err = _exit_text(main, argv, capsys)
    assert code == (0 if argv == ["--help"] else 2)
    assert "{" + ",".join(cli.OPTIONS) + "}" in out + err
    if argv == ["--help"]:
        for command in cli.OPTIONS:  # one line per command, then its help
            assert re.search(rf"^    {command}\s", out, re.M), command
    assert (code, out, err) == _exit_text(build_parser().parse_args, argv, capsys)


def test_main_builds_one_parser_per_command_and_reuses_it(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or build_parser(command))
    cli._parser.cache_clear()
    try:
        for argv in (["analyze", "--points", "x"], ["bogus"], ["analyze", "--help"]):
            texts = {_exit_text(main, argv, capsys) for _ in range(3)}
            assert texts == {_exit_text(build_parser().parse_args, argv, capsys)}, argv
    finally:
        cli._parser.cache_clear()
    assert built == ["analyze", None]
    assert build_parser("analyze") is not build_parser("analyze")


# --- class DSL ---------------------------------------------------------------

PARTITION = PartitionSpec.equal_spacing(GRID, 20.0)


@pytest.mark.parametrize(
    "spec,label",
    [
        ("intraday:0:2", "intraday[0..2]"),
        ("bars:3:5", "bars[3..5]"),
        ("overnight", "overnight"),
        ("overnight:3", "overnight[3n]"),
        ("multiday:2", "2-day"),
        ("5-day", "5-day"),
        ("morning", "morning"),
        ("afternoon", "afternoon"),
        ("trading-day", "trading-day"),
        ("first-interval", "intraday[0..1]"),
        ("60min", "60min"),
    ],
)
def test_class_dsl_labels(spec, label):
    (got,) = parse_class_spec(spec, PARTITION, GRID)
    assert got.label == label


def test_class_dsl_intervals_expands_to_every_interval():
    out = parse_class_spec("intervals", PARTITION, GRID)
    assert len(out) == PARTITION.m_max
    assert out[0].label == "intraday[0..1]"
    assert out[-1].label == f"intraday[{PARTITION.m_max - 1}..{PARTITION.m_max}]"


@pytest.mark.parametrize("bad", ["nonsense", "intraday:2", "7min", "0min", "50min", "0-day"])
def test_class_dsl_rejects_malformed_specs(bad):
    with pytest.raises(ClassSpecError):
        parse_class_spec(bad, PARTITION, GRID)


def test_class_dsl_comma_list():
    out = parse_class_specs("first-interval,overnight,2-day", PARTITION, GRID)
    assert [c.label for c in out] == ["intraday[0..1]", "overnight", "2-day"]


def test_class_dsl_pooled_token_carries_its_window():
    (c,) = parse_class_spec("60min", PARTITION, GRID)
    assert (c.kind, c.bar_start, c.bar_end) == ("sample", 0, 3)


@pytest.mark.parametrize("spec", ["1-day", "overnight", "intraday:0:2", "trading-day"])
def test_reference_is_one_parsed_class(spec):
    (want,) = parse_class_spec(spec, PARTITION, GRID)
    assert _reference(spec, PARTITION, GRID) == want


@pytest.mark.parametrize("bad", ["intervals", "60min", "nonsense"])
def test_reference_rejects_lists_and_pooled_tokens(bad):
    with pytest.raises(ClassSpecError):
        _reference(bad, PARTITION, GRID)


def test_resolve_config_requires_input():
    args = build_parser().parse_args(["ingest", "--out", "."])
    with pytest.raises(ClassSpecError, match="--input"):
        resolve_config(args, "ingest")
