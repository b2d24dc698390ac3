"""End-to-end checks of the command-line front end.

Everything funnels through ``main(argv)`` in-process; the pipeline fixtures
build one small synthetic universe per session and the later stages feed on
the earlier stages' files, the same way a user would chain them.
"""
import json
import platform
from datetime import datetime, timedelta

import numpy as np
import pytest

import fstclock.cli as cli
from fstclock.clock import ClockCalibration, SearchConfig, assemble_time_map
from fstclock.cli import (
    _reference,
    build_parser,
    main,
    parse_class_spec,
    parse_class_specs,
    resolve_config,
)
from fstclock.errors import ClassSpecError
from fstclock.series import DayGrid, PartitionSpec

from datetime import time as dtime

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


def test_manifest_records_input_hashes(pipeline):
    manifest = json.loads((pipeline / "cal" / "manifest.json").read_text())
    assert manifest["tool"] == "fstclock"
    assert manifest["command"] == "calibrate"
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    (path, digest), = manifest["inputs"].items()
    assert path.endswith("cache.json")
    assert digest.startswith("sha256:") and len(digest) == 7 + 64


def test_calibration_file_roundtrips(pipeline):
    payload = json.loads((pipeline / "cal" / "calibration.json").read_text())
    assert payload["reference_class"] == "1-day"
    assert len(payload["delta_tau_intraday"]) == 19
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
    calibration = ClockCalibration(
        intraday_durations=np.array([0.1, 0.2, 0.3]),
        overnight_duration=0.4000000000000001,
        intraday_d=np.zeros(3),
        overnight_d=0.0,
        reference_label="1-day",
        search=SearchConfig(),
    )
    grid = DayGrid(open_time=dtime(9, 40), bar_minutes=20, n_points=7)
    partition = PartitionSpec(boundaries=(0, 2, 4, 6), bar_minutes=20)
    tmap = assemble_time_map(calibration, partition, grid, n_days=5)
    expected = ["l,m,t_iso,tau_fst"]
    for k, (s, tau) in enumerate(zip(tmap.anchor_seconds, tmap.anchor_tau)):
        t = datetime(1970, 1, 1) + timedelta(seconds=float(s))
        expected.append(f"{k // 4},{k % 4},{t.isoformat()},{float(tau)!r}")
    monkeypatch.setattr(cli, "TIMEMAP_BLOCK_DAYS", 2)  # blocks end mid-file
    path = tmp_path / "timemap.csv"
    cli._write_timemap(str(path), tmap)
    assert path.read_text() == "\n".join(expected) + "\n"


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


def test_config_file_merges_under_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"days": 15, "seed": 9, "points": 20}))
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg), "--out", str(out), "--seed", "11"]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["days"] == 15       # from the file
    assert resolved["seed"] == 11       # flag wins
    assert resolved["profile"] == "u-shape"  # default fills the rest


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
    assert "not a whole number of bars on a 20 min grid" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags,message", [
    ("calibrate", ["--tau-min", "0.5", "--tau-max", "0.1"], "need 0 < delta_tau_min < delta_tau_max"),
    ("calibrate", ["--bar-minutes", "0"], "bar_minutes must be positive"),
    ("analyze", ["--orders=-1"], "moment orders must be positive"),
])
def test_refused_values_end_in_one_error_line(pipeline, tmp_path, capsys, command, flags, message):
    code = main([command, "--input", str(pipeline / "synth" / "prices.csv"), "--points", "20",
                 "--out", str(tmp_path), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_manifest_for_other_command_is_refused(pipeline, tmp_path, capsys):
    code = main([
        "synth", "--config", str(pipeline / "cal" / "manifest.json"),
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert "calibrate" in capsys.readouterr().err


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
