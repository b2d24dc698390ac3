"""Command-line front end: reproducible, config-driven, machine-first.

Every run materializes its full configuration, loads its series once, hashes
its inputs as loaded, computes its outputs from the config and the series,
and writes them with a manifest next to them; running again from the same
manifest must reproduce every file byte for byte.  Floats are printed with
``repr`` so the round-trip through text is lossless.  Human-readable summary
lines on stdout are derived from the written files, never the other way around.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import re
import sys
import warnings
from collections.abc import Callable, Sequence
from datetime import time as dtime
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ClassSpecError, DataError, FstError
from .series import (
    DayGrid,
    IntervalClass,
    PartitionSpec,
    class_samples,
    distinct,
    filter_complete_days,
    load_series,
    open_new,
    parse_class_spec,
    parse_class_specs,
    read_json,
    save_cache,
)


def __getattr__(name: str):
    """A package name this module has not used yet, imported now (PEP 562)."""
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


class _Names:
    """This module's names as attributes, each package name imported on first use.

    The commands call every name from outside ``series`` and ``errors``
    through ``cli`` (``cli.calibrate_clock``): each command loads only the
    modules it runs, and a wrapper set on this module with ``setattr`` is
    the function that runs.
    """

    def __getattr__(self, name: str):
        return globals()[name] if name in globals() else __getattr__(name)


cli = _Names()


STRICT_EXIT = 3
# Rows formatted per write to a CSV file.
CSV_BLOCK_ROWS = 4096


# ---------------------------------------------------------------------------
# Deterministic file plumbing

def _write_json(path: str, payload) -> None:
    with open_new(path) as f:
        f.write(json.dumps(payload, indent=2) + "\n")


def _str_cells(a: np.ndarray) -> list[str]:
    return list(map(str, a.tolist()))


def _iso_seconds(a: np.ndarray) -> list[str]:
    """ISO seconds of ``datetime64`` values.  Each distinct day and each
    distinct time of day is formatted once, and the two are joined by ``T``."""
    assert a.dtype == "datetime64[s]", a.dtype
    days = a.astype("datetime64[D]")
    (day, day_of), (tod, tod_of) = distinct(days), distinct(a - days)
    times = [t[11:] for t in np.datetime_as_string(np.datetime64(0, "s") + tod).tolist()]
    dates = _indexed_text(np.datetime_as_string(day).tolist())(day_of)
    return list(map("T".join, zip(dates, _indexed_text(times)(tod_of))))


# Cell formatters by dtype kind; integers and everything else go through str.
_CELL_FORMATTERS = {
    "b": lambda a: np.where(a, "true", "false").tolist(),
    "f": lambda a: list(map(repr, a.tolist())),
    "M": _iso_seconds,
}


def _formatter(a: np.ndarray) -> Callable[[np.ndarray], list[str]]:
    return _CELL_FORMATTERS.get(a.dtype.kind, _str_cells)


def _indexed_text(text: list[str]) -> Callable[[np.ndarray], list[str]]:
    cells = np.array(text, dtype=object)
    return lambda idx: cells[idx].tolist()


def _repeated_text(values: Sequence[str], counts) -> np.ndarray:
    """A text column of ``values``, each repeated ``counts`` times as in
    ``np.repeat``; its rows share the strings instead of copying them."""
    return np.repeat(np.array(values, dtype=object), counts)


def _write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """Write a header line, then one row per index of ``columns``.

    Each column is a sequence with one value per row.  Its formatter is
    picked once from its dtype: ``true``/``false`` for bools, ``str`` for
    integers, ``repr`` for floats (so text round-trips exactly), ISO seconds
    for ``datetime64``, ``str`` for anything else.  A numeric column formats
    each of its distinct values once and indexes that text by row.  Nothing
    is quoted.  Rows are written ``CSV_BLOCK_ROWS`` at a time.
    """
    cols = []
    for col in columns:
        a = np.asarray(col)
        fmt = _formatter(a)
        if a.dtype.kind in "fiu":
            values, a = distinct(a)
            fmt = _indexed_text(fmt(values))
        cols.append((a, fmt))
    sizes = {len(a) for a, _ in cols}
    if len(sizes) > 1:
        raise ValueError(f"{path}: columns of unequal length {sorted(sizes)}")
    n_rows = sizes.pop() if sizes else 0
    with open_new(path) as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, n_rows, CSV_BLOCK_ROWS):
            block = [fmt(a[lo : lo + CSV_BLOCK_ROWS]) for a, fmt in cols]
            f.write("\n".join(map(",".join, zip(*block))) + "\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


# ---------------------------------------------------------------------------
# Options: one table drives argparse, config-file merge, and the manifest

class Opt:
    def __init__(self, name, typ, default, help, choices=None):
        self.name = name
        self.typ = typ
        self.default = default
        self.help = help
        self.choices = choices


GRID_OPTS = [
    Opt("open", str, "09:40", "session open, HH:MM"),
    Opt("bar_minutes", int, 20, "bar spacing in minutes"),
    Opt("points", int, 20, "grid points per day, open and close included"),
]
SEARCH_OPTS = [
    Opt("tau_min", float, 1e-4, "lower edge of the duration search window"),
    Opt("tau_max", float, 1e2, "upper edge of the duration search window"),
]
COMMON_OPTS = [
    Opt("out", str, ".", "output directory"),
]
# the price series and the partition every command after ingest reads
SERIES_OPTS = [
    Opt("input", str, None, "prices CSV or cache JSON"),
    Opt("interval_minutes", float, 20.0, "partition interval length"),
    Opt("min_interval_minutes", float, 20.0, "partition cutoff scale"),
    Opt("max_missing", int, 0, "missing bars tolerated before a day is dropped"),
]

OPTIONS: dict[str, list[Opt]] = {
    "synth": COMMON_OPTS
    + GRID_OPTS
    + [
        Opt("mode", str, "seasonal", "generator family", choices=["seasonal", "multifractal"]),
        Opt("days", int, 250, "number of trading days"),
        Opt("seed", int, 0, "root seed"),
        Opt("profile", str, "u-shape", "seasonal activity profile",
            choices=["flat", "u-shape", "u-steps"]),
        Opt("overnight_mass", float, 0.4, "closure variance as a ratio of the intraday total"),
        Opt("edge_boost", float, 8.0, "open/close activity relative to midday"),
        Opt("steps", int, 0, "blocks for the u-steps profile (0 means one per bar)"),
        Opt("innovation", str, "gaussian", "increment family",
            choices=["gaussian", "student-t"]),
        Opt("nu", float, 4.0, "degrees of freedom for student-t increments"),
        Opt("depth", int, 8, "cascade depth (multifractal mode)"),
        Opt("lambda2", float, 0.05, "cascade intermittency parameter"),
    ],
    "ingest": COMMON_OPTS
    + GRID_OPTS
    + [
        Opt("input", str, None, "prices CSV to ingest"),
        Opt("max_missing", int, 0, "missing bars tolerated before a day is dropped"),
    ],
    "calibrate": COMMON_OPTS
    + GRID_OPTS
    + SEARCH_OPTS
    + SERIES_OPTS
    + [
        Opt("reference", str, "1-day", "reference class spec"),
        Opt("cutoff_threshold", float, 0.05, "contiguous-correlation gate"),
        Opt("skip_additivity", bool, False, "skip the additivity report"),
    ],
    "analyze": COMMON_OPTS
    + GRID_OPTS
    + SERIES_OPTS
    + [
        Opt("clock", str, "physical", "duration axis", choices=["physical", "fst"]),
        Opt("calibration", str, "", "calibration.json (required for the fst clock)"),
        Opt("orders", str, "0.5,1,2,3,4", "moment orders, comma separated"),
        Opt("spans", str, "1,2,4", "interval spans in partition steps"),
        Opt("multiday", str, "", "extra multi-day spans, comma separated"),
        Opt("skip_overnight", bool, False, "leave the closure out of the moment rows"),
        Opt("fit_lo", float, 0.0, "lower duration of the scaling fit (0 means smallest)"),
        Opt("fit_hi", float, 0.0, "upper duration of the scaling fit (0 means largest)"),
        Opt("collapse_hurst", float, 0.5, "rescaling exponent for the density collapse"),
        Opt("collapse_bins", int, 101, "collapse histogram bins"),
        Opt("profile_bins", int, 0, "clock-mode profile bins (0 means one per interval)"),
        Opt("lags", str, "0:10", "autocorrelation lags, list or a:b range"),
        Opt("delta", float, 0.0, "autocorrelation base duration (0 means one interval)"),
        Opt("estimator", str, "sliding", "autocorrelation estimator",
            choices=["sliding", "ciclostationary"]),
        Opt("cutoff_threshold", float, 0.05, "contiguous-correlation gate"),
    ],
    "compare-clocks": COMMON_OPTS
    + GRID_OPTS
    + SEARCH_OPTS
    + SERIES_OPTS
    + [
        Opt("classes", str, "intervals,overnight", "class specs, comma separated"),
        Opt("orders", str, "1,2,3", "moment-clock orders"),
        Opt("reference", str, "1-day", "reference class spec"),
    ],
    "pairwise-d": COMMON_OPTS
    + GRID_OPTS
    + SERIES_OPTS
    + [
        Opt("classes", str, "first-interval,overnight,1-day", "class specs, >= 2 of them"),
    ],
}


# the least value each of these options takes, from a flag or a config alike
LEAST = {"max_missing": 0, "cutoff_threshold": 0, "seed": 0, "days": 1, "depth": 1,
         "collapse_bins": 3, "profile_bins": 0, "bar_minutes": 1, "points": 2}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


COMMAND_HELP = {
    "synth": "generate a synthetic price series",
    "ingest": "parse a prices CSV into a cache file",
    "calibrate": "fit interval durations and assemble the time map",
    "analyze": "moments, scaling exponents, collapse, profiles, correlations",
    "compare-clocks": "fitted durations against moment-clock durations",
    "pairwise-d": "matrix of KS distances between class samples",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.

    A parser built for one command parses its arguments as the full parser
    does, and its usage line still names every command.
    """
    parser = argparse.ArgumentParser(
        prog="fstclock",
        description="Calibrate and apply a diffusive trading clock.",
    )
    parser.add_argument("--version", action="version", version=f"fstclock {__version__}")
    every = "{" + ",".join(OPTIONS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for cmd in [command] if command else OPTIONS:
        p = sub.add_parser(cmd, help=COMMAND_HELP[cmd])
        p.add_argument("--config", default=None, help="JSON config or a previous manifest")
        p.add_argument("--strict", action="store_true",
                       help="exit nonzero when any warning fires")
        for o in OPTIONS[cmd]:
            if o.typ is bool:
                p.add_argument(_flag(o.name), action="store_true", default=None, help=o.help)
            else:
                p.add_argument(_flag(o.name), type=o.typ, default=None,
                               choices=o.choices, help=o.help)
    return parser


@functools.cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """``build_parser(command)``, built once per process: parsing leaves a
    parser as it was, so ``main`` reuses it from call to call."""
    return build_parser(command)


# JSON values each option type takes from a config file; bools are never numbers.
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _check_config_value(o: Opt, v) -> None:
    if isinstance(v, bool) != (o.typ is bool) or not isinstance(v, _JSON_TYPES[o.typ]):
        raise ClassSpecError(f"config key {o.name!r} takes a {o.typ.__name__}, not {v!r}")
    if o.choices is not None and v not in o.choices:
        raise ClassSpecError(f"config key {o.name!r} takes one of {o.choices}, not {v!r}")
    if o.typ is float:
        try:
            float(v)
        except OverflowError:  # a JSON integer beyond the doubles
            raise ClassSpecError(f"config key {o.name!r} is too large for a float") from None


def resolve_config(args: argparse.Namespace, command: str) -> dict:
    """Defaults, then config file, then explicit flags; fully materialized."""
    file_cfg = {}
    if args.config:
        payload = file_cfg = read_json(args.config)
        if isinstance(payload, dict) and "config" in payload and "command" in payload:  # a manifest
            if payload["command"] != command:
                raise ClassSpecError(
                    f"manifest was written by {payload['command']!r}, not {command!r}"
                )
            file_cfg = payload["config"]
        if not isinstance(file_cfg, dict):
            raise ClassSpecError(f"{args.config}: the config is not a JSON object")
        unknown = set(file_cfg) - {o.name for o in OPTIONS[command]}
        if unknown:
            raise ClassSpecError(f"config keys not understood: {sorted(unknown)}")
        for o in OPTIONS[command]:
            if o.name in file_cfg:
                _check_config_value(o, file_cfg[o.name])
    out = {}
    for o in OPTIONS[command]:
        v = getattr(args, o.name)
        if v is None:
            v = file_cfg.get(o.name, o.default)
        if v is None:
            raise ClassSpecError(f"{_flag(o.name)} is required")
        v = o.typ(v)
        # the search window's own check refuses non-finite edges
        if o.typ is float and not math.isfinite(v) and o not in SEARCH_OPTS:
            raise ClassSpecError(f"{_flag(o.name)} must be finite, not {v!r}")
        if o.name in LEAST and v < LEAST[o.name]:
            raise ClassSpecError(f"{_flag(o.name)} must be at least {LEAST[o.name]}, not {v!r}")
        out[o.name] = v
    return out


# ---------------------------------------------------------------------------
# Shared pieces

def _parse_open(text: str) -> dtime:
    m = re.fullmatch(r"([01]?\d|2[0-3]):([0-5]\d)", text)
    if not m:
        raise ClassSpecError(f"cannot parse session open {text!r}")
    return dtime(int(m.group(1)), int(m.group(2)))


def _grid_from(cfg: dict) -> DayGrid:
    open_time = _parse_open(cfg["open"])
    try:
        return DayGrid(open_time=open_time, bar_minutes=cfg["bar_minutes"], n_points=cfg["points"])
    except ValueError as exc:  # the options, then DayGrid's reason
        flags = " ".join(f"{_flag(o.name)} {cfg[o.name]}" for o in GRID_OPTS)
        raise ClassSpecError(f"{flags} make no grid: {exc}") from None


def _load_filtered(cfg: dict, args: argparse.Namespace):
    """The input's complete days, loaded once per run by ``main``.  A CSV is
    read on the grid the grid options make.  A cache's own grid replaces them
    in ``cfg``, a config's or manifest's silently, but a grid flag in ``args``
    that differs from it is refused before any day is filtered."""
    cache = Path(cfg["input"]).suffix.lower() == ".json"
    series = load_series(cfg["input"], grid=None if cache else _grid_from(cfg))
    g = series.grid
    cfg.update(bar_minutes=g.bar_minutes, points=g.n_points)
    if _parse_open(cfg["open"]) != g.open_time:
        cfg["open"] = g.open_time.isoformat(timespec="minutes")
    for o in GRID_OPTS:  # a grid flag must name the grid the run uses, a cache's included
        if (typed := getattr(args, o.name)) is not None and typed != cfg[o.name]:
            raise ClassSpecError(f"{_flag(o.name)} {typed} differs from the grid of {cfg['input']}, "
                                 f"which has {_flag(o.name)} {cfg[o.name]}")
    return filter_complete_days(series, max_missing_bars=cfg["max_missing"])


def _partition_from(cfg: dict, grid: DayGrid) -> PartitionSpec:
    return PartitionSpec.equal_spacing(
        grid, cfg["interval_minutes"], min_interval_minutes=cfg["min_interval_minutes"]
    )


def _search_from(cfg: dict) -> SearchConfig:
    return cli.SearchConfig(delta_tau_min=cfg["tau_min"], delta_tau_max=cfg["tau_max"])


def _num_list(cfg: dict, name: str, typ=float) -> list | range:
    """The numbers of option ``name``: comma separated, or a range ``a:b`` of
    whole ones, kept as a ``range`` if ``typ`` is ``int``, so that a long one
    is never listed."""
    text = cfg[name].strip()
    if not text:
        return []
    m = re.fullmatch(r"(\d+):(\d+)", text)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        if b < a:
            raise ClassSpecError(f"range {text!r} runs backwards")
        return range(a, b + 1) if typ is int else [typ(v) for v in range(a, b + 1)]
    try:
        return [typ(v) for v in text.split(",")]
    except ValueError:
        what = "whole numbers" if typ is int else "numbers"
        raise ClassSpecError(f"{_flag(name)} takes {what}, comma separated or a:b, not {text!r}") from None


def _reference(spec: str, partition: PartitionSpec, grid: DayGrid) -> IntervalClass:
    """The calibration reference: exactly one class that class_sample builds."""
    classes = parse_class_spec(spec, partition, grid)
    if len(classes) != 1 or classes[0].kind == "sample":
        raise ClassSpecError(f"cannot use {spec!r} as the calibration reference")
    return classes[0]


def _gate(gate) -> tuple[dict, list[str]]:
    """The contiguous-correlation gate's record and its warning."""
    record = {
        "dt_minutes": gate.dt_minutes,
        "value": gate.value,
        "threshold": gate.threshold,
        "violated": gate.violated,
    }
    if gate.value is None:
        return record, [f"contiguous correlation not checked: two {gate.dt_minutes:g}-min "
                        "intervals do not fit in the session"]
    if not gate.violated:
        return record, []
    # the gate compares the magnitude, so the warning prints it
    return record, [
        f"|contiguous correlation| {abs(gate.value):.4f} exceeds {gate.threshold:g} "
        f"at {gate.dt_minutes:g} min"
    ]


def _load_calibration(path: str, partition: PartitionSpec) -> ClockCalibration:
    payload = read_json(path)
    try:
        return cli.ClockCalibration.from_json_dict(payload, partition)
    except (DataError, ClassSpecError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Commands: each computes its outputs and its own warnings from the resolved
# config and the series ``main`` loaded (None for synth), and writes nothing.
# An output is a file name and its content: a dict, written as JSON; a
# (header, columns) pair, written by ``_write_csv``; or a writer bound to its
# data, called with the path.

def cmd_synth(cfg: dict, series: None) -> tuple[list, list[str]]:
    grid = _grid_from(cfg)
    gen = cli.GeneratorConfig(
        n_days=cfg["days"],
        seed=cfg["seed"],
        innovation=cfg["innovation"],
        nu=cfg["nu"],
        cascade_depth=cfg["depth"],
        cascade_lambda2=cfg["lambda2"],
    )
    if cfg["mode"] == "seasonal":
        n_bars = grid.n_bars
        # flat is the one-step-per-bar U at edge boost 1, u-shape that U at --edge-boost
        steps = (cfg["steps"] or n_bars) if cfg["profile"] == "u-steps" else n_bars
        profile = cli.ActivityProfile.u_steps(
            n_bars,
            steps,
            edge_boost=1.0 if cfg["profile"] == "flat" else cfg["edge_boost"],
            overnight_mass_ratio=cfg["overnight_mass"],
        )
        series, truth = cli.generate_seasonal(profile, gen, grid)
        truth_payload = {
            "kind": "seasonal",
            "bar_tau": [float(x) for x in truth.bar_tau],
            "overnight_tau": float(truth.overnight_tau),
        }
    else:
        series = cli.generate_multifractal(
            gen, grid, overnight_mass_ratio=cfg["overnight_mass"]
        )
        truth_payload = {
            "kind": "multifractal",
            "lambda2": cfg["lambda2"],
            "depth": cfg["depth"],
            "hurst_by_order": {
                str(q): cli.cascade_hurst(q, cfg["lambda2"]) for q in (1.0, 2.0, 3.0, 4.0)
            },
        }
    return [("prices.csv", functools.partial(cli.write_prices_csv, series)),
            ("truth.json", truth_payload)], []


def cmd_ingest(cfg: dict, series: PriceSeries) -> tuple[list, list[str]]:
    warns = []
    if series.dropped_dates:
        warns.append(f"dropped {len(series.dropped_dates)} incomplete days")
    return [("cache.json", functools.partial(save_cache, series))], warns


def cmd_calibrate(cfg: dict, series: PriceSeries) -> tuple[list, list[str]]:
    grid = series.grid
    partition = _partition_from(cfg, grid)
    search = _search_from(cfg)
    ref_class = _reference(cfg["reference"], partition, grid)
    cal = cli.calibrate_clock(series, partition, cfg=search, reference=ref_class)
    tmap = cli.assemble_time_map(cal, partition, series)
    gate, gate_warns = _gate(cli.cutoff_check(series, partition, threshold=cfg["cutoff_threshold"]))
    outputs = [
        ("calibration.json", cal.to_json_dict()),
        ("timemap.csv", (["l", "m", "t_iso", "tau_fst"], [*tmap.anchor_columns(), tmap.anchor_tau])),
        ("cutoff.json", gate),
    ]
    if not cfg["skip_additivity"]:
        rows = cli.additivity_report(series, partition, cal, cfg=search, reference=ref_class)
        outputs.append(("additivity.csv", (
            ["label", "measured", "parts_sum", "ratio"],
            [[r.label for r in rows], [r.measured for r in rows],
             [r.parts_sum for r in rows], [r.ratio for r in rows]],
        )))
    warns = [f"the optimal cell touches the window edge for {c.label}"
             for c in cal.classes if c.boundary_warning]
    return outputs, warns + gate_warns


def cmd_analyze(cfg: dict, series: PriceSeries) -> tuple[list, list[str]]:
    grid = series.grid
    partition = _partition_from(cfg, grid)
    fst = cfg["clock"] == "fst"
    cal = None
    tmap = None
    if fst:
        if not cfg["calibration"]:
            raise ClassSpecError(
                "the fst clock needs --calibration pointing at a calibration.json"
            )
        cal = _load_calibration(cfg["calibration"], partition)
        tmap = cli.assemble_time_map(cal, partition, series)
        if not cfg["delta"]:
            cfg["delta"] = cal.trading_total / partition.m_max
    elif not cfg["delta"]:
        cfg["delta"] = cfg["interval_minutes"]
    if not cfg["profile_bins"]:
        cfg["profile_bins"] = partition.m_max

    lags = _num_list(cfg, "lags", int)
    rows = cli.span_union_samples(
        series,
        partition,
        spans=_num_list(cfg, "spans", int),
        calibration=cal,
        include_overnight=not cfg["skip_overnight"],
        multiday=_num_list(cfg, "multiday", int),
    )
    duration_of = (lambda r: r.fst_duration) if fst else (lambda r: r.physical_duration)
    samples = [(duration_of(r), r.sample) for r in rows]
    table = cli.moment_curve(samples, orders=_num_list(cfg, "orders"), clock_tag=cfg["clock"])
    lo = cfg["fit_lo"] or float(table.durations.min())
    hi = cfg["fit_hi"] or float(table.durations.max())
    cfg["fit_lo"], cfg["fit_hi"] = lo, hi
    spectrum = cli.hurst_slopes(table, fit_range=(lo, hi))
    collapse = cli.pdf_collapse_export(
        samples, hurst=cfg["collapse_hurst"], n_bins=cfg["collapse_bins"]
    )
    profile = cli.intraday_volatility_profile(
        series, partition, time_map=tmap, n_bins=cfg["profile_bins"] if fst else None
    )
    curve = cli.volatility_autocorrelation(
        series,
        cfg["delta"],
        lags,
        time_map=tmap,
        estimator=cfg["estimator"],
    )
    gate, gate_warns = _gate(cli.cutoff_check(series, partition, threshold=cfg["cutoff_threshold"]))

    n_q = table.orders.size
    bins = [row.density.size for row in collapse]
    return [
        ("moments.csv", (
            ["label", "duration", "clock", "q", "moment"],
            [
                _repeated_text([r.label for r in rows], n_q),
                np.repeat(table.durations, n_q),
                _repeated_text([cfg["clock"]], len(rows) * n_q),
                np.tile(table.orders, len(rows)),
                table.moments.ravel(),
            ],
        )),
        ("hurst.csv", (
            ["q", "clock", "hurst", "slope", "intercept", "rms_residual"],
            [
                spectrum.orders,
                _repeated_text([cfg["clock"]], spectrum.orders.size),
                spectrum.hurst,
                spectrum.slopes,
                spectrum.intercepts,
                spectrum.rms_residuals,
            ],
        )),
        ("collapse.csv", (
            ["label", "duration", "x_rescaled", "density"],
            [
                _repeated_text([row.label for row in collapse], bins),
                np.repeat([row.duration for row in collapse], bins),
                np.concatenate([row.bin_centers for row in collapse]),
                np.concatenate([row.density for row in collapse]),
            ],
        )),
        ("profile.csv", (
            ["position", "clock", "sigma", "n_obs"],
            [
                profile.positions,
                _repeated_text([profile.clock_tag], profile.positions.size),
                profile.sigma,
                profile.n_obs,
            ],
        )),
        ("autocorr.csv", (
            ["lag", "clock", "corr", "n_pairs"],
            [
                curve.lags,
                _repeated_text([curve.clock_tag], curve.lags.size),
                curve.values,
                curve.n_pairs,
            ],
        )),
        ("contiguous.json", gate),
    ], gate_warns


def cmd_compare_clocks(cfg: dict, series: PriceSeries) -> tuple[list, list[str]]:
    grid = series.grid
    partition = _partition_from(cfg, grid)
    search = _search_from(cfg)
    reference = _reference(cfg["reference"], partition, grid)
    orders = _num_list(cfg, "orders")
    specs = parse_class_specs(cfg["classes"], partition, grid)
    x_ref, *samples = class_samples(series, [reference, *specs])
    classes = [(c.label, s) for c, s in zip(specs, samples)]
    comp = cli.compare_clocks(classes, x_ref, orders=orders, cfg=search)

    header = ["class", "fst_dtau", "fst_D"]
    columns = [
        [row.label for row in comp.rows],
        [row.fst.delta_tau for row in comp.rows],
        [row.fst.ks.d for row in comp.rows],
    ]
    for i in range(len(orders)):
        header += [f"q{i + 1}_dtau", f"q{i + 1}_D"]
        columns += [
            [row.moments[i].delta_tau for row in comp.rows],
            [row.moments[i].ks.d for row in comp.rows],
        ]
    return [("comparison.csv", (header, columns))], []


def cmd_pairwise_d(cfg: dict, series: PriceSeries) -> tuple[list, list[str]]:
    grid = series.grid
    partition = _partition_from(cfg, grid)
    specs = parse_class_specs(cfg["classes"], partition, grid)
    if len(specs) < 2:
        raise ClassSpecError("pairwise distances need at least two classes")
    from .ks import Sorted  # each class sorted once, its runs found once, for all its pairs

    labeled = [(c.label, Sorted(s)) for c, s in zip(specs, class_samples(series, specs))]
    n = len(labeled)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = cli.ks_distance(labeled[i][1], labeled[j][1]).d
            matrix[i, j] = matrix[j, i] = d
    labels = [label for label, _ in labeled]
    return [("pairwise.csv", (["class"] + labels, [labels, *matrix.T]))], []


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "calibrate": cmd_calibrate,
    "analyze": cmd_analyze,
    "compare-clocks": cmd_compare_clocks,
    "pairwise-d": cmd_pairwise_d,
}

INPUT_KEYS = ("input", "calibration")


def _write(path: str, content) -> None:
    """Write one output of a command (see the commands above) to ``path``."""
    if isinstance(content, dict):
        _write_json(path, content)
    elif callable(content):
        content(path)
    else:
        _write_csv(path, *content)


def main(argv: list[str] | None = None) -> int:
    """Run one command: resolve its config, load its series (the one place a
    run's series is loaded), hash its inputs, call the command with the config
    and the series, and write every output, the resolved config and the manifest."""
    argv = sys.argv[1:] if argv is None else argv
    # a named command needs only its own subparser; anything else gets all
    args = _parser(argv[0] if argv and argv[0] in OPTIONS else None).parse_args(argv)
    command = args.command
    try:
        cfg = resolve_config(args, command)
        os.makedirs(cfg["out"], exist_ok=True)
        # every warning is reported: the library's first, then the command's own
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            series = _load_filtered(cfg, args) if "input" in cfg else None
            # each input hashed as loaded, before the command computes or any output replaces it
            inputs = {
                cfg[k]: _sha256(cfg[k]) for k in INPUT_KEYS if cfg.get(k) and os.path.exists(cfg[k])
            }
            outputs, warns = COMMANDS[command](cfg, series)
        warns = [str(w.message) for w in rec] + warns
        manifest = {
            "tool": "fstclock",
            "version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "command": command,
            "config": cfg,
            "inputs": inputs,
        }
        # each file is named as soon as it is written, so a failed write
        # leaves no file behind that no line names
        for name, content in [*outputs, ("resolved_config.json", cfg), ("manifest.json", manifest)]:
            _write(path := os.path.join(cfg["out"], name), content)
            print(f"wrote {path}")
    except (FstError, ValueError, OSError) as e:  # a refused value, a file not read or written
        print(f"error: {e}", file=sys.stderr)
        return 2

    for w in warns:
        print(f"warning: {w}")
    if warns and args.strict:
        return STRICT_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
