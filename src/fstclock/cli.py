"""Command-line front end: reproducible, config-driven, machine-first.

Every run materializes its full configuration, hashes its inputs, and writes
a manifest next to the outputs; running again from the same manifest must
reproduce every file byte for byte.  Floats are printed with ``repr`` so the
round-trip through text is lossless.  Human-readable summary lines on stdout
are derived from the written files, never the other way around.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import sys
import warnings
from datetime import time as dtime

import numpy as np

from . import __version__
from .analysis import (
    hurst_slopes,
    intraday_volatility_profile,
    moment_curve,
    pdf_collapse_export,
    pooled_bar_sample,
    span_union_samples,
    cutoff_check,
    volatility_autocorrelation,
)
from .clock import (
    ClockCalibration,
    SearchConfig,
    TimeMap,
    additivity_report,
    assemble_time_map,
    calibrate_clock,
)
from .errors import ClassSpecError, FstError
from .ks import ks_distance
from .momentclock import compare_clocks
from .series import (
    DayGrid,
    IntervalClass,
    PartitionSpec,
    class_sample,
    filter_complete_days,
    load_series,
    save_cache,
)
from .synthetic import (
    ActivityProfile,
    GeneratorConfig,
    generate_multifractal,
    generate_seasonal,
    write_prices_csv,
)

STRICT_EXIT = 3
# Days of time-map rows formatted per write to ``timemap.csv``.
TIMEMAP_BLOCK_DAYS = 256


# ---------------------------------------------------------------------------
# Deterministic file plumbing

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _write_json(path: str, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_timemap(path: str, tmap: TimeMap) -> None:
    """``l,m,t_iso,tau_fst`` per anchor, formatted ``TIMEMAP_BLOCK_DAYS`` days at a time."""
    l, m, instants = tmap.anchor_columns()
    tau = tmap.anchor_tau
    block = TIMEMAP_BLOCK_DAYS * (tmap.partition.m_max + 1)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("l,m,t_iso,tau_fst\n")
        for lo in range(0, tau.size, block):
            cols = (
                l[lo : lo + block].tolist(),
                m[lo : lo + block].tolist(),
                np.datetime_as_string(instants[lo : lo + block], unit="s").tolist(),
                tau[lo : lo + block].tolist(),
            )
            f.write("".join(f"{a},{b},{t},{x!r}\n" for a, b, t, x in zip(*cols)))


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
    + [
        Opt("input", str, None, "prices CSV or cache JSON"),
        Opt("interval_minutes", float, 20.0, "partition interval length"),
        Opt("min_interval_minutes", float, 20.0, "partition cutoff scale"),
        Opt("max_missing", int, 0, "missing bars tolerated before a day is dropped"),
        Opt("reference", str, "1-day", "reference class spec"),
        Opt("cutoff_threshold", float, 0.05, "contiguous-correlation gate"),
        Opt("skip_additivity", bool, False, "skip the additivity report"),
    ],
    "analyze": COMMON_OPTS
    + GRID_OPTS
    + [
        Opt("input", str, None, "prices CSV or cache JSON"),
        Opt("interval_minutes", float, 20.0, "partition interval length"),
        Opt("min_interval_minutes", float, 20.0, "partition cutoff scale"),
        Opt("max_missing", int, 0, "missing bars tolerated before a day is dropped"),
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
    + [
        Opt("input", str, None, "prices CSV or cache JSON"),
        Opt("interval_minutes", float, 20.0, "partition interval length"),
        Opt("min_interval_minutes", float, 20.0, "partition cutoff scale"),
        Opt("max_missing", int, 0, "missing bars tolerated before a day is dropped"),
        Opt("classes", str, "intervals,overnight", "class specs, comma separated"),
        Opt("orders", str, "1,2,3", "moment-clock orders"),
        Opt("reference", str, "1-day", "reference class spec"),
    ],
    "pairwise-d": COMMON_OPTS
    + GRID_OPTS
    + [
        Opt("input", str, None, "prices CSV or cache JSON"),
        Opt("interval_minutes", float, 20.0, "partition interval length"),
        Opt("min_interval_minutes", float, 20.0, "partition cutoff scale"),
        Opt("max_missing", int, 0, "missing bars tolerated before a day is dropped"),
        Opt("classes", str, "first-interval,overnight,1-day", "class specs, >= 2 of them"),
    ],
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fstclock",
        description="Calibrate and apply a diffusive trading clock.",
    )
    parser.add_argument("--version", action="version", version=f"fstclock {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "synth": "generate a synthetic price series",
        "ingest": "parse a prices CSV into a cache file",
        "calibrate": "fit interval durations and assemble the time map",
        "analyze": "moments, scaling exponents, collapse, profiles, correlations",
        "compare-clocks": "fitted durations against moment-clock durations",
        "pairwise-d": "matrix of KS distances between class samples",
    }
    for cmd, opts in OPTIONS.items():
        p = sub.add_parser(cmd, help=helps[cmd])
        p.add_argument("--config", default=None, help="JSON config or a previous manifest")
        p.add_argument("--strict", action="store_true",
                       help="exit nonzero when any warning fires")
        for o in opts:
            if o.typ is bool:
                p.add_argument(_flag(o.name), action="store_true", default=None, help=o.help)
            else:
                p.add_argument(_flag(o.name), type=o.typ, default=None,
                               choices=o.choices, help=o.help)
    return parser


def resolve_config(args: argparse.Namespace, command: str) -> dict:
    """Defaults, then config file, then explicit flags; fully materialized."""
    file_cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            payload = json.load(f)
        if "config" in payload and "command" in payload:  # a manifest
            if payload["command"] != command:
                raise ClassSpecError(
                    f"manifest was written by {payload['command']!r}, not {command!r}"
                )
            file_cfg = payload["config"]
        else:
            file_cfg = payload
        unknown = set(file_cfg) - {o.name for o in OPTIONS[command]}
        if unknown:
            raise ClassSpecError(f"config keys not understood: {sorted(unknown)}")
    out = {}
    for o in OPTIONS[command]:
        v = getattr(args, o.name)
        if v is None:
            v = file_cfg.get(o.name, o.default)
        if v is None:
            raise ClassSpecError(f"{_flag(o.name)} is required")
        out[o.name] = o.typ(v)
    return out


# ---------------------------------------------------------------------------
# Shared pieces

def _parse_open(text: str) -> dtime:
    m = re.fullmatch(r"(\d{1,2}):(\d{2})", text)
    if not m:
        raise ClassSpecError(f"cannot parse session open {text!r}")
    return dtime(int(m.group(1)), int(m.group(2)))


def _grid_from(cfg: dict) -> DayGrid:
    return DayGrid(
        open_time=_parse_open(cfg["open"]),
        bar_minutes=cfg["bar_minutes"],
        n_points=cfg["points"],
    )


def _load_filtered(cfg: dict):
    series = load_series(cfg["input"], grid=_grid_from(cfg))
    return filter_complete_days(series, max_missing_bars=cfg["max_missing"])


def _partition_from(cfg: dict, grid: DayGrid) -> PartitionSpec:
    return PartitionSpec.equal_spacing(
        grid, cfg["interval_minutes"], min_interval_minutes=cfg["min_interval_minutes"]
    )


def _search_from(cfg: dict) -> SearchConfig:
    return SearchConfig(delta_tau_min=cfg["tau_min"], delta_tau_max=cfg["tau_max"])


def _num_list(text: str, typ=float) -> list:
    text = text.strip()
    if not text:
        return []
    m = re.fullmatch(r"(\d+):(\d+)", text)
    if m:
        return [typ(v) for v in range(int(m.group(1)), int(m.group(2)) + 1)]
    return [typ(v) for v in text.split(",")]


def parse_class_spec(spec: str, partition: PartitionSpec, grid: DayGrid) -> list[IntervalClass]:
    """One class DSL token -> the interval classes it names.

    Tokens: ``intervals`` (every partition interval), ``intraday:a:b``,
    ``bars:i:j``, ``overnight[:nights]``, ``multiday:N`` or ``N-day``,
    ``morning``, ``afternoon``, ``trading-day``, ``first-interval``,
    ``Kmin`` (day-pooled K-minute returns).  ``Kmin`` is the one token that
    ``class_sample`` cannot build: it comes back as a ``sample`` class whose
    bars ``0..K`` give the pooled window, and ``_class_sample`` pools it.
    """
    spec = spec.strip()
    m_max = partition.m_max
    if spec == "intervals":
        return [IntervalClass.intraday(m - 1, m, partition) for m in range(1, m_max + 1)]
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
        k = grid.bars_in(minutes)
        return [IntervalClass(kind="sample", label=f"{minutes:g}min", bar_start=0, bar_end=k)]
    raise ClassSpecError(f"cannot parse class spec {spec!r}")


def parse_class_specs(text: str, partition: PartitionSpec, grid: DayGrid) -> list[IntervalClass]:
    out = []
    for token in text.split(","):
        out.extend(parse_class_spec(token, partition, grid))
    return out


def _class_sample(series, c: IntervalClass):
    if c.kind == "sample":
        return pooled_bar_sample(series, c.bar_end, label=c.label)
    return class_sample(series, c)


def _reference(spec: str, partition: PartitionSpec, grid: DayGrid) -> IntervalClass:
    """The calibration reference: exactly one class that class_sample builds."""
    classes = parse_class_spec(spec, partition, grid)
    if len(classes) != 1 or classes[0].kind == "sample":
        raise ClassSpecError(f"cannot use {spec!r} as the calibration reference")
    return classes[0]


def _write_gate(path: str, series, partition: PartitionSpec, threshold: float) -> list[str]:
    """Run the contiguous-correlation gate, write it to ``path``, return its warning."""
    gate = cutoff_check(series, partition, threshold=threshold)
    _write_json(
        path,
        {
            "dt_minutes": gate.dt_minutes,
            "value": gate.value,
            "threshold": gate.threshold,
            "violated": gate.violated,
        },
    )
    if not gate.violated:
        return []
    return [
        f"contiguous correlation {gate.value:.4f} exceeds {gate.threshold:g} "
        f"at {gate.dt_minutes:g} min"
    ]


def _load_calibration(path: str) -> ClockCalibration:
    with open(path, "r", encoding="utf-8") as f:
        return ClockCalibration.from_json_dict(json.load(f))


# ---------------------------------------------------------------------------
# Commands: each returns (written files, warning strings)

def cmd_synth(cfg: dict) -> tuple[list[str], list[str]]:
    grid = _grid_from(cfg)
    gen = GeneratorConfig(
        n_days=cfg["days"],
        seed=cfg["seed"],
        innovation=cfg["innovation"],
        nu=cfg["nu"],
        cascade_depth=cfg["depth"],
        cascade_lambda2=cfg["lambda2"],
    )
    if cfg["mode"] == "seasonal":
        n_bars = grid.n_bars
        if cfg["profile"] == "flat":
            profile = ActivityProfile.flat(n_bars, overnight_mass=cfg["overnight_mass"])
        elif cfg["profile"] == "u-shape":
            profile = ActivityProfile.u_shape(
                n_bars, edge_boost=cfg["edge_boost"], overnight_mass_ratio=cfg["overnight_mass"]
            )
        else:
            steps = cfg["steps"] or n_bars
            profile = ActivityProfile.u_steps(
                n_bars,
                steps,
                edge_boost=cfg["edge_boost"],
                overnight_mass_ratio=cfg["overnight_mass"],
            )
        series, truth = generate_seasonal(profile, gen, grid)
        truth_payload = {
            "kind": "seasonal",
            "bar_tau": [float(x) for x in truth.bar_tau],
            "overnight_tau": float(truth.overnight_tau),
        }
    else:
        series = generate_multifractal(
            gen, grid, overnight_mass_ratio=cfg["overnight_mass"]
        )
        from .synthetic import cascade_hurst

        truth_payload = {
            "kind": "multifractal",
            "lambda2": cfg["lambda2"],
            "depth": cfg["depth"],
            "hurst_by_order": {
                str(q): cascade_hurst(q, cfg["lambda2"]) for q in (1.0, 2.0, 3.0, 4.0)
            },
        }
    prices = os.path.join(cfg["out"], "prices.csv")
    truth_path = os.path.join(cfg["out"], "truth.json")
    write_prices_csv(series, prices)
    _write_json(truth_path, truth_payload)
    return [prices, truth_path], []


def cmd_ingest(cfg: dict) -> tuple[list[str], list[str]]:
    series = load_series(cfg["input"], grid=_grid_from(cfg))
    filtered = filter_complete_days(series, max_missing_bars=cfg["max_missing"])
    path = os.path.join(cfg["out"], "cache.json")
    save_cache(filtered, path)
    warns = []
    if filtered.dropped_dates:
        warns.append(f"dropped {len(filtered.dropped_dates)} incomplete days")
    return [path], warns


def cmd_calibrate(cfg: dict) -> tuple[list[str], list[str]]:
    series = _load_filtered(cfg)
    grid = series.grid
    partition = _partition_from(cfg, grid)
    search = _search_from(cfg)
    ref_class = _reference(cfg["reference"], partition, grid)
    cal = calibrate_clock(series, partition, cfg=search, reference=ref_class)

    out = cfg["out"]
    cal_path = os.path.join(out, "calibration.json")
    _write_json(cal_path, cal.to_json_dict())

    tmap = assemble_time_map(cal, partition, grid, dates=series)
    map_path = os.path.join(out, "timemap.csv")
    _write_timemap(map_path, tmap)

    cut_path = os.path.join(out, "cutoff.json")
    gate_warns = _write_gate(cut_path, series, partition, cfg["cutoff_threshold"])

    files = [cal_path, map_path, cut_path]
    if not cfg["skip_additivity"]:
        rows = additivity_report(series, partition, cal, cfg=search, reference=ref_class)
        add_path = os.path.join(out, "additivity.csv")
        _write_csv(
            add_path,
            ["label", "measured", "parts_sum", "ratio"],
            ((r.label, r.measured, r.parts_sum, r.ratio) for r in rows),
        )
        files.append(add_path)

    warns = [f"the optimal cell touches the window edge for {c}" for c in cal.boundary_warnings]
    return files, warns + gate_warns


def cmd_analyze(cfg: dict) -> tuple[list[str], list[str]]:
    series = _load_filtered(cfg)
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
        cal = _load_calibration(cfg["calibration"])
        tmap = assemble_time_map(cal, partition, grid, dates=series)
        if not cfg["delta"]:
            cfg["delta"] = cal.trading_total / partition.m_max
    elif not cfg["delta"]:
        cfg["delta"] = cfg["interval_minutes"]
    if not cfg["profile_bins"]:
        cfg["profile_bins"] = partition.m_max

    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")

        rows = span_union_samples(
            series,
            partition,
            spans=[int(s) for s in _num_list(cfg["spans"], int)],
            calibration=cal,
            include_overnight=not cfg["skip_overnight"],
            multiday=[int(s) for s in _num_list(cfg["multiday"], int)],
        )
        duration_of = (lambda r: r.fst_duration) if fst else (lambda r: r.physical_duration)
        samples = [(duration_of(r), r.sample) for r in rows]
        orders = _num_list(cfg["orders"])
        table = moment_curve(samples, orders=orders, clock_tag=cfg["clock"])

        out = cfg["out"]
        moments_path = os.path.join(out, "moments.csv")
        _write_csv(
            moments_path,
            ["label", "duration", "clock", "q", "moment"],
            (
                (rows[i].label, table.durations[i], cfg["clock"], q, table.moments[i, j])
                for i in range(len(rows))
                for j, q in enumerate(table.orders)
            ),
        )

        lo = cfg["fit_lo"] or float(table.durations.min())
        hi = cfg["fit_hi"] or float(table.durations.max())
        cfg["fit_lo"], cfg["fit_hi"] = lo, hi
        spectrum = hurst_slopes(table, fit_range=(lo, hi))
        hurst_path = os.path.join(out, "hurst.csv")
        _write_csv(
            hurst_path,
            ["q", "clock", "hurst", "slope", "intercept", "rms_residual"],
            (
                (q, cfg["clock"], spectrum.hurst[j], spectrum.slopes[j],
                 spectrum.intercepts[j], spectrum.rms_residuals[j])
                for j, q in enumerate(spectrum.orders)
            ),
        )

        collapse = pdf_collapse_export(
            samples, hurst=cfg["collapse_hurst"], n_bins=cfg["collapse_bins"]
        )
        collapse_path = os.path.join(out, "collapse.csv")
        _write_csv(
            collapse_path,
            ["label", "duration", "x_rescaled", "density"],
            (
                (row.label, row.duration, x, d)
                for row in collapse
                for x, d in zip(row.bin_centers, row.density)
            ),
        )

        profile = intraday_volatility_profile(
            series, partition, time_map=tmap, n_bins=cfg["profile_bins"] if fst else None
        )
        profile_path = os.path.join(out, "profile.csv")
        _write_csv(
            profile_path,
            ["position", "clock", "sigma", "n_obs"],
            (
                (profile.positions[i], profile.clock_tag, profile.sigma[i], profile.n_obs[i])
                for i in range(profile.positions.size)
            ),
        )

        curve = volatility_autocorrelation(
            series,
            cfg["delta"],
            [int(h) for h in _num_list(cfg["lags"], int)],
            time_map=tmap,
            estimator=cfg["estimator"],
        )
        autocorr_path = os.path.join(out, "autocorr.csv")
        _write_csv(
            autocorr_path,
            ["lag", "clock", "corr", "n_pairs"],
            (
                (curve.lags[i], curve.clock_tag, curve.values[i], curve.n_pairs[i])
                for i in range(curve.lags.size)
            ),
        )

        gate_path = os.path.join(out, "contiguous.json")
        gate_warns = _write_gate(gate_path, series, partition, cfg["cutoff_threshold"])
        caught = [str(w.message) for w in rec]

    warns = caught + gate_warns
    return [moments_path, hurst_path, collapse_path, profile_path, autocorr_path, gate_path], warns


def cmd_compare_clocks(cfg: dict) -> tuple[list[str], list[str]]:
    series = _load_filtered(cfg)
    grid = series.grid
    partition = _partition_from(cfg, grid)
    search = _search_from(cfg)
    x_ref = class_sample(series, _reference(cfg["reference"], partition, grid))
    orders = _num_list(cfg["orders"])
    classes = [
        (c.label, _class_sample(series, c))
        for c in parse_class_specs(cfg["classes"], partition, grid)
    ]

    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        comp = compare_clocks(classes, x_ref, orders=orders, cfg=search)
    warns = [str(w.message) for w in rec]

    header = ["class", "fst_dtau", "fst_D"]
    for i in range(len(orders)):
        header += [f"q{i + 1}_dtau", f"q{i + 1}_D"]
    out_rows = []
    for row in comp.rows:
        cells = [row.label, row.fst.delta_tau, row.fst.ks.d]
        for m in row.moments:
            cells += [m.delta_tau, m.ks.d]
        out_rows.append(cells)
    path = os.path.join(cfg["out"], "comparison.csv")
    _write_csv(path, header, out_rows)
    if not comp.dominance_ok:
        warns.append("dominance violated: a moment clock beat the fitted duration")
    return [path], warns


def cmd_pairwise_d(cfg: dict) -> tuple[list[str], list[str]]:
    series = _load_filtered(cfg)
    grid = series.grid
    partition = _partition_from(cfg, grid)
    specs = parse_class_specs(cfg["classes"], partition, grid)
    if len(specs) < 2:
        raise ClassSpecError("pairwise distances need at least two classes")
    labeled = [(c.label, _class_sample(series, c)) for c in specs]
    n = len(labeled)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = ks_distance(labeled[i][1], labeled[j][1]).d
            matrix[i, j] = matrix[j, i] = d
    path = os.path.join(cfg["out"], "pairwise.csv")
    labels = [label for label, _ in labeled]
    _write_csv(
        path,
        ["class"] + labels,
        ([labels[i]] + [matrix[i, j] for j in range(n)] for i in range(n)),
    )
    return [path], []


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "calibrate": cmd_calibrate,
    "analyze": cmd_analyze,
    "compare-clocks": cmd_compare_clocks,
    "pairwise-d": cmd_pairwise_d,
}

INPUT_KEYS = ("input", "calibration")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        cfg = resolve_config(args, command)
        os.makedirs(cfg["out"], exist_ok=True)
        files, warns = COMMANDS[command](cfg)
    except (FstError, ValueError) as e:  # ValueError: a value the library refuses
        print(f"error: {e}", file=sys.stderr)
        return 2

    inputs = {
        cfg[k]: _sha256(cfg[k]) for k in INPUT_KEYS if cfg.get(k) and os.path.exists(cfg[k])
    }
    manifest = {
        "tool": "fstclock",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "command": command,
        "config": cfg,
        "inputs": inputs,
    }
    resolved_path = os.path.join(cfg["out"], "resolved_config.json")
    manifest_path = os.path.join(cfg["out"], "manifest.json")
    _write_json(resolved_path, cfg)
    _write_json(manifest_path, manifest)
    files += [resolved_path, manifest_path]

    for path in files:
        print(f"wrote {path}")
    for w in warns:
        print(f"warning: {w}")
    if warns and args.strict:
        return STRICT_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
