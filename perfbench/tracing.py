"""Spans around the public functions of fstclock, installed from outside.

``Tracer.install`` replaces selected module attributes with wrappers that
record one span per call (name, start, end, parent, thread) and hand back
exactly what the wrapped function returned; ``uninstall`` puts the originals
back.  Names are wrapped where their callers look them up, so a call that
goes through ``fstclock.cli`` or through a module-level reference inside the
package is seen.  Spans stay in memory until ``dump``.

``summarize`` turns the spans of one traced run into the per-layer metrics
listed in BENCHMARK.json.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import threading
import time
from pathlib import Path

import numpy as np

CLI_NAMES = (
    "hurst_slopes",
    "intraday_volatility_profile",
    "moment_curve",
    "pdf_collapse_export",
    "pooled_bar_sample",
    "span_union_samples",
    "cutoff_check",
    "volatility_autocorrelation",
    "additivity_report",
    "assemble_time_map",
    "calibrate_clock",
    "ks_distance",
    "compare_clocks",
    "class_sample",
    "filter_complete_days",
    "load_series",
    "save_cache",
    "generate_multifractal",
    "generate_seasonal",
    "write_prices_csv",
)

# (module, attribute) pairs replaced by tracing wrappers.  Besides the names
# the CLI imports, these are the module-level references the package itself
# calls through (calibrate_clock -> calibrate_interval, compare_clocks ->
# moment_time -> rescaled_ks, load_series -> ingest_csv) and the entry points
# the in-memory workload calls directly.
TARGETS = tuple(("fstclock.cli", name) for name in CLI_NAMES) + (
    ("fstclock.clock", "calibrate_interval"),
    ("fstclock.clock", "class_sample"),
    ("fstclock.clock", "calibrate_clock"),
    ("fstclock.momentclock", "calibrate_interval"),
    ("fstclock.momentclock", "rescaled_ks"),
    ("fstclock.momentclock", "moment_time"),
    ("fstclock.momentclock", "compare_clocks"),
    ("fstclock.series", "ingest_csv"),
    ("fstclock.series", "load_cache"),
    ("fstclock.series", "class_sample"),
    ("fstclock.synthetic", "generate_seasonal"),
    ("fstclock.synthetic", "generate_multifractal"),
    ("fstclock.synthetic", "write_prices_csv"),
    ("fstclock.analysis", "pooled_bar_sample"),
)

LAYERS = ("series", "synthetic", "clock", "ks", "momentclock", "analysis", "cli")
COMMANDS = ("synth", "ingest", "calibrate", "analyze", "compare-clocks")


def _present_rows(series) -> int:
    return int(np.count_nonzero(~np.isnan(series.log_prices)))


# Counts read off a call after its span has ended, keyed by function name.
# Each gets the bound arguments and the result.
def _ann_calibrate_interval(a, r):
    return {"evals": r.n_evaluations, "n": a["y"].n, "label": a["y"].interval.label,
            "d": r.ks.d}


def _ann_calibrate_clock(a, r):
    return {"boundary_warnings": len(r.boundary_warnings)}


def _ann_ingest_csv(a, r):
    return {"rows": _present_rows(r)}


def _ann_save_cache(a, r):
    return {"bytes": os.path.getsize(a["path"])}


def _ann_filter(a, r):
    return {"dropped": len(r.dropped_dates) - len(a["series"].dropped_dates)}


def _ann_write_prices(a, r):
    return {"rows": _present_rows(a["series"]), "bytes": os.path.getsize(a["path"])}


def _ann_compare(a, r):
    margin = min(m.ks.d - row.fst.ks.d for row in r.rows for m in row.moments)
    return {"margin": margin}


def _ann_profile(a, r):
    return {"peak_to_mean": r.peak_to_mean(), "clock": r.clock_tag}


ANNOTATORS = {
    "calibrate_interval": _ann_calibrate_interval,
    "calibrate_clock": _ann_calibrate_clock,
    "ingest_csv": _ann_ingest_csv,
    "save_cache": _ann_save_cache,
    "filter_complete_days": _ann_filter,
    "write_prices_csv": _ann_write_prices,
    "compare_clocks": _ann_compare,
    "intraday_volatility_profile": _ann_profile,
}


class Tracer:
    """Records spans from wrapped fstclock functions and from ``span`` blocks."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.current_thread()
        self._main_stack = self._stack()
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        elif threading.current_thread() is not self._main and self._main_stack:
            # a pool thread: its caller is the span open on the main thread
            parent = self._main_stack[-1]["id"]
        else:
            parent = None
        with self._lock:
            sid = f"{os.getpid()}:{next(self._ids)}"
        span = {"id": sid, "name": name, "parent": parent,
                "thread": threading.get_ident(), "start": 0.0, "end": 0.0, "cpu": 0.0}
        stack.append(span)
        span["cpu"] = -time.thread_time()
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["cpu"] += time.thread_time()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code; yields its record."""
        span = self._open(name)
        try:
            yield span
        except BaseException:
            span["error"] = True
            raise
        finally:
            self._close(span)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        annotate = ANNOTATORS.get(fn.__name__)
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a function calling itself through its own wrapper (ingest_csv
            # reopening a path) is one span, not two
            if any(s["name"] == name for s in self._stack()):
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                self._close(span)
                raise
            self._close(span)
            if annotate is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(annotate(bound.arguments, result))
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def traced_main(tracer: Tracer, argv: list[str], out_dir) -> int:
    """``fstclock.cli.main`` inside a ``cli.<command>`` span that also
    records the bytes the command left in its output directory."""
    import fstclock.cli

    with tracer.span(f"cli.{argv[0]}") as span:
        code = fstclock.cli.main(argv)
    span["bytes_written"] = sum(
        p.stat().st_size for p in Path(out_dir).iterdir() if p.is_file())
    if code:
        span["error"] = True
    return code


def load_spans(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Per-layer metrics


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run: times in seconds and counts are
    totals over every span given; ratios are computed from those totals.
    ``parallel_eff`` is the CPU time of calibrate_clock's pooled calls over
    its wall times the threads that ran them."""
    by_name: dict[str, list[dict]] = {}
    children: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def total(name: str) -> float:
        return float(sum(_dur(s) for s in by_name.get(name, ())))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def attr_sum(name: str, key: str) -> float:
        return float(sum(s.get(key, 0) for s in by_name.get(name, ())))

    m: dict[str, float] = {}
    for fn in ("ingest_csv", "save_cache", "load_cache", "filter_complete_days",
               "class_sample"):
        m[f"series.{fn}.s"] = total(f"series.{fn}")
    ingest_s = m["series.ingest_csv.s"]
    m["series.ingest_csv.rows_per_s"] = (
        attr_sum("series.ingest_csv", "rows") / ingest_s if ingest_s > 0 else 0.0)
    m["series.cache_bytes"] = attr_sum("series.save_cache", "bytes")
    m["series.load_cache.calls"] = calls("series.load_cache")
    m["series.dropped_days"] = attr_sum("series.filter_complete_days", "dropped")
    m["series.class_sample.calls"] = calls("series.class_sample")

    for fn in ("generate_seasonal", "generate_multifractal", "write_prices_csv"):
        m[f"synthetic.{fn}.s"] = total(f"synthetic.{fn}")
    write_s = m["synthetic.write_prices_csv.s"]
    m["synthetic.write_prices_csv.rows_per_s"] = (
        attr_sum("synthetic.write_prices_csv", "rows") / write_s if write_s > 0 else 0.0)

    # calibrate_interval runs in calibrate_clock's pool threads, whose walls
    # overlap and include waiting for the interpreter lock: its time is the
    # CPU time of the threads running it
    ci = by_name.get("clock.calibrate_interval", [])
    ci_s = float(sum(s["cpu"] for s in ci))
    evals = attr_sum("clock.calibrate_interval", "evals")
    m["clock.calibrate_interval.s"] = ci_s
    m["clock.calibrate_interval.calls"] = len(ci)
    m["clock.calibrate_interval.evals"] = evals
    m["clock.calibrate_interval.evals_per_call"] = evals / len(ci) if ci else 0.0
    m["clock.calibrate_interval.ms_per_eval"] = 1e3 * ci_s / evals if evals else 0.0
    m["clock.calibrate_interval.n_median"] = (
        float(statistics.median(s["n"] for s in ci)) if ci else 0.0)

    cc = by_name.get("clock.calibrate_clock", [])
    m["clock.calibrate_clock.s"] = total("clock.calibrate_clock")
    busy = capacity = 0.0
    workers = 0
    for s in cc:
        pooled = [c for c in children.get(s["id"], ())
                  if c["name"] == "clock.calibrate_interval"]
        threads = len({c["thread"] for c in pooled})
        workers = max(workers, threads)
        busy += sum(c["cpu"] for c in pooled)
        capacity += _dur(s) * max(threads, 1)
    m["clock.calibrate_clock.parallel_eff"] = busy / capacity if capacity else 0.0
    m["clock.pool_workers"] = workers
    m["clock.additivity_report.s"] = total("clock.additivity_report")
    m["clock.assemble_time_map.s"] = total("clock.assemble_time_map")
    m["clock.boundary_warnings"] = attr_sum("clock.calibrate_clock", "boundary_warnings")

    m["ks.rescaled_ks.s"] = total("ks.rescaled_ks")
    m["ks.rescaled_ks.calls"] = calls("ks.rescaled_ks")
    m["momentclock.moment_time.s"] = total("momentclock.moment_time")
    m["momentclock.compare_clocks.s"] = total("momentclock.compare_clocks")
    margins = [s["margin"] for s in by_name.get("momentclock.compare_clocks", ())]
    m["momentclock.dominance_margin"] = min(margins) if margins else 0.0

    for fn in ("span_union_samples", "moment_curve", "hurst_slopes", "pdf_collapse_export",
               "intraday_volatility_profile", "volatility_autocorrelation", "cutoff_check"):
        m[f"analysis.{fn}.s"] = total(f"analysis.{fn}")
    peaks = [s["peak_to_mean"] for s in by_name.get("analysis.intraday_volatility_profile", ())
             if s.get("clock") == "fst"]
    m["analysis.profile_peak_to_mean"] = max(peaks) if peaks else 0.0

    for command in COMMANDS:
        own = by_name.get(f"cli.{command}", [])
        self_s = 0.0
        for s in own:
            self_s += _dur(s) - sum(_dur(c) for c in children.get(s["id"], ()))
        m[f"cli.{command}.self_s"] = self_s
        m[f"cli.{command}.bytes_written"] = float(sum(s.get("bytes_written", 0) for s in own))

    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(
            1 for s in spans if s.get("error") and s["name"].split(".", 1)[0] == layer)
    return m
