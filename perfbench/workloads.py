"""The three benchmark workloads.

Every workload derives its inputs from the seed alone, runs one process at a
time in a closed loop (the next operation starts when the previous one has
finished), checks every output, and returns its metrics, its operation
counts and the facts of the run.

* ``chain-10y``: the user's main job.  Ten years (2,500 sessions) of
  1-minute bars on the 09:40-16:00 grid, with seeded holidays and punched
  sessions, go through ``ingest -> calibrate -> analyze --clock fst ->
  compare-clocks``, one CLI subprocess per command.  Most of the time is in
  the ``series`` I/O layer, and the dropped-session path is on it.
* ``calib-inmem``: the fitting layers with no file I/O: ``calibrate_clock``
  with the default pool on a 5,000-day world, ``calibrate_interval`` on the
  pooled cascade classes (n = 6k..96k), and ``compare_clocks`` on 21 classes.
* ``chain-small``: the 120-day ``synth -> calibrate -> analyze`` chain of
  acceptance criterion 11, repeated in-process through ``fstclock.cli.main``:
  the fixed-cost regime of the same layers.  Each run also replays one chain
  from its manifests and compares every file byte for byte.

Untraced runs give the end-to-end metrics; pass times are in ref units (see
``ref_unit_s``), so that the drifting speed of a shared host cancels.
Traced runs do a fixed amount of work on the first input (one untraced pass,
the same pass traced, then one single-threaded calibration; eight chains
each way on ``chain-small``), so their counts repeat exactly for a given
seed.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from datetime import time as dtime
from pathlib import Path

import numpy as np

import fstclock.analysis as fc_analysis
import fstclock.cli as fc_cli
import fstclock.clock as fc_clock
import fstclock.momentclock as fc_moment
import fstclock.series as fc_series
import fstclock.synthetic as fc_synth

import checks
from checks import Ops
from tracing import Tracer, load_spans, summarize, traced_main

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD_TIMEOUT_S = 150.0

GRID_1MIN = fc_series.DayGrid(open_time=dtime(9, 40), bar_minutes=1, n_points=381)
PARTITION_1MIN = fc_series.PartitionSpec.equal_spacing(GRID_1MIN, 20.0)

# chain-10y
CHAIN_DAYS = 2500
CHAIN_INPUTS = 2          # distinct histories per run; set-up is timed once per history
HOLIDAY_RATE = 0.02       # weekdays that never reach the feed
PUNCH_RATE = 0.01         # sessions with missing bars, which ingest drops
PUNCH_BARS = 3

# calib-inmem
WORLD_DAYS = 5000
CASCADE_DAYS = 3000
CASCADE_DEPTH = 8
CASCADE_LAMBDA2 = 0.05
CASCADE_SPANS = (8, 16, 32, 64, 128)
INMEM_WORLDS = 2

# chain-small
SMALL_DAYS = 120
SMALL_WARMUP_CHAINS = 4   # run and checked before timing starts
SMALL_FIT_CHAINS = 24     # fit_d_mean is taken over these, whatever the run length
SMALL_TRACED_CHAINS = 8
IMPORT_PROBES = 9

# The yardstick of ``total_ref``: a fixed computation, timed before each step
# of a pass, so that the speed of a shared host, which swings by 30% over
# seconds to minutes, cancels out of the pass's wall.  Each workload uses the
# one shaped like its own work (see ref_small_unit and ref_large_unit).
REF_SMALL = np.random.default_rng(0).random(120)
REF_UNITS_STEP = 20       # before each step of several seconds: about 0.2 s


def seasonal_profile():
    """The acceptance world's stepped U, closure at 40% of intraday variance."""
    return fc_synth.ActivityProfile.u_steps(
        380, 19, edge_boost=16.0, power=8.0, overnight_mass_ratio=0.4)


def sub_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


@dataclass
class Outcome:
    metrics: dict[str, float]
    ops: Ops
    facts: dict


@dataclass
class PassRecord:
    wall: float
    stages: dict[str, float] = field(default_factory=dict)
    d_values: list[float] = field(default_factory=list)
    truth_err: float = 0.0
    rss_mb: float = 0.0
    ref_units: list[float] = field(default_factory=list)  # s per ref unit, before each step

    @property
    def refs(self) -> float:
        """The pass's wall in ref units, the mean of those timed in the pass."""
        return self.wall / statistics.fmean(self.ref_units)


def tail(samples: list[float]) -> dict:
    """Median and the highest nearest-rank percentile with at least ten
    samples above it (none when there are too few samples)."""
    xs = sorted(samples)
    n = len(xs)
    out = {"samples": n, "p50": statistics.median(xs) if xs else None,
           "tail_pct": None, "tail": None}
    if n >= 11:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = xs[n - 11]
    return out


def timed_passes(seconds: float, min_passes: int, run_pass) -> list[PassRecord]:
    """At least ``min_passes`` passes, then more while the next one is
    expected to finish within ``seconds`` of the first start."""
    records: list[PassRecord] = []
    start = time.perf_counter()
    while len(records) < min_passes or (
        time.perf_counter() - start + statistics.median(r.wall for r in records) <= seconds
    ):
        records.append(run_pass(len(records)))
    return records


def ref_small_unit() -> None:
    """One ref unit of interpreter-bound work, like fitting small classes:
    1,000 rounds of numpy calls on a 120-element array and a short Python sum."""
    acc = 0.0
    for k in range(1000):
        acc += float(np.searchsorted(np.sort(REF_SMALL * (k + 1)), 0.5))
        acc += sum(i * 0.5 for i in range(40))


def ref_large_unit() -> None:
    """One ref unit of array-bound work, like fitting large classes: five
    sorts of 200,000 doubles."""
    for k in range(5):
        np.sort(ref_large_array() * (k + 1))


@functools.cache
def ref_large_array() -> np.ndarray:
    """Made on first use, so that only the workload that uses it pays its
    1.6 MB of peak RSS."""
    return np.random.default_rng(1).random(200_000)


def ref_unit_s(unit, count: int) -> float:
    """Seconds one ``unit()`` takes now, timed over ``count`` calls."""
    start = time.perf_counter()
    for _ in range(count):
        unit()
    return (time.perf_counter() - start) / count


def pass_facts(records: list[PassRecord]) -> dict:
    """Pass walls in seconds, and the ref unit they were measured against."""
    return {"passes": tail([r.wall for r in records]),
            "ref_unit_s": statistics.median(statistics.fmean(r.ref_units) for r in records)}


def truth_error(fitted: list[float], truth: list[float]) -> float:
    f = np.asarray(fitted, dtype=float)
    t = np.asarray(truth, dtype=float)
    return float(np.max(np.abs(f - t) / t))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run one subprocess to completion: (exit code, wall s, peak RSS MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log,
                                env=child_env(), cwd=HERE.parent)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            facts["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    # what calibrate_clock(threads=None), the CLI's --threads 0, launches
    with concurrent.futures.ThreadPoolExecutor() as pool:
        facts["pool_default_workers"] = pool._max_workers
    return facts


def file_facts(path: Path) -> dict:
    with open(path, "rb") as fh:
        lines = sum(1 for _ in fh)
    return {"bytes": path.stat().st_size, "rows": lines - 1}


def class_sizes(spans: list[dict]) -> dict[str, int]:
    sizes: dict[str, int] = {}
    for s in spans:
        if s["name"] == "clock.calibrate_interval":
            sizes.setdefault(s["label"], s["n"])
    return sizes


def finish_trace(spans, untraced, traced, t1_s) -> dict[str, float]:
    m = summarize(spans)
    m["clock.calibrate_clock.t1_s"] = t1_s
    m["clock.truth_rel_err_max"] = max(r.truth_err for r in untraced + traced)
    m["trace.overhead_frac"] = (
        sum(r.wall for r in traced) / sum(r.wall for r in untraced) - 1.0)
    for stage in ("synth", "ingest", "calibrate", "analyze", "compare", "cascade"):
        walls = [r.stages[stage] for r in untraced if stage in r.stages]
        m[f"stage.{stage}_s"] = statistics.median(walls) if walls else 0.0
    return m


def untraced_metrics(setup_walls, records, fit_records) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_walls),
        "total_ref": statistics.median(r.refs for r in records),
        "peak_rss_mb": max(r.rss_mb for r in records),
        "fit_d_mean": float(np.mean([d for r in fit_records for d in r.d_values])),
    }


def timed_t1(series, partition) -> float:
    start = time.perf_counter()
    fc_clock.calibrate_clock(series, partition, threads=1)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# chain-10y


@dataclass
class History:
    csv: Path
    retained: int
    holidays: int
    punched: int
    truth: list[float]
    setup_s: float


def add_gaps(series, rng) -> tuple[object, int, int]:
    """Seeded realism pass: holidays and sessions with missing bars.

    A holiday removes a weekday together with its price path, so the closure
    around it carries one night of variance, like a weekend.  A punched
    session loses ``PUNCH_BARS`` interior bars; it stays in the CSV, and
    ``ingest`` drops it.
    """
    lp = series.log_prices
    keep = rng.random(series.n_days) >= HOLIDAY_RATE
    keep[0] = True
    kept = np.flatnonzero(keep)
    rows = np.empty((kept.size, lp.shape[1]))
    for j, day in enumerate(kept):
        level = lp[0, 0] if j == 0 else rows[j - 1, -1] + lp[day, 0] - lp[day - 1, -1]
        rows[j] = level + (lp[day] - lp[day, 0])
    punched = np.flatnonzero(rng.random(kept.size) < PUNCH_RATE)
    interior = np.arange(1, lp.shape[1] - 1)
    for j in punched:
        rows[j, rng.choice(interior, size=PUNCH_BARS, replace=False)] = np.nan
    gappy = fc_series.PriceSeries(
        grid=series.grid, dates=tuple(series.dates[d] for d in kept), log_prices=rows)
    return gappy, int(series.n_days - kept.size), int(punched.size)


def make_history(seed: int, k: int, work: Path) -> History:
    start = time.perf_counter()
    series, truth = fc_synth.generate_seasonal(
        seasonal_profile(), fc_synth.GeneratorConfig(n_days=CHAIN_DAYS, seed=sub_seed(seed, k)),
        GRID_1MIN)
    gappy, holidays, punched = add_gaps(series, np.random.default_rng(sub_seed(seed, k, 1)))
    path = work / f"prices{k}.csv"
    fc_synth.write_prices_csv(gappy, path)
    setup_s = time.perf_counter() - start
    return History(
        csv=path,
        retained=gappy.n_days - punched,
        holidays=holidays,
        punched=punched,
        truth=list(truth.interval_durations(PARTITION_1MIN)) + [truth.overnight_tau],
        setup_s=setup_s,
    )


CHAIN_STAGES = (("ingest", "ingest"), ("calibrate", "cal"), ("analyze", "an"),
                ("compare-clocks", "cmp"))


def chain10y_argv(hist: History, d: Path) -> list[list[str]]:
    cache = str(d / "ingest" / "cache.json")
    return [
        ["ingest", "--input", str(hist.csv), "--out", str(d / "ingest"),
         "--open", "09:40", "--bar-minutes", "1", "--points", "381"],
        ["calibrate", "--input", cache, "--out", str(d / "cal")],
        ["analyze", "--input", cache, "--out", str(d / "an"), "--clock", "fst",
         "--calibration", str(d / "cal" / "calibration.json")],
        ["compare-clocks", "--input", cache, "--out", str(d / "cmp")],
    ]


def chain10y_pass(hist: History, d: Path, ops: Ops, spans_dir: Path | None) -> PassRecord:
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    rec = PassRecord(wall=0.0)
    for argv, (command, sub) in zip(chain10y_argv(hist, d), CHAIN_STAGES):
        if spans_dir is None:
            child = [sys.executable, "-m", "fstclock.cli", *argv]
        else:
            spans = spans_dir / f"{d.name}-{command}.json"
            child = [sys.executable, str(HERE / "traced_cli.py"), str(spans), str(d / sub), *argv]
        rec.ref_units.append(ref_unit_s(ref_small_unit, REF_UNITS_STEP))
        code, wall, rss = run_child(child, d / f"{command}.log")
        rec.stages["compare" if command == "compare-clocks" else command] = wall
        rec.rss_mb = max(rec.rss_mb, rss)
        if not ops.record(code == 0, f"{command} exited {code}; see {d / (command + '.log')}"):
            # the rest of the chain has no input: each stage left counts as failed
            for later, _ in CHAIN_STAGES[len(rec.stages):]:
                ops.record(False, f"{later} not run")
            rec.wall = sum(rec.stages.values())
            return rec
    rec.wall = sum(rec.stages.values())

    for command, sub in CHAIN_STAGES:
        ops.check(f"{command} files", checks.check_file_set, d / sub, command)
    ops.check("dropped days", checks.check_dropped, d / "ingest" / "cache.json", hist.punched)
    ops.check("durations", checks.check_calibration, d / "cal" / "calibration.json")
    ops.check("timemap", checks.check_timemap, d / "cal" / "timemap.csv", hist.retained)
    ops.check("profile", checks.check_profile, d / "an" / "profile.csv")
    ops.check("dominance", checks.check_comparison, d / "cmp" / "comparison.csv")
    cal = ops.check("calibration.json", lambda: json.loads(
        (d / "cal" / "calibration.json").read_text()))
    rows = ops.check("comparison.csv", checks.dominance_rows, d / "cmp" / "comparison.csv")
    if cal and rows:
        rec.d_values = list(cal["d_values"]) + [fst_d for _, fst_d, _ in rows]
        rec.truth_err = truth_error(
            cal["delta_tau_intraday"] + [cal["delta_tau_night"]], hist.truth)
    return rec


def chain10y(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    ops = Ops()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    hists = [make_history(seed, k, work) for k in range(1 if trace else CHAIN_INPUTS)]
    if tracer:
        tracer.uninstall()
    facts = {
        "inputs": [
            {"csv": file_facts(h.csv), "holidays_removed": h.holidays,
             "sessions_punched": h.punched, "retained_days": h.retained}
            for h in hists
        ],
    }

    def run_pass(i: int, spans_dir=None) -> PassRecord:
        k = i % CHAIN_INPUTS
        return chain10y_pass(hists[k], work / f"in{k}", ops, spans_dir)

    if not trace:
        records = timed_passes(seconds, CHAIN_INPUTS, run_pass)
        metrics = untraced_metrics([h.setup_s for h in hists], records, records[:CHAIN_INPUTS])
    else:
        records = [run_pass(0)]
        spans_dir = work / "spans"
        spans_dir.mkdir()
        traced = [run_pass(0, spans_dir)]
        spans = list(tracer.spans)
        for path in sorted(spans_dir.glob("*.json")):
            spans.extend(load_spans(path))
        cache = work / "in0" / "ingest" / "cache.json"
        t1 = timed_t1(fc_series.load_cache(cache), PARTITION_1MIN)
        metrics = finish_trace(spans, records, traced, t1)
        facts["class_n"] = class_sizes(spans)
    for k, h in enumerate(hists):
        d = work / f"in{k}"
        cache = d / "ingest" / "cache.json"
        if cache.exists():
            facts["inputs"][k]["cache"] = {"bytes": cache.stat().st_size}
            facts["inputs"][k]["ingest_dropped"] = len(
                json.loads(cache.read_text())["dropped_dates"])
        timemap = d / "cal" / "timemap.csv"
        if timemap.exists():
            facts["inputs"][k]["timemap"] = file_facts(timemap)
    facts.update(pass_facts(records))
    if not ops.failures:
        # about 100 MB, most of it not yet on disk: deleting it now keeps its
        # write-back out of whatever runs next
        for k, h in enumerate(hists):
            h.csv.unlink()
            shutil.rmtree(work / f"in{k}")
    return Outcome(metrics, ops, facts)


# ---------------------------------------------------------------------------
# calib-inmem


@dataclass
class World:
    series: object
    truth: list[float]
    cascade: list
    cascade_ref: object
    classes: list
    reference: object
    setup_s: float


GRID_CASCADE = fc_series.DayGrid(
    open_time=dtime(9, 40), bar_minutes=1, n_points=2**CASCADE_DEPTH + 1)


def make_world(seed: int, k: int) -> World:
    start = time.perf_counter()
    series, truth = fc_synth.generate_seasonal(
        seasonal_profile(), fc_synth.GeneratorConfig(n_days=WORLD_DAYS, seed=sub_seed(seed, k)),
        GRID_1MIN)
    cascade = fc_synth.generate_multifractal(
        fc_synth.GeneratorConfig(n_days=CASCADE_DAYS, seed=sub_seed(seed, k, 1),
                                 cascade_depth=CASCADE_DEPTH, cascade_lambda2=CASCADE_LAMBDA2),
        GRID_CASCADE)
    IC = fc_series.IntervalClass
    class_list = [IC.intraday(m - 1, m, PARTITION_1MIN)
                  for m in range(1, PARTITION_1MIN.m_max + 1)]
    class_list += [IC.overnight(), IC.multiday(2)]
    world = World(
        series=series,
        truth=list(truth.interval_durations(PARTITION_1MIN)) + [truth.overnight_tau],
        cascade=[fc_analysis.pooled_bar_sample(cascade, span) for span in CASCADE_SPANS],
        cascade_ref=fc_analysis.pooled_bar_sample(cascade, 2**CASCADE_DEPTH),
        classes=[(c.label, fc_series.class_sample(series, c)) for c in class_list],
        reference=fc_series.class_sample(series, IC.multiday(1)),
        setup_s=0.0,
    )
    world.setup_s = time.perf_counter() - start
    return world


def inmem_pass(world: World, ops: Ops) -> PassRecord:
    rec = PassRecord(wall=0.0)

    def call(what, fn, *args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failed call is counted, and the pass goes on
            ops.record(False, f"{what}: {traceback.format_exc(limit=3)}")
            return None
        ops.record(True, what)
        return result

    def step(name, fn):
        rec.ref_units.append(ref_unit_s(ref_large_unit, REF_UNITS_STEP))
        start = time.perf_counter()
        result = fn()
        rec.stages[name] = time.perf_counter() - start
        return result

    cal = step("calibrate", lambda: call(
        "calibrate_clock", fc_clock.calibrate_clock, world.series, PARTITION_1MIN,
        threads=None))
    cascade = step("cascade", lambda: [
        call(f"calibrate_interval[{s.interval.label}]", fc_clock.calibrate_interval,
             s, world.cascade_ref) for s in world.cascade])
    comp = step("compare", lambda: call(
        "compare_clocks", fc_moment.compare_clocks, world.classes, world.reference,
        orders=(1.0, 2.0, 3.0)))
    rec.wall = sum(rec.stages.values())
    rec.rss_mb = peak_rss_mb()

    if cal is not None:
        durations = list(cal.intraday_durations) + [cal.overnight_duration]
        ops.check("calibrate_clock durations", checks.check_durations, durations)
        rec.d_values += list(cal.intraday_d) + [cal.overnight_d]
        rec.truth_err = truth_error(durations, world.truth)
    fitted = [r for r in cascade if r is not None]
    ops.check("cascade durations", checks.check_durations, [r.delta_tau for r in fitted])
    rec.d_values += [r.ks.d for r in fitted]
    if comp is not None:
        ops.check("compare durations", checks.check_durations,
                  [row.fst.delta_tau for row in comp.rows])
        ops.check("dominance", checks.check_dominance,
                  [(row.label, row.fst.ks.d, [m.ks.d for m in row.moments])
                   for row in comp.rows])
        rec.d_values += [row.fst.ks.d for row in comp.rows]
    return rec


def calib_inmem(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    ops = Ops()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    worlds = [make_world(seed, k) for k in range(1 if trace else INMEM_WORLDS)]
    if tracer:
        tracer.uninstall()
    facts = {
        "inputs": [{"seasonal_days": WORLD_DAYS, "cascade_days": CASCADE_DAYS,
                    "class_n": {label: s.n for label, s in w.classes}
                    | {"1-day": w.reference.n}
                    | {s.interval.label: s.n for s in w.cascade}
                    | {"reference[256]": w.cascade_ref.n}} for w in worlds[:1]],
    }

    def run_pass(i: int) -> PassRecord:
        return inmem_pass(worlds[i % INMEM_WORLDS], ops)

    if not trace:
        records = timed_passes(seconds, INMEM_WORLDS, run_pass)
        metrics = untraced_metrics([w.setup_s for w in worlds], records, records[:INMEM_WORLDS])
    else:
        records = [run_pass(0)]
        tracer.install()
        try:
            traced = [run_pass(0)]
        finally:
            tracer.uninstall()
        t1 = timed_t1(worlds[0].series, PARTITION_1MIN)
        metrics = finish_trace(tracer.spans, records, traced, t1)
    facts.update(pass_facts(records))
    return Outcome(metrics, ops, facts)


# ---------------------------------------------------------------------------
# chain-small


def small_argv(seed: int, d: Path) -> list[tuple[str, list[str], Path]]:
    prices = str(d / "synth" / "prices.csv")
    return [
        ("synth", ["synth", "--out", str(d / "synth"), "--days", str(SMALL_DAYS),
                   "--seed", str(seed), "--points", "20", "--profile", "u-steps",
                   "--steps", "19"], d / "synth"),
        ("calibrate", ["calibrate", "--input", prices, "--out", str(d / "cal"),
                       "--points", "20"], d / "cal"),
        ("analyze", ["analyze", "--input", prices, "--out", str(d / "an"), "--points", "20",
                     "--clock", "fst", "--calibration", str(d / "cal" / "calibration.json")],
         d / "an"),
    ]


def run_cli(argv: list[str], out: Path, tracer: Tracer | None) -> int:
    """One in-process CLI command; its stdout report is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            return fc_cli.main(argv)
        return traced_main(tracer, argv, out)


def small_chain(seed: int, d: Path, ops: Ops, tracer: Tracer | None) -> PassRecord:
    rec = PassRecord(wall=0.0)
    start = time.perf_counter()
    for command, argv, out in small_argv(seed, d):
        t0 = time.perf_counter()
        try:
            code = run_cli(argv, out, tracer)
        except Exception:  # an uncaught error is a failed command, not a stopped run
            code = f"an exception:\n{traceback.format_exc(limit=3)}"
        rec.stages[command] = time.perf_counter() - t0
        if not ops.record(code == 0, f"{command} (seed {seed}) exited {code}"):
            rec.wall = time.perf_counter() - start
            return rec
    rec.wall = time.perf_counter() - start
    rec.rss_mb = peak_rss_mb()

    for command, _, out in small_argv(seed, d):
        ops.check(f"{command} files", checks.check_file_set, out, command)
    ops.check("durations", checks.check_calibration, d / "cal" / "calibration.json")
    ops.check("timemap", checks.check_timemap, d / "cal" / "timemap.csv", SMALL_DAYS)
    cal = ops.check("calibration.json", lambda: json.loads(
        (d / "cal" / "calibration.json").read_text()))
    truth = ops.check("truth.json", lambda: json.loads((d / "synth" / "truth.json").read_text()))
    if cal and truth:
        rec.d_values = list(cal["d_values"])
        bars = truth["bar_tau"]  # one bar per partition interval on the 20-minute grid
        rec.truth_err = truth_error(cal["delta_tau_intraday"] + [cal["delta_tau_night"]],
                                    bars + [truth["overnight_tau"]])
    return rec


def replay_probe(d: Path, ops: Ops) -> None:
    """Re-run a finished chain from its own manifests; every file must match."""
    before = checks.snapshot(d)
    for command, sub in (("synth", "synth"), ("calibrate", "cal"), ("analyze", "an")):
        argv = [command, "--config", str(d / sub / "manifest.json")]
        try:
            code = run_cli(argv, d / sub, None)
        except Exception:  # counted below as a failed replay
            code = f"an exception:\n{traceback.format_exc(limit=3)}"
        ops.record(code == 0, f"replay {command} exited {code}")
    ops.check("replay bytes", checks.check_same_bytes, before, checks.snapshot(d))


def import_probe_s() -> float:
    """Time a fresh interpreter takes to import the CLI, as each command does."""
    code = ("import time; t = time.perf_counter(); import fstclock.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=HERE.parent,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip())


def chain_small(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    # One CPU.  On these tiny tasks the six-thread pool otherwise hands the
    # GIL back and forth between cores, and a process falls, from run to run,
    # into one of two regimes 20-50% apart (hundreds against tens of
    # thousands of context switches per chain).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ops = Ops()
    base = seed * 1000

    def run_pass(i: int, tracer=None) -> PassRecord:
        unit = ref_unit_s(ref_small_unit, 1)
        # chain 0 keeps its own directory for the replay probe
        rec = small_chain(base + i, work / ("c0" if i == 0 else "c1"), ops, tracer)
        rec.ref_units.append(unit)
        return rec

    facts: dict = {}
    if not trace:
        setup = [import_probe_s() for _ in range(IMPORT_PROBES)]
        warmup = [run_pass(i) for i in range(SMALL_WARMUP_CHAINS)]
        records = timed_passes(seconds, SMALL_FIT_CHAINS,
                               lambda i: run_pass(SMALL_WARMUP_CHAINS + i))
        metrics = untraced_metrics(setup, records, (warmup + records)[:SMALL_FIT_CHAINS])
    else:
        records = [run_pass(i) for i in range(SMALL_TRACED_CHAINS)]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run_pass(i, tracer) for i in range(SMALL_TRACED_CHAINS)]
        finally:
            tracer.uninstall()
        series = fc_series.filter_complete_days(fc_series.load_series(
            work / "c0" / "synth" / "prices.csv",
            grid=fc_series.DayGrid(open_time=dtime(9, 40), bar_minutes=20, n_points=20)))
        partition = fc_series.PartitionSpec.equal_spacing(series.grid, 20.0)
        t1 = timed_t1(series, partition)
        metrics = finish_trace(tracer.spans, records, traced, t1)
        facts["class_n"] = class_sizes(tracer.spans)
    replay_probe(work / "c0", ops)
    facts["inputs"] = [{"csv": file_facts(work / "c0" / "synth" / "prices.csv")}]
    facts.update(pass_facts(records))
    return Outcome(metrics, ops, facts)


WORKLOADS = {
    "chain-10y": chain10y,
    "calib-inmem": calib_inmem,
    "chain-small": chain_small,
}
