"""Output checks for the benchmark workloads.

Each check raises ``CheckFailed`` with a reason when an output breaks a
promise the package makes; the bounds are the acceptance suite's, unchanged.
The workloads count every check as one operation.
"""
from __future__ import annotations

import csv
import json
import math
import traceback
from pathlib import Path

# Files each command documents, next to the two every command writes.
DOCUMENTED_FILES = {
    "synth": {"prices.csv", "truth.json"},
    "ingest": {"cache.json"},
    "calibrate": {"calibration.json", "timemap.csv", "cutoff.json", "additivity.csv"},
    "analyze": {"moments.csv", "hurst.csv", "collapse.csv", "profile.csv", "autocorr.csv",
                "contiguous.json"},
    "compare-clocks": {"comparison.csv"},
}
ALWAYS_WRITTEN = {"manifest.json", "resolved_config.json"}

DOMINANCE_TOL = 1e-12    # criterion 8
PROFILE_PEAK_LIMIT = 1.10  # criterion 4


class CheckFailed(Exception):
    pass


def _read_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_file_set(out_dir, command: str) -> None:
    """The command wrote exactly its documented files."""
    expected = DOCUMENTED_FILES[command] | ALWAYS_WRITTEN
    found = {p.name for p in Path(out_dir).iterdir() if p.is_file()}
    if found != expected:
        raise CheckFailed(
            f"{command} wrote {sorted(found)}, documented {sorted(expected)}")


def check_durations(values) -> None:
    """Every fitted duration is finite and strictly positive."""
    values = [float(v) for v in values]
    if not values:
        raise CheckFailed("no durations")
    bad = [v for v in values if not (math.isfinite(v) and v > 0)]
    if bad:
        raise CheckFailed(f"durations not finite and positive: {bad[:5]}")


def calibration_durations(path) -> list[float]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return list(payload["delta_tau_intraday"]) + [payload["delta_tau_night"]]


def check_calibration(path) -> None:
    check_durations(calibration_durations(path))


def check_timemap(path, retained_days: int, points: int = 20) -> None:
    """One anchor per partition boundary of every retained day plus the
    terminal anchor, with strictly increasing clock values."""
    rows = _read_csv(path)
    expected = retained_days * points + 1
    if len(rows) != expected:
        raise CheckFailed(f"timemap has {len(rows)} rows, expected {expected}")
    tau = [float(r["tau_fst"]) for r in rows]
    for k in range(1, len(tau)):
        if not tau[k] > tau[k - 1]:
            raise CheckFailed(f"tau_fst not increasing at data row {k + 1}")


def dominance_rows(path) -> list[tuple[str, float, list[float]]]:
    """(class, fitted D, moment-clock Ds) for each comparison.csv row."""
    out = []
    for r in _read_csv(path):
        moments = [float(v) for k, v in r.items() if k.startswith("q") and k.endswith("_D")]
        out.append((r["class"], float(r["fst_D"]), moments))
    return out


def check_dominance(rows) -> None:
    """The fitted D is no worse than any moment clock's D on every class."""
    if not rows:
        raise CheckFailed("no comparison rows")
    for label, fst_d, moment_ds in rows:
        if not moment_ds:
            raise CheckFailed(f"{label}: no moment-clock columns")
        worst = min(moment_ds)
        if fst_d > worst + DOMINANCE_TOL:
            raise CheckFailed(f"{label}: fitted D {fst_d!r} above moment-clock D {worst!r}")


def check_comparison(path) -> None:
    check_dominance(dominance_rows(path))


def profile_peak_to_mean(path) -> float:
    sigma = [float(r["sigma"]) for r in _read_csv(path)]
    if not sigma:
        raise CheckFailed("empty profile")
    return max(sigma) / (sum(sigma) / len(sigma))


def check_profile(path, limit: float = PROFILE_PEAK_LIMIT) -> float:
    """Peak-to-mean of the clock-time volatility profile stays under the limit."""
    peak = profile_peak_to_mean(path)
    if not peak <= limit:
        raise CheckFailed(f"profile peak-to-mean {peak!r} above {limit}")
    return peak


def check_dropped(cache_path, expected: int) -> int:
    """The cache records exactly the sessions the realism pass punched."""
    with open(cache_path, "r", encoding="utf-8") as fh:
        dropped = len(json.load(fh)["dropped_dates"])
    if dropped != expected:
        raise CheckFailed(f"ingest dropped {dropped} days, {expected} sessions were punched")
    return dropped


def snapshot(root) -> dict[str, bytes]:
    """Every file under ``root`` by relative path."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def check_same_bytes(before: dict[str, bytes], after: dict[str, bytes]) -> None:
    differing = sorted(n for n in set(before) | set(after) if before.get(n) != after.get(n))
    if differing:
        raise CheckFailed(f"replay differs in {differing}")


class Ops:
    """Attempted and failed operations of one run: commands, calls and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def check(self, name: str, fn, *args, **kwargs):
        """Run one output check; any exception is a failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a malformed output must count, not stop the run
            self.failed += 1
            detail = str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc(limit=2)
            self.failures.append(f"{name}: {detail}")
            return None
