"""Clock calibration: per-interval durations that best collapse return CDFs.

Each partition interval (and the overnight closure) gets the duration
``delta_tau`` minimising the rescaled KS distance between its returns, scaled
by 1/sqrt(delta_tau), and a reference ensemble whose duration defines the
unit.  The default reference is the one-day open-to-open class, so a full
day, closure included, measures 1 by construction.  Durations are additive:
the calibrated axis is assembled by summing interval durations within the
day and stacking whole days.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from datetime import date, datetime, timedelta
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ClassSpecError, DataError, MapRangeError
from .ks import KsResult, Sorted, ks_count
from .series import (
    DayGrid,
    IntervalClass,
    PartitionSpec,
    PriceSeries,
    ReturnSample,
    class_sample,  # noqa: F401  (perfbench's tracer wraps this name)
    class_samples,
    day_numbers,
    dropped_between,
    next_weekday,
    parse_class_spec,
    parse_class_specs,
    synthetic_dates,
)

# Naive-datetime epoch for the time map, so the mapping never touches the
# process timezone and stays deterministic across machines.
_EPOCH = datetime(1970, 1, 1)


def _to_seconds(t: datetime) -> float:
    return (t - _EPOCH).total_seconds()


def _from_seconds(s: float) -> datetime:
    return _EPOCH + timedelta(seconds=round(s, 6))


@dataclass(frozen=True)
class SearchConfig:
    """Window of durations a class may receive.

    The minimisation inside it is exact (see ``calibrate_interval``), so the
    window is its only setting.
    """

    delta_tau_min: float = 1e-4
    delta_tau_max: float = 1e2

    def __post_init__(self):
        if not (math.isfinite(self.delta_tau_min) and math.isfinite(self.delta_tau_max)):
            raise ValueError("need finite delta_tau_min and delta_tau_max")
        if not (0 < self.delta_tau_min < self.delta_tau_max):
            raise ValueError("need 0 < delta_tau_min < delta_tau_max")


@dataclass(frozen=True)
class CalibrationResult:
    """Best duration for one interval class.

    ``cell`` is the interval (delta_tau_lo, delta_tau_hi) of durations whose
    KS distance is minimal, clipped to the window: the resolution of the
    argmin, not a confidence set.  The sampling error of the duration is far
    wider: on 2,500-day synthetic classes its rms log error was 26 times the
    median cell log-width.  ``delta_tau`` is the cell's geometric midpoint.
    ``ks`` is the optimal KS count as a ``KsResult``, equal to
    ``rescaled_ks(x_ref, y, delta_tau)`` field for field.
    ``n_evaluations`` counts the feasibility checks the search made.
    """

    delta_tau: float
    ks: KsResult
    boundary_warning: bool
    n_evaluations: int
    cell: tuple[float, float]


# Near pairs up to which a Python loop settles faster than numpy's masks
# (about 64 on a 2-vCPU VM; a fit has one to three, identical samples thousands).
_SCALAR_SETTLE = 64
_TINY = float(np.finfo(float).tiny)  # the smallest normal double


def _first_divisor(a: np.ndarray, b: np.ndarray, largest: bool) -> float:
    """Largest (or smallest) over pairs a, b > 0 of the first float q with fl(a/q) <= b.

    fl(a/q) never rises with q, and a/b is within an ulp or two of each
    answer, so only pairs near the extreme a/b (inf included) can hold it;
    one-ulp steps settle those, in Python floats (IEEE doubles too) unless
    ties leave more than ``_SCALAR_SETTLE`` of them, as identical samples do.
    Below the normal range b's spacing is 2**-1074 whatever its size, so
    there the answer is a / (b + 2**-1075), not a/b: scaled by 2**54, both
    terms are exact.  b is monotone along both families of pairs, so its
    ends tell whether any b is that small.
    """
    q = a / b
    if min(b[0], b[-1]) < _TINY:
        sub = b < _TINY
        q[sub] = a[sub] * 2.0**54 / (b[sub] * 2.0**54 + 2.0**-1021)
    near = np.flatnonzero(q >= q.max() * (1 - 1e-14) if largest else q <= q.min() * (1 + 1e-14))
    a, b, q = a[near], b[near], q[near]
    if near.size > _SCALAR_SETTLE:
        while (up := a / q > b).any():
            q[up] = np.nextafter(q[up], np.inf)
        while (down := a / (below := np.nextafter(q, 0.0)) <= b).any():
            q[down] = below[down]
        return float(q.max() if largest else q.min())
    firsts = []
    for a_t, b_t, q_t in zip(a.tolist(), b.tolist(), q.tolist()):
        while a_t / q_t > b_t:
            q_t = math.nextafter(q_t, math.inf)
        while a_t / (below := math.nextafter(q_t, 0.0)) <= b_t:
            q_t = below
        firsts.append(q_t)
    return max(firsts) if largest else min(firsts)


class _HalfLines(NamedTuple):
    """Sorted tables that one family of half-line pairs reads.

    Pair t is (y[iy[t]], x[ix[t]]) for index sequences iy, ix that never
    fall, so both members ascend along the family.  ``neg_y`` is -y and
    ``prev_neg_x`` the float before -x toward 0, for the pairs that bound q
    from above; ``y_neg``, ``y_nonpos`` and ``x_neg`` count the entries of y
    below 0 and up to 0, and of x below 0.  The x fields are ``_Reference``'s.
    """

    y: np.ndarray
    neg_y: np.ndarray
    y_neg: int
    y_nonpos: int
    x: np.ndarray
    prev_neg_x: np.ndarray
    x_neg: int


class _Reference(Sorted):
    """The reference sorted once per call, with both families' ``_HalfLines`` x fields."""

    def __init__(self, sample):
        super().__init__(sample)
        self.first, self.second = (
            (x, np.nextafter(-x, 0.0), int(x.searchsorted(0.0))) for x in (self.xs, -self.xs[::-1]))


def _pick(a: np.ndarray, idx, start: int, stop: int) -> np.ndarray:
    # a[idx[start:stop]]; an int idx is the run idx, idx + 1, ..., read as a slice
    return a[idx + start : idx + stop] if isinstance(idx, int) else a[idx[start:stop]]


def _rank(idx, v: int, size: int) -> int:
    # entries of the index sequence idx, of length size, below v
    return min(max(v - idx, 0), size) if isinstance(idx, int) else int(idx.searchsorted(v))


def _divisor_bounds(h: _HalfLines, iy, ix, lo: float, hi: float) -> tuple[float, float]:
    """Narrow [lo, hi] to the floats q > 0 with fl(y/q) <= x for every pair of ``h``.

    Each pair is a half-line: q >= a bound if y > 0 (none if x <= 0), q <= a
    bound if y < 0 and x < 0, else all q or none.  Along the family the
    pairs with y > 0 form a suffix, those with y < 0 and those with x < 0
    prefixes, so each test reads the one pair at a slice's edge.  One of
    ``iy`` and ``ix`` is an index array, the other an int run start.  lo > hi
    means empty.
    """
    size = ix.size if isinstance(iy, int) else iy.size
    z, p = _rank(iy, h.y_neg, size), _rank(iy, h.y_nonpos, size)
    if (p < size and _pick(h.x, ix, p, p + 1)[0] <= 0) or (z < p and _pick(h.x, ix, z, z + 1)[0] < 0):
        return lo, -math.inf
    if p < size:
        lo = max(lo, _first_divisor(_pick(h.y, iy, p, size), _pick(h.x, ix, p, size), largest=True))
    if (w := min(z, _rank(ix, h.x_neg, size))) > 0:
        # fl(|y|/q) >= |x| up to the float before fl(|y|/q) <= prev(|x|)
        out = _first_divisor(_pick(h.neg_y, iy, 0, w), _pick(h.prev_neg_x, ix, 0, w), largest=False)
        hi = min(hi, math.nextafter(out, 0.0))
    return lo, hi


def _optimal_cell(ref, ys, q_min: float, q_max: float) -> tuple[float, float, int, int]:
    """Smallest KS count of ``ref`` (a ``_Reference`` or sorted values) against sorted ys / q.

    Returns the divisor cell (lo, hi), the count k_hi and the checks made.

    The search keeps k_hi, a count known to be feasible, and k_lo, below
    which every count has been checked infeasible.  It starts from the exact
    count at a first divisor q0, the ratio of the interquartile ranges,
    clipped into the window: q0 lies in its own cell, so that count is
    feasible.  Each check asks whether k_hi - 1 is feasible: if not, k_hi
    is optimal; if so, the exact count at the geometric midpoint of the cell
    found, and at each window edge the cell touches, becomes k_hi if lower.
    From (n_x n_y).bit_length() checks on the search bisects [k_lo, k_hi],
    so it takes at most about twice the checks of a plain bisection over
    [0, n_x n_y].  k_hi stays feasible and k_lo rises only past infeasible
    counts, so the search ends at the same smallest count as that
    bisection, and its cell comes from the same check.
    """
    xs = (ref := _Reference.of(ref)).xs
    m, n = xs.size, ys.size
    i_n = np.arange(1, m + 1, dtype=np.int64) * n
    j_m = np.arange(n, 0, -1, dtype=np.int64) * m
    # the second family's pairs (-y_(j), -x_(i)) fall with j; reversed, they
    # rise.  Each family's -y is the other's y read backwards.
    nys = -ys[::-1]
    y_neg, y_nonpos = int(ys.searchsorted(0.0, "left")), int(ys.searchsorted(0.0, "right"))
    first = _HalfLines(ys, nys[::-1], y_neg, y_nonpos, *ref.first)
    second = _HalfLines(nys, ys[::-1], n - y_nonpos, n - y_neg, *ref.second)

    def cell(k: int) -> tuple[float, float]:
        """Divisors in the window whose count is at most k; lo > hi means none."""
        a, b = k // n, k // m  # the half-lines start at x_(a+1) and y_(b+1)
        # 0-based: ceil((i n_y - k) / n_x) - 1 = (i n_y - k - 1) // n_x for i > a
        j = (i_n[a:] - (k + 1)) // m
        c = _divisor_bounds(first, j, a, q_min, q_max)
        if c[0] <= c[1]:  # an empty cell stays empty
            # for j = n_y down to b + 1, where x_(i) sits in the reversed table
            i = (m - 1) - (j_m[: n - b] - (k + 1)) // n
            c = _divisor_bounds(second, 0, i, *c)
        return c

    # interquartile ranges, as Python floats, whose ratio overflows to inf silently
    spread_x, spread_y = float(xs[3 * m // 4] - xs[m // 4]), float(ys[3 * n // 4] - ys[n // 4])
    q0 = spread_y / spread_x if spread_x > 0 and spread_y > 0 else 1.0
    k_lo, k_hi, best = 0, ks_count(ref, ys / min(max(q0, q_min), q_max)), None
    checks, guided = 0, (m * n).bit_length()
    while k_lo < k_hi:
        # while guided, an infeasible k_hi - 1 ends the search
        k = k_hi - 1 if checks < guided else (k_lo + k_hi) // 2
        c = cell(k)
        checks += 1
        if c[0] <= c[1]:
            k_hi, best = k, c
            if checks < guided:
                # every divisor in the cell counts at most k; an optimum the
                # window clips sits at the window edge its cells touch
                probes = {math.sqrt(c[0] * c[1]), *({q_min, q_max} & set(c))}
                if (k_in := min(ks_count(ref, ys / p) for p in probes)) < k:
                    k_hi, best = k_in, None
        else:
            k_lo = k + 1
    if best is None:
        best = cell(k_hi)
        checks += 1
    return best[0], best[1], k_hi, checks


def calibrate_interval(
    y: ReturnSample,
    x_ref: ReturnSample,
    cfg: SearchConfig | None = None,
) -> CalibrationResult:
    """Duration of one interval class in units of the reference duration.

    Minimises the rescaled KS distance of y / q, q = sqrt(delta_tau), against
    the reference, exactly.  The KS count sup_z |n_y C_x(z) - n_x C_{y/q}(z)|
    (C counts the points <= z) is at most k exactly when q lies on every
    half-line x_(i) <= y_(j) / q, i = ceil((j n_x - k) / n_y), and
    y_(j) / q <= x_(i), j = ceil((i n_y - k) / n_x), for indices >= 1.  So
    the objective is quasi-convex.  After one sort of each sample, a search
    on k (see ``_optimal_cell``), one vectorised check per step, finds the smallest
    count whose cell of q meets the window.  It starts from the exact count
    at the ratio of interquartile ranges and lowers it by the exact counts
    inside the cells it finds: 2 to 7 checks for classes of 2,499 to 96,000
    returns, where a bisection over [0, n_x n_y] takes 23 to 28.  The
    duration is the cell's geometric midpoint: exactly 1.0 for identical
    samples, 4.0 for y = 2x.  ``ks`` is built from the optimal count the
    search certified.  The bounds are exact in the arithmetic of
    ``rescaled_ks`` (``y / sqrt(delta_tau)``) and sqrt(q * q) == q, so
    ``rescaled_ks`` at ``delta_tau`` measures that same count, and a cell
    that is one point on tied data is reproduced.  ``boundary_warning``
    means the window bounds the cell.  ``x_ref`` may be a ``_Reference``
    that a caller of many fits built once; every caller fits through ``_fit``.
    """
    return _fit(np.sort(y.values), _Reference.of(x_ref), cfg or SearchConfig())


def _fit(ys: np.ndarray, ref: _Reference, cfg: SearchConfig) -> CalibrationResult:
    """``calibrate_interval`` of the sorted class values ``ys`` against ``ref``."""
    # the divisors whose squares fall inside the duration window
    q_min, q_max = math.sqrt(cfg.delta_tau_min), math.sqrt(cfg.delta_tau_max)
    if q_min * q_min < cfg.delta_tau_min:
        q_min = math.nextafter(q_min, math.inf)
    if q_max * q_max > cfg.delta_tau_max:
        q_max = math.nextafter(q_max, 0.0)
    lo, hi, k, checks = _optimal_cell(ref, ys, q_min, q_max)
    q = math.sqrt(lo * hi)
    return CalibrationResult(
        delta_tau=q * q,
        ks=KsResult.from_count(k, ref.xs.size, ys.size),
        boundary_warning=lo == q_min or hi == q_max,
        n_evaluations=checks,
        cell=(
            cfg.delta_tau_min if lo == q_min else lo * lo,
            cfg.delta_tau_max if hi == q_max else hi * hi,
        ),
    )


class ClassFit(NamedTuple):
    """One calibrated class: its duration, KS distance, optimal cell and window flag.

    ``cell`` is None for a duration that was not fitted (a ground-truth
    clock, a hand-built one).
    """

    label: str
    delta_tau: float
    d: float
    cell: tuple[float, float] | None = None
    boundary_warning: bool = False


def calibrated_classes(partition: PartitionSpec) -> list[IntervalClass]:
    """The classes a clock calibrates, in order: the partition's intervals, then the night."""
    return partition.intervals() + [IntervalClass.overnight()]


@dataclass(frozen=True)
class ClockCalibration:
    """Calibrated durations for every partition interval plus the closure.

    ``classes`` holds one ``ClassFit`` per class of ``calibrated_classes``:
    the intervals in order, the night last.  Their cells are all given or
    all None, and a given cell lies in the search window and holds its
    duration.  A class flagged by ``boundary_warning`` that has a cell
    touches a window edge with it.
    """

    classes: tuple[ClassFit, ...]
    reference_label: str
    search: SearchConfig

    def __post_init__(self):
        classes = tuple(self.classes)
        if len(classes) < 2 or not all(isinstance(c, ClassFit) for c in classes):
            raise DataError("need a ClassFit per interval, then one for the night")
        _checked([c.delta_tau for c in classes], "duration", zero_ok=False)
        _checked([c.d for c in classes], "D value", zero_ok=True)
        if len({c.cell is None for c in classes}) > 1:
            raise DataError("need a cell for every class or for none")
        lo, hi = self.search.delta_tau_min, self.search.delta_tau_max
        for c in classes:
            if c.cell is None:
                continue
            if not lo <= c.cell[0] <= c.delta_tau <= c.cell[1] <= hi:
                raise DataError(
                    f"cell {list(c.cell)} of {c.label!r} does not hold {c.delta_tau} in the window")
            # a fit flags a class exactly when its cell was clipped to a window edge
            if c.boundary_warning and lo < c.cell[0] and c.cell[1] < hi:
                raise DataError(
                    f"{c.label!r} is flagged, but its cell {list(c.cell)} touches neither window edge")
        object.__setattr__(self, "classes", classes)

    # read-only views of ``classes`` for the benchmark in ``perfbench/``, which reads these names
    intraday_durations = property(lambda self: np.array([c.delta_tau for c in self.classes[:-1]]))
    overnight_duration = property(lambda self: self.classes[-1].delta_tau)
    intraday_d = property(lambda self: np.array([c.d for c in self.classes[:-1]]))
    overnight_d = property(lambda self: self.classes[-1].d)
    boundary_warnings = property(lambda self: tuple(c.label for c in self.classes if c.boundary_warning))

    @property
    def m_max(self) -> int:
        return len(self.classes) - 1

    @property
    def trading_total(self) -> float:
        return float(np.sum([c.delta_tau for c in self.classes[:-1]]))

    @property
    def day_total(self) -> float:
        return self.trading_total + self.classes[-1].delta_tau

    def to_json_dict(self) -> dict:
        return {
            "reference_class": self.reference_label,
            "delta_tau_intraday": [float(c.delta_tau) for c in self.classes[:-1]],
            "delta_tau_night": float(self.classes[-1].delta_tau),
            "d_values": [float(c.d) for c in self.classes],
            "search_config": asdict(self.search),
            "delta_tau_cells": [[float(c.cell[0]), float(c.cell[1])] for c in self.classes if c.cell],
            "boundary_warnings": [c.label for c in self.classes if c.boundary_warning],
        }

    @classmethod
    def from_json_dict(cls, payload: dict, partition: PartitionSpec) -> "ClockCalibration":
        """Rebuild a calibration from ``to_json_dict`` output, labelled by ``partition``'s classes.

        A missing or malformed entry raises ``DataError`` naming the entry;
        a calibration of another number of intervals, ``ClassSpecError``.
        """
        if not isinstance(payload, dict):
            raise DataError("the calibration is not a JSON object")
        classes = calibrated_classes(partition)
        entry = "search_config"
        try:
            sc = payload["search_config"]
            search = SearchConfig(delta_tau_min=sc["delta_tau_min"], delta_tau_max=sc["delta_tau_max"])
            entry = "delta_tau_intraday"
            durations = _checked(payload["delta_tau_intraday"], "duration", zero_ok=False)
            _check_interval_count(durations.size, partition)
            entry = "delta_tau_night"
            night = float(payload["delta_tau_night"])
            _checked(night, "duration", zero_ok=False)
            entry = "d_values"
            d_values = _checked(payload["d_values"], "D value", zero_ok=True)
            if d_values.size != durations.size + 1:
                raise ValueError(f"{d_values.size} values for {durations.size} intervals and the night")
            entry = "reference_class"
            label = payload["reference_class"]
            if not isinstance(label, str):
                raise TypeError(f"expected a class label, got {type(label).__name__}")
            entry = "boundary_warnings"
            warnings = payload.get("boundary_warnings", [])
            if not isinstance(warnings, list) or not all(isinstance(w, str) for w in warnings):
                raise TypeError("expected a list of class labels")
            if unknown := set(warnings) - {c.label for c in classes}:
                raise ValueError(f"{sorted(unknown)[0]!r} names no class")
            if warnings != [c.label for c in classes if c.label in warnings]:
                raise ValueError(f"{warnings} does not name each class once, in class order")
            entry = "delta_tau_cells"
            cells = [(float(lo), float(hi)) for lo, hi in payload.get("delta_tau_cells", [])]
            if len(cells) not in (0, len(classes)):
                raise ValueError(f"{len(cells)} cells for {partition.m_max} intervals and the night")
            rows = zip(classes, [*durations.tolist(), night], d_values.tolist(),
                       cells or [None] * len(classes))
            fits = (ClassFit(c.label, t, d, cell, c.label in warnings) for c, t, d, cell in rows)
            return cls(tuple(fits), label, search)
        except KeyError as exc:
            raise DataError(f"the calibration has no {exc.args[0]!r} entry") from None
        except (TypeError, ValueError, DataError) as exc:
            raise DataError(f"the calibration's {entry!r} entry is malformed ({exc})") from None


def _check_interval_count(m_max: int, partition: PartitionSpec) -> None:
    if m_max != partition.m_max:
        raise ClassSpecError(f"calibration has {m_max} intervals, partition {partition.m_max}")


def _checked(values, what: str, zero_ok: bool) -> np.ndarray:
    """``values`` as a 1-d float array, all finite and > 0 (>= 0 if ``zero_ok``); else DataError."""
    a = np.atleast_1d(np.asarray(values, dtype=float))
    if a.ndim != 1 or a.size == 0:
        raise DataError(f"expected a non-empty list of {what}s")
    bad = ~np.isfinite(a) | ((a < 0) if zero_ok else (a <= 0))
    if bad.any():
        sign = "non-negative" if zero_ok else "positive"
        raise DataError(f"{float(a[bad][0])} is not a finite {sign} {what}")
    return a


def calibrate_clock(
    series: PriceSeries,
    partition: PartitionSpec,
    cfg: SearchConfig | None = None,
    reference: IntervalClass | None = None,
    threads: int | None = 1,
) -> ClockCalibration:
    """Calibrate every partition interval and the closure against a reference.

    The classes are fitted one after another on the calling thread, night
    last, against one ``_Reference`` sorted and tabulated once.  ``threads``
    is accepted and ignored: each exact fit takes a few milliseconds, less
    than a thread pool costs to spread them, and the keyword stays only
    because the benchmark in ``perfbench/`` still passes it.
    """
    cfg = cfg or SearchConfig()
    partition.check_grid(series.grid)
    ref_class = reference or IntervalClass.multiday(1)
    classes = calibrated_classes(partition)
    ref_sample, *samples = class_samples(series, [ref_class, *classes])
    x_ref = _Reference(ref_sample)
    fits = [(c, calibrate_interval(s, x_ref, cfg)) for c, s in zip(classes, samples)]
    return ClockCalibration(
        tuple(ClassFit(c.label, r.delta_tau, r.ks.d, r.cell, r.boundary_warning) for c, r in fits),
        reference_label=ref_class.label,
        search=cfg,
    )


# ---------------------------------------------------------------------------
# Time map


@dataclass(frozen=True)
class TimeMap:
    """Piecewise-linear bijection between physical instants and clock values.

    Anchor k of day l sits at the partition boundaries; between anchors the
    map interpolates linearly in physical time, overnight closures included
    (a closure spans exactly the calibrated overnight duration regardless of
    its wall-clock length, so weekends compress onto the same span as plain
    nights; each filter-dropped session inside a closure adds one full day).
    Strictly increasing in both directions by construction.  The trading
    hours of a dropped session have no clock value of their own: instants
    inside them raise ``MapRangeError`` either way.
    """

    grid: DayGrid
    partition: PartitionSpec
    calibration: ClockCalibration
    dates: tuple[date, ...]
    anchor_seconds: np.ndarray
    anchor_tau: np.ndarray
    dropped_dates: frozenset[date] = frozenset()

    @property
    def n_days(self) -> int:
        return len(self.dates) - 1  # final date only carries the terminal anchor

    def _check_not_dropped(self, t: datetime) -> None:
        if t.date() in self.dropped_dates and (
            self.grid.open_time <= t.time() <= self.grid.close_time
        ):
            raise MapRangeError(f"{t.isoformat()} falls inside a dropped session")

    def map_time(self, t: datetime) -> float:
        """Clock value of a physical instant inside the mapped span."""
        s = _to_seconds(t)
        if s < self.anchor_seconds[0] or s > self.anchor_seconds[-1]:
            raise MapRangeError(f"{t.isoformat()} outside the mapped span")
        self._check_not_dropped(t)
        return float(np.interp(s, self.anchor_seconds, self.anchor_tau))

    def map_tau(self, tau: float) -> datetime:
        """Physical instant of a clock value; inverse of ``map_time``."""
        if tau < self.anchor_tau[0] or tau > self.anchor_tau[-1]:
            raise MapRangeError(f"tau={tau} outside the mapped span")
        t = _from_seconds(float(np.interp(tau, self.anchor_tau, self.anchor_seconds)))
        self._check_not_dropped(t)
        return t

    def intraday_offset_minutes(self, tau_in_day: float) -> float:
        """Minutes after the open at which ``tau_in_day`` falls on any day.

        Valid for 0 <= tau_in_day <= trading_total; every day shares the
        same intraday profile, so the offset is day-independent.
        """
        if not 0 <= tau_in_day <= self.calibration.trading_total + 1e-12:
            raise MapRangeError(f"tau_in_day={tau_in_day} outside the trading session")
        # day 0's anchors are the boundaries' running sums of the durations
        bounds_tau = self.anchor_tau[: self.partition.m_max + 1]
        bounds_min = np.asarray(
            [b * self.grid.bar_minutes for b in self.partition.boundaries], dtype=float
        )
        return float(np.interp(tau_in_day, bounds_tau, bounds_min))

    def anchor_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Day index l, boundary index m and instant of every anchor, in order.

        Instants are ``datetime64[s]`` (anchors sit on whole minutes); the
        clock values are ``anchor_tau``.  The terminal anchor is (n_days, 0).
        """
        l, m = np.divmod(np.arange(self.anchor_tau.size), self.partition.m_max + 1)
        return l, m, self.anchor_seconds.astype(np.int64).astype("datetime64[s]")


def assemble_time_map(
    calibration: ClockCalibration,
    partition: PartitionSpec,
    grid: DayGrid,
    n_days: int | None = None,
    dates: Sequence[date] | PriceSeries | None = None,
) -> TimeMap:
    """Lay calibrated durations end to end over a span of trading days.

    Within day l, boundary m sits at the running sum of interval durations;
    each new day adds one full day (trading plus closure), and each session
    that ``filter_complete_days`` dropped between two retained days adds one
    more.  ``dates`` holds the retained days, or is the filtered series
    itself, which also brings its dropped sessions (whose trading hours the
    map then refuses).  A terminal anchor at the open of the day after the
    last one closes the final overnight, so the map covers ``n_days``
    complete days of clock time plus the dropped sessions inside them.
    """
    _check_interval_count(calibration.m_max, partition)
    if dates is None:
        if n_days is None:
            raise ValueError("need n_days or dates")
        dates = synthetic_dates(n_days)
    dropped: frozenset[date] = frozenset()
    if isinstance(dates, PriceSeries):
        skipped = dropped_between(dates)
        dropped = frozenset(dates.dropped_dates)
        dates = dates.dates
    else:
        dates = tuple(dates)
        skipped = np.zeros(max(len(dates) - 1, 0), dtype=int)
    if n_days is None:
        n_days = len(dates)
    if len(dates) != n_days:
        raise DataError(f"got {len(dates)} dates for {n_days} days")
    if n_days < 1:
        raise DataError("time map needs at least one day")
    all_dates = dates + (next_weekday(dates[-1]),)
    # whole clock days elapsed before each retained open
    day_index = np.arange(n_days) + np.concatenate([[0], np.cumsum(skipped)])
    day_total = calibration.day_total

    open_s = grid.open_time.hour * 3600 + grid.open_time.minute * 60
    opens = ((day_numbers(all_dates) - _EPOCH.toordinal()) * 86400 + open_s).astype(float)
    offsets = np.asarray(partition.boundaries) * grid.bar_minutes * 60.0
    bounds_tau = np.concatenate([[0.0], np.cumsum([c.delta_tau for c in calibration.classes[:-1]])])
    anchor_seconds = np.append((opens[:-1, None] + offsets).ravel(), opens[-1])
    anchor_tau = np.append(
        (day_index[:, None] * day_total + bounds_tau).ravel(), (day_index[-1] + 1) * day_total
    )
    if not (np.diff(anchor_seconds) > 0).all():
        raise DataError("anchor instants are not strictly increasing")
    return TimeMap(
        grid=grid,
        partition=partition,
        calibration=calibration,
        dates=all_dates,
        anchor_seconds=anchor_seconds,
        anchor_tau=anchor_tau,
        dropped_dates=dropped,
    )


# ---------------------------------------------------------------------------
# Additivity

@dataclass(frozen=True)
class AdditivityRow:
    label: str
    measured: float
    parts_sum: float

    @property
    def ratio(self) -> float:
        return self.measured / self.parts_sum


def class_duration(
    c: IntervalClass, calibration: ClockCalibration, partition: PartitionSpec
) -> float:
    """Duration a class inherits from the calibrated, additive clock.

    An intraday class sums the durations of the partition intervals between
    its bars, which must both sit on ``partition.boundaries``; the closure
    takes the night's duration, whatever its calendar nights; n days take n
    whole days.  A pooled ``sample`` class, a bar off the boundaries, or a
    calibration of another number of intervals raises ``ClassSpecError``.
    """
    _check_interval_count(calibration.m_max, partition)
    if c.kind == "intraday":
        b = partition.boundaries
        if c.bar_start not in b or c.bar_end not in b:
            raise ClassSpecError(f"class {c.label!r} does not run between partition boundaries")
        m_start, m_end = b.index(c.bar_start), b.index(c.bar_end)
        return float(np.sum([c.delta_tau for c in calibration.classes[m_start:m_end]]))
    if c.kind == "overnight":
        return calibration.classes[-1].delta_tau
    if c.kind == "multiday":
        return c.n_days * calibration.day_total
    raise ClassSpecError(f"class {c.label!r} has no clock-additive duration")


# (row label, union token, part tokens) of the additivity report
ADDITIVITY_UNIONS = (
    ("trading-day vs intraday sum", "trading-day", "intervals"),
    ("1-day vs morning+afternoon+night", "1-day", "morning,afternoon,overnight"),
    ("2-day vs 2x1-day", "2-day", "1-day,1-day"),
)


def additivity_report(
    series: PriceSeries,
    partition: PartitionSpec,
    calibration: ClockCalibration,
    cfg: SearchConfig | None = None,
    reference: IntervalClass | None = None,
) -> list[AdditivityRow]:
    """Directly calibrated union durations against sums of their parts.

    Each row of ``ADDITIVITY_UNIONS`` calibrates the union class from
    scratch and compares with the sum the assembled clock assigns to its
    parts (``class_duration``); a ratio above one means the union carries
    more spread than its pieces, the signature of positive dependence
    between them.
    """
    cfg = cfg or calibration.search
    unions = [parse_class_spec(u, partition, series.grid)[0] for _, u, _ in ADDITIVITY_UNIONS]
    ref_sample, *union_samples = class_samples(
        series, [reference or IntervalClass.multiday(1), *unions]
    )
    x_ref = _Reference(ref_sample)
    rows = []
    for (label, _, parts), sample in zip(ADDITIVITY_UNIONS, union_samples):
        parts_sum = sum(
            class_duration(p, calibration, partition)
            for p in parse_class_specs(parts, partition, series.grid)
        )
        measured = calibrate_interval(sample, x_ref, cfg).delta_tau
        rows.append(AdditivityRow(label=label, measured=measured, parts_sum=parts_sum))
    return rows
