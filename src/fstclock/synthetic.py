"""Synthetic price series with known clocks and known scaling laws.

Three generators cover the validation axes:

  * ``generate_seasonal``: Brownian increments whose variance follows an
    intraday activity profile plus an overnight lump.  The true clock is the
    normalised activity integral, returned alongside the series.
  * ``generate_selfsimilar``: direct samples from an exactly self-similar
    marginal law, r = duration**H * innovation, for clock arithmetic with a
    closed-form answer.
  * ``generate_multifractal``: within-day log-normal multiplicative cascade,
    giving genuinely multiscaling moments with a known analytic spectrum.

All draws go through numpy's PCG64, one stream per day (per duration for
``generate_selfsimilar``) with the states of ``SeedSequence(seed).spawn``:
day i draws what ``Generator(PCG64(SeedSequence(seed).spawn(n)[i]))`` would,
so regenerating any subset of days cannot change the numbers.  The streams
are not spawned, though: ``_day_streams`` computes each child's state with
numpy's own hashing and seeding arithmetic and reseeds one PCG64 with it,
and the generators then scale and sum their draws in blocks of days.
"""
from __future__ import annotations

import math
import os
import shutil
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .clock import ClassFit, ClockCalibration, SearchConfig, calibrated_classes
from .errors import DataError
from .series import (
    DayGrid,
    IntervalClass,
    PartitionSpec,
    PriceSeries,
    ReturnSample,
    _Helper,
    open_new,
    synthetic_dates,
)

LOG_PRICE_START = math.log(100.0)


@dataclass(frozen=True)
class ActivityProfile:
    """Per-bar return variance across the session plus the closure variance."""

    intraday_intensity: np.ndarray
    overnight_mass: float

    def __post_init__(self):
        a = np.asarray(self.intraday_intensity, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("intensity must be a non-empty 1-d array")
        if (a <= 0).any() or not np.isfinite(a).all():
            raise ValueError("intensity must be positive and finite")
        if self.overnight_mass < 0 or not math.isfinite(self.overnight_mass):
            raise ValueError("overnight_mass must be non-negative and finite")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "intraday_intensity", a)

    @property
    def n_bars(self) -> int:
        return int(self.intraday_intensity.size)

    @classmethod
    def flat(cls, n_bars: int, overnight_mass: float = 0.4) -> "ActivityProfile":
        """Uniform activity, the one-step-per-bar U at edge boost 1; kept for
        the benchmark's own checks, which build it."""
        return cls.u_steps(n_bars, n_bars, edge_boost=1.0, overnight_mass_ratio=overnight_mass)

    @classmethod
    def u_steps(
        cls,
        n_bars: int,
        n_steps: int,
        edge_boost: float = 8.0,
        power: float = 2.0,
        overnight_mass_ratio: float = 0.4,
    ) -> "ActivityProfile":
        """Step U, constant within each of ``n_steps`` equal blocks: activity
        ``edge_boost`` times higher at open/close than midday.  One step per
        bar gives the smooth U, and edge boost 1 the flat profile.

        With blocks aligned to a partition of the same spacing the linear
        clock interpolation inside each interval is exact, so this is the
        profile of choice when the clock itself is under test.
        """
        if n_bars % n_steps:
            raise ValueError(f"{n_steps} steps do not tile {n_bars} bars")
        x = (np.arange(n_steps) + 0.5) / n_steps
        levels = 1.0 + (edge_boost - 1.0) * np.abs(2.0 * x - 1.0) ** power
        a = np.repeat(levels, n_bars // n_steps)
        a /= a.sum()
        return cls(intraday_intensity=a, overnight_mass=overnight_mass_ratio)


@dataclass(frozen=True)
class GroundTruthClock:
    """Exact per-bar durations of a seasonal synthetic, one day summing to 1."""

    bar_tau: np.ndarray
    overnight_tau: float

    def __post_init__(self):
        b = np.asarray(self.bar_tau, dtype=float).copy()
        b.setflags(write=False)
        object.__setattr__(self, "bar_tau", b)

    @property
    def day_total(self) -> float:
        return float(self.bar_tau.sum()) + self.overnight_tau

    def interval_durations(self, partition: PartitionSpec) -> np.ndarray:
        return np.asarray(
            [self.bar_tau[c.bar_start : c.bar_end].sum() for c in partition.intervals()]
        )

    def calibration_for(self, partition: PartitionSpec) -> ClockCalibration:
        """Package the exact durations in calibration form (zero KS values)."""
        durations = [*self.interval_durations(partition).tolist(), self.overnight_tau]
        fits = zip(calibrated_classes(partition), durations)
        return ClockCalibration(
            tuple(ClassFit(c.label, t, 0.0) for c, t in fits),
            reference_label="ground-truth",
            search=SearchConfig(),
        )

    @classmethod
    def from_profile(cls, profile: ActivityProfile) -> "GroundTruthClock":
        total = float(profile.intraday_intensity.sum()) + _overnight_variance(profile)
        bar = profile.intraday_intensity / total
        # force the exact unit-day identity instead of leaving rounding residue
        return cls(bar_tau=bar, overnight_tau=1.0 - float(bar.sum()))


def _overnight_variance(profile: ActivityProfile) -> float:
    """Closure variance; overnight_mass is a ratio of the intraday total."""
    return profile.overnight_mass * float(profile.intraday_intensity.sum())


@dataclass(frozen=True)
class GeneratorConfig:
    n_days: int
    seed: int
    innovation: str = "gaussian"
    nu: float = 4.0
    cascade_depth: int = 8
    cascade_lambda2: float = 0.05

    def __post_init__(self):
        for name, least in (("n_days", 1), ("seed", 0), ("cascade_depth", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.innovation not in ("gaussian", "student-t"):
            raise ValueError(f"unknown innovation {self.innovation!r}")
        if self.innovation == "student-t" and not 2 < self.nu < math.inf:
            raise ValueError("nu must be finite and > 2 for unit-variance student-t "
                             f"innovations, got {self.nu!r}")
        if not 0 <= self.cascade_lambda2 < math.inf:
            raise ValueError("cascade_lambda2 must be non-negative and finite, "
                             f"got {self.cascade_lambda2!r}")


def _draw(rng: np.random.Generator, out: np.ndarray, cfg: GeneratorConfig) -> None:
    """Fill ``out`` with standard innovations of the configured family; times
    ``_unit_scale(cfg)`` they have unit variance."""
    if cfg.innovation == "gaussian":
        rng.standard_normal(out=out)
    else:
        out[...] = rng.standard_t(cfg.nu, out.size)


def _unit_scale(cfg: GeneratorConfig) -> float:
    return 1.0 if cfg.innovation == "gaussian" else math.sqrt((cfg.nu - 2.0) / cfg.nu)


# SeedSequence's hash constants and PCG64's 128-bit LCG multiplier, as numpy
# defines them (numpy/random/bit_generator.pyx, pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _spawned_seed_words(seed: int, n: int) -> np.ndarray:
    """``SeedSequence(seed).spawn(n)[i].generate_state(4, np.uint64)`` as row i.

    A child's entropy is the root's words, padded to the pool size of four,
    then its spawn key ``i``, one word while ``n <= 2**32``.  Everything but
    the key is mixed alike for every child, in Python ints; the key is mixed
    in uint32 arithmetic over all children at once.
    """
    seed = int(seed)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ r >> 16

    entropy = [seed >> 32 * k & _MASK32 for k in range(max(4, -(-seed.bit_length() // 32)))]
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    key = np.arange(n, dtype=np.uint32)
    children = []
    for word in pool:  # mix(word, hashmix(key)), with numpy's uint32 wrap-around
        value = key ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        mixed = np.uint32(_MIX_MULT_L * word & _MASK32) - value * np.uint32(_MIX_MULT_R)
        children.append(mixed ^ mixed >> 16)
    state = np.empty((n, 8), dtype="<u4")
    hash_const = _INIT_B
    for i in range(8):  # generate_state: 8 uint32 words, read as 4 little-endian uint64
        value = children[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        state[:, i] = value ^ value >> 16
    return state.view("<u8")


# Days whose draws are taken before their arithmetic runs, as one block.
DAY_BLOCK = 128


def _day_streams(seed: int, n: int) -> Iterator[np.random.Generator]:
    """The stream of each of days ``0 .. n-1`` in turn: day i draws exactly
    what ``Generator(PCG64(SeedSequence(seed).spawn(n)[i]))`` draws.

    It is one Generator whose PCG64 is reseeded through its ``state`` setter
    before each yield, so a day's draws are over once the next day is taken.
    The state follows ``pcg_setseq_128_srandom_r``: from the child's words
    (seed, seq), inc = 2*seq + 1 and state = (inc + seed) * MULT + inc.
    """
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    words = _spawned_seed_words(seed, n)
    for b0 in range(0, n, DAY_BLOCK):  # Python ints for one block of days at a time
        for s_hi, s_lo, i_hi, i_lo in words[b0 : b0 + DAY_BLOCK].tolist():
            inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield rng


def _log_price_rows(cfg: GeneratorConfig, n_points: int, sigma_night: float,
                    n_normals: int, bar_sigma: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The ``cfg.n_days`` x ``n_points`` log prices of a world with Brownian bars.

    Day l draws from its own stream: its overnight innovation (none on day
    0), then ``n_normals`` standard normals, then one innovation per bar.
    Blocks of ``DAY_BLOCK`` days are drawn into their rows (the normals into
    a block buffer) and then scaled and summed at once; ``bar_sigma`` maps a
    block's normals to the standard deviation of each bar.  The opens are
    chained in Python floats: each day opens at the previous close plus
    ``sigma_night`` times its overnight innovation, so the first k days of
    a world are a k-day world.
    """
    rows = np.empty((cfg.n_days, n_points))
    normals = np.empty((min(DAY_BLOCK, cfg.n_days), n_normals))
    streams = _day_streams(cfg.seed, cfg.n_days)
    scale = _unit_scale(cfg)
    prev_close = LOG_PRICE_START
    rows[0, 0] = 0.0  # day 0 has no overnight innovation
    for b0 in range(0, cfg.n_days, DAY_BLOCK):
        block = rows[b0 : b0 + DAY_BLOCK]
        block_normals = normals[: len(block)]
        for l, (row, day_normals, rng) in enumerate(zip(block, block_normals, streams), b0):
            first = 1 if l == 0 else 0
            if n_normals:
                _draw(rng, row[first:1], cfg)
                rng.standard_normal(out=day_normals)
                _draw(rng, row[1:], cfg)
            else:
                _draw(rng, row[first:], cfg)
        if scale != 1.0:
            block *= scale
        bars = block[:, 1:]
        bars *= bar_sigma(block_normals)
        np.cumsum(bars, axis=1, out=bars)
        opens = []
        for l, z, last in zip(range(b0, cfg.n_days), block[:, 0].tolist(), bars[:, -1].tolist()):
            open_ = prev_close if l == 0 else prev_close + sigma_night * z
            opens.append(open_)
            prev_close = open_ + last
        block[:, 0] = opens
        bars += block[:, :1]
    return rows


def generate_seasonal(
    profile: ActivityProfile,
    cfg: GeneratorConfig,
    grid: DayGrid,
) -> tuple[PriceSeries, GroundTruthClock]:
    """Brownian series with deterministic intraday seasonality.

    Bar b carries variance ``intensity[b]``; each closure carries
    ``overnight_mass`` times the intraday total.  Returns the series and the
    exact activity-integral clock, normalised to one unit per full day.
    """
    if profile.n_bars != grid.n_bars:
        raise DataError(f"profile has {profile.n_bars} bars, grid {grid.n_bars}")
    sigma_bar = np.sqrt(profile.intraday_intensity)
    sigma_night = math.sqrt(_overnight_variance(profile))
    rows = _log_price_rows(cfg, grid.n_points, sigma_night, 0, lambda _: sigma_bar)
    series = PriceSeries._adopt(grid, synthetic_dates(cfg.n_days), rows)
    return series, GroundTruthClock.from_profile(profile)


def generate_selfsimilar(
    hurst: float,
    cfg: GeneratorConfig,
    durations,
) -> list[tuple[float, ReturnSample]]:
    """Exactly self-similar marginal samples, r = duration**H * innovation.

    One independent ensemble of ``cfg.n_days`` draws per duration, each from
    its own stream.
    The moment identity E|r|^q = duration**(qH) * E|innovation|^q holds by
    construction, making these the oracle for clock arithmetic.
    """
    if not 0 < hurst < 1:
        raise ValueError(f"hurst must be in (0, 1), got {hurst}")
    durations = [float(d) for d in durations]
    out = []
    for dur, rng in zip(durations, _day_streams(cfg.seed, len(durations))):
        if dur <= 0:
            raise ValueError("durations must be positive")
        values = np.empty(cfg.n_days)
        _draw(rng, values, cfg)
        values *= _unit_scale(cfg)
        values *= dur**hurst
        label = IntervalClass.sample(f"selfsim[{dur:g}]")
        out.append((dur, ReturnSample(values=values, interval=label)))
    return out


def generate_multifractal(
    cfg: GeneratorConfig,
    grid: DayGrid,
    overnight_mass_ratio: float = 0.0,
) -> PriceSeries:
    """Within-day log-normal multiplicative cascade.

    Each day splits dyadically ``cascade_depth`` times; every node multiplies
    the variance below it by an independent log-normal weight with unit mean
    and log-variance ``4 ln2 * cascade_lambda2`` per level, over a base
    variance of ``1 / n_bars`` per bar.  For gaussian innovations the
    absolute-moment exponents at dyadic scales are then

        zeta(q) = q/2 - cascade_lambda2 * q * (q - 2) / 2,

    so q = 2 stays diffusive while higher and lower orders bend away: true
    multiscaling with a dial.  Requires ``grid.n_bars == 2**cascade_depth``.
    """
    n_bars = grid.n_bars
    if n_bars != 2**cfg.cascade_depth:
        raise DataError(f"cascade depth {cfg.cascade_depth} needs {2**cfg.cascade_depth} bars, grid has {n_bars}")
    base_bar_var = 1.0 / n_bars
    s2 = 4.0 * math.log(2.0) * cfg.cascade_lambda2
    s = math.sqrt(s2)
    sigma_night = math.sqrt(overnight_mass_ratio * base_bar_var * n_bars)

    def cascade_sigma(normals: np.ndarray) -> np.ndarray:
        # the 2 + 4 + ... + n_bars node weights of each day, level by level;
        # rng.normal(loc, scale) is loc + scale * standard_normal
        log_nodes = -0.5 * s2 + s * normals
        log_weight = np.zeros((len(normals), n_bars))
        start = 0
        for level in range(1, cfg.cascade_depth + 1):
            nodes = 2**level
            by_node = log_weight.reshape(len(normals), nodes, -1)
            by_node += log_nodes[:, start : start + nodes, None]
            start += nodes
        np.exp(log_weight, out=log_weight)
        log_weight *= base_bar_var
        return np.sqrt(log_weight, out=log_weight)

    rows = _log_price_rows(cfg, grid.n_points, sigma_night, 2 * n_bars - 2, cascade_sigma)
    return PriceSeries._adopt(grid, synthetic_dates(cfg.n_days), rows)


def cascade_hurst(q: float, lambda2: float) -> float:
    """Analytic H(q) of the log-normal cascade: zeta(q)/q."""
    return 0.5 - 0.5 * lambda2 * (q - 2.0)


# A series of at least this many grid bars, present or missing, has the
# second half of its days formatted by a forked helper process where
# ``helper_may_fork`` allows one.  The helper broke even near 7,600 bars and
# saved about a fifth of a 25 ms write at 15,240 (2-vCPU VM).
PRICES_SPLIT_BARS = 1 << 14


def write_prices_csv(series: PriceSeries, path) -> None:
    """Emit the ``timestamp,price`` CSV form of a series (missing bars skipped).

    Each present bar is one line ``<date>T<hh:mm:ss>,<price>``, the price
    being ``repr(math.exp(log price))``.  A log price whose ``exp`` is not a
    positive finite double raises ``DataError`` naming its day and bar
    before the file is created.  A series of ``PRICES_SPLIT_BARS`` grid bars
    or more may have the second half of its days formatted by a forked
    helper (``series._Helper``, its file in the output's directory) while
    this process formats the first half; whatever the helper does, the file
    holds the same bytes.
    """
    _check_prices(series)
    tods = [f"T{series.grid.bar_time(b).isoformat()}," for b in range(series.grid.n_points)]
    dates, rows = series.dates, series.log_prices
    half, helper = len(dates), None
    if rows.size >= PRICES_SPLIT_BARS:
        half = len(dates) // 2
        helper = _Helper.start(lambda out: _write_days(out, tods, dates[half:], rows[half:]),
                               os.path.dirname(os.path.abspath(path)))
    try:
        with open_new(path, "wb") as fh:
            fh.write(b"timestamp,price\n")
            _write_days(fh, tods, dates[:half], rows[:half])
            formatted = None if helper is None else helper.result()
            if formatted is None:
                _write_days(fh, tods, dates[half:], rows[half:])
            else:
                shutil.copyfileobj(formatted, fh)
    finally:
        if helper is not None:
            helper.close()


def _write_days(fh, tods: list[str], dates, rows: np.ndarray) -> None:
    """Write the CSV lines of whole days to a binary file: each date with its row of log prices."""
    for d, row in zip(dates, rows):
        day = d.isoformat()
        fh.write("".join(
            f"{day}{tod}{math.exp(z)!r}\n"
            for tod, z in zip(tods, row.tolist())
            if not math.isnan(z)
        ).encode())


def _price_ok(z: float) -> bool:
    """Whether a log price is missing (NaN) or has a positive finite price."""
    try:
        return math.isnan(z) or 0.0 < math.exp(z) < math.inf
    except OverflowError:
        return False


def _check_prices(series: PriceSeries) -> None:
    """Raise ``DataError`` for the first log price, day by day and bar by bar,
    whose ``exp`` is not a positive finite double.  ``exp`` is monotone, so
    the smallest and the largest log price decide the whole series."""
    rows = series.log_prices
    # NaN is the identity of fmin and fmax, which skip it
    if _price_ok(float(np.fmin.reduce(rows, axis=None, initial=np.nan))) and _price_ok(
            float(np.fmax.reduce(rows, axis=None, initial=np.nan))):
        return
    for d, row in zip(series.dates, rows):
        for b, z in enumerate(row.tolist()):
            if not _price_ok(z):
                t = series.grid.bar_time(b).isoformat()
                raise DataError(f"log price {z!r} on {d.isoformat()} at {t} (bar {b}) "
                                "has no positive finite price")
