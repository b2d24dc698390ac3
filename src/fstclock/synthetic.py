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

All draws go through numpy's PCG64.  Day-level work uses one child stream
per day, spawned from the root seed, so regenerating any subset of days (or
splitting them across workers) cannot change the numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clock import ClockCalibration, SearchConfig
from .errors import DataError
from .series import DayGrid, IntervalClass, PartitionSpec, PriceSeries, ReturnSample, synthetic_dates

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
        """Uniform activity; overnight mass in units of total intraday mass."""
        a = np.full(n_bars, 1.0 / n_bars)
        return cls(intraday_intensity=a, overnight_mass=overnight_mass)

    @classmethod
    def u_shape(
        cls,
        n_bars: int,
        edge_boost: float = 8.0,
        overnight_mass_ratio: float = 0.4,
    ) -> "ActivityProfile":
        """Smooth U: activity ``edge_boost`` times higher at open/close than midday."""
        return cls.u_steps(
            n_bars, n_bars, edge_boost=edge_boost, overnight_mass_ratio=overnight_mass_ratio
        )

    @classmethod
    def u_steps(
        cls,
        n_bars: int,
        n_steps: int,
        edge_boost: float = 8.0,
        power: float = 2.0,
        overnight_mass_ratio: float = 0.4,
    ) -> "ActivityProfile":
        """Step U, constant within each of ``n_steps`` equal blocks.

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
        dur = self.interval_durations(partition)
        return ClockCalibration(
            intraday_durations=dur,
            overnight_duration=self.overnight_tau,
            intraday_d=np.zeros_like(dur),
            overnight_d=0.0,
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
        if self.n_days < 1:
            raise ValueError("need at least one day")
        if self.innovation not in ("gaussian", "student-t"):
            raise ValueError(f"unknown innovation {self.innovation!r}")
        if self.innovation == "student-t" and self.nu <= 2:
            raise ValueError("student-t innovations need nu > 2 for unit variance")
        if self.cascade_depth < 1:
            raise ValueError("cascade depth must be >= 1")
        if self.cascade_lambda2 < 0:
            raise ValueError("cascade_lambda2 must be non-negative")


def _draw(rng: np.random.Generator, size, cfg: GeneratorConfig) -> np.ndarray:
    """Unit-variance innovations of the configured family."""
    if cfg.innovation == "gaussian":
        return rng.standard_normal(size)
    return rng.standard_t(cfg.nu, size) * math.sqrt((cfg.nu - 2.0) / cfg.nu)


def _day_streams(cfg: GeneratorConfig, n: int) -> list[np.random.Generator]:
    root = np.random.SeedSequence(cfg.seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in root.spawn(n)]


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

    rows = np.empty((cfg.n_days, grid.n_points))
    prev_close = LOG_PRICE_START
    for l, rng in enumerate(_day_streams(cfg, cfg.n_days)):
        open_ = prev_close if l == 0 else prev_close + sigma_night * float(_draw(rng, None, cfg))
        increments = sigma_bar * _draw(rng, grid.n_bars, cfg)
        rows[l, 0] = open_
        rows[l, 1:] = open_ + np.cumsum(increments)
        prev_close = rows[l, -1]

    series = PriceSeries._adopt(grid, synthetic_dates(cfg.n_days), rows)
    return series, GroundTruthClock.from_profile(profile)


def generate_selfsimilar(
    hurst: float,
    cfg: GeneratorConfig,
    durations,
) -> list[tuple[float, ReturnSample]]:
    """Exactly self-similar marginal samples, r = duration**H * innovation.

    One independent ensemble of ``cfg.n_days`` draws per duration.
    The moment identity E|r|^q = duration**(qH) * E|innovation|^q holds by
    construction, making these the oracle for clock arithmetic.
    """
    if not 0 < hurst < 1:
        raise ValueError(f"hurst must be in (0, 1), got {hurst}")
    n = cfg.n_days
    durations = [float(d) for d in durations]
    out = []
    for dur, rng in zip(durations, _day_streams(cfg, len(durations))):
        if dur <= 0:
            raise ValueError("durations must be positive")
        values = (dur**hurst) * _draw(rng, n, cfg)
        label = IntervalClass.sample(f"selfsim[{dur:g}]")
        out.append((float(dur), ReturnSample(values=values, interval=label)))
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

    rows = np.empty((cfg.n_days, grid.n_points))
    prev_close = LOG_PRICE_START
    for l, rng in enumerate(_day_streams(cfg, cfg.n_days)):
        open_ = prev_close if l == 0 else prev_close + sigma_night * float(_draw(rng, None, cfg))
        log_weight = np.zeros(n_bars)
        for level in range(1, cfg.cascade_depth + 1):
            draws = rng.normal(loc=-0.5 * s2, scale=s, size=2**level)
            log_weight += np.repeat(draws, n_bars // 2**level)
        sigma = np.sqrt(base_bar_var * np.exp(log_weight))
        increments = sigma * _draw(rng, n_bars, cfg)
        rows[l, 0] = open_
        rows[l, 1:] = open_ + np.cumsum(increments)
        prev_close = rows[l, -1]

    return PriceSeries._adopt(grid, synthetic_dates(cfg.n_days), rows)


def cascade_hurst(q: float, lambda2: float) -> float:
    """Analytic H(q) of the log-normal cascade: zeta(q)/q."""
    return 0.5 - 0.5 * lambda2 * (q - 2.0)


def write_prices_csv(series: PriceSeries, path) -> None:
    """Emit the ``timestamp,price`` CSV form of a series (missing bars skipped)."""
    tods = [f"T{series.grid.bar_time(b).isoformat()}," for b in range(series.grid.n_points)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,price\n")
        for d, row in zip(series.dates, series.log_prices):
            day = d.isoformat()
            fh.write("".join(
                f"{day}{tod}{math.exp(z)!r}\n"
                for tod, z in zip(tods, row.tolist())
                if not math.isnan(z)
            ))
