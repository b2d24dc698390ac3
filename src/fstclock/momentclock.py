"""Moment-matching clocks and their comparison against the KS-fitted clock.

A moment clock assigns a class the duration that equalises one absolute
moment with the reference after diffusive rescaling:

    delta_tau(q) = (E|y|^q / E|x_ref|^q)**(2/q).

Each order q defines its own clock; they agree only under exact simple
scaling.  The KS-fitted duration is the exact minimiser of the KS objective
over the search window, so no moment duration inside the window can beat
it there; ``compare_clocks`` puts that on record.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clock import CalibrationResult, SearchConfig, calibrate_interval
from .errors import DataError
from .ks import KsResult, rescaled_ks
from .series import ReturnSample


@dataclass(frozen=True)
class MomentClockResult:
    """Duration assigned by one moment order, with its KS collapse quality."""

    order: float
    delta_tau: float
    ks: KsResult


def moment_time(y: ReturnSample, x_ref: ReturnSample, q: float) -> MomentClockResult:
    """Duration of y under the order-q moment clock, KS-scored.

    Raises when the moment vanishes on either side (an all-zero ensemble has
    no moment duration) or when q is not positive.
    """
    if q <= 0 or not math.isfinite(q):
        raise ValueError(f"moment order must be positive and finite, got {q}")
    my = float(np.mean(np.abs(y.values) ** q))
    mx = float(np.mean(np.abs(x_ref.values) ** q))
    if my <= 0 or mx <= 0 or not (math.isfinite(my) and math.isfinite(mx)):
        raise DataError(f"order-{q:g} moment degenerate (y: {my}, ref: {mx})")
    delta_tau = (my / mx) ** (2.0 / q)
    return MomentClockResult(order=q, delta_tau=delta_tau, ks=rescaled_ks(x_ref, y, delta_tau))


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    fst: CalibrationResult
    moments: tuple[MomentClockResult, ...]


@dataclass(frozen=True)
class ClockComparison:
    rows: tuple[ComparisonRow, ...]
    orders: tuple[float, ...]

    @property
    def dominance_ok(self) -> bool:
        """KS-fitted D never exceeds any moment clock's D, for every row."""
        return all(
            row.fst.ks.d <= m.ks.d + 1e-12 for row in self.rows for m in row.moments
        )


def compare_clocks(
    classes: Sequence[tuple[str, ReturnSample]],
    x_ref: ReturnSample,
    orders: Sequence[float] = (1.0, 2.0, 3.0),
    cfg: SearchConfig | None = None,
) -> ClockComparison:
    """KS-fitted durations side by side with each moment clock.

    The fitted duration minimises the KS objective exactly over the search
    window, so it dominates every moment duration inside the window.  A
    violation means a moment duration lies outside the window; it is warned
    about rather than hidden.
    """
    rows = []
    for label, sample in classes:
        moments = tuple(moment_time(sample, x_ref, q) for q in orders)
        fst = calibrate_interval(sample, x_ref, cfg)
        rows.append(ComparisonRow(label=label, fst=fst, moments=moments))
    comparison = ClockComparison(rows=tuple(rows), orders=tuple(float(q) for q in orders))
    if not comparison.dominance_ok:
        warnings.warn(
            "a moment clock beat the fitted duration on the KS objective; "
            "its duration lies outside the search window",
            stacklevel=2,
        )
    return comparison


@dataclass(frozen=True)
class NonadditivityResult:
    """Durations a single moment clock assigns to two spans and their union."""

    hurst: float
    delta_tau_1: float
    delta_tau_2: float
    delta_tau_union: float

    @property
    def gap(self) -> float:
        """Union duration minus the sum of the parts; zero only at H = 1/2."""
        return self.delta_tau_union - (self.delta_tau_1 + self.delta_tau_2)


def nonadditivity_demo(
    hurst: float,
    dt_1: float,
    dt_2: float,
    dt_0: float = 1.0,
) -> NonadditivityResult:
    """Closed-form moment-clock durations for two spans and their union.

    Under exact self-similarity with exponent H the order-q moment clock
    assigns a span of physical length dt the duration (dt/dt_0)**(2H),
    independent of q.  Adjacent spans then satisfy additivity only when
    2H = 1; for any other exponent the union duration differs from the sum
    by (dt_1 + dt_2)**(2H) - dt_1**(2H) - dt_2**(2H) (in units of dt_0).
    """
    if not 0 < hurst < 1:
        raise ValueError(f"hurst must be in (0, 1), got {hurst}")
    if min(dt_1, dt_2, dt_0) <= 0:
        raise ValueError("durations must be positive")
    e = 2.0 * hurst
    return NonadditivityResult(
        hurst=hurst,
        delta_tau_1=(dt_1 / dt_0) ** e,
        delta_tau_2=(dt_2 / dt_0) ** e,
        delta_tau_union=((dt_1 + dt_2) / dt_0) ** e,
    )
