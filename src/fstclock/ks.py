"""The size-rescaled two-sample Kolmogorov-Smirnov statistic.

The distance between two return ensembles is

    d = sqrt(n_x * n_y / (n_x + n_y)) * sup_z |F_x(z) - F_y(z)|

with the supremum taken over the whole real line.  Between jumps of the
merged support both CDFs are constant and at infinity the difference
vanishes, so only the one-sided limits at the merged points can carry the
sup.  The left limit at a merged point equals the right limit at the
previous one (or 0 at the first), so the right limits alone give both the
sup and the smallest point attaining it, ties within and across the samples
included.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .series import ReturnSample


@dataclass(frozen=True)
class KsResult:
    """Rescaled KS statistic together with where and how the sup was attained."""

    d: float
    raw_sup: float
    sup_location: float
    n_x: int
    n_y: int

    def __post_init__(self):
        if self.n_x <= 0 or self.n_y <= 0:
            raise DataError("KS statistic needs non-empty samples on both sides")
        if not 0.0 <= self.raw_sup <= 1.0:
            raise DataError(f"raw sup {self.raw_sup} outside [0, 1]")
        expected = self.scale * self.raw_sup
        if not math.isclose(self.d, expected, rel_tol=1e-12, abs_tol=1e-300):
            raise DataError("d is not the size-rescaled sup")

    @property
    def scale(self) -> float:
        return math.sqrt(self.n_x * self.n_y / (self.n_x + self.n_y))


def _values(sample) -> np.ndarray:
    if isinstance(sample, ReturnSample):
        return sample.values
    return np.asarray(sample, dtype=float).ravel()


def ks_distance(x, y) -> KsResult:
    """Rescaled KS statistic between two samples.  O((n_x + n_y) log(n_x + n_y))."""
    xs = np.sort(_values(x))
    ys = np.sort(_values(y))
    if xs.size == 0 or ys.size == 0:
        raise DataError("KS statistic needs non-empty samples on both sides")
    zs = np.concatenate([xs, ys])
    zs.sort(kind="mergesort")
    diff = np.abs(
        np.searchsorted(xs, zs, side="right") / xs.size
        - np.searchsorted(ys, zs, side="right") / ys.size
    )
    raw = float(diff.max())
    scale = math.sqrt(xs.size * ys.size / (xs.size + ys.size))
    return KsResult(
        d=scale * raw,
        raw_sup=raw,
        sup_location=float(zs[int(np.argmax(diff == raw))]),
        n_x=int(xs.size),
        n_y=int(ys.size),
    )


def rescaled_ks(x_ref, y, delta_tau: float) -> KsResult:
    """KS distance after rescaling the candidate by sqrt(delta_tau).

    The candidate sample y is compared as y / sqrt(delta_tau) against the
    reference, which is the diffusive-collapse test at trial duration
    ``delta_tau`` (in units of the reference duration).
    """
    if not (delta_tau > 0) or not math.isfinite(delta_tau):
        raise ValueError(f"delta_tau must be positive and finite, got {delta_tau}")
    ys = _values(y) / math.sqrt(delta_tau)
    return ks_distance(_values(x_ref), ys)
