"""The size-rescaled two-sample Kolmogorov-Smirnov statistic.

The distance between two return ensembles is

    d = sqrt(n_x * n_y / (n_x + n_y)) * sup_z |F_x(z) - F_y(z)|

with the supremum taken over the whole real line.  It is computed exactly
as the integer count k = sup_z |n_y C_x(z) - n_x C_y(z)|, where C counts
the points <= z, and then sup |F_x - F_y| = k / (n_x n_y), rounded once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .series import ReturnSample


@dataclass(frozen=True)
class KsResult:
    """Rescaled KS statistic and the sample sizes it was measured on.

    ``raw_sup`` is sup |F_x - F_y|, the exact KS count over n_x n_y rounded
    once; ``d`` is ``raw_sup`` times ``scale``.
    """

    d: float
    raw_sup: float
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

    @classmethod
    def from_count(cls, k: int, n_x: int, n_y: int) -> "KsResult":
        """The result of KS count k (see ``ks_count``) on samples of n_x and n_y values."""
        raw = k / (n_x * n_y)  # both integers are exact, so this rounds once
        return cls(d=math.sqrt(n_x * n_y / (n_x + n_y)) * raw, raw_sup=raw, n_x=n_x, n_y=n_y)


def ks_count(xs: np.ndarray, ys: np.ndarray) -> int:
    """The KS count sup_z |n_y C_x(z) - n_x C_y(z)| of sorted, non-empty xs and ys.

    C counts the points <= z.  f = n_y C_x - n_x C_y rises only at the x's
    and is 0 beyond both ends, so its largest value is a right limit at a
    distinct x and its smallest a left limit at one.  The right limit is
    searched at each distinct x; the left limit differs from it only where
    a y ties that x, and is searched only there.
    """
    m, n = xs.size, ys.size
    # the runs of equal x's are xs[b[j]:b[j + 1]]
    step = np.empty(m + 1, dtype=bool)
    step[0] = step[m] = True
    np.not_equal(xs[1:], xs[:-1], out=step[1:m])
    b = np.flatnonzero(step)
    ux = xs[b[:-1]]
    c_y = ys.searchsorted(ux, "right")
    peak = (n * b[1:] - m * c_y).max()
    # c_y == 0 reads ys[-1], which lies above ux and so ties nothing
    tie = ys[c_y - 1] == ux
    if tie.any():
        c_y[tie] = ys.searchsorted(ux[tie], "left")
    return int(max(peak, (m * c_y - n * b[:-1]).max()))


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
    if np.isnan(xs[-1]) or np.isnan(ys[-1]):  # NaN sorts last
        raise DataError("KS statistic needs samples without NaN")
    return KsResult.from_count(ks_count(xs, ys), xs.size, ys.size)


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
