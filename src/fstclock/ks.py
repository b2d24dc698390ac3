"""The size-rescaled two-sample Kolmogorov-Smirnov statistic.

The distance between two return ensembles is

    d = sqrt(n_x * n_y / (n_x + n_y)) * sup_z |F_x(z) - F_y(z)|

with the supremum taken over the whole real line.  It is computed exactly
as the integer count k = sup_z |n_y C_x(z) - n_x C_y(z)|, where C counts
the points <= z, and then sup |F_x - F_y| = k / (n_x n_y), rounded once.

The count searches the y's at the runs of equal x's.  For an x of
``STRIDE_FROM`` distinct values or more it searches one run in ``STRIDE``
first, bounds each block of runs between two samples by how far the count
can climb inside it, and searches only the blocks whose bound beats the
samples' best (see ``ks_count``).  A ``Sorted`` sample finds its runs, and
picks its samples, once for every count it is the x of.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError


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


# An x with this many distinct values or more is counted in two stages,
# searching one run in ``STRIDE`` first; below it, every run at once.  Timed
# on a 2-vCPU VM: stride 8 was as fast as 12 and faster than 4, 6 and 16 at
# 3,000 and 4,999 distinct values, and the two stages broke even near 1,024
# (Gaussian samples of 0.5 to 8 times as many y's).
STRIDE = 8
STRIDE_FROM = 1024


class _Runs:
    """The runs of equal values of sorted xs, which ``ks_count`` searches.

    Run t is xs[lo[t]:hi[t]], all equal to ux[t].  With ``STRIDE_FROM`` runs
    or more it also holds the sampled runs (every ``STRIDE``-th and the
    last), the count of x's strictly between consecutive samples
    (``inside``), and each such block's runs, one row per block; the last
    row, if shorter, repeats the last run.
    """

    def __init__(self, xs: np.ndarray):
        self.m = m = xs.size
        step = np.empty(m + 1, dtype=bool)
        step[0] = step[m] = True
        np.not_equal(xs[1:], xs[:-1], out=step[1:m])
        b = np.flatnonzero(step)
        self.ux, self.lo, self.hi = xs[b[:-1]], b[:-1], b[1:]
        self.sampled = (r := self.ux.size) >= STRIDE_FROM
        if self.sampled:
            a = np.r_[np.arange(0, r - 1, STRIDE), r - 1]
            self.ux_a, self.lo_a, self.hi_a = self.ux[a], self.lo[a], self.hi[a]
            self.inside = self.lo_a[1:] - self.hi_a[:-1]
            block = np.minimum(a[:-1, None] + np.arange(1, STRIDE), r - 1)
            self.ux_b, self.lo_b, self.hi_b = self.ux[block], self.lo[block], self.hi[block]


def _limits(ys, ux, lo, hi, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """f = n_y C_x - n_x C_y just right of each run ux (x's lo:hi), and -f just left of it."""
    c_y = ys.searchsorted(ux, "right")
    right = n * hi - m * c_y
    # the left limit differs only where a y ties the run; c_y == 0 reads
    # ys[-1], which lies above ux and so ties nothing
    tie = ys[c_y - 1] == ux
    if tie.any():
        c_y[tie] = ys.searchsorted(ux[tie], "left")
    return right, m * c_y - n * lo


def ks_count(x: Sorted, ys: np.ndarray) -> int:
    """The KS count sup_z |n_y C_x(z) - n_x C_y(z)| of non-empty x and sorted ys.

    x's runs are found once, for every count it is the x of.  C
    counts the points <= z.  f = n_y C_x - n_x C_y rises only at the x's,
    by n_y per x, and is 0 beyond both ends, so its largest value is a right
    limit at a distinct x and its smallest a left limit at one; the left
    limit differs from the right only where a y ties that x.  Below
    ``STRIDE_FROM`` distinct x's every run is searched.  From there, the
    sampled runs are searched first, and the largest limit among them, k,
    bounds the count from below.  Inside the block of runs between samples
    a and a', f is at most its right limit at a plus n_y times the x's in
    the block, and -f at most its left limit at a' plus the same; only
    blocks whose bound exceeds k can hold the sup, and only their runs are
    searched.  All in integers.
    """
    runs = x.runs
    m, n = runs.m, ys.size
    if not runs.sampled:
        right, left = _limits(ys, runs.ux, runs.lo, runs.hi, m, n)
        return int(max(right.max(), left.max()))
    right, left = _limits(ys, runs.ux_a, runs.lo_a, runs.hi_a, m, n)
    k = max(right.max(), left.max())
    bound = np.maximum(right[:-1], left[1:]) + n * runs.inside
    if (open_ := np.flatnonzero(bound > k)).size:
        right, left = _limits(
            ys, runs.ux_b[open_].ravel(), runs.lo_b[open_].ravel(), runs.hi_b[open_].ravel(), m, n)
        k = max(k, right.max(), left.max())
    return int(k)


class Sorted:
    """A sample sorted once (``xs``) for every KS count of one call; ``values`` keeps its order.

    ``runs``, the table ``ks_count`` searches when this sample is its x,
    is built on first use and kept.
    """

    def __init__(self, sample):  # a ReturnSample, a Sorted or an array
        self.values = np.asarray(getattr(sample, "values", sample), dtype=float).ravel()
        self.xs, self.moments = np.sort(self.values), {}

    @classmethod
    def of(cls, sample):
        return sample if isinstance(sample, cls) else cls(sample)

    @cached_property
    def runs(self) -> _Runs:
        return _Runs(self.xs)

    def abs_moment(self, q: float) -> float:
        if q not in self.moments:  # E|v|^q, taken once per order
            self.moments[q] = float(np.mean(np.abs(self.values) ** q))
        return self.moments[q]


def ks_distance(x, y) -> KsResult:
    """Rescaled KS statistic between two samples.  O((n_x + n_y) log(n_x + n_y)).

    Either may be a ``Sorted``; x's runs are then found once for every call.
    """
    return _distance(Sorted.of(x), Sorted.of(y).xs)


def _distance(x: Sorted, ys: np.ndarray) -> KsResult:
    if x.xs.size == 0 or ys.size == 0:
        raise DataError("KS statistic needs non-empty samples on both sides")
    if np.isnan(x.xs[-1]) or np.isnan(ys[-1]):  # NaN sorts last
        raise DataError("KS statistic needs samples without NaN")
    return KsResult.from_count(ks_count(x, ys), x.xs.size, ys.size)


def rescaled_ks(x_ref, y, delta_tau: float) -> KsResult:
    """KS distance after rescaling the candidate by sqrt(delta_tau).

    The candidate sample y is compared as y / sqrt(delta_tau) against the
    reference, which is the diffusive-collapse test at trial duration
    ``delta_tau`` (in units of the reference duration).
    """
    if not (delta_tau > 0) or not math.isfinite(delta_tau):
        raise ValueError(f"delta_tau must be positive and finite, got {delta_tau}")
    return _distance(Sorted.of(x_ref), Sorted.of(y).xs / math.sqrt(delta_tau))  # still sorted
