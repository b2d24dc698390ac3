"""KS statistic: brute-force oracle, frozen examples, structural properties."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstclock import DataError, KsResult, compare_clocks, ks_distance, rescaled_ks
from fstclock import ks
from fstclock.ks import STRIDE, STRIDE_FROM, Sorted, ks_count

from conftest import make_sample


# --- independent oracle ----------------------------------------------------

def brute_force_count(x, y):
    """Sup of |n_y #{x <= z} - n_x #{y <= z}| over both one-sided limits at
    every merged point, in integers.

    Written against the definition only: boolean comparisons and sums, no
    sorting, no searchsorted.  Deliberately the dumbest correct thing.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.concatenate([x, y])[:, None]  # one row per merged point
    n_x, n_y = x.size, y.size
    return int(max(
        np.abs(n_y * (x <= z).sum(1) - n_x * (y <= z).sum(1)).max(),
        np.abs(n_y * (x < z).sum(1) - n_x * (y < z).sum(1)).max(),
    ))


def brute_force_ks(x, y):
    """sup |F_x - F_y|: the count over n_x n_y, rounded once."""
    return brute_force_count(x, y) / (len(x) * len(y))


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
small_samples = st.lists(finite_floats, min_size=1, max_size=50)


# --- frozen examples -------------------------------------------------------

def test_two_point_example_frozen():
    r = ks_distance([1.0, 2.0], [1.5])
    assert r.raw_sup == 0.5
    assert r.n_x == 2 and r.n_y == 1
    # sqrt(2*1/3) * 0.5, frozen from the closed form
    assert r.d == pytest.approx(0.4082482904638630, abs=1e-15)


def test_identical_samples_zero():
    x = np.linspace(-2, 5, 17)
    r = ks_distance(x, x.copy())
    assert r.raw_sup == 0.0
    assert r.d == 0.0


def test_rescaled_doubling_collapses_exactly():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(100)
    r = rescaled_ks(x, 2.0 * x, 4.0)
    assert r.d == 0.0


def test_disjoint_supports_sup_one():
    r = ks_distance([0.0, 1.0], [10.0, 11.0, 12.0])
    assert r.raw_sup == 1.0
    assert r.d == pytest.approx(math.sqrt(6.0 / 5.0), rel=1e-15)


# --- oracle agreement ------------------------------------------------------

@given(small_samples, small_samples)
@settings(max_examples=200, deadline=None)
def test_merge_matches_brute_force(xs, ys):
    assert ks_distance(xs, ys).raw_sup == brute_force_ks(xs, ys)


# few distinct values, zero weighted double: tick-quantised returns pile up there
tied_samples = st.lists(
    st.sampled_from([-2.0, -0.5, 0.0, 0.0, 0.25, 1.0, 3.0]), min_size=1, max_size=40
)


@given(tied_samples, tied_samples)
@settings(max_examples=300, deadline=None)
def test_raw_sup_matches_brute_force_on_tick_samples(xs, ys):
    assert ks_distance(xs, ys).raw_sup == brute_force_ks(xs, ys)


def test_merge_matches_brute_force_with_heavy_ties():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.integers(0, 4, size=rng.integers(1, 30)).astype(float)
        y = rng.integers(0, 4, size=rng.integers(1, 30)).astype(float)
        assert ks_distance(x, y).raw_sup == brute_force_ks(x, y)


def test_count_matches_brute_force_on_seeded_ticks():
    rng = np.random.default_rng(13)
    for case in range(20_000):
        tick = (0.0, 0.5, 1.0)[case % 3]
        x = rng.standard_normal(rng.integers(1, 41))
        y = rng.standard_normal(rng.integers(1, 41)) * rng.choice([0.5, 1.0, 2.0])
        if tick:
            x, y = np.round(x / tick) * tick, np.round(y / tick) * tick
        assert ks_count(Sorted(x), np.sort(y)) == brute_force_count(x, y), case


@pytest.mark.parametrize(
    "x, y, k",
    [
        ([1.0, 2.0, 3.0], [-1.0, 0.0], 6),  # every y below every x
        ([1.0, 2.0, 3.0], [5.0, 6.0], 6),  # every y above: C_y(x) = 0 throughout
        ([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0], 4),  # all x equal
        ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0, 1.0], 5),  # many y's tie one x
        ([1.0, 1.0, 1.0, 2.0], [1.0], 1),  # one y ties a run of x's
        ([0.5], [0.0, 1.0, 2.0], 2),  # m = 1
        ([0.0, 1.0, 2.0], [1.0], 1),  # n = 1
    ],
    ids=["y-below", "y-above", "x-equal", "y-run-ties-x", "y-ties-x-run", "m-1", "n-1"],
)
def test_count_edge_cases(x, y, k):
    assert ks_count(Sorted(x), np.array(y)) == brute_force_count(x, y) == k


# --- the strided count -----------------------------------------------------

def full_search_count(xs, ys):
    """The KS count searching y at every distinct x of sorted xs: no samples, no bounds.

    The count as it was before it learnt to skip blocks of runs, kept as the
    oracle for samples too large for ``brute_force_count``.
    """
    m, n = xs.size, ys.size
    step = np.empty(m + 1, dtype=bool)
    step[0] = step[m] = True
    np.not_equal(xs[1:], xs[:-1], out=step[1:m])
    b = np.flatnonzero(step)
    ux = xs[b[:-1]]
    c_y = ys.searchsorted(ux, "right")
    peak = (n * b[1:] - m * c_y).max()
    tie = ys[c_y - 1] == ux
    if tie.any():
        c_y[tie] = ys.searchsorted(ux[tie], "left")
    return int(max(peak, (m * c_y - n * b[:-1]).max()))


def _strided_pair(family, rng, m, n):
    """Sorted (xs, ys) of one fuzz family; xs has at least STRIDE_FROM distinct values."""
    x = rng.standard_normal(m)
    if family == "gaussian":
        y = rng.standard_normal(n) * rng.uniform(0.8, 1.25)
    elif family == "tick":  # heavy ties on both sides; the grid keeps STRIDE_FROM x's distinct
        tick = rng.uniform(1e-3, 2.5 / STRIDE_FROM)
        x = np.r_[tick * np.arange(STRIDE_FROM), np.round(x / tick) * tick]
        y = np.round(rng.standard_normal(n) / tick) * tick
    elif family == "few-distinct":  # every x value taken, most of them many times
        x = np.r_[np.arange(STRIDE_FROM + 16), rng.integers(0, STRIDE_FROM + 16, m)].astype(float)
        y = rng.integers(0, STRIDE_FROM + 16, n).astype(float)
    elif family == "disjoint":
        y = rng.standard_normal(n) + rng.choice([-20.0, 20.0])
    elif family == "shifted":
        y = rng.standard_normal(n) + rng.choice([-0.3, 0.3])
    elif family == "identical":
        y = x.copy()
    elif family == "near-identical":  # y's drawn from the x's, some nudged off them
        y = x[rng.integers(0, m, n)] + rng.standard_normal(n) * 1e-9 * rng.integers(0, 2, n)
    else:  # y's on the sampled runs or on the first and last runs of the blocks
        runs = Sorted(x).runs
        on = {"sampled": runs.ux_a, "block-edges": np.r_[runs.ux_b[:, 0], runs.ux_b[:, -1]]}[family]
        y = np.r_[on[rng.integers(0, on.size, n)], rng.standard_normal(n // 8)]
    return np.sort(x), np.sort(y)


STRIDED_FAMILIES = ["gaussian", "tick", "few-distinct", "disjoint", "shifted", "identical",
                    "near-identical", "sampled", "block-edges"]


@pytest.mark.parametrize("family", STRIDED_FAMILIES)
def test_strided_count_matches_full_search(family):
    rng = np.random.default_rng(STRIDED_FAMILIES.index(family))
    for case in range(30):
        # every residue of the run count modulo STRIDE, so the last block takes every length
        m = STRIDE_FROM + 17 + case if case < 2 * STRIDE else int(rng.integers(STRIDE_FROM, 6_001))
        xs, ys = _strided_pair(family, rng, m, int(rng.integers(1, 6_001)))
        x = Sorted(xs)
        assert x.runs.sampled
        want = full_search_count(xs, ys)
        assert ks_count(x, ys) == want, (family, case)


@pytest.mark.parametrize("family", STRIDED_FAMILIES)
def test_strided_count_matches_brute_force(family):
    rng = np.random.default_rng(100 + STRIDED_FAMILIES.index(family))
    for case in range(3):
        xs, ys = _strided_pair(family, rng, STRIDE_FROM + int(rng.integers(0, 300)),
                               int(rng.integers(1, 1_500)))
        assert ks_count(Sorted(xs), ys) == brute_force_count(xs, ys), (family, case)


def _sawtooth(r, s0, s1):
    """x = 0..r-1 and y = x except inside (s0, s1), whose y's move to s1 and s1 + 1.

    With n_y = n_x the count over n_x is the walk C_x - C_y: 0 up to s0, a
    climb of one per x to its peak g = s1 - s0 - 1 just before s1, then g - 1
    at s1 (one x, two y's) and 0 from s1 + 1 on; at s1 = r - 1 all g y's
    land on s1.  So the peak lies exactly on the bound of the block between
    samples s0 and s1; for an interior block it is one above the samples' best.
    """
    x = np.arange(r, dtype=float)
    g = s1 - s0 - 1
    moved = [s1] * g if s1 == r - 1 else [s1] + [s1 + 1] * (g - 1)
    y = np.sort(np.r_[x[: s0 + 1], x[s1:], moved])
    return x, y, r * g


def test_strided_count_finds_a_peak_on_the_block_bound():
    rng = np.random.default_rng(29)
    for r in range(STRIDE_FROM, STRIDE_FROM + 2 * STRIDE):
        sampled = Sorted(np.arange(r, dtype=float)).runs.ux_a.astype(int)
        k = int(rng.integers(0, sampled.size - 2))
        for s0, s1 in ((sampled[k], sampled[k + 1]), (sampled[-2], sampled[-1])):
            xs, ys, want = _sawtooth(r, s0, s1)
            assert ks_count(Sorted(xs), ys) == want, (r, s0)
            # mirrored, the peak is a left limit bounded from the block's upper sample
            assert ks_count(Sorted(-xs[::-1]), -ys[::-1]) == want, (r, s0)
    assert want == full_search_count(xs, ys) == brute_force_count(xs, ys)


def test_strided_count_with_many_more_ys():
    # a cascade class of 96,000 returns against a 3,000-value reference
    rng = np.random.default_rng(96)
    x = Sorted(rng.standard_normal(3_000))
    for scale in (0.5, 0.9, 1.0, 1.1, 2.0):
        ys = np.sort(rng.standard_t(4, 96_000) * scale)
        assert ks_count(x, ys) == full_search_count(x.xs, ys)


def test_count_at_the_stride_threshold():
    rng = np.random.default_rng(17)
    for m in (STRIDE_FROM - 1, STRIDE_FROM):
        x = Sorted(rng.standard_normal(m))
        assert x.runs.sampled == (m == STRIDE_FROM)
        for _ in range(20):
            ys = np.sort(rng.standard_normal(int(rng.integers(1, 200))))
            assert ks_count(x, ys) == brute_force_count(x.xs, ys)


def test_every_count_of_a_call_reads_the_reference_runs(monkeypatch):
    built = []

    class CountedRuns(ks._Runs):
        def __init__(self, xs):
            built.append(xs.size)
            super().__init__(xs)

    monkeypatch.setattr(ks, "_Runs", CountedRuns)
    rng = np.random.default_rng(23)
    x = Sorted(rng.standard_normal(2 * STRIDE_FROM))
    y = Sorted(rng.standard_normal(500))
    assert ks_distance(x, y).raw_sup == brute_force_ks(x.xs, y.xs)
    assert rescaled_ks(x, y, 1.5).raw_sup == brute_force_ks(x.xs, y.xs / math.sqrt(1.5))
    assert built == [x.xs.size]
    # a comparison's fits, probes and moment scores all read its one reference's runs
    built.clear()
    classes = [(f"c{i}", make_sample(rng.standard_normal(300) * (i + 1))) for i in range(3)]
    compare_clocks(classes, make_sample(rng.standard_normal(2 * STRIDE_FROM)))
    assert built == [2 * STRIDE_FROM]


# --- structural properties -------------------------------------------------

@given(small_samples, small_samples)
@settings(max_examples=100, deadline=None)
def test_symmetry(xs, ys):
    assert ks_distance(xs, ys).raw_sup == ks_distance(ys, xs).raw_sup


@given(small_samples, small_samples)
@settings(max_examples=100, deadline=None)
def test_monotone_relabelling_invariance(xs, ys):
    def t(z):
        z = np.asarray(z)
        return z**3 + 2.0 * z  # strictly increasing, tie-preserving

    base = ks_distance(xs, ys).raw_sup
    assert ks_distance(t(xs), t(ys)).raw_sup == base


def test_scale_equivariance_exact_for_binary_scales():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(60)
    y = rng.standard_normal(45) * 1.7
    base = rescaled_ks(x, y, 0.8)
    for c in (0.5, 2.0, 4.0):
        r = rescaled_ks(x, c * y, c * c * 0.8)
        assert r.raw_sup == base.raw_sup
        assert r.d == base.d


def test_scale_equivariance_general_scale_close():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(80)
    y = rng.standard_normal(80)
    base = rescaled_ks(x, y, 1.3)
    r = rescaled_ks(x, 0.3 * y, 0.09 * 1.3)
    assert r.raw_sup == pytest.approx(base.raw_sup, abs=1e-9)


# --- result validation and domain errors -----------------------------------

def test_ksresult_rejects_inconsistent_d():
    with pytest.raises(DataError):
        KsResult(d=0.9, raw_sup=0.5, n_x=2, n_y=2)


def test_ksresult_rejects_out_of_range_sup():
    with pytest.raises(DataError):
        KsResult(d=1.3, raw_sup=1.3, n_x=2, n_y=2)


def test_rescaled_rejects_bad_delta_tau():
    x = make_sample([1.0, 2.0])
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            rescaled_ks(x, x, bad)


def test_empty_sample_rejected():
    with pytest.raises(DataError):
        ks_distance([], [1.0])


@pytest.mark.parametrize(
    "x, y", [([math.nan], [math.nan]), ([1.0, math.nan], [1.0, 2.0]), ([1.0, 2.0], [3.0, math.nan])]
)
def test_nan_rejected(x, y):
    with pytest.raises(DataError, match="NaN"):
        ks_distance(x, y)
    with pytest.raises(DataError, match="NaN"):
        rescaled_ks(x, y, 2.0)
