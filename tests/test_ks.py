"""KS statistic: brute-force oracle, frozen examples, structural properties."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstclock import DataError, KsResult, ks_distance, rescaled_ks
from fstclock.ks import ks_count

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
        assert ks_count(np.sort(x), np.sort(y)) == brute_force_count(x, y), case


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
    assert ks_count(np.array(x), np.array(y)) == brute_force_count(x, y) == k


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
