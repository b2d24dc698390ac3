"""KS statistic: brute-force oracle, frozen examples, structural properties."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstclock import DataError, KsResult, ks_distance, rescaled_ks

from conftest import make_sample


# --- independent oracle ----------------------------------------------------

def brute_force_sup_and_location(x, y):
    """Sup of |F_x - F_y| over both one-sided limits at every merged point,
    and the smallest merged point at which either limit reaches it.

    Written against the definition only: boolean comparisons and means, no
    sorting, no searchsorted.  Deliberately the dumbest correct thing.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    points = np.concatenate([x, y])
    limits = []
    for z in points:
        at = abs((x <= z).mean() - (y <= z).mean())
        below = abs((x < z).mean() - (y < z).mean())
        limits.append(max(at, below))
    sup = max(limits)
    return sup, min(z for z, lim in zip(points, limits) if lim == sup)


def brute_force_ks(x, y):
    return brute_force_sup_and_location(x, y)[0]


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


def test_sup_location_is_smallest_achieving_point():
    # F_x - F_y hits the sup already at z = 1 (0.5) and again at 1.5
    r = ks_distance([1.0, 2.0], [1.5])
    assert r.sup_location == 1.0


def test_disjoint_supports_sup_one():
    r = ks_distance([0.0, 1.0], [10.0, 11.0, 12.0])
    assert r.raw_sup == 1.0
    assert r.d == pytest.approx(math.sqrt(6.0 / 5.0), rel=1e-15)


# --- oracle agreement ------------------------------------------------------

@given(small_samples, small_samples)
@settings(max_examples=200, deadline=None)
def test_merge_matches_brute_force(xs, ys):
    got = ks_distance(xs, ys).raw_sup
    want = brute_force_ks(xs, ys)
    assert got == pytest.approx(want, abs=1e-15)


# few distinct values, zero weighted double: tick-quantised returns pile up there
tied_samples = st.lists(
    st.sampled_from([-2.0, -0.5, 0.0, 0.0, 0.25, 1.0, 3.0]), min_size=1, max_size=40
)


@given(tied_samples, tied_samples)
@settings(max_examples=300, deadline=None)
def test_sup_location_matches_brute_force_with_heavy_ties(xs, ys):
    r = ks_distance(xs, ys)
    assert (r.raw_sup, r.sup_location) == brute_force_sup_and_location(xs, ys)


def test_merge_matches_brute_force_with_heavy_ties():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.integers(0, 4, size=rng.integers(1, 30)).astype(float)
        y = rng.integers(0, 4, size=rng.integers(1, 30)).astype(float)
        assert ks_distance(x, y).raw_sup == pytest.approx(brute_force_ks(x, y), abs=1e-15)


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
        KsResult(d=0.9, raw_sup=0.5, sup_location=0.0, n_x=2, n_y=2)


def test_ksresult_rejects_out_of_range_sup():
    with pytest.raises(DataError):
        KsResult(d=1.3, raw_sup=1.3, sup_location=0.0, n_x=2, n_y=2)


def test_rescaled_rejects_bad_delta_tau():
    x = make_sample([1.0, 2.0])
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            rescaled_ks(x, x, bad)


def test_empty_sample_rejected():
    with pytest.raises(DataError):
        ks_distance([], [1.0])
