"""Moment clocks: durations, dominance of the fitted clock, additivity gap."""
from __future__ import annotations

import numpy as np
import pytest

import warnings

from fstclock import (
    ClassFit,
    DataError,
    GeneratorConfig,
    IntervalClass,
    calibrate_interval,
    class_sample,
    compare_clocks,
    generate_selfsimilar,
    moment_time,
    nonadditivity_demo,
)

from conftest import make_sample, shared_path_world


def gauss(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


# --- single moment durations ------------------------------------------------

def test_moment_time_identity():
    x = make_sample(gauss(500, 0))
    for q in (0.5, 1.0, 2.0, 4.0):
        r = moment_time(x, x, q)
        assert r.delta_tau == 1.0
        assert r.ks.d == 0.0


def test_moment_time_scaling():
    x = make_sample(gauss(500, 1))
    y = make_sample(2.0 * x.values)
    r = moment_time(y, x, 2.0)
    assert r.delta_tau == pytest.approx(4.0, rel=1e-12)
    assert r.ks.d == pytest.approx(0.0, abs=1e-12)


def test_moment_time_order_changes_duration_off_scaling():
    # mix two scales: different orders weight the tails differently
    rng = np.random.default_rng(2)
    x = make_sample(rng.standard_normal(4000))
    y = make_sample(np.where(rng.random(4000) < 0.1, 5.0, 0.5) * rng.standard_normal(4000))
    d1 = moment_time(y, x, 1.0).delta_tau
    d4 = moment_time(y, x, 4.0).delta_tau
    assert d4 > 1.5 * d1


def test_moment_time_validation():
    x = make_sample(gauss(50, 3))
    with pytest.raises(ValueError):
        moment_time(x, x, 0.0)
    with pytest.raises(ValueError):
        moment_time(x, x, -2.0)
    zero = make_sample(np.zeros(50))
    with pytest.raises(DataError):
        moment_time(zero, x, 2.0)
    with pytest.raises(DataError):
        moment_time(x, zero, 2.0)


def test_moment_time_self_similar_oracle():
    # r = s**H * innovation makes every moment clock report s**(2H) exactly
    cfg = GeneratorConfig(n_days=100_000, seed=4)
    (_, ref), (_, y) = generate_selfsimilar(0.5, cfg, durations=[1.0, 3.0])
    for q in (1.0, 2.0, 3.0):
        r = moment_time(y, ref, q)
        assert r.delta_tau == pytest.approx(3.0, rel=0.05)


# --- comparison against the fitted clock ------------------------------------

def test_fitted_clock_dominates_moment_clocks():
    rng = np.random.default_rng(5)
    x = make_sample(rng.standard_normal(2000))
    classes = [
        ("scaled", make_sample(0.5 * rng.standard_normal(2000))),
        ("heavy", make_sample(np.where(rng.random(2000) < 0.2, 3.0, 0.7)
                              * rng.standard_normal(2000))),
        ("shifted-scale", make_sample(1.7 * rng.standard_normal(1500))),
    ]
    comp = compare_clocks(classes, x, orders=(1.0, 2.0, 3.0))
    assert comp.orders == (1.0, 2.0, 3.0)
    assert comp.dominance_ok
    for row in comp.rows:
        for m in row.moments:
            assert row.fst.ks.d <= m.ks.d + 1e-12


def test_comparison_records_moment_durations():
    x = make_sample(gauss(800, 6))
    y = make_sample(2.0 * x.values)
    comp = compare_clocks([("double", y)], x, orders=(2.0,))
    row = comp.rows[0]
    assert row.label == "double"
    assert row.moments[0].delta_tau == pytest.approx(4.0, rel=1e-12)
    assert row.fst.ks.d == 0.0  # the exact optimum is among the candidates


@pytest.mark.parametrize("world", ["ticks", "clipped"])
def test_comparison_rows_match_one_shot_fits_and_moments_bit_for_bit(world):
    series, partition, cfg = shared_path_world(world)
    x_ref = class_sample(series, IntervalClass.multiday(1))
    classes = [(c.label, class_sample(series, c)) for c in
               partition.intervals() + [IntervalClass.overnight(), IntervalClass.multiday(2)]]
    orders = (0.5, 1.0, 2.0, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a clipped window lets moment clocks win
        comp = compare_clocks(classes, x_ref, orders=orders, cfg=cfg)

    def bits(r):
        return (r.delta_tau.hex(), r.ks.d.hex(), r.ks.raw_sup.hex(), r.ks.n_x, r.ks.n_y)

    for row, (label, sample) in zip(comp.rows, classes, strict=True):
        fst = calibrate_interval(sample, x_ref, cfg)
        assert isinstance(row.fst, ClassFit) and row.fst.label == row.label == label
        assert bits(row.fst) + (row.fst.cell, row.fst.n_evaluations) == bits(fst) + (
            fst.cell, fst.n_evaluations)
        assert [bits(m) for m in row.moments] == [
            bits(moment_time(sample, x_ref, q)) for q in orders]


# --- additivity gap ---------------------------------------------------------

def test_gap_vanishes_exactly_at_diffusive_exponent():
    r = nonadditivity_demo(0.5, 1.0, 2.0)
    assert r.delta_tau_1 == 1.0
    assert r.delta_tau_2 == 2.0
    assert r.delta_tau_union == 3.0
    assert r.gap == 0.0


def test_gap_frozen_value_at_high_exponent():
    r = nonadditivity_demo(0.7, 1.0, 1.0)
    assert r.gap == pytest.approx(2.0**1.4 - 2.0, abs=1e-12)
    assert r.gap > 0


def test_gap_negative_below_half():
    r = nonadditivity_demo(0.3, 1.0, 1.0)
    assert r.gap == pytest.approx(2.0**0.6 - 2.0, abs=1e-12)
    assert r.gap < 0


def test_gap_reference_duration_scales_parts():
    r = nonadditivity_demo(0.5, 2.0, 4.0, dt_0=2.0)
    assert r.delta_tau_1 == 1.0
    assert r.delta_tau_2 == 2.0
    assert r.gap == 0.0


def test_nonadditivity_validation():
    with pytest.raises(ValueError):
        nonadditivity_demo(1.2, 1.0, 1.0)
    with pytest.raises(ValueError):
        nonadditivity_demo(0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        nonadditivity_demo(0.5, 1.0, 1.0, dt_0=0.0)
