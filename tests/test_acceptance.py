"""Release gate: the eleven properties this package promises.

Each test prints exactly one PASS/FAIL line (run with ``-s`` to see them on
success) and asserts the same condition, so the human-readable gate report
and the CI verdict cannot drift apart.  Sample sizes and seeds are fixed;
the margins were chosen from measured estimator noise, not wished for.
"""
from __future__ import annotations

import json
import os
import time as walltime
from datetime import time as dtime
from pathlib import Path

import numpy as np
import pytest

from fstclock import (
    DayGrid,
    GeneratorConfig,
    IntervalClass,
    PartitionSpec,
    SearchConfig,
    assemble_time_map,
    calibrate_clock,
    calibrate_interval,
    class_sample,
    cutoff_check,
    hurst_slopes,
    intraday_volatility_profile,
    ks_distance,
    moment_curve,
    pooled_bar_sample,
)
from fstclock.analysis import MomentTable
from fstclock.cli import main as cli_main
from fstclock.momentclock import compare_clocks, moment_time, nonadditivity_demo
from fstclock.synthetic import (
    ActivityProfile,
    cascade_hurst,
    generate_multifractal,
    generate_seasonal,
    generate_selfsimilar,
)

from conftest import brownian_series, make_sample


def gate(cid: str, ok: bool, detail: str) -> None:
    """One verdict line per criterion; the printed text and the assert agree."""
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


# One seasonal universe serves criteria 3, 4, 8 and 9: 1-minute bars over a
# 9:40-16:00 session, a stepped U with blocks aligned to the 20-minute
# partition (so the clock interpolation is exact within intervals), and an
# overnight closure carrying 40% of the intraday variance.
@pytest.fixture(scope="module")
def seasonal_world():
    grid = DayGrid(open_time=dtime(9, 40), bar_minutes=1, n_points=381)
    profile = ActivityProfile.u_steps(
        380, 19, edge_boost=16.0, power=8.0, overnight_mass_ratio=0.4
    )
    t0 = walltime.perf_counter()
    series, truth = generate_seasonal(profile, GeneratorConfig(n_days=5000, seed=99), grid)
    partition = PartitionSpec.equal_spacing(grid, 20.0)
    calibration = calibrate_clock(series, partition)
    elapsed = walltime.perf_counter() - t0
    return grid, partition, series, truth, calibration, elapsed


def test_ks_statistic_matches_brute_force():
    # oracle: evaluate both empirical CDFs at every pooled point and take
    # the sup directly, O(n*m) per pair; ties included on odd pairs
    rng = np.random.default_rng(1)
    t0 = walltime.perf_counter()
    worst = 0.0
    for i in range(1000):
        nx, ny = rng.integers(1, 51, size=2)
        if i % 2:
            x = rng.integers(-3, 4, size=nx).astype(float)
            y = rng.integers(-3, 4, size=ny).astype(float)
        else:
            x = rng.standard_normal(nx)
            y = rng.standard_normal(ny) * 1.3 + 0.2
        support = np.concatenate([x, y])
        fx = np.searchsorted(np.sort(x), support, side="right") / nx
        fy = np.searchsorted(np.sort(y), support, side="right") / ny
        brute = float(np.abs(fx - fy).max())
        got = ks_distance(make_sample(x), make_sample(y)).raw_sup
        worst = max(worst, abs(got - brute))
    elapsed = walltime.perf_counter() - t0
    gate(
        "criterion 1",
        worst <= 1e-15 and elapsed < 10.0,
        f"merge vs brute-force sup over 1000 pairs: max gap {worst:.2e} "
        f"(tol 1e-15), {elapsed:.1f}s (limit 10s)",
    )


def test_calibration_identity_and_quadratic_equivariance():
    rng = np.random.default_rng(2)
    t0 = walltime.perf_counter()
    x = make_sample(rng.standard_normal(4000))
    ident = calibrate_interval(x, x).delta_tau
    y_vals = rng.standard_normal(4000) * 0.7
    base = calibrate_interval(make_sample(y_vals), x).delta_tau
    worst_c, worst_err = 1.0, 0.0
    for c in (0.1, 0.5, 2.0, 10.0):
        scaled = calibrate_interval(make_sample(c * y_vals), x).delta_tau
        err = abs(scaled - c * c * base) / (c * c * base)
        if err > worst_err:
            worst_c, worst_err = c, err
    elapsed = walltime.perf_counter() - t0
    gate(
        "criterion 2",
        abs(ident - 1.0) <= 1e-3 and worst_err <= 2e-3 and elapsed < 30.0,
        f"self-calibration {ident:.6f} (tol 1e-3 around 1); c*y scales by c^2 "
        f"within {worst_err:.2e} rel (worst c={worst_c:g}, tol 2e-3); "
        f"{elapsed:.1f}s (limit 30s)",
    )


def test_clock_recovery_against_ground_truth(seasonal_world):
    _, partition, _, truth, cal, elapsed = seasonal_world
    truth_intraday = truth.interval_durations(partition)
    rel = np.abs(cal.intraday_durations - truth_intraday) / truth_intraday
    rel_night = abs(cal.overnight_duration - truth.overnight_tau) / truth.overnight_tau
    worst = max(float(rel.max()), rel_night)
    sum_err = abs(cal.day_total - 1.0)
    gate(
        "criterion 3",
        worst <= 0.10 and sum_err <= 0.05 and elapsed < 300.0,
        f"5000-day oracle: worst duration error {worst * 100:.1f}% (tol 10%), "
        f"day sum off by {sum_err * 100:.2f}% (tol 5%), {elapsed:.0f}s (limit 300s)",
    )


def test_clock_time_flattens_the_volatility_profile(seasonal_world):
    _, partition, series, _, cal, _ = seasonal_world
    tmap = assemble_time_map(cal, partition, series)
    physical = intraday_volatility_profile(series, partition)
    clocked = intraday_volatility_profile(series, partition, time_map=tmap, n_bins=19)
    p_phys = physical.peak_to_mean()
    p_fst = clocked.peak_to_mean()
    gate(
        "criterion 4",
        p_fst <= 1.10 and p_phys >= 2.0,
        f"profile peak-to-mean: {p_fst:.3f} on the calibrated clock "
        f"(tol 1.10) vs {p_phys:.3f} in wall time (needs >= 2.0)",
    )


def test_brownian_scaling_exponents_are_flat():
    # exactly 1e6 intraday increments: 2500 days of 400 one-minute bars
    grid = DayGrid(open_time=dtime(9, 40), bar_minutes=1, n_points=401)
    profile = ActivityProfile.u_steps(400, 400, edge_boost=1.0, overnight_mass_ratio=0.3)
    series, _ = generate_seasonal(profile, GeneratorConfig(n_days=2500, seed=13), grid)
    samples = [(float(k), pooled_bar_sample(series, k)) for k in (1, 2, 4, 8, 16, 32, 64)]
    table = moment_curve(samples, orders=(0.5, 1.0, 2.0, 3.0, 4.0))
    spectrum = hurst_slopes(table, fit_range=(1.0, 64.0))
    dev = float(np.abs(spectrum.hurst - 0.5).max())
    gate(
        "criterion 5",
        dev <= 0.03,
        f"Brownian H(q) over q in {{0.5,1,2,3,4}}: max |H - 1/2| = {dev:.4f} (tol 0.03)",
    )


def test_cascade_multiscaling_survives_recalibration():
    lam2 = 0.05
    grid = DayGrid(open_time=dtime(9, 40), bar_minutes=1, n_points=257)
    cfg = GeneratorConfig(n_days=3000, seed=5, cascade_depth=8, cascade_lambda2=lam2)
    series = generate_multifractal(cfg, grid)
    durations = [8.0, 16.0, 32.0, 64.0, 128.0]
    samples = [(d, pooled_bar_sample(series, int(d))) for d in durations]
    reference = pooled_bar_sample(series, 256)

    table = moment_curve(samples, orders=(1.0, 2.0, 3.0, 4.0))
    pre = hurst_slopes(table, fit_range=(8.0, 128.0)).spread(1.0, 4.0)

    taus = [calibrate_interval(s, reference).delta_tau for _, s in samples]
    refit = MomentTable(
        durations=np.asarray(taus), orders=table.orders, moments=table.moments,
        clock_tag="fst",
    )
    post = hurst_slopes(refit, fit_range=(min(taus), max(taus))).spread(1.0, 4.0)

    analytic = cascade_hurst(1.0, lam2) - cascade_hurst(4.0, lam2)
    lo, hi = 0.7 * analytic, 1.3 * analytic
    gate(
        "criterion 6",
        lo <= pre <= hi and lo <= post <= hi and post <= pre,
        f"H(1)-H(4) spread: {pre:.4f} before and {post:.4f} after duration "
        f"refit, both inside [{lo:.4f}, {hi:.4f}] around the analytic "
        f"{analytic:.4f}, refit not wider",
    )


def test_moment_clock_recovers_exact_scale_and_nonadditivity_formula():
    span = 3.0
    pairs = generate_selfsimilar(
        0.5, GeneratorConfig(n_days=100_000, seed=21), durations=(1.0, span)
    )
    (_, x), (_, y) = pairs
    worst = max(
        abs(moment_time(y, x, q).delta_tau - span) / span for q in (1.0, 2.0, 3.0)
    )
    gap_half = nonadditivity_demo(0.5, 1.0, 1.0).gap
    gap_07 = nonadditivity_demo(0.7, 1.0, 1.0).gap
    formula_err = abs(gap_07 - (2.0 ** 1.4 - 2.0))
    gate(
        "criterion 7",
        worst <= 0.05 and gap_half == 0.0 and formula_err <= 1e-12,
        f"moment durations off the true span by {worst * 100:.2f}% worst-q "
        f"(tol 5%); union gap {gap_half} at H=1/2 (must be exactly 0) and "
        f"off the closed form by {formula_err:.1e} at H=0.7 (tol 1e-12)",
    )


def test_fitted_durations_beat_every_moment_clock(seasonal_world):
    _, partition, series, _, _, _ = seasonal_world
    classes = [
        (c.label, class_sample(series, c))
        for m in range(1, partition.m_max + 1)
        for c in [IntervalClass.intraday(m - 1, m, partition)]
    ]
    classes.append(("overnight", class_sample(series, IntervalClass.overnight())))
    classes.append(("2-day", class_sample(series, IntervalClass.multiday(2))))
    reference = class_sample(series, IntervalClass.multiday(1))
    comparison = compare_clocks(classes, reference, orders=(1.0, 2.0, 3.0))
    margin = min(
        m.ks.d - row.fst.ks.d for row in comparison.rows for m in row.moments
    )
    gate(
        "criterion 8",
        comparison.dominance_ok and margin >= -1e-12,
        f"fitted D <= moment-clock D on all {len(classes)} classes x 3 orders "
        f"(worst margin {margin:+.2e})",
    )


def test_contiguous_correlation_gate(seasonal_world):
    _, partition, series, _, _, _ = seasonal_world
    clean = cutoff_check(series, partition)
    tainted_series = brownian_series(n_days=1500, n_bars=19, seed=52, ar=0.1)
    tainted_partition = PartitionSpec.equal_spacing(tainted_series.grid, 20.0)
    tainted = cutoff_check(tainted_series, tainted_partition)
    gate(
        "criterion 9",
        abs(clean.value) <= 0.02 and not clean.violated
        and tainted.violated and tainted.value > 0.05,
        f"independent increments: |corr| = {abs(clean.value):.4f} (tol 0.02); "
        f"injected lag-1 dependence measured {tainted.value:.3f} and flagged "
        f"against the 0.05 gate",
    )


def test_reference_dataset_harness_is_conditional(tmp_path):
    path = os.environ.get("FST_SP500_CSV", "")
    if not path:
        print(
            "\nACCEPTANCE criterion 10: CONDITIONAL - no reference dataset "
            "supplied (set FST_SP500_CSV to a 1-minute 09:40-16:00 prices CSV "
            "to run the harness; expected scale: first 20 minutes ~ 0.026, "
            "trading day ~ 0.682)"
        )
        pytest.skip("reference dataset not supplied; harness not exercised")
    code = cli_main([
        "calibrate", "--input", path, "--out", str(tmp_path),
        "--open", "09:40", "--bar-minutes", "1", "--points", "381",
        "--max-missing", "60",
    ])
    payload = json.loads((tmp_path / "calibration.json").read_text())
    first = payload["delta_tau_intraday"][0]
    trading = sum(payload["delta_tau_intraday"])
    ok = code == 0 and len(payload["delta_tau_intraday"]) == 19 and first > 0
    gate(
        "criterion 10",
        ok,
        f"harness ran on the supplied dataset: first 20 minutes {first:.4f} "
        f"(reference point ~0.026), trading day {trading:.4f} (reference "
        f"point ~0.682); agreement is expected within estimator noise, "
        f"not CI-gated",
    )


def test_pipeline_is_byte_deterministic(tmp_path):
    out = tmp_path / "run"

    def run_all():
        manifest = out / "an" / "manifest.json"
        if manifest.exists():
            analyze_args = ["analyze", "--config", str(manifest)]
        else:
            analyze_args = [
                "analyze", "--input", str(out / "synth" / "prices.csv"),
                "--out", str(out / "an"), "--points", "20", "--clock", "fst",
                "--calibration", str(out / "cal" / "calibration.json"),
            ]
        assert cli_main([
            "synth", "--out", str(out / "synth"), "--days", "120", "--seed", "7",
            "--points", "20", "--profile", "u-steps", "--steps", "19",
        ]) == 0
        assert cli_main([
            "calibrate", "--input", str(out / "synth" / "prices.csv"),
            "--out", str(out / "cal"), "--points", "20",
        ]) == 0
        assert cli_main(analyze_args) == 0
        return {
            p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }

    first = run_all()   # materializes every manifest
    second = run_all()  # second consecutive run, analyze now driven by its manifest
    differing = sorted(
        str(n) for n in set(first) | set(second) if first.get(n) != second.get(n)
    )
    gate(
        "criterion 11",
        len(first) == len(second) and not differing,
        f"synth+calibrate+analyze rerun: {len(first) - len(differing)}/"
        f"{len(first)} files byte-identical"
        + (f"; differing: {differing}" if differing else ""),
    )
