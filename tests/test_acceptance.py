"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single pass/fail line with the measured numbers so a
log scrape recovers the whole scorecard. Tolerances are stated inline;
runtime budgets are asserted, not aspirational.
"""

import math
import time

from tlrsim.config import fjs_params, load_config, tlr_params
from tlrsim.device import (
    coupling_strength,
    fjs_derive,
    mode_frequency,
    thermal_occupancy,
    to_linear,
    transfer_rate,
)
from tlrsim.sweeps import (
    render_csv,
    run_cphase_sweep,
    run_detector_sweep,
    run_transfer_sweep,
)
from tlrsim.validate import has_failure, render_report, run_validation

CONFIG = load_config()


def report(n, ok, detail, elapsed):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.2f}s)")


def test_criterion_1_derived_rates():
    t0 = time.perf_counter()
    tlr = tlr_params(CONFIG)
    freq = to_linear(mode_frequency(tlr))
    g = coupling_strength(mode_frequency(tlr), 5.0e-12, 2.3e-14, 5.0e-13)
    rate = transfer_rate(g, 2.0 * math.pi * 2.0e9)
    occupancy = thermal_occupancy(0.04, mode_frequency(tlr))
    elapsed = time.perf_counter() - t0

    ok = (
        abs(freq - 2.0e10) <= 1.0e-3 * 2.0e10
        and 1.9e7 <= rate <= 2.0e7
        and occupancy < 1.0e-10
        and elapsed < 1.0
    )
    report(1, ok, f"f0={freq:.6e} Hz, rate={rate:.4e} Hz, n_th={occupancy:.2e}", elapsed)
    assert abs(freq - 2.0e10) <= 1.0e-3 * 2.0e10
    assert 1.9e7 <= rate <= 2.0e7
    assert occupancy < 1.0e-10
    assert elapsed < 1.0


def test_criterion_2_transfer_surface():
    t0 = time.perf_counter()
    result = run_transfer_sweep(CONFIG)
    elapsed = time.perf_counter() - t0

    point = next(r[2] for r in result.rows if r[0] == 1.0e4 and r[1] == 1.0e6)
    table = {(r[0], r[1]): r[2] for r in result.rows}
    kappas = CONFIG["experiments"]["transfer"]["kappa_grid_hz"]
    gamma2s = CONFIG["experiments"]["transfer"]["gamma2_grid_hz"]
    monotone = all(
        table[(k1, g)] >= table[(k0, g)]
        for k0, k1 in zip(kappas, kappas[1:])
        for g in gamma2s
    ) and all(
        table[(k, g1)] >= table[(k, g0)]
        for g0, g1 in zip(gamma2s, gamma2s[1:])
        for k in kappas
    )

    ok = 3.0e-4 <= point <= 5.0e-3 and monotone and elapsed < 30.0
    report(2, ok, f"error(10kHz,1MHz)={point:.4e}, monotone={monotone}", elapsed)
    assert 3.0e-4 <= point <= 5.0e-3
    assert monotone
    assert elapsed < 30.0


def test_criterion_3_cphase_operating_point():
    t0 = time.perf_counter()
    result = run_cphase_sweep(CONFIG)
    elapsed = time.perf_counter() - t0

    rows = result.rows
    point = next(r[1] for r in rows if r[0] == 20.0)
    monotone = all(
        nxt[1] <= prev[1] + 2.0 * math.hypot(prev[2], nxt[2])
        for prev, nxt in zip(rows, rows[1:])
    )

    ok = 3.0e-4 <= point <= 1.0e-2 and monotone and elapsed < 300.0
    report(3, ok, f"error(ratio 20)={point:.4e}, monotone={monotone}", elapsed)
    assert monotone
    assert elapsed < 300.0
    # the echo wait is solved for a conditional phase of pi with the
    # finite-speed legs included; what remains at speed ratio 20 is the
    # two-photon leg amplitude loss plus sampled-shift noise
    assert 3.0e-4 <= point <= 1.0e-2, (
        f"controlled-phase error {point:.4e} at speed ratio 20 outside [3e-4, 1e-2]"
    )


def test_criterion_4_detector_efficiency():
    t0 = time.perf_counter()
    result = run_detector_sweep(CONFIG)
    base = next(r[1] for r in result.rows if r[0] == 2000.0)
    heavy = run_detector_sweep(
        load_config({"device": {"detector": {"dephasing_rate_hz": 1.0e7}}})
    )
    shifted = next(r[1] for r in heavy.rows if r[0] == 2000.0)
    elapsed = time.perf_counter() - t0

    ok = base > 0.99 and abs(shifted - base) < 0.01 and elapsed < 30.0
    report(4, ok, f"eff={base:.5f}, 10x dephasing shift={abs(shifted - base):.2e}", elapsed)
    assert base > 0.99
    assert abs(shifted - base) < 0.01
    assert elapsed < 30.0


def test_criterion_5_squid_numerology():
    t0 = time.perf_counter()
    derived = fjs_derive(fjs_params(CONFIG), tlr_params(CONFIG))
    interaction = abs(to_linear(derived.omega_int))
    rel_spread = derived.delta_omega_int_rel
    elapsed = time.perf_counter() - t0

    ok = (
        0.5e6 <= interaction <= 2.0e6
        and 1.0e-4 / 3.0 <= rel_spread <= 3.0e-4
        and elapsed < 1.0
    )
    report(5, ok, f"|w_int|/2pi={interaction:.4e} Hz, spread={rel_spread:.3e}", elapsed)
    assert 0.5e6 <= interaction <= 2.0e6
    assert 1.0e-4 / 3.0 <= rel_spread <= 3.0e-4
    assert elapsed < 1.0


def test_criterion_6_invariant_suites():
    t0 = time.perf_counter()
    results = run_validation(CONFIG)
    elapsed = time.perf_counter() - t0

    ok = not has_failure(results) and all(r.status == "pass" for r in results) and elapsed < 120.0
    failing = [r.id for r in results if r.status != "pass"]
    report(6, ok, f"{len(results)} checks, non-pass={failing or 'none'}", elapsed)
    assert not failing, render_report(results)
    assert elapsed < 120.0


def test_criterion_7_byte_identical_csv():
    t0 = time.perf_counter()
    runs = {}
    for name, fn, config in (
        ("transfer", run_transfer_sweep, CONFIG),
        ("cphase", run_cphase_sweep, load_config({"noise": {"samples": 150}})),
        ("detector", run_detector_sweep, CONFIG),
    ):
        serial = render_csv(fn(config, jobs=1), timestamp=False)
        again = render_csv(fn(config, jobs=1), timestamp=False)
        pooled = render_csv(fn(config, jobs=8), timestamp=False)
        runs[name] = serial == again == pooled
    elapsed = time.perf_counter() - t0

    ok = all(runs.values()) and elapsed < 120.0
    report(7, ok, f"stable={runs}", elapsed)
    assert all(runs.values()), runs
    assert elapsed < 120.0
