"""End-to-end acceptance gate.

Each test exercises one headline requirement at full scale with a pinned
seed and prints a single [PASS]/[FAIL] line (through the terminal
reporter, so it shows regardless of output capture) before asserting.
"""

import sys
import time

import numpy as np
import pytest

from qkdsync.classical_link import (
    SyncPulseTrain,
    cdr_track,
    modulate_ook,
    prbs31_bits,
    recovered_fractional_offset,
)
from qkdsync.config import defaults
from qkdsync.quantum_link import A, D, H, V, measure_polarization
from qkdsync.rng import derive_key
from qkdsync.simulate import (
    run_arrival_experiment,
    run_blocking_experiment,
    run_decimation_experiment,
    run_doppler_check,
    sample_detections,
    build_clocks,
    channel_from_config,
    pattern_from_config,
    make_sync_train,
)
from qkdsync.sync_recovery import fit_gaussian, fold, histogram
from qkdsync.timebase import ClockModel, EdgeTrain

SEED = 42
TDC_BIN_S = 81e-12


@pytest.fixture
def report(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(num, label, ok, detail):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}"
        if reporter is not None:
            reporter.write_line("")
            reporter.write_line(line)
        else:
            print(line, file=sys.__stdout__, flush=True)
        assert ok, line

    return _report


def test_criterion_1_cable_equivalence(report):
    t0 = time.perf_counter()
    result = run_arrival_experiment(defaults("arrival", seed=SEED))
    elapsed = time.perf_counter() - t0
    cdr, cable = result.cdr.fwhm_s, result.cable.fwhm_s
    ok = (
        0.8e-9 <= cdr <= 1.2e-9
        and 0.8e-9 <= cable <= 1.2e-9
        and abs(result.fwhm_ratio - 1.0) <= 0.10
        and result.cdr.fit_ok and result.cable.fit_ok
        and result.n_detections >= 100_000
        and elapsed < 60.0
    )
    report(1, "CDR sync equivalent to cable sync", ok,
           f"FWHM cdr={cdr * 1e12:.1f} ps cable={cable * 1e12:.1f} ps "
           f"ratio={result.fwhm_ratio:.4f} n={result.n_detections} "
           f"[{elapsed:.1f} s]")


def test_criterion_2_decimation_growth(report):
    cfg = defaults("decimation", seed=SEED)
    result = run_decimation_experiment(cfg)
    t = result.table
    n_ok = t.n[0] == 1 and t.n[-1] == 500
    # non-decreasing within a 10% wiggle allowance between consecutive points
    monotone = bool(np.all(t.fwhm_s[1:] >= 0.9 * t.fwhm_s[:-1]))
    grew = result.growth_n is not None and result.growth_n <= 500
    ok = n_ok and monotone and grew and bool(np.all(np.isfinite(t.fwhm_s)))
    widths = " ".join(f"{w * 1e12:.0f}" for w in t.fwhm_s)
    report(2, "FWHM grows with sync decimation", ok,
           f"N={list(map(int, t.n))} FWHM/ps=[{widths}] "
           f"first 2x-growth at N={result.growth_n}")


def test_criterion_3_blocking_qber(report):
    t0 = time.perf_counter()
    cfg = defaults("blocking", seed=SEED)
    result = run_blocking_experiment(cfg)
    elapsed = time.perf_counter() - t0
    s = result.series
    mid = (s.t_bin_s >= 25.0) & (s.t_bin_s < 35.0)
    outside = ((s.t_bin_s >= 1.0) & (s.t_bin_s < 19.0)) | (
        (s.t_bin_s >= 41.0) & (s.t_bin_s < 59.0))
    mid_z = float(np.nanmean(s.qber_z[mid]))
    mid_x = float(np.nanmean(s.qber_x[mid]))
    out_z = float(np.nanmean(s.qber_z[outside]))
    out_x = float(np.nanmean(s.qber_x[outside]))
    ok = (
        abs(mid_z - 0.50) <= 0.03
        and abs(mid_x - 0.25) <= 0.03
        and out_z < 0.02 and out_x < 0.02
        and elapsed < 120.0
    )
    report(3, "QBER 50%/25% while classical link blocked", ok,
           f"in-block Z={mid_z:.3f} X={mid_x:.3f}; "
           f"unblocked Z={out_z:.4f} X={out_x:.4f} [{elapsed:.1f} s]")


def test_criterion_4_doppler_invariance(report):
    cfg = defaults("doppler", seed=SEED)
    result = run_doppler_check(cfg)
    nonzero = result.betas != 0.0
    shifts = np.abs(result.fwhm_s[nonzero] - result.fwhm_beta0_s)
    degradation = result.control_fwhm_s[nonzero] / result.fwhm_beta0_s
    ok = bool(np.all(shifts < TDC_BIN_S) and np.all(degradation > 5.0))
    report(4, "common Doppler shift leaves the peak unchanged", ok,
           f"max |dFWHM|={shifts.max() * 1e12:.1f} ps (< 81 ps); "
           f"one-stream control widens {degradation.min():.1f}x-"
           f"{degradation.max():.1f}x (> 5x)")


def test_criterion_5_rescaling_formula_oracle(report):
    # library rescale vs an independently coded direct evaluation of
    # q' = (q - s_i)/(s_{i+1} - s_i) * delta_s, at integer-picosecond level
    from qkdsync.sync_recovery import rescale

    rng = np.random.default_rng(20260825)
    n = 1000
    delta_s = 1e-4
    gaps = delta_s * (1.0 + rng.uniform(-3e-3, 3e-3, n))
    gaps += delta_s - gaps.mean()  # keep the train's mean spacing nominal
    s = np.concatenate([[0.05], 0.05 + np.cumsum(gaps)])
    q = s[:-1] + rng.uniform(0.0, 1.0, n) * gaps
    q.sort()
    sync = SyncPulseTrain(EdgeTrain(s), delta_s,
                          pulse_boundary_index=np.arange(n + 1) * 125_000,
                          locked=np.ones(n + 1, dtype=bool))
    r = rescale(q, sync)
    assert len(r.q_prime) == n

    mismatch = 0
    for k in range(n):
        i = int(r.interval_index[k])
        qk = float(q[r.source_index[k]])
        expected = (qk - float(s[i])) / (float(s[i + 1]) - float(s[i])) * delta_s
        if round(float(r.q_prime[k]) / 1e-12) != round(expected / 1e-12):
            mismatch += 1
    report(5, "rescaling formula matches direct evaluation", mismatch == 0,
           f"{n - mismatch}/{n} random (s_i, s_i+1, q) triples identical "
           "at 1 ps granularity")


def test_criterion_6_cdr_frequency_transfer(report):
    n_symbols = 500_000
    bits = prbs31_bits(0x3FFF_AB01, n_symbols)
    rx = ClockModel(1.25e9, fractional_offset=0.0, drift_rate_per_s=0.0,
                    white_jitter_sigma_s=30e-12, seed=derive_key(SEED, "rx"))
    rows = []
    worst_err, worst_lock = 0.0, 0
    for off_true in (-1e-5, -1e-6, 0.0, 1e-6, 1e-5):
        tx = ClockModel(1.25e9, fractional_offset=off_true, drift_rate_per_s=0.0,
                        white_jitter_sigma_s=30e-12, seed=derive_key(SEED, "tx"))
        rc = cdr_track(modulate_ook(bits, tx), 625e3, rx,
                       propagation_delay_s=3.5e-7)
        err = abs(recovered_fractional_offset(rc) - off_true)
        lock_symbol = int(rc.boundary_index[rc.lock_index])
        worst_err = max(worst_err, err)
        worst_lock = max(worst_lock, lock_symbol)
        rows.append(f"{off_true:+.0e}:err={err:.1e}")
    ok = worst_err < 1e-8 and worst_lock < 100_000
    report(6, "CDR transfers the transmitter frequency", ok,
           f"{' '.join(rows)}; worst lock at symbol {worst_lock}")


def test_criterion_7_property_suite(report):
    checks = {}
    rng = np.random.default_rng(7)

    x = rng.uniform(0.0, 5e-4, 10_000)
    once = fold(x, 20e-9)
    checks["fold-idempotent"] = np.array_equal(fold(once, 20e-9).values, once.values)

    h = histogram(once, 20e-9 / 247)
    checks["histogram-conserves-counts"] = int(h.counts.sum()) == x.size

    sigma_true = 0.43e-9
    samples = fold(rng.normal(7e-9, sigma_true, 200_000), 20e-9)
    g = fit_gaussian(histogram(samples, 20e-9 / 247))
    checks["fit-recovers-sigma-2pct"] = abs(g.sigma_s - sigma_true) < 0.02 * sigma_true

    n = 100_000
    out = measure_polarization(np.full(n, H, dtype=np.int8), rng, "X")
    p = np.count_nonzero(out == D) / n
    checks["born-rule-4sigma"] = abs(p - 0.5) < 4 * np.sqrt(0.25 / n)

    cfg = defaults("arrival", seed=SEED, duration_s=0.2)
    tx, rx = build_clocks(cfg)
    kw = dict(seed=cfg["seed"], qubit_rate_hz=cfg["qubit_rate_hz"],
              chain_jitter_sigma_s=cfg["chain_jitter_ps"] * 1e-12,
              tdc_resolution_s=cfg["tdc_resolution_ps"] * 1e-12,
              propagation_delay_s=cfg["propagation_delay_s"])
    pattern, params = pattern_from_config(cfg), channel_from_config(cfg)
    d1 = sample_detections(tx, rx, pattern, params, 0.2, **kw)
    d2 = sample_detections(tx, rx, pattern, params, 0.2, **kw)
    s1 = make_sync_train(tx, rx, cfg)
    s2 = make_sync_train(tx, rx, cfg)
    checks["determinism"] = (np.array_equal(d1.ticks, d2.ticks)
                             and np.array_equal(d1.detector, d2.detector)
                             and np.array_equal(s1.times_s, s2.times_s))

    failed = [name for name, good in checks.items() if not good]
    report(7, "library property suite", not failed,
           "all properties hold" if not failed else f"failed: {failed}")
