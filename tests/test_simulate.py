"""Scenario runners: edge cases and cross-runner consistency."""

import numpy as np
import pytest

from qkdsync.config import defaults
from qkdsync.quantum_link import ORIGIN_SIGNAL
from qkdsync.simulate import (
    build_clocks,
    channel_from_config,
    pattern_from_config,
    run_arrival_experiment,
    run_blocking_experiment,
    run_decimation_experiment,
    run_doppler_check,
    sample_detections,
)

TDC_BIN_S = 81e-12


def test_zero_jitter_arrival_sits_at_quantization_floor():
    cfg = defaults(
        "arrival", seed=8, duration_s=0.5,
        tx_jitter_ps=0.0, rx_jitter_ps=0.0, chain_jitter_ps=0.0,
        cdr_residual_jitter_ps=0.0,
        background_rate_hz=0.0, dark_rate_hz=0.0,
    )
    result = run_arrival_experiment(cfg)
    # every timing noise source off: only the TDC floor remains
    assert result.cdr.fwhm_s <= 2 * TDC_BIN_S
    assert result.cable.fwhm_s <= 2 * TDC_BIN_S


def test_arrival_fwhm_stable_across_seeds():
    widths = [run_arrival_experiment(defaults("arrival", seed=s, duration_s=2.0)).cdr.fwhm_s
              for s in (42, 43)]
    assert abs(widths[1] - widths[0]) < 0.05 * widths[0]


def test_decimation_n1_row_equals_arrival_fwhm():
    cfg = defaults("decimation", seed=7, n_values=(1, 2))
    sweep = run_decimation_experiment(cfg)
    arrival = run_arrival_experiment(cfg)
    assert sweep.table.fwhm_s[0] == pytest.approx(arrival.cdr.fwhm_s, rel=1e-9)


def test_blocking_zero_length_block_is_flat():
    cfg = defaults("blocking", seed=3, duration_s=6.0,
                   block_start_s=3.0, block_end_s=3.0)
    result = run_blocking_experiment(cfg)
    s = result.series
    assert np.all(np.isfinite(s.qber_z)) and np.all(np.isfinite(s.qber_x))
    assert np.all(s.qber_z < 0.02)
    assert np.all(s.qber_x < 0.02)
    assert result.slot_origin is not None


def test_blocking_block_at_stream_start_leaves_qber_undefined():
    cfg = defaults("blocking", seed=3, duration_s=8.0,
                   block_start_s=0.0, block_end_s=3.0)
    result = run_blocking_experiment(cfg)
    s = result.series
    # no sync lock yet: nothing can be matched, QBER is undefined
    assert np.all(np.isnan(s.qber_z[:3]))
    assert np.all(np.isnan(s.qber_x[:3]))
    assert not result.phase_ok[:3].any()
    # once the link clears, the pipeline locks and runs clean
    assert np.all(np.isfinite(s.qber_z[4:]))
    assert np.all(s.qber_z[4:] < 0.02)
    assert np.all(s.qber_x[4:] < 0.02)
    assert result.slot_origin is not None


def test_blocking_link_blocked_throughout_leaves_every_bin_undefined():
    cfg = defaults("blocking", seed=3, duration_s=4.0,
                   block_start_s=0.0, block_end_s=4.0)
    result = run_blocking_experiment(cfg)
    s = result.series
    # no bin ever has a phase, so nothing is matched
    assert np.all(np.isnan(s.qber_z)) and np.all(np.isnan(s.qber_x))
    assert np.all(s.n_z == 0) and np.all(s.n_x == 0)
    assert result.slot_origin is None and not result.phase_ok.any()


def test_doppler_beta0_row_is_the_baseline():
    cfg = defaults("doppler", seed=5, duration_s=0.2,
                   beta_values=(0.0, 1e-5))
    result = run_doppler_check(cfg)
    assert result.betas[0] == 0.0
    assert result.fwhm_s[0] == result.fwhm_beta0_s
    assert result.control_fwhm_s[0] == pytest.approx(result.fwhm_beta0_s, rel=1e-9)


def test_sparse_sampling_statistics_and_truth():
    cfg = defaults("arrival", seed=31, duration_s=0.1,
                   background_rate_hz=0.0, dark_rate_hz=0.0)
    tx, rx = build_clocks(cfg)
    pattern = pattern_from_config(cfg)
    det = sample_detections(
        tx, rx, pattern, channel_from_config(cfg), cfg["duration_s"],
        seed=cfg["seed"], qubit_rate_hz=cfg["qubit_rate_hz"],
        chain_jitter_sigma_s=0.0,
        tdc_resolution_s=cfg["tdc_resolution_ps"] * 1e-12,
        propagation_delay_s=cfg["propagation_delay_s"])
    n_slots = cfg["duration_s"] * cfg["qubit_rate_hz"]
    expect = n_slots * cfg["transmittance"]
    assert abs(len(det) - expect) < 4 * np.sqrt(expect)
    assert np.all(det.origin == ORIGIN_SIGNAL)
    assert np.all(np.diff(det.slot) > 0)          # one detection per slot, ordered
    assert np.all(np.diff(det.ticks) >= 0)
    # measured outcome must be consistent with the pattern's sent state:
    # H/V sent can never click the other rectilinear detector... but a
    # basis-mismatched measurement can land anywhere, so check only the
    # impossible transitions
    from qkdsync.quantum_link import A, D, H, V
    sent = pattern.states(det.slot)
    bad = (((sent == H) & (det.detector == V))
           | ((sent == V) & (det.detector == H))
           | ((sent == D) & (det.detector == A)))
    assert not bad.any()
