"""Scenario runners: edge cases and cross-runner consistency."""

import numpy as np
import pytest

from qkdsync import rng, simulate
from qkdsync.config import defaults
from qkdsync.quantum_link import ORIGIN_SIGNAL
from qkdsync.simulate import (
    build_clocks,
    detection_stream,
    make_sync_train,
    pattern_from_config,
    run_arrival_experiment,
    run_blocking_experiment,
    run_decimation_experiment,
    run_doppler_check,
    sample_detections,
)
from qkdsync.sync_recovery import fold_histogram, rescale

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
    assert result.control_fwhm_s[0] == result.fwhm_beta0_s


def test_sparse_sampling_statistics_and_truth():
    cfg = defaults("arrival", seed=31, duration_s=0.1,
                   background_rate_hz=0.0, dark_rate_hz=0.0, chain_jitter_ps=0.0)
    tx, rx = build_clocks(cfg)
    pattern = pattern_from_config(cfg)
    det = sample_detections(tx, rx, cfg)
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


@pytest.mark.parametrize("block", [(0.0, 3.0), (3.0, 5.0)])
def test_blocking_counts_every_detection_once(block):
    cfg = defaults("blocking", seed=3, duration_s=8.0,
                   block_start_s=block[0], block_end_s=block[1])
    result = run_blocking_experiment(cfg)
    assert result.n_matched + result.n_unmatched + result.n_not_offered == result.n_detections
    assert result.n_matched > 0
    first = int(np.flatnonzero(result.phase_ok)[0])
    if block[0] == 0.0:
        # the bins before the first phase are never offered to the matcher
        assert first >= 3 and result.n_not_offered > first * result.n_detections / 10
    else:
        assert first == 0 and result.n_not_offered < result.n_detections / 1000


@pytest.mark.parametrize("duration_s, blocks", [
    (10.0, ()),                 # the arrival defaults: 100,000 pulses
    (10.0, ((3.0, 6.0),)),      # a block mid-run
    (10.0, ((0.0, 2.0),)),      # a block from t = 0: no anchor to free-run from
    (1.2345, ((0.4, 0.9),)),    # 12,345 pulses: a block across two block boundaries
], ids=["defaults", "mid-run", "from-start", "short-run"])
def test_both_readouts_of_one_emission_equal_one_readout_calls(duration_s, blocks):
    cfg = defaults("arrival", seed=11, duration_s=duration_s)
    tx, rx = build_clocks(cfg)
    both = make_sync_train(tx, rx, cfg, readouts=("cdr", "cable"), blocks=blocks)
    assert len(both) == 2 and len(both[0]) % (rng.BLOCK_EVENTS // 8)  # a partial last block
    for readout, train in zip(("cdr", "cable"), both):
        (alone,) = make_sync_train(tx, rx, cfg, readouts=(readout,), blocks=blocks)
        for name in ("times_s", "locked"):
            assert getattr(train, name).tobytes() == getattr(alone, name).tobytes(), readout
        assert (train.first_pulse, train.boundary_step) == (alone.first_pulse,
                                                            alone.boundary_step)
        assert blocks == () or not train.locked.all()
    # the readouts share the emission but not their read jitter
    assert not np.array_equal(both[0].times_s, both[1].times_s)


def test_sampling_and_folding_in_small_blocks_give_the_same_bits(monkeypatch):
    cfg = defaults("arrival", seed=12, duration_s=0.5)
    tx, rx = build_clocks(cfg)
    trains = make_sync_train(tx, rx, cfg, readouts=("cdr", "cable"))
    dq, bins = 1.0 / cfg["qubit_rate_hz"], cfg["histogram_bins"]
    det = sample_detections(tx, rx, cfg)
    whole, n = fold_histogram([(det, trains)], dq, bins)  # the run folded as one part
    assert n == len(det) > 5 * 997

    monkeypatch.setattr(rng, "BLOCK_EVENTS", 997)
    small_det = sample_detections(tx, rx, cfg)
    for name in ("ticks", "detector", "origin", "slot"):
        assert getattr(small_det, name).tobytes() == getattr(det, name).tobytes(), name
    parts = list(detection_stream(tx, rx, cfg, np.arange(1, 10) * 0.05))
    assert len(parts) == 10
    small, n_small = fold_histogram(((part, trains) for part in parts), dq, bins)
    assert n_small == n and len(small) == len(whole) == 2
    for h, h_small in zip(whole, small):
        assert h_small.counts.tobytes() == h.counts.tobytes()
    # the two trains fold the same detections into different counts
    assert not np.array_equal(whole[0].counts, whole[1].counts)


@pytest.mark.parametrize("overrides", [
    {"transmittance": 1e-12, "background_rate_hz": 2e5},  # no slot survives: all noise
    {"transmittance": 0.05, "chain_jitter_ps": 1e7},  # jitter moves events before t = 0
], ids=["all-noise", "jitter-before-epoch"])
def test_sampling_in_small_blocks_gives_the_same_arrays(overrides, monkeypatch):
    cfg = defaults("arrival", seed=21, duration_s=0.01, **overrides)
    tx, rx = build_clocks(cfg)
    det = sample_detections(tx, rx, cfg)
    sampled = len(det) + det.dropped_before_epoch
    assert sampled > 5 * 997 and sampled % 997
    monkeypatch.setattr(rng, "BLOCK_EVENTS", 997)
    small = sample_detections(tx, rx, cfg)
    for name in ("ticks", "detector", "origin", "slot"):
        assert getattr(small, name).tobytes() == getattr(det, name).tobytes(), name
    assert small.dropped_before_epoch == det.dropped_before_epoch
    if "chain_jitter_ps" in overrides:
        assert det.dropped_before_epoch > 0
    else:
        assert not np.any(det.origin == ORIGIN_SIGNAL)


def test_sampling_counts_the_events_jitter_moves_before_the_epoch():
    cfg = defaults("arrival", seed=21, duration_s=0.01, transmittance=0.05)
    tx, rx = build_clocks(cfg)
    # chain jitter has its own random stream: without it the same events are
    # sampled, and none lies before t = 0
    sampled = sample_detections(tx, rx, {**cfg, "chain_jitter_ps": 0.0})
    det = sample_detections(tx, rx, {**cfg, "chain_jitter_ps": 1e7})
    assert sampled.dropped_before_epoch == 0 and det.dropped_before_epoch > 0
    assert len(sampled) == len(det) + det.dropped_before_epoch


def test_decimation_sweep_in_small_blocks_gives_the_same_bits(monkeypatch):
    cfg = defaults("decimation", seed=12)
    table = run_decimation_experiment(cfg).table
    monkeypatch.setattr(rng, "BLOCK_EVENTS", 997)
    small = run_decimation_experiment(cfg).table
    for name in ("n", "delta_s_eff_s", "fwhm_s", "fit_residual", "fit_ok"):
        assert getattr(small, name).tobytes() == getattr(table, name).tobytes(), name


def test_blocking_in_small_blocks_gives_the_same_bits(monkeypatch):
    cfg = defaults("blocking", seed=3, duration_s=8.0, block_start_s=3.0, block_end_s=5.0)
    whole = run_blocking_experiment(cfg)
    monkeypatch.setattr(rng, "BLOCK_EVENTS", 997)
    small = run_blocking_experiment(cfg)
    for name in ("t_bin_s", "qber_z", "qber_x", "n_z", "n_x"):
        assert getattr(small.series, name).tobytes() == getattr(whole.series, name).tobytes(), name
    assert np.array_equal(small.phase_ok, whole.phase_ok) and whole.phase_ok.any()
    for name in ("slot_origin", "n_detections", "n_matched", "n_unmatched", "n_not_offered"):
        assert getattr(small, name) == getattr(whole, name), name


def _files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("scenario, run, overrides", [
    ("arrival", run_arrival_experiment, {}),  # 10 s: 806 windows of 124 pulses
    ("decimation", run_decimation_experiment, {"duration_s": 3.0}),  # n_values up to 500
    ("doppler", run_doppler_check, {"duration_s": 2.0}),  # 4 passes of 162 windows
])
def test_fold_runners_in_small_windows_write_the_same_bytes(scenario, run, overrides,
                                                            tmp_path, monkeypatch):
    cfg = defaults(scenario, seed=13, **overrides)
    (tmp_path / "default").mkdir()
    run(cfg, tmp_path / "default")
    monkeypatch.setattr(rng, "BLOCK_EVENTS", 997)
    assert len(simulate._span_edges(cfg)) + 1 > 150
    (tmp_path / "small").mkdir()
    run(cfg, tmp_path / "small")
    assert _files(tmp_path / "small") == _files(tmp_path / "default")


@pytest.mark.parametrize("scenario, edges, pad", [
    # the blocking drift golden: a 4 s block, clocks 4e-5 apart, bins of 1 s
    ("blocking", np.arange(13.0), 1),
    # the fold spans, each window padded by the largest decimation N
    ("arrival", None, 500),
], ids=["blocking-bins", "decimation-spans"])
def test_each_window_is_the_whole_train_at_its_first_pulse_and_brackets_its_part(
        scenario, edges, pad, monkeypatch):
    monkeypatch.setattr(rng, "BLOCK_EVENTS", 997)
    cfg = defaults(scenario, seed=3, duration_s=12.0, block_start_s=4.0, block_end_s=8.0,
                   tx_fractional_offset=2e-5, rx_fractional_offset=-2e-5)
    blocks = ((4.0, 8.0),) if scenario == "blocking" else ()
    edges = simulate._span_edges(cfg) if edges is None else edges
    tx, rx = build_clocks(cfg)
    (whole,) = make_sync_train(tx, rx, cfg, blocks=blocks)
    assert blocks == () or not whole.locked.all()
    # the pulses are read 4e-5 x t after their nominal times: 4.8 spacings
    # by 12 s, so a window cut at a nominal pulse index would miss pulses
    late = whole.times_s[-1] - (len(whole) - 1) * whole.step_spacing_s
    assert late > 4 * whole.step_spacing_s
    factors = (1, 2, 500) if pad == 500 else (1,)
    decimated = {n: whole.decimate(n) for n in factors}
    pieces = detection_stream(tx, rx, cfg, edges)
    windows = simulate.sync_windows(tx, rx, cfg, edges, blocks=blocks, pad=pad)
    n_windows = 0
    for piece, (window,) in zip(pieces, windows, strict=True):
        n_windows += 1
        at = slice(window.first_pulse, window.first_pulse + len(window))
        assert window.times_s.tobytes() == whole.times_s[at].tobytes()
        assert np.array_equal(window.locked, whole.locked[at])
        for n, train in decimated.items():
            mine, run_wide = rescale(piece.times_s, window.decimate(n)), rescale(piece.times_s,
                                                                                  train)
            # it drops only what the whole train drops: detections outside the run's pulses
            assert (mine.dropped_before, mine.dropped_after) == (run_wide.dropped_before,
                                                                 run_wide.dropped_after)
            assert mine.q_prime.tobytes() == run_wide.q_prime.tobytes()
            shift = window.decimate(n).first_pulse - train.first_pulse
            assert np.array_equal(mine.interval_index + shift, run_wide.interval_index)
    assert n_windows == len(edges) + 1 > 10
