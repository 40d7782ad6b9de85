"""Traced allocation peaks of the per-detection, per-pulse and per-edge
stages, of the noise build, of whole blocking, arrival and Doppler runs,
and of the anchor scan.

tracemalloc counts numpy's array buffers exactly, so the peaks are
deterministic for a given numpy.  The stages walk their events in
blocks of `rng.BLOCK_EVENTS`; their peaks then hold little beyond their
outputs (18 bytes per detection for the sampled set, 18 for the matched
pairs, 9 per pulse for the sync train: its times and lock flags).  On
this config whole-array passes peak at about 114 bytes per detection
when sampling, 94 when matching and 85 per pulse when synthesizing
sync; blocks give about 36 (the stream's released pieces and the set
joined from them at the run's end; 34 when the set was preallocated and
filled batch by batch), 33 and 14 (the train plus one window and one
range of synthesis).

The noise is drawn and tagged one detector and noise kind at a time,
then merged by one stable sort, and held as ticks, detector and origin
(its slot is a zero-stride -1): the stream's first set, which builds
the noise, peaks at about 20 bytes per noise event, and the noise holds
10, where drawing and tagging every event at once peaked at 60 and held
18.

The edge-level CDR chain runs `classical_link.SCAN_BLOCK_EDGES` edges
at a time.  Over ~1 M edges `modulate_ook` peaks at about 17 bytes per
edge (the boundary indices and the edge times), `cdr_track` at 35.5
(its outputs take 33) and `recovered_fractional_offset` at 0.4, where
whole-stream passes took 56, 89 and 68.

A whole run holds the noise and one window of the detection stream (a
QBER bin for blocking, a fold span of `rng.BLOCK_EVENTS // 8` pulses'
nominal time for arrival and Doppler) and of the sync trains, with the
anchor scan's working blocks on top: on this config about 23 bytes per
detection for blocking and 17 for arrival (18 while the pairing of
spans with their windows held the last span across a pull).  They were
29 and 21 while the stream kept a batch and its inputs across a yield,
blocking kept the last QBER bin's arrays while it built the next, and
the noise was tagged at once, and 32 and 30 when the run held its whole
sync trains.  A run twice as long then adds only its noise's bytes, and
a window's where the longer run's peak falls in a fuller window:
blocking grows ~0.04 MB from 10 to 20 s (~0.08 from 20 to 40 s; 0.08
and ~0.10 while the stream was regrouped at the bin edges after it was
made), arrival ~0.04 MB and Doppler ~0.05 MB, where noise tagged at
once grew 0.46, 0.08 and 0.09 MB, whole-run trains 0.97, 1.78 and 1.88
MB, and whole-run sampling 4.6, 5.4 and 9.2 MB.  The anchor scan scores
its shifts x pairs in blocks, so its peak stays flat in the search
width; scored at once it grew ~0.11 MB per shift.

The first run in a process imports numpy submodules that numpy loads
lazily (its random generators' modules), which a first traced blocking
run would count as about 3.5 more bytes per detection; a short untraced
run before the budgets loads them, so each budget reads the same alone
and in the full suite.
"""

import tracemalloc

import numpy as np
import pytest

from qkdsync import classical_link, config, rng, simulate
from qkdsync.qkd_analysis import PhaseOffset, match_detections, refine_anchor
from qkdsync.quantum_link import ORIGIN_SIGNAL

MODULATION_BYTES_PER_EDGE = 20
CDR_TRACK_BYTES_PER_EDGE = 40
OFFSET_FIT_BYTES_PER_EDGE = 2
SAMPLING_BYTES_PER_DETECTION = 47
NOISE_BUILD_BYTES_PER_EVENT = 26
MATCHING_BYTES_PER_DETECTION = 40
SYNC_PEAK_BYTES_PER_PULSE = 16
BLOCKING_RUN_BYTES_PER_DETECTION = 26
ARRIVAL_RUN_BYTES_PER_DETECTION = 40
ANCHOR_PEAK_WIDTH_RATIO = 1.5  # peak at +-2000 shifts over the peak at +-50
RUN_PEAK_GROWTH_RATIO = 1.25  # 20 s minus 10 s, over the noise and window bytes


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


CFG = config.resolve("blocking", {"duration_s": 10.0, "block_start_s": 3.0,
                                  "block_end_s": 6.0}, 11)  # 10 s of the blocking scenario


@pytest.fixture(scope="module", autouse=True)
def numpy_submodules_loaded():
    simulate.run_blocking_experiment({**CFG, "duration_s": 2.0, "block_start_s": 0.5,
                                      "block_end_s": 1.0})


def test_sync_synthesis_peak_stays_within_a_budget_per_train_byte():
    tx, rx = simulate.build_clocks(CFG)
    (sync,), peak = _traced_peak(lambda: simulate.make_sync_train(tx, rx, CFG,
                                                               blocks=((3.0, 6.0),)))
    assert len(sync) == 100_000 and not sync.locked.all()
    assert peak / len(sync) < SYNC_PEAK_BYTES_PER_PULSE


def test_sampling_and_matching_peaks_stay_within_a_per_detection_budget():
    # ~200 k detections, ~6 blocks
    tx, rx = simulate.build_clocks(CFG)
    (sync,) = simulate.make_sync_train(tx, rx, CFG, blocks=((3.0, 6.0),))
    det, peak = _traced_peak(lambda: simulate.sample_detections(tx, rx, CFG))
    assert len(det) > 150_000
    assert peak / len(det) < SAMPLING_BYTES_PER_DETECTION

    pairs, peak = _traced_peak(lambda: match_detections(
        det, sync, PhaseOffset(1e-9), simulate.pattern_from_config(CFG),
        qubit_rate_hz=CFG["qubit_rate_hz"], window_s=CFG["match_window_s"]))
    assert len(pairs) > 0.99 * len(det)
    assert peak / len(det) < MATCHING_BYTES_PER_DETECTION


def test_noise_build_peak_stays_within_a_per_event_budget():
    # ~800 k noise events beside ~200 k signals: the stream's first next()
    # counts the signals, draws and tags the noise, and tags one batch of
    # signals to yield the empty set before t = 0
    cfg = config.resolve("arrival", {"duration_s": 10.0, "background_rate_hz": 1e4,
                                     "dark_rate_hz": 1e4}, 11)
    tx, rx = simulate.build_clocks(cfg)
    stream = simulate.detection_stream(tx, rx, cfg, (0.0,))
    first, peak = _traced_peak(lambda: next(stream))
    n_noise = sum(np.count_nonzero(s.origin != ORIGIN_SIGNAL) for s in (first, *stream))
    assert n_noise > 700_000
    assert peak / n_noise < NOISE_BUILD_BYTES_PER_EVENT


def test_cdr_chain_peaks_stay_within_a_per_edge_budget():
    cfg = config.resolve("arrival", {}, 11)
    tx, rx = simulate.build_clocks(cfg)
    bits = classical_link.prbs31_bits(0x1234567, 2_000_000)
    edges, peak = _traced_peak(lambda: classical_link.modulate_ook(bits, tx))
    assert len(edges) > 900_000
    assert peak / len(edges) < MODULATION_BYTES_PER_EDGE

    rc, peak = _traced_peak(lambda: classical_link.cdr_track(
        edges, cfg["cdr_loop_bandwidth_hz"], rx, propagation_delay_s=cfg["propagation_delay_s"]))
    assert rc.lock_index >= 0
    assert peak / len(edges) < CDR_TRACK_BYTES_PER_EDGE

    _, peak = _traced_peak(lambda: classical_link.recovered_fractional_offset(rc))
    assert peak / len(edges) < OFFSET_FIT_BYTES_PER_EDGE


def test_whole_blocking_run_peak_stays_within_a_per_detection_budget():
    result, peak = _traced_peak(lambda: simulate.run_blocking_experiment(CFG))
    assert result.n_detections > 150_000 and result.phase_ok.any()
    assert peak / result.n_detections < BLOCKING_RUN_BYTES_PER_DETECTION


def test_whole_arrival_run_peak_stays_within_a_per_detection_budget():
    cfg = config.resolve("arrival", {"duration_s": 10.0}, 11)
    result, peak = _traced_peak(lambda: simulate.run_arrival_experiment(cfg))
    assert result.n_detections > 150_000
    assert peak / result.n_detections < ARRIVAL_RUN_BYTES_PER_DETECTION


# decimation stays out: its receiver clock's frequency-walk table spans the
# run (`timebase._walk_table`), so its peak grows with duration_s beyond the
# noise until the walk is drawn per segment (ROADMAP item 10)
@pytest.mark.parametrize("scenario, run, readouts", [
    ("blocking", simulate.run_blocking_experiment, 1),
    ("arrival", simulate.run_arrival_experiment, 2),
    ("doppler", simulate.run_doppler_check, 2),  # an arm's train and the beta = 0 train
])
def test_whole_run_peak_grows_only_by_the_sync_trains_and_noise(scenario, run, readouts):
    peaks = []
    for duration_s in (10.0, 20.0):
        blocks = {"block_start_s": 3.0, "block_end_s": 6.0} if scenario == "blocking" else {}
        cfg = config.resolve(scenario, {"duration_s": duration_s, **blocks}, 11)
        peaks.append(_traced_peak(lambda: run(cfg))[1])
    # 10 s more adds noise events tagged as 10 bytes each; the sync trains
    # and the detections add nothing, but the peak may fall in a window (a
    # QBER bin or a fold span) holding more detections, at 18 bytes each,
    # and pulses, at 8 bytes per readout plus a lock flag, than the shorter
    # run's largest
    noise_hz = 4 * (cfg["background_rate_hz"] + cfg["dark_rate_hz"])
    pulse_hz = cfg["symbol_rate_hz"] / cfg["sync_divisor"]
    detection_hz = cfg["qubit_rate_hz"] * cfg["transmittance"] * cfg["detector_efficiency"]
    window_s = (cfg["qber_bin_s"] if scenario == "blocking"
                else rng.BLOCK_EVENTS // 8 / pulse_hz)
    window = window_s * ((detection_hz + noise_hz) * 18 + pulse_hz * (8 * readouts + 1))
    assert peaks[1] - peaks[0] < RUN_PEAK_GROWTH_RATIO * (10.0 * noise_hz * 10 + window)


def test_anchor_scan_peak_stays_flat_in_the_search_width():
    cfg = {**CFG, "duration_s": 1.0, "block_start_s": 0.0, "block_end_s": 0.0}
    tx, rx = simulate.build_clocks(cfg)
    det = simulate.sample_detections(tx, rx, cfg)
    (sync,) = simulate.make_sync_train(tx, rx, cfg)
    assert len(det) > 4000  # the scan's full sample

    def peak(search_slots):
        return _traced_peak(lambda: refine_anchor(
            det, sync, PhaseOffset(1e-9), simulate.pattern_from_config(cfg),
            search_slots=search_slots, qubit_rate_hz=cfg["qubit_rate_hz"],
            window_s=cfg["match_window_s"]))[1]

    assert peak(2000) < ANCHOR_PEAK_WIDTH_RATIO * peak(50)
