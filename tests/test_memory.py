"""Traced allocation peaks of the per-detection and per-pulse stages,
of whole blocking, arrival and Doppler runs, and of the anchor scan.

tracemalloc counts numpy's array buffers exactly, so the peaks are
deterministic for a given numpy.  The stages walk their events in
blocks of `rng.BLOCK_EVENTS`; their peaks then hold little beyond their
outputs (18 bytes per detection for the sampled set, 18 for the matched
pairs, 9 per pulse for the sync train: its times and lock flags).  On
this config whole-array passes peak at about 114 bytes per detection
when sampling, 94 when matching and 85 per pulse when synthesizing
sync; blocks give about 35 (the set plus one batch of the detection
stream), 33 and 12.4.

A whole run holds its sync trains, the noise and one window of the
detection stream (a QBER bin for blocking, a released batch for
arrival and Doppler), with the anchor scan's working blocks on top:
on this config about 34 bytes per detection for blocking and 31 for
arrival, against 37 each when the run held every detection and the
sampler sorted them all at once.  A run twice as long then adds only
its trains' and its noise's bytes: blocking grows ~0.96 MB from 10 to
20 s, arrival ~1.77 MB and Doppler (each arm's train beside the
beta = 0 train) ~1.88 MB, where whole-run sampling grew 4.6, 5.4 and
9.2 MB.  The anchor scan scores its shifts x pairs in blocks, so its
peak stays flat in the search width; scored at once it grew ~0.11 MB
per shift.

The first run in a process imports numpy submodules that numpy loads
lazily (its random generators' modules), which a first traced blocking
run would count as about 3.5 more bytes per detection; a short untraced
run before the budgets loads them, so each budget reads the same alone
and in the full suite.
"""

import tracemalloc

import numpy as np
import pytest

from qkdsync import config, simulate
from qkdsync.qkd_analysis import PhaseOffset, match_detections, refine_anchor

SAMPLING_BYTES_PER_DETECTION = 47
MATCHING_BYTES_PER_DETECTION = 40
SYNC_PEAK_BYTES_PER_PULSE = 16
BLOCKING_RUN_BYTES_PER_DETECTION = 50
ARRIVAL_RUN_BYTES_PER_DETECTION = 40
ANCHOR_PEAK_WIDTH_RATIO = 1.5  # peak at +-2000 shifts over the peak at +-50
RUN_PEAK_GROWTH_RATIO = 1.25  # 20 s minus 10 s, over the train and noise bytes added


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
# trains and the noise until the walk is drawn per segment (ROADMAP item 10)
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
    # 10 s more adds pulses of 8 bytes per readout plus a shared lock flag,
    # and noise events tagged as 18 bytes each; detections add nothing
    pulses = 10.0 * cfg["symbol_rate_hz"] / cfg["sync_divisor"]
    noise = 10.0 * 4 * (cfg["background_rate_hz"] + cfg["dark_rate_hz"])
    added = pulses * (8 * readouts + 1) + noise * 18
    assert peaks[1] - peaks[0] < RUN_PEAK_GROWTH_RATIO * added


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
