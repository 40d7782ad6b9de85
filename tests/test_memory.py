"""Traced allocation peaks of the per-detection and per-pulse stages,
of whole blocking and arrival runs, and of the anchor scan.

tracemalloc counts numpy's array buffers exactly, so the peaks are
deterministic for a given numpy.  The stages walk their events in
blocks of `rng.BLOCK_EVENTS`; their peaks then hold little beyond their
outputs (18 bytes per detection for the sampled set, 18 for the matched
pairs, 9 per pulse for the sync train: its times and lock flags).  On
this config whole-array passes peak at about 114 bytes per detection
when sampling, 94 when matching and 85 per pulse when synthesizing
sync; blocks give about 36, 33 and 14.7.

A whole run peaks at the sampler's sort or at its detections plus its
sync train, with the anchor scan's working blocks on top: for blocking
on this config about 42 bytes per detection, against 86 when the train
was held through sampling and the bin edges took a full-length copy of
the times; for arrival 36, against 46 when its folds took one.  The
anchor scan scores its shifts x pairs in blocks, so its peak stays flat
in the search width; scored at once it grew ~0.11 MB per shift.

The first run in a process imports numpy submodules that numpy loads
lazily (`numpy.ma`, its random pickling modules), which a first traced
blocking run would count as about 9 more bytes per detection; a short
untraced run before the budgets loads them, so each budget reads the
same alone and in the full suite.
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
