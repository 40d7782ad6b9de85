"""Traced allocation peaks of the per-detection stages, per detection.

tracemalloc counts numpy's array buffers exactly, so the peaks are
deterministic for a given numpy.  The stages walk their detections in
blocks of `rng.BLOCK_EVENTS`; their peaks then hold little beyond their
outputs (18 bytes per detection for the sampled set, 27 for the matched
pairs).  Whole-array passes peak at about 114 bytes per detection when
sampling and 94 when matching on this config; blocks give about 57 and 45.
"""

import tracemalloc

import numpy as np

from qkdsync import config, simulate
from qkdsync.qkd_analysis import PhaseOffset, match_detections

BYTES_PER_DETECTION = 75


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampling_and_matching_peaks_stay_within_a_per_detection_budget():
    # 10 s of the blocking scenario: ~200 k detections, ~6 blocks
    cfg = config.resolve("blocking", {"duration_s": 10.0, "block_start_s": 3.0,
                                      "block_end_s": 6.0}, 11)
    tx, rx = simulate.build_clocks(cfg)
    sync = simulate.make_sync_train(tx, rx, cfg, blocks=((3.0, 6.0),))
    det, peak = _traced_peak(lambda: simulate.detections_from_config(tx, rx, cfg))
    assert len(det) > 150_000
    assert peak / len(det) < BYTES_PER_DETECTION

    pairs, peak = _traced_peak(lambda: match_detections(
        det, sync, PhaseOffset(1e-9), simulate.pattern_from_config(cfg),
        qubit_rate_hz=cfg["qubit_rate_hz"], window_s=cfg["match_window_s"]))
    assert len(pairs) > 0.99 * len(det)
    assert peak / len(det) < BYTES_PER_DETECTION
