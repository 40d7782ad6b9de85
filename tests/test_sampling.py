"""The sparse detection sampler against the dense reference in `dense_reference`.

Timing is counter-keyed per slot, so every sampled signal detection must
carry exactly the tick the dense pass gives its slot.  Survival,
measurement and noise come from different random streams in the two
samplers, so those are compared statistically, each within 4 sigma.
"""

import numpy as np
import pytest

from dense_reference import dense_detections
from qkdsync import config
from qkdsync.quantum_link import (A, D, H, V, ORIGIN_BACKGROUND, ORIGIN_DARK,
                                  ORIGIN_SIGNAL)
from qkdsync.simulate import pattern_from_config, sample_detections
from qkdsync.timebase import ClockModel

DURATION_S = 0.02
CFG = config.defaults("arrival", seed=7, duration_s=DURATION_S, transmittance=0.1,
                      detector_efficiency=0.8, background_rate_hz=5e5, dark_rate_hz=2.5e5,
                      doppler_beta=2.6e-5, chain_jitter_ps=0.0, propagation_delay_s=3.5e-7)


@pytest.fixture(scope="module")
def runs():
    tx = ClockModel(1.25e9, fractional_offset=3e-7, drift_rate_per_s=1e-6,
                    white_jitter_sigma_s=30e-12, seed=11)
    rx = ClockModel(1.25e9, fractional_offset=-4e-7, white_jitter_sigma_s=30e-12,
                    seed=12, freq_walk_per_sqrt_s=3.5e-6, walk_span_s=0.1)
    pattern = pattern_from_config(CFG)
    sampled = sample_detections(tx, rx, CFG)
    dense, tick_of_slot, sent_of_slot = dense_detections(tx, rx, pattern, CFG)
    return pattern, sampled, dense, tick_of_slot, sent_of_slot


def within_4_sigma(a, b, var):
    return np.all(np.abs(np.asarray(a) - np.asarray(b)) <= 4.0 * np.sqrt(var))


def test_signal_ticks_and_states_equal_dense_pass(runs):
    pattern, sampled, _, tick_of_slot, sent_of_slot = runs
    signal = sampled.origin == ORIGIN_SIGNAL
    slot = sampled.slot[signal]
    assert slot.size > 1000
    assert np.array_equal(sampled.ticks[signal], tick_of_slot[slot])
    assert np.array_equal(pattern.states(slot), sent_of_slot[slot])


def test_survival_fraction_matches_dense_pass(runs):
    _, sampled, dense, tick_of_slot, _ = runs
    n = tick_of_slot.size
    p = CFG["transmittance"] * CFG["detector_efficiency"]
    counts = [np.count_nonzero(d.origin == ORIGIN_SIGNAL) for d in (sampled, dense)]
    assert within_4_sigma(counts[0] / n, counts[1] / n, 2 * p * (1 - p) / n)


def test_sent_detector_frequencies_match_dense_pass(runs):
    pattern, sampled, dense, _, _ = runs
    tables = []
    for d in (sampled, dense):
        signal = d.origin == ORIGIN_SIGNAL
        joint = np.zeros((3, 4))
        np.add.at(joint, (pattern.states(d.slot[signal]), d.detector[signal]), 1)
        tables.append(joint)
    n_s, n_d = tables[0].sum(), tables[1].sum()
    q = (tables[0] + tables[1]) / (n_s + n_d)
    assert within_4_sigma(tables[0] / n_s, tables[1] / n_d, q * (1 - q) * (1 / n_s + 1 / n_d))
    # clicks the sent state cannot cause stay empty in both
    for joint in tables:
        assert joint[H, V] == joint[V, H] == joint[D, A] == 0


def test_noise_counts_per_detector_and_origin_match_dense_pass(runs):
    _, sampled, dense, _, _ = runs
    for origin, rate in ((ORIGIN_BACKGROUND, CFG["background_rate_hz"]),
                         (ORIGIN_DARK, CFG["dark_rate_hz"])):
        for det in (H, V, D, A):
            counts = [np.count_nonzero((d.origin == origin) & (d.detector == det))
                      for d in (sampled, dense)]
            assert within_4_sigma(counts[0], counts[1], 2 * rate * DURATION_S)
    assert np.all(sampled.slot[sampled.origin != ORIGIN_SIGNAL] == -1)
