"""The time-ordered detection stream against one pass over the whole run.

`whole_run` draws every surviving slot, measures all of them and tags
them with the noise in one sort, each random stream read from its start
in one call.  The stream draws the same streams in batches, so its
sets, joined, and `sample_detections` must give its arrays bit for bit.
"""

import math

import numpy as np
import pytest

from qkdsync import config, rng
from qkdsync.quantum_link import (A, D, H, V, ORIGIN_BACKGROUND, ORIGIN_DARK, ORIGIN_SIGNAL,
                                  measure_polarization, time_tag)
from qkdsync.simulate import (_tagged_noise, build_clocks, detection_stream,
                              pattern_from_config, sample_detections, sync_windows)
from qkdsync.timebase import local_time, reading_time

FIELDS = ("ticks", "detector", "origin", "slot")


def noise_draws(cfg):
    """(times, detectors, origins) of the noise, one array per noise kind and detector."""
    duration_s, noise_gen = cfg["duration_s"], rng.generator(cfg["seed"], "noise")
    times, dets, origins = [], [], []
    for noise_rate, origin in ((cfg["background_rate_hz"], ORIGIN_BACKGROUND),
                               (cfg["dark_rate_hz"], ORIGIN_DARK)):
        for det in (H, V, D, A) if noise_rate > 0 else ():
            k = int(noise_gen.poisson(noise_rate * duration_s))
            times.append(noise_gen.random(k) * duration_s)
            dets.append(np.full(k, det))
            origins.append(np.full(k, origin))
    return times, dets, origins


def whole_run(tx, rx, cfg):
    seed, duration_s, rate_hz = cfg["seed"], cfg["duration_s"], cfg["qubit_rate_hz"]
    times, dets, origins = noise_draws(cfg)
    n_slots = int(math.floor(duration_s * rate_hz))
    p = cfg["transmittance"] * cfg["detector_efficiency"]
    expect = n_slots * p
    slots = np.cumsum(rng.generator(seed, "signal-thinning").geometric(
        p, size=int(expect + 10 * math.sqrt(expect) + 100))) - 1
    assert slots[-1] >= n_slots  # the draws reach past the run
    slots = slots[:np.searchsorted(slots, n_slots)]
    emit = local_time(tx, slots / rate_hz, jitter_index=slots, jitter_stream="qubit-emit")
    read = reading_time(rx, (emit + cfg["propagation_delay_s"]) * (1.0 + cfg["doppler_beta"]),
                        jitter_index=slots, jitter_stream="det-read")
    sent = pattern_from_config(cfg).states(slots)
    n_noise = sum(t.size for t in times)
    return time_tag(
        np.concatenate([read] + times),
        np.concatenate([measure_polarization(sent, rng.generator(seed, "measurement"))] + dets),
        chain_jitter_sigma_s=cfg["chain_jitter_ps"] * 1e-12,
        tdc_resolution_s=cfg["tdc_resolution_ps"] * 1e-12,
        generator=rng.generator(seed, "chain-jitter"),
        origin=np.concatenate([np.full(slots.size, ORIGIN_SIGNAL)] + origins),
        slot=np.concatenate([slots, np.full(n_noise, -1)]))


CASES = {
    "defaults": {},
    # ~2.5 signals and ~1 noise event per 1 us tick: signals share ticks
    # with each other across batches and with noise
    "shared-ticks": {"transmittance": 0.05, "background_rate_hz": 2e5,
                     "tdc_resolution_ps": 1e6},
    "jitter-before-epoch": {"transmittance": 0.05, "chain_jitter_ps": 1e7},
    "all-noise": {"transmittance": 1e-12, "background_rate_hz": 2e5},
    "no-noise-no-jitter": {"background_rate_hz": 0.0, "dark_rate_hz": 0.0,
                           "chain_jitter_ps": 0.0},
}


@pytest.mark.parametrize("overrides", CASES.values(), ids=CASES.keys())
def test_stream_and_sampler_equal_one_pass_over_the_whole_run(overrides, monkeypatch):
    cfg = config.defaults("arrival", seed=21, duration_s=0.02, **overrides)
    tx, rx = build_clocks(cfg)
    reference = whole_run(tx, rx, cfg)
    assert len(reference) + reference.dropped_before_epoch > 3 * 97
    monkeypatch.setattr(rng, "BLOCK_EVENTS", 97)
    # one set, and sets cut inside the run, one of them empty
    for edges in ((), (0.004, 0.01, 0.01, 0.0155)):
        sets = list(detection_stream(tx, rx, cfg, edges))
        assert len(sets) == len(edges) + 1
        assert sum(s.dropped_before_epoch for s in sets) == reference.dropped_before_epoch
        for name in FIELDS:
            joined = np.concatenate([getattr(s, name) for s in sets])
            assert joined.tobytes() == getattr(reference, name).tobytes(), name
    det = sample_detections(tx, rx, cfg)
    assert det.dropped_before_epoch == reference.dropped_before_epoch
    for name in FIELDS:
        assert getattr(det, name).tobytes() == getattr(reference, name).tobytes(), name
    if "chain_jitter_ps" in overrides and overrides["chain_jitter_ps"] > 0:
        assert reference.dropped_before_epoch > 0
    if "tdc_resolution_ps" in overrides:
        signal = reference.origin == ORIGIN_SIGNAL
        assert np.intersect1d(reference.ticks[signal], reference.ticks[~signal]).size > 100


def test_noise_tagged_per_detector_equals_one_tagging_of_every_draw():
    # ~0.1 noise events per 1 us tick, so detectors share ticks, and 0.1 s
    # of chain jitter (allowed at this transmittance) moves events before t = 0
    cfg = config.resolve("arrival", {"duration_s": 2.0, "transmittance": 1e-6,
                                     "chain_jitter_ps": 1e11, "background_rate_hz": 2e4,
                                     "tdc_resolution_ps": 1e6}, 5)
    times, dets, origins = noise_draws(cfg)
    n = sum(t.size for t in times)
    reference = time_tag(np.concatenate(times), np.concatenate(dets),
                         chain_jitter_sigma_s=cfg["chain_jitter_ps"] * 1e-12,
                         tdc_resolution_s=cfg["tdc_resolution_ps"] * 1e-12,
                         generator=rng.generator(cfg["seed"], "chain-jitter"),
                         origin=np.concatenate(origins), slot=np.full(n, -1))
    noise = _tagged_noise(cfg, rng.generator(cfg["seed"], "chain-jitter"))
    assert len(noise) + noise.dropped_before_epoch == n
    assert noise.dropped_before_epoch == reference.dropped_before_epoch > 1000
    assert noise.tdc_resolution_s == reference.tdc_resolution_s
    for name in FIELDS:
        assert getattr(noise, name).tobytes() == getattr(reference, name).tobytes(), name
    tied = (np.diff(reference.ticks) == 0) & (np.diff(reference.detector) != 0)
    assert np.count_nonzero(tied) > 1000


def test_detection_stream_cuts_where_searchsorted_puts_the_edges(monkeypatch):
    cfg = config.defaults("arrival", seed=4, duration_s=0.01, transmittance=0.05,
                          background_rate_hz=2e5, tdc_resolution_ps=1e6)
    tx, rx = build_clocks(cfg)
    monkeypatch.setattr(rng, "BLOCK_EVENTS", 997)
    det = sample_detections(tx, rx, cfg)
    times = det.times_s
    on = times[len(det) // 2]
    assert np.count_nonzero(times == on) > 1  # an edge on several detections' time
    # edges before 0 and at 0 (empty windows), one between two detections,
    # a repeated edge (an empty window) and the next float after it, which
    # leaves just the detections on the edge between them, and one past the end
    edges = np.array([-1.0, 0.0, 1e-9, times[3000] + 1e-12, on, on, np.nextafter(on, 1.0), 1.0])
    cuts = np.concatenate(([0], np.searchsorted(times, edges), [len(det)]))
    windows = list(detection_stream(tx, rx, cfg, edges))
    assert len(windows) == edges.size + 1
    assert [len(w) for w in windows].count(0) >= 3 and len(windows[6]) > 1
    for w, lo, hi in zip(windows, cuts[:-1], cuts[1:]):
        assert w.tdc_resolution_s == det.tdc_resolution_s
        for name in FIELDS:
            assert getattr(w, name).tobytes() == getattr(det, name)[lo:hi].tobytes(), name


def test_an_empty_detection_stream_yields_empty_sets():
    cfg = config.defaults("arrival", seed=4, duration_s=0.001, transmittance=1e-12,
                          background_rate_hz=0.0, dark_rate_hz=0.0)
    tx, rx = build_clocks(cfg)
    windows = list(detection_stream(tx, rx, cfg, [0.0, 1.0]))
    assert [len(w) for w in windows] == [0, 0, 0]
    assert all(w.dropped_before_epoch == 0 for w in windows)
    assert windows[0].tdc_resolution_s == cfg["tdc_resolution_ps"] * 1e-12


@pytest.mark.parametrize("edges", [[0.15, 0.05], [0.05, math.nan], [math.nan]])
def test_decreasing_or_nan_edges_raise(edges):
    # cut at [0.15, 0.05], this run's 4,143 detections once came out as
    # 3,093 + 0 + 3,183, counting 2,133 twice, and its sync windows started
    # at pulses 0, 1499 and 1499
    cfg = config.defaults("arrival", seed=4, duration_s=0.2)
    tx, rx = build_clocks(cfg)
    with pytest.raises(ValueError, match="non-decreasing"):
        next(detection_stream(tx, rx, cfg, edges))
    with pytest.raises(ValueError, match="non-decreasing"):
        next(sync_windows(tx, rx, cfg, edges))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 9, 1234567])
def test_philox_advance_skips_the_draws_it_would_make(n):
    # the stream reaches the n-th measurement draw by advancing the counter,
    # which moves by one per four 64-bit outputs, and drawing the remainder
    full = rng.generator(9, "measurement").random(n + 20)
    skip = rng.generator(9, "measurement")
    skip.bit_generator.advance(n // 4)
    skip.random(n % 4)
    assert skip.random(20).tobytes() == full[n:].tobytes()


def test_a_batch_jittered_below_the_previous_horizon_raises(monkeypatch):
    # batches of 16 signals span 320 ns; 100 us of jitter reorders them.
    # The config rejects such jitter, so the run gets it unchecked
    cfg = {**config.defaults("arrival", seed=2, duration_s=0.001, transmittance=1.0),
           "chain_jitter_ps": 1e8}
    tx, rx = build_clocks(cfg)
    monkeypatch.setattr(rng, "BLOCK_EVENTS", 16)
    with pytest.raises(ValueError, match="time order"):
        sample_detections(tx, rx, cfg)
