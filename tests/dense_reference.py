"""Dense reference for `qkdsync.simulate.sample_detections`.

Emits every qubit slot and thins each with its own Bernoulli draw, where
the sampler draws only the survivors through geometric gaps.  Noise is
dense too: each slot holds a click on each detector with probability
rate x slot.  Emission, Doppler, delay and read-out use the same
counter-keyed clock jitter as the sampler, so a slot's tick is exactly
the sampler's; survival, measurement and noise use an unrelated
generator, so only their statistics agree.
"""

import numpy as np

from qkdsync.quantum_link import (A, D, H, V, ORIGIN_BACKGROUND, ORIGIN_DARK,
                                  ORIGIN_SIGNAL, measure_polarization, time_tag)
from qkdsync.timebase import local_time, quantize, reading_time


def dense_detections(tx_clock, rx_clock, pattern, cfg):
    """(detections, tick of every slot before chain jitter, sent state of every slot)."""
    qubit_rate_hz, tdc_resolution_s = cfg["qubit_rate_hz"], cfg["tdc_resolution_ps"] * 1e-12
    duration_s = cfg["duration_s"]
    slots = np.arange(int(np.floor(duration_s * qubit_rate_hz)), dtype=np.int64)
    sent = pattern.states(slots)
    emit = local_time(tx_clock, slots / qubit_rate_hz, jitter_index=slots,
                      jitter_stream="qubit-emit")
    read = reading_time(rx_clock, (emit + cfg["propagation_delay_s"]) * (1.0 + cfg["doppler_beta"]),
                        jitter_index=slots, jitter_stream="det-read")
    gen = np.random.default_rng([cfg["seed"], 1])
    signal = slots[gen.random(slots.size) < cfg["transmittance"] * cfg["detector_efficiency"]]
    times, dets = [read[signal]], [measure_polarization(sent[signal], gen)]
    origin, slot = [np.full(signal.size, ORIGIN_SIGNAL)], [signal]
    for rate, code in ((cfg["background_rate_hz"], ORIGIN_BACKGROUND),
                       (cfg["dark_rate_hz"], ORIGIN_DARK)):
        for det in (H, V, D, A):
            hit = np.flatnonzero(gen.random(slots.size) < rate / qubit_rate_hz)
            times.append((hit + gen.random(hit.size)) / qubit_rate_hz)
            dets.append(np.full(hit.size, det))
            origin.append(np.full(hit.size, code))
            slot.append(np.full(hit.size, -1))
    detections = time_tag(np.concatenate(times), np.concatenate(dets),
                          chain_jitter_sigma_s=cfg["chain_jitter_ps"] * 1e-12,
                          tdc_resolution_s=tdc_resolution_s, generator=gen,
                          origin=np.concatenate(origin), slot=np.concatenate(slot))
    return detections, quantize(read, tdc_resolution_s), sent
