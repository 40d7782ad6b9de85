"""PRBS generation, OOK modulation, clock recovery, and sync pulses."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsync import classical_link, config, simulate
from qkdsync.classical_link import (
    GAP_UNLOCK_SYMBOLS,
    LOCK_RMS_FRACTION,
    LOCK_WINDOW_EDGES,
    NoLockError,
    OokStream,
    SyncPulseTrain,
    _pi_gains,
    _pi_loop,
    block_channel,
    cdr_track,
    derive_sync_pulses,
    modulate_ook,
    prbs31_bits,
    recovered_fractional_offset,
    synthesize_sync_train,
)
from qkdsync.timebase import ClockModel, EdgeTrain

SYMBOL_RATE = 1.25e7  # reduced rate keeps edge-level loop tests fast
DIVISOR = 1250        # keeps the sync spacing at the usual 100 us


def pulse_train(times, nominal):
    """A locked train whose pulses sit DIVISOR boundaries apart."""
    n = len(times)
    return SyncPulseTrain(EdgeTrain(times), nominal,
                          pulse_boundary_index=np.arange(1, n + 1) * DIVISOR,
                          locked=np.ones(n, dtype=bool))


def make_clock(offset=0.0, jitter=0.0, seed=1, rate=SYMBOL_RATE, **kw):
    return ClockModel(
        nominal_frequency_hz=rate,
        fractional_offset=offset,
        drift_rate_per_s=0.0,
        white_jitter_sigma_s=jitter,
        seed=seed,
        **kw,
    )


# ------------------------------------------------------------------- PRBS-31


def _reference_prbs31(register: int, count: int) -> list[int]:
    # straightforward bit-at-a-time LFSR, taps at positions 31 and 28
    out = []
    r = register
    for _ in range(count):
        bit = ((r >> 30) ^ (r >> 27)) & 1
        out.append(bit)
        r = ((r << 1) | bit) & 0x7FFFFFFF
    return out


def test_prbs31_matches_reference_lfsr():
    for seed in (1, 0x12345678, 0x7FFFFFFF):
        assert prbs31_bits(seed, 500).tolist() == _reference_prbs31(seed, 500)


def test_prbs31_vectorized_recurrence():
    # the first 31 bits and o[n] = o[n-31] ^ o[n-28] fix the sequence; the
    # fill blocks double in length, so shorter counts end inside and on them
    bits = prbs31_bits(1, 4_000_000)
    assert bits[:31].tolist() == _reference_prbs31(1, 31)
    assert np.array_equal(bits[31:], bits[:-31] ^ bits[3:-28])
    for count in (0, 5, 31, 40, 62, 1000, 200_000):
        assert np.array_equal(prbs31_bits(1, count), bits[:count])


def test_prbs31_is_balanced():
    bits = prbs31_bits(0x2A2A2A2A & 0x7FFFFFFF, 1 << 17)
    ones = bits.mean()
    assert abs(ones - 0.5) < 0.01


def test_prbs31_state_validation():
    with pytest.raises(ValueError):
        prbs31_bits(0, 10)  # all-zero state is a fixed point
    with pytest.raises(ValueError):
        prbs31_bits(1 << 31, 10)
    assert prbs31_bits(1, 1).tolist() == [0]  # the smallest valid register


@given(st.integers(min_value=1, max_value=0x7FFFFFFF))
@settings(max_examples=30, deadline=None)
def test_prbs31_never_reaches_zero_state(register):
    # the register after each step is the latest 31 bits of the seed
    # register (most significant first) followed by the output
    seq = [(register >> (30 - j)) & 1 for j in range(31)] + prbs31_bits(register, 40).tolist()
    assert all(any(seq[i:i + 31]) for i in range(len(seq) - 30))


# ------------------------------------------------------------- OOK modulation


def test_modulate_ook_edges_at_bit_flips():
    clk = make_clock()
    stream = modulate_ook([1, 0, 0, 1, 1, 0], clk)
    # levels 0 -> 1,0,0,1,1,0: transitions at symbol boundaries 0, 1, 3, 5
    expected = np.array([0, 1, 3, 5]) / SYMBOL_RATE
    assert np.allclose(stream.edges.times_s, expected, rtol=0, atol=1e-15)
    assert stream.symbol_rate_hz == SYMBOL_RATE


def test_modulate_ook_rejects_empty():
    with pytest.raises(ValueError):
        modulate_ook([], make_clock())


def test_block_channel_removes_interval():
    clk = make_clock()
    stream = modulate_ook(prbs31_bits(1, 5000), clk)
    t0, t1 = 1e-4, 2e-4
    blocked = block_channel(stream, t0, t1)
    t = blocked.edges.times_s
    assert not np.any((t >= t0) & (t < t1))
    assert len(blocked) < len(stream)
    with pytest.raises(ValueError):
        block_channel(stream, t1, t0)


# ------------------------------------------------------------- clock recovery


def _tracked(tx_offset=0.0, jitter=0.0, symbols=60_000, seed=3, block=None):
    tx = make_clock(offset=tx_offset, jitter=jitter, seed=seed)
    rx = make_clock(offset=0.0, jitter=jitter, seed=seed + 100)
    stream = modulate_ook(prbs31_bits(1, symbols), tx)
    if block is not None:
        stream = block_channel(stream, *block)
    return cdr_track(stream, SYMBOL_RATE / 2000, rx)


def test_cdr_locks_quickly_on_clean_stream():
    rc = _tracked()
    assert rc.has_lock
    assert rc.boundary_index[rc.lock_index] < 10_000  # symbols to lock
    assert np.all(rc.locked[rc.lock_index:])


def test_cdr_recovers_fractional_offset():
    for offset in (-1e-5, 0.0, 1e-5):
        rc = _tracked(tx_offset=offset, jitter=30e-12)
        measured = recovered_fractional_offset(rc)
        assert abs(measured - offset) < 1e-7


def test_cdr_tracking_jitter_stays_near_input_jitter():
    sigma = 10e-12
    rc = _tracked(jitter=sigma)
    idx = np.flatnonzero(rc.locked)
    idx = idx[idx.size // 2:]
    err = rc.edge_time_s[idx] - rc.boundary_phase_s[idx]
    # the loop should track, not amplify, the white edge jitter
    assert err.std() < 3 * np.sqrt(2) * sigma


def test_cdr_drops_lock_on_gap_and_relocks():
    # blank out 2000 symbol periods mid-stream
    gap = (2e-3, 2e-3 + 2000 / SYMBOL_RATE)
    rc = _tracked(symbols=120_000, block=gap)
    t = rc.edge_time_s
    before = rc.locked[t < gap[0]]
    after_start = np.flatnonzero(t >= gap[1])[0]
    assert before[-1]  # locked going into the gap
    assert not rc.locked[after_start]  # lock dropped across the gap
    assert np.any(rc.locked[after_start:])  # and reacquired
    # boundary counting continues across the gap (no reset to zero)
    assert np.all(np.diff(rc.boundary_index) >= 1)


def _loop_reference(rc):
    """The per-edge loop over rc's whole stream, with lock flags from a
    rolling window of squared phase errors: what the scan must reproduce."""
    t, T = rc.edge_time_s, rc.symbol_period_nominal_s
    phase, period, bindex, err = _pi_loop(t[1:], t[0], T, 0, T,
                                          *_pi_gains(rc.loop_bandwidth_hz, T))
    locked = [False]
    window, w_sum = [], 0.0
    thr_sq = (LOCK_RMS_FRACTION * T) ** 2 * LOCK_WINDOW_EDGES
    for m, e in zip(np.diff(bindex, prepend=0).tolist(), err.tolist()):
        if m > GAP_UNLOCK_SYMBOLS:
            window, w_sum = [], 0.0
            locked.append(False)
            continue
        if len(window) == LOCK_WINDOW_EDGES:
            w_sum -= window.pop(0)
        window.append(e * e)
        w_sum += e * e
        locked.append(len(window) == LOCK_WINDOW_EDGES and w_sum < thr_sq)
    return (np.r_[t[0], phase], np.r_[T, period], np.r_[0, bindex], np.array(locked))


def _count_loop_calls(monkeypatch):
    calls = []

    def counted(t, *state):
        calls.append(len(t))
        return _pi_loop(t, *state)

    monkeypatch.setattr(classical_link, "_pi_loop", counted)
    return calls


@pytest.mark.parametrize("tx_offset", [-1e-5, 0.0, 1e-5])
def test_cdr_scan_matches_the_per_edge_loop(tx_offset, monkeypatch):
    calls = _count_loop_calls(monkeypatch)
    gap = (2e-3, 2e-3 + 2000 / SYMBOL_RATE)  # inside the second scan block
    rc = _tracked(tx_offset=tx_offset, jitter=30e-12, symbols=120_000, block=gap)
    assert not calls  # every block went through the scan
    phase, period, bindex, locked = _loop_reference(rc)
    assert np.array_equal(rc.boundary_index, bindex)
    assert np.array_equal(rc.locked, locked)
    assert np.max(np.abs(rc.boundary_phase_s - phase)) < 0.01e-12
    assert np.max(np.abs(rc.period_s - period)) < 1e-15


def test_cdr_scan_falls_back_to_the_per_edge_loop(monkeypatch):
    calls = _count_loop_calls(monkeypatch)
    # tx 6e-4 fast and rx 6e-4 slow: the loop would need a period 1.2e-3
    # long, holds lock on its 1e-3 clamp with a standing phase error, and
    # the clamp fires in every block, so the loop runs the whole stream
    tx = make_clock(offset=6e-4, jitter=30e-12, seed=3)
    rx = make_clock(offset=-6e-4, jitter=30e-12, seed=103)
    rc = cdr_track(modulate_ook(prbs31_bits(1, 60_000), tx), SYMBOL_RATE / 2000, rx)
    assert sum(calls) == len(rc.edge_time_s) - 1
    phase, period, bindex, locked = _loop_reference(rc)
    assert np.array_equal(rc.boundary_phase_s, phase)
    assert np.array_equal(rc.period_s, period)
    assert np.array_equal(rc.boundary_index, bindex)
    assert np.array_equal(rc.locked, locked) and rc.has_lock

    # one edge displaced by 0.45 period mid-stream: only its block runs
    # through the loop, from the state the scan left
    calls.clear()
    stream = modulate_ook(prbs31_bits(1, 60_000), make_clock(jitter=30e-12, seed=3))
    t = stream.edges.times_s.copy()
    t[20_000] += 0.45 / SYMBOL_RATE
    rc = cdr_track(OokStream(EdgeTrain(t), SYMBOL_RATE), SYMBOL_RATE / 2000,
                   make_clock(jitter=30e-12, seed=103))
    assert calls == [classical_link.SCAN_BLOCK_EDGES]
    phase, period, bindex, locked = _loop_reference(rc)
    assert np.array_equal(rc.boundary_index, bindex)
    assert np.array_equal(rc.locked, locked)
    assert np.max(np.abs(rc.boundary_phase_s - phase)) < 0.01e-12
    assert np.max(np.abs(rc.period_s - period)) < 1e-15


def test_cdr_requires_two_edges():
    clk = make_clock()
    stream = OokStream(EdgeTrain(np.array([1e-6])), SYMBOL_RATE)
    with pytest.raises(ValueError):
        cdr_track(stream, SYMBOL_RATE / 2000, clk)


# ---------------------------------------------------------------- sync pulses


def test_derive_sync_pulses_spacing():
    rc = _tracked(tx_offset=1e-6, symbols=200_000)
    sp = derive_sync_pulses(rc, DIVISOR)
    spacing = np.diff(sp.times_s)
    nominal = DIVISOR / SYMBOL_RATE
    assert abs(spacing.mean() - nominal * (1 + 1e-6)) < 1e-7 * nominal
    assert sp.nominal_spacing_s == pytest.approx(nominal)
    assert np.all(np.diff(sp.pulse_boundary_index) == DIVISOR)


def test_decimate_derived_train_keeps_boundary_multiples():
    sp = derive_sync_pulses(_tracked(symbols=400_000), DIVISOR)
    b = sp.pulse_boundary_index
    assert b[0] % (4 * DIVISOR) != 0  # every 4th stored pulse would be the wrong set
    dec = sp.decimate(4)
    keep = b % (4 * DIVISOR) == 0
    assert np.array_equal(dec.pulse_boundary_index, b[keep])
    assert np.array_equal(dec.times_s, sp.times_s[keep])
    assert np.array_equal(dec.locked, sp.locked[keep])
    assert dec.decimation == 4 and dec.nominal_spacing_s == sp.nominal_spacing_s


def test_derive_sync_pulses_needs_lock():
    tx = make_clock()
    stream = modulate_ook(prbs31_bits(1, 40), tx)
    rc = cdr_track(stream, SYMBOL_RATE / 2000, make_clock(seed=9))
    with pytest.raises(NoLockError):
        derive_sync_pulses(rc, DIVISOR)


def test_sync_train_spacing_invariant_enforced():
    nominal = 1e-4
    good = np.arange(50) * nominal * (1 + 5e-5)   # 50 ppm off: fine
    pulse_train(good[1:], nominal)
    bad = np.arange(50) * nominal * (1 + 5e-4)    # 500 ppm off: rejected
    with pytest.raises(ValueError):
        pulse_train(bad[1:], nominal)
    # spacing counts boundary steps, so a missing pulse keeps it nominal
    full = pulse_train(np.arange(1, 61) * nominal, nominal)
    keep = np.arange(60) != 3
    gapped = SyncPulseTrain(EdgeTrain(full.times_s[keep]), nominal,
                            pulse_boundary_index=full.pulse_boundary_index[keep],
                            locked=full.locked[keep])
    assert gapped.boundary_step == DIVISOR
    with pytest.raises(ValueError, match="strictly increasing"):
        SyncPulseTrain(EdgeTrain(full.times_s), nominal,
                       pulse_boundary_index=full.pulse_boundary_index[::-1],
                       locked=full.locked)


def test_sync_train_rejects_nonpositive_spacing():
    # rescaling reads delta_s from the train, so the train must refuse a zero one
    for nominal in (0.0, -1e-4):
        with pytest.raises(ValueError):
            pulse_train(np.arange(1, 10) * 1e-4, nominal)


def test_sync_train_decimate_validates_factor():
    train = pulse_train(np.arange(1, 100) * 1e-4, 1e-4)
    with pytest.raises(ValueError):
        train.decimate(0)


# ------------------------------------------------- synthesized sync (scenario)


FULL_RATE = 1.25e9
FULL_DIVISOR = 125_000


def _ideal_full_clock(seed, offset=0.0):
    return ClockModel(
        nominal_frequency_hz=FULL_RATE,
        fractional_offset=offset,
        drift_rate_per_s=0.0,
        white_jitter_sigma_s=0.0,
        seed=seed,
    )


def test_synthesize_ideal_chain_reproduces_boundaries():
    tx = _ideal_full_clock(1)
    rx = _ideal_full_clock(2)
    sp = synthesize_sync_train(tx, rx, 0.01, FULL_RATE, FULL_DIVISOR,
                               seed=5, cdr_residual_sigma_s=0.0)
    expected = np.arange(len(sp)) * FULL_DIVISOR / FULL_RATE
    assert np.allclose(sp.times_s, expected, rtol=0, atol=1e-12)
    assert np.all(sp.locked)


def test_synthesize_block_free_runs_at_nominal_spacing():
    tx = _ideal_full_clock(1, offset=5e-7)
    rx = _ideal_full_clock(2, offset=-5e-7)
    block = (0.02, 0.04)
    sp = synthesize_sync_train(tx, rx, 0.06, FULL_RATE, FULL_DIVISOR,
                               seed=5, cdr_residual_sigma_s=0.0, blocks=(block,))
    t = sp.times_s
    inside = np.flatnonzero((t >= block[0]) & (t < block[1]))
    assert not np.any(sp.locked[inside])
    # free-running pulses tick at exactly the receiver's nominal spacing
    spacing = np.diff(t[inside])
    assert np.allclose(spacing, sp.nominal_spacing_s, rtol=0, atol=1e-12)
    # pulses degrade: the free-run train drifts away from where the true
    # boundaries would be read (tx runs at +5e-7, rx reads at 1/(1-5e-7))
    b = np.asarray(sp.pulse_boundary_index[inside], dtype=np.float64)
    truth_reading = b / FULL_RATE * (1 + 5e-7) / (1 - 5e-7)
    drift = np.abs(t[inside] - truth_reading)
    assert drift[0] < 1e-9
    assert drift[-1] > 1.5e-8  # ~1e-6 relative over a 20 ms block


def test_synthesize_doppler_scales_times():
    tx = _ideal_full_clock(1)
    rx = _ideal_full_clock(2)
    base = synthesize_sync_train(tx, rx, 0.01, FULL_RATE, FULL_DIVISOR,
                                 seed=5, cdr_residual_sigma_s=0.0)
    shifted = synthesize_sync_train(tx, rx, 0.01, FULL_RATE, FULL_DIVISOR,
                                    seed=5, cdr_residual_sigma_s=0.0,
                                    doppler_beta=2e-5)
    assert np.allclose(shifted.times_s, base.times_s * (1 + 2e-5), rtol=0, atol=1e-12)


def test_synthesize_is_deterministic():
    tx = make_clock(offset=5e-7, jitter=30e-12, seed=1, rate=FULL_RATE)
    rx = make_clock(offset=-5e-7, jitter=30e-12, seed=2, rate=FULL_RATE)
    a = synthesize_sync_train(tx, rx, 0.02, FULL_RATE, FULL_DIVISOR, seed=5)
    b = synthesize_sync_train(tx, rx, 0.02, FULL_RATE, FULL_DIVISOR, seed=5)
    c = synthesize_sync_train(tx, rx, 0.02, FULL_RATE, FULL_DIVISOR, seed=6)
    assert np.array_equal(a.times_s, b.times_s)
    assert not np.array_equal(a.times_s, c.times_s)


def test_cdr_loop_matches_the_synthesized_sync_train():
    # synthesize_sync_train stands in for cdr_track + derive_sync_pulses:
    # 4 M symbols at the full rate on the arrival scenario's clocks
    cfg = config.resolve("arrival", {}, 1)
    tx, rx = simulate.build_clocks(cfg)
    rate, delay, divisor = cfg["symbol_rate_hz"], cfg["propagation_delay_s"], 12_500
    bits = prbs31_bits(0x1234567, 4_000_000)
    rc = cdr_track(modulate_ook(bits, tx), cfg["cdr_loop_bandwidth_hz"], rx,
                   propagation_delay_s=delay)
    # the loop counts boundaries from modulate_ook's first edge, which sits
    # on the first 1 bit (here symbol 3); align that count with the true one
    first_edge = int(np.flatnonzero(bits)[0])
    loop = derive_sync_pulses(replace(rc, boundary_index=rc.boundary_index + first_edge),
                              divisor)
    synth = synthesize_sync_train(tx, rx, bits.size / rate, rate, divisor, seed=cfg["seed"],
                                  cdr_residual_sigma_s=0.0, propagation_delay_s=delay)
    common, i_loop, i_synth = np.intersect1d(loop.pulse_boundary_index,
                                             synth.pulse_boundary_index, return_indices=True)
    assert common.size == len(loop) >= 300
    diff = loop.times_s[i_loop] - synth.times_s[i_synth]
    # same boundary on both sides: a count off by one symbol would move
    # a pulse by a whole 800 ps period
    assert np.max(np.abs(diff)) < 0.5 / rate
    # the difference carries the synthesized pulse's own emit and read
    # draws (30 ps each, independent of the edges' draws) plus ~10 ps of
    # loop noise: ~42 ps; the mean is 0 within 4 standard errors
    assert abs(diff.mean()) < 10e-12
    assert diff.std() < 55e-12
