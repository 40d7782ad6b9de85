"""PRBS generation, OOK modulation, clock recovery, and sync pulses."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsync import classical_link, config, rng, simulate
from qkdsync.classical_link import (
    GAP_UNLOCK_SYMBOLS,
    LOCK_RMS_FRACTION,
    LOCK_WINDOW_EDGES,
    NoLockError,
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
from qkdsync.timebase import ClockModel, EdgeTrain, local_time, reading_time

SYMBOL_RATE = 1.25e7  # reduced rate keeps edge-level loop tests fast
DIVISOR = 1250        # keeps the sync spacing at the usual 100 us


def pulse_train(times, nominal):
    """A locked train whose pulses sit DIVISOR boundaries apart."""
    n = len(times)
    return SyncPulseTrain(EdgeTrain(times), nominal,
                          first_pulse=1, boundary_step=DIVISOR,
                          locked=np.ones(n, dtype=bool))


def boundaries(sp):
    """Each pulse's symbol boundary count, from the train's grid."""
    return (sp.first_pulse + np.arange(len(sp), dtype=np.int64)) * sp.boundary_step


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
    assert np.allclose(stream.times_s, expected, rtol=0, atol=1e-15)


def test_modulate_ook_rejects_empty():
    with pytest.raises(ValueError):
        modulate_ook([], make_clock())


def test_block_channel_removes_interval():
    clk = make_clock()
    stream = modulate_ook(prbs31_bits(1, 5000), clk)
    t0, t1 = 1e-4, 2e-4
    blocked = block_channel(stream, t0, t1)
    t = blocked.times_s
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
    assert rc.lock_index >= 0
    assert rc.boundary_index[rc.lock_index] < 10_000  # symbols to lock
    assert np.all(rc.locked[rc.lock_index:])


def test_cdr_recovers_fractional_offset(monkeypatch):
    for offset in (-1e-5, 0.0, 1e-5):
        rc = _tracked(tx_offset=offset, jitter=30e-12)
        measured = recovered_fractional_offset(rc)
        assert abs(measured - offset) < 1e-7
        # the least squares over blocks is the slope of a linear fit, also
        # when the skipped first quarter of the locked edges spans blocks
        idx = np.flatnonzero(rc.locked)
        idx = idx[idx.size // 4:]
        x = rc.boundary_index[idx] * rc.symbol_period_nominal_s
        y = rc.boundary_phase_s[idx]
        fit = np.polyfit(x - x[0], y - y[0], 1)[0] - 1
        assert abs(measured - fit) < 1e-12
        with monkeypatch.context() as patched:
            patched.setattr(classical_link, "SCAN_BLOCK_EDGES", 997)
            assert abs(recovered_fractional_offset(rc) - fit) < 1e-12


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


def _loop_reference(rc, loop_bandwidth_hz=SYMBOL_RATE / 2000):
    """The per-edge loop over rc's whole stream, with lock flags from a
    rolling window of squared phase errors: what the scan must reproduce."""
    t, T = rc.edge_time_s, rc.symbol_period_nominal_s
    phase, period, bindex, err = _pi_loop(t[1:], t[0], T, 0, T,
                                          *_pi_gains(loop_bandwidth_hz, T))
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
    assert np.array_equal(rc.locked, locked) and rc.lock_index >= 0

    # one edge displaced by 0.45 period mid-stream: only its block runs
    # through the loop, from the state the scan left
    calls.clear()
    stream = modulate_ook(prbs31_bits(1, 60_000), make_clock(jitter=30e-12, seed=3))
    t = stream.times_s.copy()
    t[20_000] += 0.45 / SYMBOL_RATE
    rc = cdr_track(EdgeTrain(t), SYMBOL_RATE / 2000,
                   make_clock(jitter=30e-12, seed=103))
    assert calls == [classical_link.SCAN_BLOCK_EDGES]
    phase, period, bindex, locked = _loop_reference(rc)
    assert np.array_equal(rc.boundary_index, bindex)
    assert np.array_equal(rc.locked, locked)
    assert np.max(np.abs(rc.boundary_phase_s - phase)) < 0.01e-12
    assert np.max(np.abs(rc.period_s - period)) < 1e-15


@pytest.mark.parametrize("jitter", [30e-12, 5.5e-9], ids=["clean", "lock-flickers"])
def test_cdr_block_size_moves_no_count_or_lock_flag(jitter, monkeypatch):
    # at 5.5 ns of jitter the window's RMS error sits near the lock
    # threshold, so the flags flip hundreds of times and most blocks
    # run through the per-edge loop
    gap = (2e-3, 2e-3 + 2000 / SYMBOL_RATE)
    whole = _tracked(tx_offset=1e-5, jitter=jitter, symbols=120_000, block=gap)
    monkeypatch.setattr(classical_link, "SCAN_BLOCK_EDGES", 997)
    rc = _tracked(tx_offset=1e-5, jitter=jitter, symbols=120_000, block=gap)
    # the relock's lock window straddles a boundary of the 997-edge blocks
    # (edge 0 stands alone, block k holds edges 1 + 997k onwards)
    relock = np.flatnonzero(rc.edge_time_s >= gap[1])[0]
    assert (relock - 1) // 997 < (relock + LOCK_WINDOW_EDGES - 1) // 997
    assert not rc.locked[relock:relock + LOCK_WINDOW_EDGES].any()
    assert rc.locked[relock + LOCK_WINDOW_EDGES:].any()
    for name in ("edge_time_s", "boundary_index", "locked"):
        assert getattr(rc, name).tobytes() == getattr(whole, name).tobytes()
    assert np.array_equal(rc.locked, _loop_reference(rc)[3])
    # the scan composes its maps within a block, so the phases round
    # differently (by up to 2e-17 s here)
    assert np.max(np.abs(rc.boundary_phase_s - whole.boundary_phase_s)) < 1e-15
    assert np.max(np.abs(rc.period_s - whole.period_s)) < 1e-18


def test_cdr_requires_two_edges():
    clk = make_clock()
    stream = EdgeTrain(np.array([1e-6]))
    with pytest.raises(ValueError):
        cdr_track(stream, SYMBOL_RATE / 2000, clk)


# ---------------------------------------------------------------- sync pulses


def test_derive_sync_pulses_spacing():
    rc = _tracked(tx_offset=1e-6, symbols=200_000)
    sp = derive_sync_pulses(rc, DIVISOR)
    spacing = np.diff(sp.times_s)
    nominal = DIVISOR / SYMBOL_RATE
    assert abs(spacing.mean() - nominal * (1 + 1e-6)) < 1e-7 * nominal
    assert sp.step_spacing_s == pytest.approx(nominal)
    # the first pulse is the first divisor multiple at or after lock
    assert sp.boundary_step == DIVISOR
    b_lock = rc.boundary_index[rc.lock_index]
    assert (sp.first_pulse - 1) * DIVISOR < b_lock <= sp.first_pulse * DIVISOR


def test_decimate_derived_train_keeps_boundary_multiples():
    sp = derive_sync_pulses(_tracked(symbols=400_000), DIVISOR)
    b = boundaries(sp)
    assert b[0] % (4 * DIVISOR) != 0  # every 4th stored pulse would be the wrong set
    dec = sp.decimate(4)
    keep = b % (4 * DIVISOR) == 0
    assert np.array_equal(boundaries(dec), b[keep])
    assert np.array_equal(dec.times_s, sp.times_s[keep])
    assert np.array_equal(dec.locked, sp.locked[keep])
    assert dec.step_spacing_s == 4 * sp.step_spacing_s


def test_derive_sync_pulses_needs_lock():
    tx = make_clock()
    stream = modulate_ook(prbs31_bits(1, 40), tx)
    rc = cdr_track(stream, SYMBOL_RATE / 2000, make_clock(seed=9))
    with pytest.raises(NoLockError):
        derive_sync_pulses(rc, DIVISOR)


def test_sync_train_spacing_invariant_enforced():
    nominal = 1e-4
    far = np.arange(50) * nominal * (1 + 5e-4)  # 500 ppm off nominal
    pulse_train(far[1:], nominal)  # a train, or a window of one, may stray from nominal
    with pytest.raises(ValueError, match="boundary_step"):
        SyncPulseTrain(EdgeTrain(far), nominal, first_pulse=1, boundary_step=0,
                       locked=np.ones(far.size, dtype=bool))


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
NO_RESIDUAL = ("sync-read", 0.0)  # a readout with the CDR residual off


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
    (sp,) = synthesize_sync_train(tx, rx, 0.01, FULL_RATE, FULL_DIVISOR,
                                  seed=5, readouts=(NO_RESIDUAL,))
    expected = np.arange(len(sp)) * FULL_DIVISOR / FULL_RATE
    assert np.allclose(sp.times_s, expected, rtol=0, atol=1e-12)
    assert np.all(sp.locked)


def test_synthesize_block_free_runs_at_nominal_spacing():
    tx = _ideal_full_clock(1, offset=5e-7)
    rx = _ideal_full_clock(2, offset=-5e-7)
    block = (0.02, 0.04)
    (sp,) = synthesize_sync_train(tx, rx, 0.06, FULL_RATE, FULL_DIVISOR,
                                  seed=5, readouts=(NO_RESIDUAL,), blocks=(block,))
    t = sp.times_s
    inside = np.flatnonzero((t >= block[0]) & (t < block[1]))
    assert not np.any(sp.locked[inside])
    # free-running pulses tick at exactly the receiver's nominal spacing
    spacing = np.diff(t[inside])
    assert np.allclose(spacing, sp.step_spacing_s, rtol=0, atol=1e-12)
    # pulses degrade: the free-run train drifts away from where the true
    # boundaries would be read (tx runs at +5e-7, rx reads at 1/(1-5e-7))
    b = boundaries(sp)[inside].astype(np.float64)
    truth_reading = b / FULL_RATE * (1 + 5e-7) / (1 - 5e-7)
    drift = np.abs(t[inside] - truth_reading)
    assert drift[0] < 1e-9
    assert drift[-1] > 1.5e-8  # ~1e-6 relative over a 20 ms block


def _synthesized_reading_reference(tx, rx, duration_s, seed, blocks, delay_s, beta,
                                   relock_s=1e-5, sigma_s=90e-12):
    """Receiver readings of synthesize_sync_train with every pulse read,
    then the free-running ones overwritten by extrapolation."""
    n = int(np.floor(duration_s * FULL_RATE / FULL_DIVISOR))
    boundary = np.arange(n, dtype=np.int64) * FULL_DIVISOR
    emit = np.asarray(local_time(tx, boundary / FULL_RATE, jitter_index=boundary,
                                 jitter_stream="sync-emit"))
    arrival = (emit + delay_s) * (1.0 + beta)
    locked = np.ones(n, dtype=bool)
    for bs, be in blocks:
        locked &= ~((arrival >= bs) & (arrival < be + relock_s))
    reading = np.asarray(reading_time(rx, arrival, jitter_index=boundary,
                                      jitter_stream="sync-read"))
    reading = reading + sigma_s * rng.normal_at(rng.derive_key(seed, "cdr-residual"), boundary)
    idx = np.arange(n, dtype=np.int64)
    anchor = np.maximum.accumulate(np.where(locked, idx, -1))
    free = ~locked
    with_anchor = free & (anchor >= 0)
    reading[with_anchor] = reading[anchor[with_anchor]] + (
        idx[with_anchor] - anchor[with_anchor]) * (FULL_DIVISOR / FULL_RATE)
    no_anchor = free & (anchor < 0)
    reading[no_anchor] = idx[no_anchor] * (FULL_DIVISOR / FULL_RATE)
    return reading, locked


@pytest.mark.parametrize("block", [(0.02, 0.04), (0.0, 0.02), (0.04, 0.06)],
                         ids=["mid-stream", "from-start", "to-end"])
def test_synthesize_reads_only_locked_pulses_with_the_same_bits(block):
    tx = make_clock(offset=5e-7, jitter=30e-12, seed=1, rate=FULL_RATE)
    rx = make_clock(offset=-5e-7, jitter=30e-12, seed=2, rate=FULL_RATE)
    (sp,) = synthesize_sync_train(tx, rx, 0.06, FULL_RATE, FULL_DIVISOR, seed=5,
                                  propagation_delay_s=3e-6, doppler_beta=1e-6,
                                  blocks=(block,))
    reading, locked = _synthesized_reading_reference(tx, rx, 0.06, 5, (block,), 3e-6, 1e-6)
    assert 0 < np.count_nonzero(locked) < locked.size
    assert np.array_equal(sp.locked, locked)
    assert sp.times_s.tobytes() == reading.tobytes()


@pytest.mark.parametrize("block", [(0.0, 0.02), (0.0131, 0.0457)],
                         ids=["from-start", "across-blocks"])
def test_synthesize_in_small_blocks_gives_the_same_arrays(block):
    tx = make_clock(offset=5e-7, jitter=30e-12, seed=1, rate=FULL_RATE)
    rx = make_clock(offset=-5e-7, jitter=30e-12, seed=2, rate=FULL_RATE)

    def run(pulses=None, last_locked=(-1, ())):
        return synthesize_sync_train(tx, rx, 0.06135, FULL_RATE, FULL_DIVISOR, seed=5,
                                     readouts=(("sync-read", 90e-12), ("cable-read", 0.0)),
                                     propagation_delay_s=3e-6, blocks=(block,),
                                     pulses=pulses, last_locked=last_locked)

    whole = run()
    # 613 pulses in ranges of 12, each carrying the last locked reading
    # forward; the free run starts at t = 0 (no anchor) or inside a range
    # and goes on through later ones (anchor carried over)
    ranges, last_locked = [], (-1, ())
    for lo in range(0, 613, 12):
        trains = run(range(lo, min(lo + 12, 613)), last_locked)
        k = np.flatnonzero(trains[0].locked)
        if k.size:
            last_locked = (lo + k[-1], tuple(t.times_s[k[-1]] for t in trains))
        assert all(t.first_pulse == lo for t in trains)
        ranges.append(trains)
    assert len(whole[0]) == 613 and not whole[0].locked[int(block[0] * 1e4) + 1]
    for r, train in enumerate(whole):
        times = np.concatenate([trains[r].times_s for trains in ranges])
        locked = np.concatenate([trains[r].locked for trains in ranges])
        assert times.tobytes() == train.times_s.tobytes() and np.array_equal(locked, train.locked)
    assert (whole[0].first_pulse, whole[0].boundary_step) == (0, FULL_DIVISOR)


def test_synthesize_doppler_scales_times():
    tx = _ideal_full_clock(1)
    rx = _ideal_full_clock(2)
    (base,) = synthesize_sync_train(tx, rx, 0.01, FULL_RATE, FULL_DIVISOR,
                                    seed=5, readouts=(NO_RESIDUAL,))
    (shifted,) = synthesize_sync_train(tx, rx, 0.01, FULL_RATE, FULL_DIVISOR,
                                       seed=5, readouts=(NO_RESIDUAL,),
                                       doppler_beta=2e-5)
    assert np.allclose(shifted.times_s, base.times_s * (1 + 2e-5), rtol=0, atol=1e-12)


def test_synthesize_is_deterministic():
    tx = make_clock(offset=5e-7, jitter=30e-12, seed=1, rate=FULL_RATE)
    rx = make_clock(offset=-5e-7, jitter=30e-12, seed=2, rate=FULL_RATE)
    (a,) = synthesize_sync_train(tx, rx, 0.02, FULL_RATE, FULL_DIVISOR, seed=5)
    (b,) = synthesize_sync_train(tx, rx, 0.02, FULL_RATE, FULL_DIVISOR, seed=5)
    (c,) = synthesize_sync_train(tx, rx, 0.02, FULL_RATE, FULL_DIVISOR, seed=6)
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
    (synth,) = synthesize_sync_train(tx, rx, bits.size / rate, rate, divisor,
                                     seed=cfg["seed"], readouts=(NO_RESIDUAL,),
                                     propagation_delay_s=delay)
    common, i_loop, i_synth = np.intersect1d(boundaries(loop), boundaries(synth),
                                             return_indices=True)
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
