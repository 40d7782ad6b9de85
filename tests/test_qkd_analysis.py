"""Slot matching, anchor refinement, sifting, and QBER binning."""

import numpy as np
import pytest

from qkdsync.classical_link import SyncPulseTrain
from qkdsync.qkd_analysis import (
    MatchedPairs,
    MatchingError,
    PhaseOffset,
    assign_slots,
    compute_qber,
    incompatible_fraction,
    match_detections,
    recover_phase,
    refine_anchor,
    sift,
    RANDOM_INCOMPATIBLE_FRACTION,
)
from qkdsync.quantum_link import A, D, H, V, X, Z, DetectionSet, QubitPattern
from qkdsync.sync_recovery import FitError, fold
from qkdsync.timebase import EdgeTrain

DELTA_S = 1e-4
DELTA_Q = 20e-9
QUBIT_RATE = 50e6
SYMBOL_RATE = 1.25e9
DIVISOR = 125_000
SLOTS_PER_INTERVAL = 5000
RES = 1e-12  # picosecond ticks keep constructed times exact


def ideal_sync(n_pulses=60, start_boundary=DIVISOR):
    b = start_boundary + np.arange(n_pulses) * DIVISOR
    return SyncPulseTrain(
        EdgeTrain(b / SYMBOL_RATE),
        DELTA_S,
        pulse_boundary_index=b,
        locked=np.ones(n_pulses, dtype=bool),
    )


def detections_for_slots(slots, detector, offset_in_slot=5e-9):
    t = slots * DELTA_Q + offset_in_slot
    order = np.argsort(t, kind="stable")
    return DetectionSet(
        ticks=np.rint(t[order] / RES).astype(np.int64),
        detector=np.asarray(detector, dtype=np.int8)[order],
        tdc_resolution_s=RES,
    )


def kwargs(**over):
    base = dict(
        qubit_rate_hz=QUBIT_RATE,
        symbol_rate_hz=SYMBOL_RATE,
        window_s=DELTA_Q,
    )
    base.update(over)
    return base


# ------------------------------------------------------------- slot assignment


def test_assign_slots_rounds_half_even():
    # delta_q = 1 keeps every value exactly representable
    k, resid = assign_slots(np.array([0.5, 1.5, 2.5, 3.5, -0.5]), 0.0, 1.0)
    assert k.tolist() == [0, 2, 2, 4, 0]
    assert np.allclose(np.abs(resid), 0.5)


def test_assign_slots_applies_offset():
    k, resid = assign_slots(np.array([10.2, 11.1]), 0.2, 1.0)
    assert k.tolist() == [10, 11]
    assert resid == pytest.approx([0.0, -0.1])


# ------------------------------------------------------------------- matching


def test_match_finds_planted_slots():
    pat = QubitPattern.from_seed(21)
    gen = np.random.default_rng(5)
    sync = ideal_sync()
    first_slot = DIVISOR // 25  # slot count at the first sync pulse
    slots = np.sort(gen.choice(
        np.arange(first_slot, first_slot + 59 * SLOTS_PER_INTERVAL),
        size=2000, replace=False))
    sent = pat.states(slots)
    # detector = sent state measured in its own basis (no errors)
    ds = detections_for_slots(slots, sent)
    phase = PhaseOffset(offset_s=5e-9)
    pairs = match_detections(ds, sync, phase, pat, **kwargs())
    assert len(pairs) == 2000
    assert pairs.n_unmatched == 0
    assert np.array_equal(np.sort(pairs.slot), slots)
    assert np.array_equal(pairs.sent, pat.states(pairs.slot))
    assert np.all(np.abs(pairs.residual_s) < 1e-12)
    assert incompatible_fraction(pairs) == 0.0


def test_match_window_rejects_outliers():
    pat = QubitPattern.from_seed(21)
    sync = ideal_sync()
    first_slot = DIVISOR // 25
    slots = first_slot + np.array([10, 20, 30])
    t = slots * DELTA_Q + np.array([5e-9, 5e-9, 8e-9])  # last one 3 ns off-center
    ds = DetectionSet(ticks=np.rint(t / RES).astype(np.int64),
                      detector=np.zeros(3, dtype=np.int8), tdc_resolution_s=RES)
    phase = PhaseOffset(offset_s=5e-9)
    pairs = match_detections(ds, sync, phase, pat, **kwargs(window_s=2e-9))
    assert len(pairs) == 2
    assert pairs.n_unmatched == 1


def test_match_slot_origin_shifts_lookup():
    pat = QubitPattern.from_seed(3)
    sync = ideal_sync()
    first_slot = DIVISOR // 25
    slots = first_slot + np.arange(100)
    ds = detections_for_slots(slots, np.zeros(100))
    for origin in (-3, 0, 11):
        pairs = match_detections(ds, sync, PhaseOffset(5e-9, origin), pat, **kwargs())
        assert np.array_equal(np.sort(pairs.slot), slots + origin)


def test_match_rejects_bad_window_and_rates():
    pat = QubitPattern.from_seed(3)
    sync = ideal_sync()
    ds = detections_for_slots(np.array([DIVISOR // 25 + 5]), [0])
    with pytest.raises(MatchingError, match="window must be in"):
        match_detections(ds, sync, PhaseOffset(0.0), pat, **kwargs(window_s=0.0))
    with pytest.raises(MatchingError, match="window must be in"):
        match_detections(ds, sync, PhaseOffset(0.0), pat, **kwargs(window_s=3 * DELTA_Q))
    with pytest.raises(MatchingError, match="do not land on qubit slots"):
        # 3/7 of the symbol rate: 125000-symbol sync intervals then hold a
        # non-integer number of qubit slots; the window fits the 1.87 ns slot
        match_detections(ds, sync, PhaseOffset(0.0), pat,
                         **kwargs(qubit_rate_hz=SYMBOL_RATE * 3 / 7, window_s=1e-9))


def test_match_per_detection_offsets_equal_per_segment_calls():
    pat = QubitPattern.from_seed(12)
    gen = np.random.default_rng(4)
    sync = ideal_sync()
    first_slot = DIVISOR // 25
    # three time-ordered segments, each at its own in-slot phase; the
    # first starts before the first sync pulse, and some detections sit
    # outside the 2 ns window
    segments = []
    for lo, phase in ((first_slot - 50, 4e-9), (first_slot + 20_000, 5.5e-9),
                      (first_slot + 90_000, 7e-9)):
        slots = np.sort(gen.choice(np.arange(lo, lo + 10_000), 300, replace=False))
        jitter = np.where(gen.random(slots.size) < 0.1, 1.6e-9, 0.0)
        segments.append(detections_for_slots(slots, pat.states(slots), phase + jitter))
    whole = DetectionSet(ticks=np.concatenate([d.ticks for d in segments]),
                         detector=np.concatenate([d.detector for d in segments]),
                         tdc_resolution_s=RES)
    phases = (4e-9, 5.5e-9, 7e-9)
    offset = np.repeat(phases, [len(d) for d in segments])
    got = match_detections(whole, sync, PhaseOffset(offset, 3), pat, **kwargs(window_s=2e-9))

    parts = [match_detections(d, sync, PhaseOffset(p, 3), pat, **kwargs(window_s=2e-9))
             for d, p in zip(segments, phases)]
    starts = np.cumsum([0] + [len(d) for d in segments[:-1]])
    assert got.n_unmatched == sum(p.n_unmatched for p in parts) > 0
    assert np.array_equal(got.source_index,
                          np.concatenate([p.source_index + s for p, s in zip(parts, starts)]))
    for name in ("slot", "detector", "sent", "basis", "time_s", "residual_s"):
        assert np.array_equal(getattr(got, name),
                              np.concatenate([getattr(p, name) for p in parts])), name


def test_match_after_a_missing_sync_pulse_keeps_slots():
    pat = QubitPattern.from_seed(5)
    # long enough that one missing pulse keeps the mean spacing nominal
    full = ideal_sync(n_pulses=20_001)
    keep = np.arange(len(full)) != 3
    gapped = SyncPulseTrain(EdgeTrain(full.times_s[keep]), DELTA_S,
                            pulse_boundary_index=full.pulse_boundary_index[keep],
                            locked=full.locked[keep])
    # slots from the pulse after the gap on
    slots = DIVISOR // 25 + 4 * SLOTS_PER_INTERVAL + np.arange(0, 3 * SLOTS_PER_INTERVAL, 7)
    ds = detections_for_slots(slots, pat.states(slots))
    for sync in (full, gapped):
        pairs = match_detections(ds, sync, PhaseOffset(5e-9), pat, **kwargs())
        assert np.array_equal(pairs.slot, slots)


def test_match_rejects_offsets_of_the_wrong_length():
    pat = QubitPattern.from_seed(3)
    ds = detections_for_slots(DIVISOR // 25 + np.arange(4), np.zeros(4))
    with pytest.raises(MatchingError):
        match_detections(ds, ideal_sync(), PhaseOffset(np.full(3, 5e-9)), pat, **kwargs())


def test_match_rejects_misaligned_sync_boundaries():
    pat = QubitPattern.from_seed(3)
    b = 7 + np.arange(60) * DIVISOR  # boundaries off the qubit-slot grid
    sync = SyncPulseTrain(EdgeTrain(b / SYMBOL_RATE), DELTA_S, pulse_boundary_index=b,
                          locked=np.ones(b.size, dtype=bool))
    ds = detections_for_slots(np.array([DIVISOR // 25 + 5]), [0])
    with pytest.raises(MatchingError):
        match_detections(ds, sync, PhaseOffset(0.0), pat, **kwargs())


# ---------------------------------------------------------------- phase/anchor


def test_recover_phase_from_folded_values():
    gen = np.random.default_rng(8)
    vals = np.mod(gen.normal(7e-9, 0.4e-9, 50_000), DELTA_Q)
    phase = recover_phase(fold(vals, DELTA_Q))
    assert phase.offset_s == pytest.approx(7e-9, abs=30e-12)
    assert phase.slot_origin == 0
    assert phase.confidence > 3


def test_recover_phase_propagates_fit_failure():
    gen = np.random.default_rng(8)
    vals = gen.uniform(0, DELTA_Q, 10_000)
    with pytest.raises(FitError):
        recover_phase(fold(vals, DELTA_Q))


def test_incompatible_fraction_of_random_pairs():
    pat = QubitPattern.from_seed(33)
    gen = np.random.default_rng(6)
    n = 40_000
    sent_true = pat.states(np.arange(n))
    from qkdsync.quantum_link import measure_polarization
    det = measure_polarization(sent_true, gen)
    wrong_slots = np.arange(n) + 12345  # independent states
    pairs = MatchedPairs(
        slot=wrong_slots, detector=det, sent=pat.states(wrong_slots),
        basis=np.zeros(n, dtype=np.int8), time_s=np.zeros(n),
        residual_s=np.zeros(n), source_index=np.arange(n), n_unmatched=0)
    frac = incompatible_fraction(pairs)
    assert frac == pytest.approx(RANDOM_INCOMPATIBLE_FRACTION, abs=0.01)


def test_refine_anchor_finds_planted_shift():
    pat = QubitPattern.from_seed(44)
    gen = np.random.default_rng(9)
    sync = ideal_sync()
    first_slot = DIVISOR // 25
    true_slots = np.sort(gen.choice(
        np.arange(first_slot, first_slot + 59 * SLOTS_PER_INTERVAL),
        size=3000, replace=False))
    from qkdsync.quantum_link import measure_polarization
    det = measure_polarization(pat.states(true_slots), gen)
    # the optical path delays every qubit by exactly 7 slots
    ds = detections_for_slots(true_slots + 7, det)
    phase = PhaseOffset(offset_s=5e-9)
    refined, scan = refine_anchor(ds, sync, phase, pat, search_slots=15, **kwargs())
    assert refined.slot_origin == -7
    assert scan.best_shift == -7
    assert scan.margin > 0.05
    pairs = match_detections(ds, sync, refined, pat, **kwargs())
    assert incompatible_fraction(pairs) == 0.0


def test_refine_anchor_scores_equal_a_match_per_shift():
    pat = QubitPattern.from_seed(44)
    gen = np.random.default_rng(2)
    sync = ideal_sync(start_boundary=0)
    slots = np.arange(41)  # negative shifts push the early slots below 0
    from qkdsync.quantum_link import measure_polarization
    ds = detections_for_slots(slots, measure_polarization(pat.states(slots), gen))
    phase = PhaseOffset(offset_s=5e-9)
    _, scan = refine_anchor(ds, sync, phase, pat, search_slots=15, **kwargs())
    per_shift = [
        incompatible_fraction(match_detections(
            ds, sync, PhaseOffset(5e-9, int(d)), pat, **kwargs()))
        for d in scan.shifts
    ]
    assert scan.shifts.tolist() == list(range(-15, 16))
    assert np.array_equal(scan.incompatibility, per_shift)
    assert scan.best_shift == 0


# -------------------------------------------------------------- sifting / QBER


def _pairs(sent, detector, time_s=None):
    sent = np.asarray(sent, dtype=np.int8)
    det = np.asarray(detector, dtype=np.int8)
    n = sent.size
    return MatchedPairs(
        slot=np.arange(n), detector=det, sent=sent,
        basis=np.where(det < D, Z, X).astype(np.int8),
        time_s=np.zeros(n) if time_s is None else np.asarray(time_s, dtype=float),
        residual_s=np.zeros(n), source_index=np.arange(n), n_unmatched=0)


def test_sift_masks():
    #         sent:  H  H  V  D  D  D  H
    #     detector:  H  V  H  D  A  H  D
    pairs = _pairs([H, H, V, D, D, D, H], [H, V, H, D, A, H, D])
    z_keep, z_err, x_keep, x_err = sift(pairs)
    # Z sifting keeps sent H/V measured in Z; entry 5 (sent D, measured Z)
    # and entry 6 (sent H, measured X) are basis-mismatched and discarded
    assert z_keep.tolist() == [True, True, True, False, False, False, False]
    assert z_err.tolist() == [False, True, True, False, False, False, False]
    # X sifting keeps sent D measured in X: entries 3 (D->D ok), 4 (D->A error)
    assert x_keep.tolist() == [False, False, False, True, True, False, False]
    assert x_err.tolist() == [False, False, False, False, True, False, False]


def test_compute_qber_exact_fractions():
    sent = [H] * 8 + [D] * 4
    det = [H] * 6 + [V] * 2 + [D] * 3 + [A]
    t = [0.5] * 12
    series = compute_qber(_pairs(sent, det, t), duration_s=2.0, bin_width_s=1.0)
    assert len(series) == 2
    assert series.n_z[0] == 8 and series.qber_z[0] == pytest.approx(0.25)
    assert series.n_x[0] == 4 and series.qber_x[0] == pytest.approx(0.25)
    assert series.n_z[1] == 0 and np.isnan(series.qber_z[1])


def test_compute_qber_csv(tmp_path):
    series = compute_qber(_pairs([H, D], [V, A], [0.2, 1.7]),
                          duration_s=3.0, bin_width_s=1.0)
    path = tmp_path / "qber.csv"
    series.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_bin_s,qber_z,qber_x,n_z,n_x"
    assert lines[1] == "0.000000,1.000000,nan,1,0"
    assert lines[2] == "1.000000,nan,1.000000,0,1"
    assert lines[3] == "3.000000,nan,nan,0,0".replace("3.000000", "2.000000")


def test_compute_qber_validates_inputs():
    with pytest.raises(ValueError):
        compute_qber(_pairs([H], [H]), duration_s=0.0)
    with pytest.raises(ValueError):
        compute_qber(_pairs([H], [H]), duration_s=1.0, bin_width_s=-1.0)
