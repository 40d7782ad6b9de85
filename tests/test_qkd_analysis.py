"""Slot matching, anchor refinement, sifting, and QBER from per-bin counts."""

import numpy as np
import pytest

from qkdsync import rng
from qkdsync.classical_link import SyncPulseTrain
from qkdsync.qkd_analysis import (
    MatchedPairs,
    MatchingError,
    PhaseOffset,
    QberSeries,
    assign_slots,
    match_detections,
    recover_phase,
    refine_anchor,
    sift,
    RANDOM_INCOMPATIBLE_FRACTION,
)
from qkdsync.quantum_link import A, D, H, V, DetectionSet, QubitPattern, measure_polarization
from qkdsync.sync_recovery import DEFAULT_BIN_COUNT, FitError, fold, histogram
from qkdsync.timebase import EdgeTrain

DELTA_S = 1e-4
DELTA_Q = 20e-9
QUBIT_RATE = 50e6
SYMBOL_RATE = 1.25e9
DIVISOR = 125_000
SLOTS_PER_INTERVAL = 5000
RES = 1e-12  # picosecond ticks keep constructed times exact


def ideal_sync(n_pulses=60, first_pulse=1):
    b = (first_pulse + np.arange(n_pulses)) * DIVISOR
    return SyncPulseTrain(
        EdgeTrain(b / SYMBOL_RATE),
        DELTA_S,
        first_pulse=first_pulse,
        boundary_step=DIVISOR,
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
    _, z_err, _, x_err = sift(pairs)
    assert not z_err.any() and not x_err.any()
    # every detection sits within 1 ps of its slot center
    assert len(match_detections(ds, sync, phase, pat, **kwargs(window_s=2e-12))) == 2000


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
    # 3/7 and 1/pi of the symbol rate: 125000-symbol (100 us) sync
    # intervals then hold a non-integer number of qubit slots; the window
    # fits either slot
    for ratio in (3 / 7, 1 / np.pi):
        with pytest.raises(MatchingError, match="not commensurate"):
            match_detections(ds, sync, PhaseOffset(0.0), pat,
                             **kwargs(qubit_rate_hz=SYMBOL_RATE * ratio, window_s=1e-9))


def test_match_in_small_blocks_gives_the_pairs_of_one_block(monkeypatch):
    pat = QubitPattern.from_seed(13)
    gen = np.random.default_rng(5)
    sync = ideal_sync()
    # detections before the first pulse, after the last, outside the
    # window, and (at this slot origin) at negative slots
    slots = np.sort(gen.choice(np.arange(4_000, 302_000), 3_000, replace=False))
    in_slot = gen.uniform(3e-9, 8e-9, slots.size)
    ds = detections_for_slots(slots, pat.states(slots),
                              in_slot + np.where(gen.random(slots.size) < 0.1, 1.6e-9, 0.0))
    phase = PhaseOffset(5.5e-9, -5_100)
    whole = match_detections(ds, sync, phase, pat, **kwargs(window_s=2e-9))
    monkeypatch.setattr(rng, "BLOCK_EVENTS", 97)
    blocked = match_detections(ds, sync, phase, pat, **kwargs(window_s=2e-9))
    assert 0 < len(whole) < len(ds) - 300
    assert blocked.n_unmatched == whole.n_unmatched == len(ds) - len(whole)
    for name in ("slot", "detector", "sent", "source_index"):
        assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes(), name


# ---------------------------------------------------------------- phase/anchor


def test_recover_phase_from_folded_values():
    gen = np.random.default_rng(8)
    vals = np.mod(gen.normal(7e-9, 0.4e-9, 50_000), DELTA_Q)
    phase = recover_phase(histogram(fold(vals, DELTA_Q), DELTA_Q, DEFAULT_BIN_COUNT))
    assert phase.offset_s == pytest.approx(7e-9, abs=30e-12)
    assert phase.slot_origin == 0


def test_recover_phase_propagates_fit_failure():
    gen = np.random.default_rng(8)
    vals = gen.uniform(0, DELTA_Q, 10_000)
    with pytest.raises(FitError):
        recover_phase(histogram(fold(vals, DELTA_Q), DELTA_Q, DEFAULT_BIN_COUNT))


def _error_fraction(pairs):
    """Share of pairs sifted as errors: exactly the pairs impossible at
    zero error rate, which the anchor scan scores."""
    _, z_err, _, x_err = sift(pairs)
    return (np.count_nonzero(z_err) + np.count_nonzero(x_err)) / len(pairs)


def test_refine_anchor_scores_wrong_shifts_as_random_pairs():
    pat = QubitPattern.from_seed(33)
    gen = np.random.default_rng(6)
    first_slot = DIVISOR // 25
    slots = np.sort(gen.choice(np.arange(first_slot, first_slot + 59 * SLOTS_PER_INTERVAL),
                               size=20_000, replace=False))
    ds = detections_for_slots(slots, measure_polarization(pat.states(slots), gen))
    _, scan = refine_anchor(ds, ideal_sync(), PhaseOffset(5e-9), pat,
                            search_slots=10, sample_size=20_000, **kwargs())
    wrong = scan.incompatibility[scan.shifts != 0]
    assert scan.best_shift == 0 and scan.incompatibility[scan.shifts == 0] == 0.0
    # a wrong shift pairs each click with an independent state
    assert np.median(wrong) == pytest.approx(RANDOM_INCOMPATIBLE_FRACTION, abs=0.02)


def test_refine_anchor_finds_planted_shift():
    pat = QubitPattern.from_seed(44)
    gen = np.random.default_rng(9)
    sync = ideal_sync()
    first_slot = DIVISOR // 25
    true_slots = np.sort(gen.choice(
        np.arange(first_slot, first_slot + 59 * SLOTS_PER_INTERVAL),
        size=3000, replace=False))
    det = measure_polarization(pat.states(true_slots), gen)
    # the optical path delays every qubit by exactly 7 slots
    ds = detections_for_slots(true_slots + 7, det)
    phase = PhaseOffset(offset_s=5e-9)
    refined, scan = refine_anchor(ds, sync, phase, pat, search_slots=15, **kwargs())
    assert refined.slot_origin == -7
    assert scan.best_shift == -7
    assert scan.margin > 0.05
    pairs = match_detections(ds, sync, refined, pat, **kwargs())
    _, z_err, _, x_err = sift(pairs)
    assert not z_err.any() and not x_err.any()


def test_refine_anchor_scores_equal_a_match_per_shift():
    pat = QubitPattern.from_seed(44)
    gen = np.random.default_rng(2)
    sync = ideal_sync(first_pulse=0)
    slots = np.arange(41)  # negative shifts push the early slots below 0
    ds = detections_for_slots(slots, measure_polarization(pat.states(slots), gen))
    phase = PhaseOffset(offset_s=5e-9)
    _, scan = refine_anchor(ds, sync, phase, pat, search_slots=15, **kwargs())
    per_shift = [
        _error_fraction(match_detections(ds, sync, PhaseOffset(5e-9, int(d)), pat, **kwargs()))
        for d in scan.shifts
    ]
    assert scan.shifts.tolist() == list(range(-15, 16))
    assert np.array_equal(scan.incompatibility, per_shift)
    assert scan.best_shift == 0


@pytest.mark.parametrize("search_slots", [0, 1, 50])
@pytest.mark.parametrize("n_slots", [41, 600], ids=["rows-per-block", "one-row-per-block"])
def test_refine_anchor_in_blocks_equals_the_whole_array_scan(search_slots, n_slots, monkeypatch):
    monkeypatch.setattr(rng, "BLOCK_EVENTS", 97)
    pat = QubitPattern.from_seed(44)
    gen = np.random.default_rng(6)
    sync = ideal_sync(first_pulse=0)
    slots = np.sort(gen.choice(np.arange(3 * n_slots), size=n_slots, replace=False))
    ds = detections_for_slots(slots, measure_polarization(pat.states(slots), gen))
    phase = PhaseOffset(offset_s=5e-9)
    _, scan = refine_anchor(ds, sync, phase, pat, search_slots=search_slots, **kwargs())

    # the whole shifts x pairs array at once
    pairs = match_detections(ds, sync, PhaseOffset(5e-9, search_slots), pat, **kwargs())
    assert (4 * rng.BLOCK_EVENTS // len(pairs) == 0) == (n_slots > 4 * 97)
    shifts = np.arange(-search_slots, search_slots + 1)
    slot = pairs.slot[None, :] + (shifts - search_slots)[:, None]
    kept = slot >= 0
    bad = kept & ((pat.states(np.maximum(slot, 0)) == H) & (pairs.detector == V)
                  | (pat.states(np.maximum(slot, 0)) == V) & (pairs.detector == H)
                  | (pat.states(np.maximum(slot, 0)) == D) & (pairs.detector == A))
    scores = np.count_nonzero(bad, axis=1) / np.count_nonzero(kept, axis=1)
    best = int(np.nanargmin(scores))
    others = np.delete(scores, best)
    margin = np.nanmin(others) - scores[best] if others.size else float("nan")

    assert scan.incompatibility.tobytes() == scores.tobytes()
    assert scan.best_shift == shifts[best] == 0
    assert np.array_equal(scan.margin, margin, equal_nan=True)


# -------------------------------------------------------------- sifting / QBER


def _pairs(sent, detector):
    sent = np.asarray(sent, dtype=np.int8)
    det = np.asarray(detector, dtype=np.int8)
    n = sent.size
    return MatchedPairs(slot=np.arange(n), detector=det, sent=sent,
                        source_index=np.arange(n), n_unmatched=0)


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


def _counts(pairs):
    """(n_z, e_z, n_x, e_x) of the pairs: one bin's sifted counts."""
    return [np.count_nonzero(mask) for mask in sift(pairs)]


def test_compute_qber_exact_fractions():
    sent = [H] * 8 + [D] * 4
    det = [H] * 6 + [V] * 2 + [D] * 3 + [A]
    # every pair in bin 0; bin 1 is empty
    counts = np.array([_counts(_pairs(sent, det)), [0, 0, 0, 0]]).T
    series = QberSeries.from_counts(np.arange(2.0), 1.0, *counts)
    assert len(series) == 2
    assert series.n_z[0] == 8 and series.qber_z[0] == pytest.approx(0.25)
    assert series.n_x[0] == 4 and series.qber_x[0] == pytest.approx(0.25)
    assert series.n_z[1] == 0 and np.isnan(series.qber_z[1])


def test_compute_qber_csv(tmp_path):
    # a Z error in bin 0, an X error in bin 1, nothing in bin 2
    counts = np.array([_counts(_pairs([H], [V])), _counts(_pairs([D], [A])), [0, 0, 0, 0]]).T
    series = QberSeries.from_counts(np.arange(3.0), 1.0, *counts)
    path = tmp_path / "qber.csv"
    series.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_bin_s,qber_z,qber_x,n_z,n_x"
    assert lines[1] == "0.000000,1.000000,nan,1,0"
    assert lines[2] == "1.000000,nan,1.000000,0,1"
    assert lines[3] == "2.000000,nan,nan,0,0"


def test_compute_qber_validates_inputs():
    zeros = np.zeros(1, dtype=np.int64)
    for width in (0.0, -1.0):
        with pytest.raises(ValueError):
            QberSeries.from_counts(np.zeros(1), width, zeros, zeros, zeros, zeros)
